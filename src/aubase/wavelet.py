"""Orthonormal db8 discrete wavelet transform with periodic boundaries.

The decomposition is the classic two-channel filter bank: at each level the
working signal is correlated with the scaling filter h and the wavelet filter
g, both downsampled by two, with indices wrapped modulo the working length.
The method uses one wavelet, Daubechies 8, so the filters are the module
constants DB8_H and DB8_G.
The synthesis pass is the exact adjoint, so the transform is orthonormal and
conserves energy to rounding error.

Feature extraction keeps only the deepest approximation coefficients. By
the noble identity of multirate filter banks, L levels of filtering with h
and downsampling by 2 are one correlation with the level-L composite filter
and downsampling by 2^L, so extract_features makes that one pass, in
polyphase form, with the filter's polyphase form built once per level. It
agrees with the cascade to rounding (about 1e-15 of the largest
coefficient), not bitwise. No record is copied: the product reads each
record's full chunks as a reshaped view, and only its zero pad and
periodic head are gathered. A caller that features many records passes
them as one list, so they need not be stacked either.
The decomposition depth can be chosen per signal by minimizing the Shannon
entropy of the approximation; select_level needs every level's
approximation, so it runs the cascade with the h channel alone, and scores
each level's block of approximations in one vectorized entropy pass that
gives the same bits as shannon_entropy row by row (so the scan runs in numpy
with the interpreter lock released, not in a Python loop per row). dwt and
idwt keep the cascade as the reference transform. Feature extraction and
level selection take one signal or a 2-D (records, samples) block of
equal-length signals, and feature extraction also a list of equal-length
1-D records; a block row gives the same bits as that signal on its own.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import InvalidArgumentError

# Daubechies 8-vanishing-moment scaling filter (16 taps), computed once by
# spectral factorization at 60-digit precision and rounded to float64. The
# unit tests re-derive sum(h) = sqrt(2), unit energy, even-shift
# orthogonality, and perfect reconstruction rather than trusting the digits.
DB8_H = np.array([
    0.0544158422431040099550,
    0.312871590914299970659,
    0.675630736297289806808,
    0.585354683654206712771,
    -0.0158291052563493056674,
    -0.284015542961546926516,
    0.000472484573913282770361,
    0.128747426620478458857,
    -0.0173693010018075461696,
    -0.0440882539307947515068,
    0.0139810279173982816487,
    0.00874609404740577671638,
    -0.00487035299345157431042,
    -0.000391740373376947046298,
    0.000675449406450569366370,
    -0.000117476784124769533731,
])

# Its quadrature mirror, the wavelet filter: g[k] = (-1)^k h[15 - k]. Both
# filters are read-only, so the polyphase forms cached per level below
# always match them.
DB8_G = np.where(np.arange(16) % 2 == 0, 1.0, -1.0) * DB8_H[::-1]
DB8_H.flags.writeable = False
DB8_G.flags.writeable = False

DEFAULT_MAX_LEVEL = 8


@dataclass
class WaveletDecomposition:
    level: int
    approx: np.ndarray
    details: list  # detail coefficients per level, level 1 first
    boundary: str
    original_length: int


def _check_shape(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2) or x.size == 0:
        raise InvalidArgumentError(
            "signal must be a nonempty 1-D array or 2-D (records, samples) block"
        )
    return x


def _check_signal(x: np.ndarray) -> np.ndarray:
    x = _check_shape(x)
    if not np.all(np.isfinite(x)):
        raise InvalidArgumentError("signal contains non-finite samples")
    return x


def _zero_pad(x: np.ndarray, length: int) -> np.ndarray:
    """x with zeros appended along its last axis up to length samples."""
    if x.shape[-1] == length:
        return x
    return np.concatenate([x, np.zeros(x.shape[:-1] + (length - x.shape[-1],))], axis=-1)


def dwt(x: np.ndarray, level: int) -> WaveletDecomposition:
    """Decompose x down to the given level. len(x) must be divisible by 2^level."""
    x = _check_signal(x)
    if x.ndim != 1:
        raise InvalidArgumentError("dwt decomposes one 1-D signal")
    if level < 1:
        raise InvalidArgumentError(f"level must be >= 1, got {level}")
    n = x.shape[0]
    if n % (1 << level) != 0:
        raise InvalidArgumentError(
            f"signal length {n} is not divisible by 2^{level}; pad first "
            "(extract_features does this automatically)"
        )
    approx = x
    details = []
    for _ in range(level):
        details.append(_kernels.analysis_level(approx, DB8_G))
        approx = _kernels.analysis_level(approx, DB8_H)
    return WaveletDecomposition(
        level=level,
        approx=approx,
        details=details,
        boundary="periodic",
        original_length=n,
    )


def idwt(decomp: WaveletDecomposition) -> np.ndarray:
    """Invert a decomposition; exact up to rounding because the bank is orthonormal."""
    x = decomp.approx
    for d in reversed(decomp.details):
        if d.shape != x.shape:
            raise InvalidArgumentError("inconsistent coefficient lengths in decomposition")
        x = _kernels.idwt_level(x, d, DB8_H, DB8_G)
    if x.shape[0] != decomp.original_length:
        raise InvalidArgumentError("decomposition does not match its recorded length")
    return x


def shannon_entropy(coeffs: np.ndarray) -> float:
    """Entropy of the energy distribution: -sum p*ln(p), p_i = c_i^2 / sum c^2."""
    c = np.asarray(coeffs, dtype=float)
    if c.size == 0:
        raise InvalidArgumentError("entropy of empty coefficient vector")
    energy = c * c
    total = energy.sum()
    if total <= 0.0:
        raise InvalidArgumentError("entropy undefined for all-zero coefficients")
    p = energy / total
    nz = p[p > 0.0]
    return float(-(nz * np.log(nz)).sum())


def _block_entropies(rows: np.ndarray) -> np.ndarray:
    """shannon_entropy of every row of a 2-D block, bit for bit, in one
    vectorized pass.

    The pass sums each row's terms in the same pairwise grouping as the
    per-row function. That holds only when no share is zero: shannon_entropy
    drops zero shares before it sums, which regroups the terms. So rows with
    a zero share, or a zero total (which shannon_entropy refuses), go through
    shannon_entropy itself.
    """
    p = rows * rows
    with np.errstate(divide="ignore", invalid="ignore"):
        p /= p.sum(axis=1, keepdims=True)
        lp = np.log(p)
        lp *= p
    ent = -lp.sum(axis=1)
    for i in np.flatnonzero(~np.all(p > 0.0, axis=1)):
        ent[i] = shannon_entropy(rows[i])
    return ent


def extract_features(x, level: int) -> np.ndarray:
    """Approximation coefficients at the given level, zero-padding the tail
    to the next multiple of 2^level when the length requires it.

    One stride-2^level correlation of the padded record with the level's
    composite filter, which equals the level-by-level cascade of dwt up to
    rounding. x is one signal, a (records, samples) block or a list of
    equal-length 1-D records, read in place; the result of a block or list
    has one row of coefficients per record.
    """
    if isinstance(x, (list, tuple)) and x and all(np.ndim(r) == 1 for r in x):
        rows, ndim = [_check_shape(r) for r in x], 2
        if len({r.shape for r in rows}) != 1:
            raise InvalidArgumentError("records must share one sample length")
    else:
        x = _check_shape(x)
        rows, ndim = x.reshape(-1, x.shape[-1]), x.ndim
    if level < 1:
        raise InvalidArgumentError(f"level must be >= 1, got {level}")
    # a non-finite sample makes some feature of its record non-finite, so
    # the samples need checking only then (and are refused, not warned
    # about); a finite record whose features overflow is accepted
    with np.errstate(invalid="ignore"):
        out = _kernels.decimated_correlation(rows, _polyphase_filter(level))
    if not np.all(np.isfinite(out)):
        for r in rows:
            _check_signal(r)
    return out[0] if ndim == 1 else out


@functools.lru_cache(maxsize=16)
def _polyphase_filter(level: int) -> np.ndarray:
    """Read-only (2^level, P) polyphase form of the level-`level` composite
    of DB8_H; built once per level."""
    c = _kernels.composite_filter(DB8_H, level)
    block = 1 << level
    taps = -(-c.shape[0] // block)
    phases = np.zeros(taps * block)
    phases[:c.shape[0]] = c
    phases = np.ascontiguousarray(phases.reshape(taps, block).T)
    phases.flags.writeable = False
    return phases


def select_level(x: np.ndarray, max_level: int = DEFAULT_MAX_LEVEL):
    """Decomposition depth whose approximation has minimum Shannon entropy.

    Levels 1..max_level are scanned (capped so at least one coefficient
    remains); ties resolve toward the larger level. Each level sees the
    signal zero-padded as extract_features pads it, so levels that share a
    padded length share one DWT cascade and read their approximations off
    it in turn.

    x is one signal, giving an int, or a (records, samples) block, giving
    an int array with one level per record.
    """
    x = _check_signal(x)
    if max_level < 1:
        raise InvalidArgumentError(f"max_level must be >= 1, got {max_level}")
    rows = x.reshape(-1, x.shape[-1])
    n = rows.shape[1]
    cap = min(max_level, int(np.floor(np.log2(n))))
    if cap < 1:
        raise InvalidArgumentError("signal too short for any decomposition level")
    best_level = np.ones(rows.shape[0], dtype=int)
    best_entropy = np.full(rows.shape[0], np.inf)
    approx, padded = rows, n
    for lvl in range(1, cap + 1):
        block = 1 << lvl
        target = -(-n // block) * block
        if target != padded:
            # this level needs a longer zero padding: restart the cascade
            padded = target
            approx = _zero_pad(rows, target)
            for _ in range(lvl - 1):
                approx = _kernels.analysis_level(approx, DB8_H)
        approx = _kernels.analysis_level(approx, DB8_H)
        ent = _block_entropies(approx)
        deeper = ent <= best_entropy
        best_entropy[deeper] = ent[deeper]
        best_level[deeper] = lvl
    return int(best_level[0]) if x.ndim == 1 else best_level
