"""Orthonormal discrete wavelet transform with periodic boundaries.

The decomposition is the classic two-channel filter bank: at each level the
working signal is correlated with the scaling filter h and the wavelet filter
g, both downsampled by two, with indices wrapped modulo the working length.
The synthesis pass is the exact adjoint, so the transform is orthonormal and
conserves energy to rounding error.

Feature extraction keeps only the deepest approximation coefficients; the
decomposition depth can be chosen per signal by minimizing the Shannon
entropy of those coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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

DEFAULT_MAX_LEVEL = 8


def quadrature_mirror(h: np.ndarray) -> np.ndarray:
    """Wavelet filter from a scaling filter: g[k] = (-1)^k h[L-1-k]."""
    taps = len(h)
    signs = np.where(np.arange(taps) % 2 == 0, 1.0, -1.0)
    return signs * h[::-1]


@dataclass(frozen=True)
class WaveletFilterBank:
    """Analysis filter pair for an orthonormal two-channel bank."""

    name: str
    h: np.ndarray
    g: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.g is None:
            object.__setattr__(self, "g", quadrature_mirror(self.h))


def db8() -> WaveletFilterBank:
    return WaveletFilterBank(name="db8", h=DB8_H.copy())


@dataclass
class WaveletDecomposition:
    level: int
    approx: np.ndarray
    details: list  # detail coefficients per level, level 1 first
    boundary: str
    original_length: int


def _check_signal(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise InvalidArgumentError("signal must be a nonempty 1-D array")
    if not np.all(np.isfinite(x)):
        raise InvalidArgumentError("signal contains non-finite samples")
    return x


def dwt(x: np.ndarray, level: int, bank: WaveletFilterBank | None = None) -> WaveletDecomposition:
    """Decompose x down to the given level. len(x) must be divisible by 2^level."""
    x = _check_signal(x)
    bank = bank or db8()
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
        approx, d = _kernels.dwt_level(approx, bank.h, bank.g)
        details.append(d)
    return WaveletDecomposition(
        level=level,
        approx=approx,
        details=details,
        boundary="periodic",
        original_length=n,
    )


def idwt(decomp: WaveletDecomposition, bank: WaveletFilterBank | None = None) -> np.ndarray:
    """Invert a decomposition; exact up to rounding because the bank is orthonormal."""
    bank = bank or db8()
    x = decomp.approx
    for d in reversed(decomp.details):
        if d.shape != x.shape:
            raise InvalidArgumentError("inconsistent coefficient lengths in decomposition")
        x = _kernels.idwt_level(x, d, bank.h, bank.g)
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


def extract_features(
    x: np.ndarray,
    level: int,
    bank: WaveletFilterBank | None = None,
) -> np.ndarray:
    """Approximation coefficients at the given level, zero-padding the tail
    to the next multiple of 2^level when the length requires it."""
    x = _check_signal(x)
    block = 1 << level
    if x.shape[0] % block:
        pad = block - x.shape[0] % block
        x = np.concatenate([x, np.zeros(pad)])
    return dwt(x, level, bank).approx


def select_level(
    x: np.ndarray,
    bank: WaveletFilterBank | None = None,
    max_level: int = DEFAULT_MAX_LEVEL,
) -> int:
    """Decomposition depth whose approximation has minimum Shannon entropy.

    Levels 1..max_level are scanned (capped so at least one coefficient
    remains); ties resolve toward the larger level. Each level sees the
    signal zero-padded as extract_features pads it, so levels that share a
    padded length share one DWT cascade and read their approximations off
    it in turn.
    """
    x = _check_signal(x)
    bank = bank or db8()
    if max_level < 1:
        raise InvalidArgumentError(f"max_level must be >= 1, got {max_level}")
    n = x.shape[0]
    cap = min(max_level, int(np.floor(np.log2(n))))
    if cap < 1:
        raise InvalidArgumentError("signal too short for any decomposition level")
    best_level = 1
    best_entropy = np.inf
    approx, padded = x, n
    for lvl in range(1, cap + 1):
        block = 1 << lvl
        target = -(-n // block) * block
        if target != padded:
            # this level needs a longer zero padding: restart the cascade
            padded = target
            approx = np.concatenate([x, np.zeros(target - n)])
            for _ in range(lvl - 1):
                approx, _ = _kernels.dwt_level(approx, bank.h, bank.g)
        approx, _ = _kernels.dwt_level(approx, bank.h, bank.g)
        ent = shannon_entropy(approx)
        if ent <= best_entropy:
            best_entropy = ent
            best_level = lvl
    return best_level
