"""Numerical hot loops, vectorized in numpy.

One DWT analysis level with a single filter, the level-L approximation in
one pass through the composite filter over a buffer that already holds
each row (its periodic extension is written in place), the synthesis step
that inverts a level, and the pairwise squared distances behind the map
fits' BMU searches and density estimates. All kernels are deterministic: the
same inputs give the same bits on every call.
"""

from __future__ import annotations

import numpy as np


def analysis_level(x: np.ndarray, f: np.ndarray) -> np.ndarray:
    """One analysis level along the last axis of a (..., n) array: periodic
    extension, correlation with the filter f, downsampling by 2.

    Returns (..., ceil(n / 2)). Every row goes through the same
    per-row inner loop, so a row gives the same bits alone or in a block.
    """
    n = x.shape[-1]
    taps = f.shape[0]
    # indices 2k + l run up to n + taps - 2; the wrapped head is x tiled
    # cyclically, which also covers n < taps - 1
    head = np.take(x, np.arange(taps - 1) % n, axis=-1)
    xp = np.concatenate([x, head], axis=-1)
    # one read-only view of the windows starting at 0, 2, 4, ...
    step = xp.strides[-1]
    win = np.lib.stride_tricks.as_strided(
        xp,
        shape=xp.shape[:-1] + ((n + 1) // 2, taps),
        strides=xp.strides[:-1] + (2 * step, step),
        writeable=False,
    )
    return win @ f


def composite_filter(h: np.ndarray, level: int) -> np.ndarray:
    """The filter that takes a signal to its level-`level` approximation in
    one correlation with stride 2^level: c_1 = h, and c_(l+1) is h convolved
    with c_l upsampled by 2 (the noble identity). A 16-tap h gives
    15 * 2^level - 14 taps.
    """
    c = h
    for _ in range(level - 1):
        up = np.zeros(2 * c.shape[0] - 1)
        up[::2] = c
        c = np.convolve(up, h)
    return c


def decimated_correlation(xp: np.ndarray, phases: np.ndarray, n: int) -> np.ndarray:
    """sum_j c[j] x[(s k + j) mod n] for k < n / s, for each row x of
    length n, a multiple of s.

    phases is the polyphase form of the filter c, shape (s, P):
    phases[r, p] = c[p s + r], zero past the last tap. xp is a C-contiguous
    (..., n + s (P - 1)) buffer whose rows hold their n samples first; each
    row's periodic extension is written into the rest of it in place, so no
    row is copied. Each extended row, reshaped to (n / s + P - 1, s), is
    multiplied by phases in one matrix product; output k is the sum of the
    P products on the diagonal starting at row k, added in the order
    p = 0 .. P - 1. A block is a stack of same-shape products, one per row,
    so a row gives the same bits alone or in a block.
    """
    s, taps = phases.shape
    tail = s * (taps - 1)
    m = n // s
    if n >= tail:
        xp[..., n:] = xp[..., :tail]
    else:
        # the wrapped head is the row tiled cyclically
        xp[..., n:] = np.take(xp[..., :n], np.arange(tail) % n, axis=-1)
    y = xp.reshape(xp.shape[:-1] + (m + taps - 1, s)) @ phases
    out = y[..., :m, 0].copy()
    for p in range(1, taps):
        out += y[..., p:p + m, p]
    return out


def idwt_level(a: np.ndarray, d: np.ndarray, h: np.ndarray, g: np.ndarray):
    """Adjoint of one analysis level with h and g: upsample and
    periodically overlap-add.

    Contribution (l, k) lands on sample (2k + l) mod n. bincount walks the
    (taps, half) grid tap by tap, so each sample sums its contributions in
    the same order as a per-tap accumulation loop would.
    """
    half = a.shape[0]
    n = 2 * half
    taps = h.shape[0]
    idx = (2 * np.arange(half)[None, :] + np.arange(taps)[:, None]) % n
    contrib = h[:, None] * a[None, :] + g[:, None] * d[None, :]
    return np.bincount(idx.ravel(), weights=contrib.ravel(), minlength=n)


def row_sqnorms(x: np.ndarray) -> np.ndarray:
    """Squared Euclidean norm of every row of a 2-D array."""
    return np.einsum("ij,ij->i", x, x)


def pairwise_sqdist(points: np.ndarray, refs: np.ndarray) -> np.ndarray:
    """Squared distances, shape (len(points), len(refs)). Clipped at 0."""
    d2 = row_sqnorms(points)[:, None] + row_sqnorms(refs)[None, :] - 2.0 * (points @ refs.T)
    np.maximum(d2, 0.0, out=d2)
    return d2
