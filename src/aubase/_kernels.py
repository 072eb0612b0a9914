"""Numerical hot loops, vectorized in numpy.

The DWT step and its adjoint, and the pairwise squared distances behind
every BMU search and density estimate. All kernels are deterministic: the
same inputs give the same bits on every call.
"""

from __future__ import annotations

import numpy as np


def dwt_level(x: np.ndarray, h: np.ndarray, g: np.ndarray):
    """One analysis level: periodic extension, filter, downsample by 2.

    Returns (approximation, detail), each of length len(x) // 2.
    """
    n = x.shape[0]
    taps = h.shape[0]
    # np.resize tiles the array cyclically, which is exactly the periodic
    # extension needed for indices 2k + l up to n + taps - 2.
    xp = np.resize(x, n + taps - 1)
    win = np.lib.stride_tricks.sliding_window_view(xp, taps)[::2]
    return win @ h, win @ g


def idwt_level(a: np.ndarray, d: np.ndarray, h: np.ndarray, g: np.ndarray):
    """Adjoint of dwt_level: upsample and periodically overlap-add.

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


def pairwise_sqdist(points: np.ndarray, refs: np.ndarray) -> np.ndarray:
    """Squared distances, shape (len(points), len(refs)). Clipped at 0."""
    p2 = np.einsum("ij,ij->i", points, points)[:, None]
    r2 = np.einsum("ij,ij->i", refs, refs)[None, :]
    d2 = p2 + r2 - 2.0 * (points @ refs.T)
    np.clip(d2, 0.0, None, out=d2)
    return d2
