"""Numerical hot loops, vectorized in numpy.

One DWT analysis level with a single filter, the level-L approximation in
one pass through the composite filter that reads each record in place, the
synthesis step that inverts a level, and the pairwise squared distances
behind the map fits' BMU searches and density estimates. All kernels are
deterministic: the same inputs give the same bits on every call. The step
pool, which the pipeline and the dataset generator share, is here too.
"""

from __future__ import annotations

import os

import numpy as np

# Threads for the per-step work: one per core this process may run on.
STEP_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count() or 1)
# Fewest records per step for which the steps go to a thread pool. Small
# calls are mostly interpreter work, which the threads only take turns at:
# on the pool, one-experiment detect calls on a 2-transducer bank took a
# median 13.5 ms against 6.8 ms inline, and generating the 81-record steps
# of a small scenario raised the peak RSS by 9-11 MB (a heap per thread).
POOL_MIN_RECORDS = 256

# Bytes of product stack decimated_correlation fills before it sums the
# diagonals (at least one record's). At levels 1-3 one stack per step
# (280 MB at level 1) ran 3.1-4.6x slower on the reference baselines. At
# 512 KB, glibc's mmap threshold stayed below level selection's 512 KB
# blocks after a fit's features, and a 2-transducer fit took 5% longer.
STACK_BYTES = 1 << 20


def _map_steps(fn, steps, records_per_step: float) -> list:
    """[fn(step) for step in steps], run on a pool of min(len(steps),
    STEP_WORKERS) threads when each step holds at least POOL_MIN_RECORDS
    records. The results come back in step order, and the first failing
    step, in step order, raises, as in the inline loop."""
    steps = list(steps)
    workers = min(len(steps), STEP_WORKERS)
    if workers < 2 or records_per_step < POOL_MIN_RECORDS:
        return [fn(step) for step in steps]
    # imported here: most processes never start a pool
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, steps))


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


def decimated_correlation(rows, phases: np.ndarray) -> np.ndarray:
    """sum_j c[j] x[(s k + j) mod npad] for k < m, for each record x of
    rows, a 2-D array or a sequence of equal-length 1-D arrays: each
    n-sample record zero-padded to npad = m s samples, m = ceil(n / s).

    phases is the polyphase form of the filter c, shape (s, P):
    phases[r, p] = c[p s + r], zero past the last tap. Row i of the product
    y of the padded record, extended periodically by s (P - 1) samples and
    reshaped to (m + P - 1, s), with phases holds chunk i's P phase sums;
    output k is the sum of the P products on the diagonal starting at row
    k, added in the order p = 0 .. P - 1.

    No record is copied. Its full s-sample chunks, as a reshaped view, go
    through one product into its slot of a (records, m + P - 1, P) stack;
    only the rest goes through a second, small product: the record's first
    s (P - 1) samples when it needs no pad and is that long, else a
    gathered zero-padded cyclic segment. The view product is used only
    when it has at least 2 rows: a one-row product takes another BLAS
    route and rounds differently. The diagonal sum then runs over the
    whole stack, which holds up to STACK_BYTES of records. Every record's
    products have the same shapes, so a record gives the same bits alone
    or among others.
    """
    s, taps = phases.shape
    n = rows[0].shape[0]
    m = -(-n // s)
    npad, tail = m * s, s * (taps - 1)
    q = n // s if n >= 2 * s else 0
    gather = q < m or n < tail
    if gather:
        # the padded record's samples q s .. npad - 1, then its periodic head
        pos = np.arange(q * s, npad + tail)
        src = np.where(pos < npad, pos, (pos - npad) % npad)
        pad = src >= n
        src[pad] = 0
    out = np.empty((len(rows), m))
    group = max(1, STACK_BYTES // ((m + taps - 1) * taps * 8))
    for start in range(0, len(rows), group):
        part = rows[start:start + group]
        y = np.empty((len(part), m + taps - 1, taps))
        for x, yx in zip(part, y):
            if q:
                np.matmul(x[:q * s].reshape(q, s), phases, out=yx[:q])
            if gather:
                seg = x[src]
                seg[pad] = 0.0
            else:
                seg = x[:tail]
            np.matmul(seg.reshape(-1, s), phases, out=yx[q:])
        acc = out[start:start + group]
        acc[:] = y[:, :m, 0]
        for p in range(1, taps):
            acc += y[:, p:p + m, p]
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
