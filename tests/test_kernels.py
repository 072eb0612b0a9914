"""The low-level numeric kernels against plain-loop references."""
import inspect
import pathlib
import re

import numpy as np

from aubase import _kernels, wavelet


def per_tap_idwt(a, d, h, g):
    """Adjoint DWT step as a tap-by-tap overlap-add loop."""
    half = a.shape[0]
    n = 2 * half
    x = np.zeros(n)
    base = 2 * np.arange(half)
    for l in range(h.shape[0]):
        x[(base + l) % n] += h[l] * a + g[l] * d
    return x


def resize_analysis(x, f):
    """One analysis level on a 1-D signal, extended by np.resize tiling."""
    taps = f.shape[0]
    xp = np.resize(x, x.shape[0] + taps - 1)
    return np.lib.stride_tricks.sliding_window_view(xp, taps)[::2] @ f


def test_analysis_level_bitwise_equals_resize_form():
    # n < taps - 1 wraps the signal around more than once
    rng = np.random.default_rng(13)
    f = rng.normal(size=16)
    # odd n keeps the ceil(n / 2) windows the sliding-window form gives
    for n in (2, 3, 4, 5, 6, 14, 15, 16, 64, 999, 1000):
        x = rng.normal(size=(3, n))
        got = _kernels.analysis_level(x, f)
        assert got.shape == (3, (n + 1) // 2)
        for row, want in zip(got, (resize_analysis(r, f) for r in x)):
            assert np.array_equal(row, want)
        assert np.array_equal(_kernels.analysis_level(x[1], f), resize_analysis(x[1], f))


def test_idwt_level_bitwise_equals_per_tap_loop():
    rng = np.random.default_rng(11)
    h = rng.normal(size=16)
    g = rng.normal(size=16)
    for half in (1, 2, 3, 7, 8, 9, 64, 1000, 4097):
        a = rng.normal(size=half)
        d = rng.normal(size=half)
        got = _kernels.idwt_level(a, d, h, g)
        assert got.shape == (2 * half,)
        assert np.array_equal(got, per_tap_idwt(a, d, h, g))


def test_pairwise_sqdist_matches_bruteforce():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(37, 8))
    w = rng.normal(size=(25, 8))
    d2 = _kernels.pairwise_sqdist(x, w)
    assert d2.shape == (37, 25)
    assert np.all(d2 >= 0.0)
    for i in (0, 17, 36):
        for j in (0, 24):
            want = float(np.sum((x[i] - w[j]) ** 2))
            assert abs(d2[i, j] - want) < 1e-9


def clip_sqdist(points, refs):
    """pairwise_sqdist in its np.clip form."""
    p2, r2 = _kernels.row_sqnorms(points), _kernels.row_sqnorms(refs)
    d2 = p2[:, None] + r2[None, :] - 2.0 * (points @ refs.T)
    np.clip(d2, 0.0, None, out=d2)
    return d2


def test_pairwise_sqdist_clamp_matches_clip_bitwise():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(40, 5)) * np.array([1.0, 10.0, 0.1, 3.0, 100.0])
    # duplicated rows cancel exactly or leave a rounding residue either side
    # of 0; zero and -0.0 rows, and a NaN row
    zero = np.zeros((2, 5))
    zero[1] = -0.0
    nan_row = np.full((1, 5), 1.0)
    nan_row[0, 2] = np.nan
    points = np.vstack([x, x[:10], zero, nan_row])
    refs = np.vstack([x, zero])
    p2, r2 = _kernels.row_sqnorms(points), _kernels.row_sqnorms(refs)
    raw = p2[:, None] + r2[None, :] - 2.0 * (points @ refs.T)
    assert (raw < 0.0).any() and (raw == 0.0).any() and np.isnan(raw).any()
    want = clip_sqdist(points, refs)
    assert _kernels.pairwise_sqdist(points, refs).tobytes() == want.tobytes()


def test_composite_filter_identities():
    # the level-L composite of an orthonormal scaling filter keeps unit
    # energy and sums to 2^(L/2): the DC gain of L stages of sqrt(2)
    h = wavelet.DB8_H
    for level in range(1, 9):
        c = _kernels.composite_filter(h, level)
        assert c.shape == (15 * 2**level - 14,)
        assert abs(c.sum() - 2.0 ** (level / 2)) < 1e-12
        assert abs(np.linalg.norm(c) - 1.0) < 1e-12


def test_decimated_correlation_matches_modular_loop():
    # stride s, filters shorter and longer than the rows, heads that wrap,
    # zero-padded rows, and rows of one chunk or less
    rng = np.random.default_rng(17)
    for s, taps, n in ((2, 16, 8), (4, 46, 12), (8, 13, 64), (16, 100, 32),
                       (8, 13, 61), (16, 100, 20), (8, 40, 5)):
        c = rng.normal(size=taps)
        p = -(-taps // s)
        phases = np.zeros(p * s)
        phases[:taps] = c
        phases = phases.reshape(p, s).T.copy()
        x = rng.normal(size=(3, n))
        kept = x.copy()
        got = _kernels.decimated_correlation(x, phases)
        assert np.array_equal(x, kept)
        m = -(-n // s)
        padded = np.concatenate([x, np.zeros((3, m * s - n))], axis=1)
        idx = (s * np.arange(m)[:, None] + np.arange(taps)[None, :]) % (m * s)
        want = padded[:, idx] @ c
        assert got.shape == (3, m)
        assert np.allclose(got, want, rtol=0.0, atol=1e-12 * np.abs(want).max())
        assert np.array_equal(_kernels.decimated_correlation(list(x), phases), got)


def test_readme_lists_every_kernel():
    # a renamed, added or removed kernel fails here instead of leaving the
    # README's list stale
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    found = re.search(r"kernels\s+in\s+`aubase\._kernels`\s+\(([^)]*)\)", readme.read_text())
    assert found is not None
    listed = re.findall(r"`(\w+)`", found.group(1))
    public = {name for name, fn in inspect.getmembers(_kernels, inspect.isfunction)
              if fn.__module__ == _kernels.__name__ and not name.startswith("_")}
    assert sorted(listed) == sorted(public)
