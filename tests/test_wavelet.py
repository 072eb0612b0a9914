"""Filter-bank decomposition, entropy, and depth selection."""
import hashlib
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import aubase
from aubase import _kernels, wavelet
from aubase.errors import InvalidArgumentError
from util import make_toneburst, two_copy_features


def naive_level(x, h, g):
    """Periodic convolve-and-downsample written as plain loops."""
    n = len(x)
    half = n // 2
    a = [0.0] * half
    d = [0.0] * half
    for k in range(half):
        sa = 0.0
        sd = 0.0
        for l in range(len(h)):
            v = x[(2 * k + l) % n]
            sa += h[l] * v
            sd += g[l] * v
        a[k] = sa
        d[k] = sd
    return np.array(a), np.array(d)


# ---------------------------------------------------------------------------
# filter bank
# ---------------------------------------------------------------------------


def test_db8_filter_invariants():
    h, g = wavelet.DB8_H, wavelet.DB8_G
    assert len(h) == 16 and len(g) == 16
    assert abs(np.sum(h) - math.sqrt(2.0)) < 1e-12
    assert abs(np.sum(h**2) - 1.0) < 1e-12
    taps = len(h)
    for k in range(taps):
        assert abs(g[k] - (-1.0) ** k * h[taps - 1 - k]) < 1e-15
    # the polyphase filters are cached per level, so the filters never change
    for f in (h, g):
        with pytest.raises(ValueError):
            f[0] = 0.0


# ---------------------------------------------------------------------------
# dwt / idwt
# ---------------------------------------------------------------------------


def test_dwt_zero_signal_gives_zero_coefficients():
    dec = wavelet.dwt(np.zeros(64), 3)
    assert dec.level == 3
    assert np.all(dec.approx == 0.0)
    assert len(dec.details) == 3
    for d in dec.details:
        assert np.all(d == 0.0)


def test_dwt_constant_signal_annihilated_details():
    c = 1.5
    dec = wavelet.dwt(np.full(64, c), 3)
    for d in dec.details:
        assert np.max(np.abs(d)) < 1e-9
    assert np.allclose(dec.approx, c * 2.0 ** (3 / 2), atol=1e-9)


def test_dwt_matches_naive_convolution_cascade():
    rng = np.random.default_rng(42)
    x = rng.normal(size=256)
    dec = wavelet.dwt(x, 4)
    cur = x
    for lvl in range(4):
        a, d = naive_level(cur, wavelet.DB8_H, wavelet.DB8_G)
        assert np.allclose(dec.details[lvl], d, atol=1e-10)
        cur = a
    assert np.allclose(dec.approx, cur, atol=1e-10)
    assert dec.original_length == 256
    assert len(dec.approx) == 256 // 16


def test_dwt_rejects_bad_level_and_length():
    with pytest.raises(InvalidArgumentError):
        wavelet.dwt(np.ones(64), 0)
    with pytest.raises(InvalidArgumentError):
        wavelet.dwt(np.ones(100), 3)  # 100 not divisible by 8
    with pytest.raises(InvalidArgumentError):
        wavelet.dwt(np.array([1.0, np.nan, 0.0, 0.0]), 1)


def test_perfect_reconstruction_seeded_battery():
    rng = np.random.default_rng(0)
    for _ in range(50):
        x = rng.normal(size=1024)
        dec = wavelet.dwt(x, 5)
        back = wavelet.idwt(dec)
        assert np.max(np.abs(back - x)) < 1e-9


def test_energy_conservation():
    rng = np.random.default_rng(1)
    for _ in range(20):
        x = rng.normal(size=512)
        dec = wavelet.dwt(x, 4)
        total = np.sum(dec.approx**2) + sum(np.sum(d**2) for d in dec.details)
        assert abs(np.sum(x**2) - total) / np.sum(x**2) < 1e-9


def test_linearity():
    rng = np.random.default_rng(2)
    x = rng.normal(size=128)
    y = rng.normal(size=128)
    a, b = 0.7, -2.3
    dec_mix = wavelet.dwt(a * x + b * y, 3)
    dec_x = wavelet.dwt(x, 3)
    dec_y = wavelet.dwt(y, 3)
    assert np.allclose(dec_mix.approx, a * dec_x.approx + b * dec_y.approx, atol=1e-10)
    for dm, dx, dy in zip(dec_mix.details, dec_x.details, dec_y.details):
        assert np.allclose(dm, a * dx + b * dy, atol=1e-10)


def test_smoothed_reconstruction_loses_energy():
    rng = np.random.default_rng(3)
    x = rng.normal(size=256)
    dec = wavelet.dwt(x, 3)
    smooth = wavelet.WaveletDecomposition(
        level=dec.level,
        approx=dec.approx,
        details=[np.zeros_like(d) for d in dec.details],
        boundary=dec.boundary,
        original_length=dec.original_length,
    )
    y = wavelet.idwt(smooth)
    assert np.sum(y**2) <= np.sum(x**2) + 1e-12


def test_length_two_round_trip():
    x = np.array([3.0, -1.0])
    back = wavelet.idwt(wavelet.dwt(x, 1))
    assert np.allclose(back, x, atol=1e-9)


# ---------------------------------------------------------------------------
# entropy
# ---------------------------------------------------------------------------


def test_entropy_single_nonzero_is_zero():
    assert wavelet.shannon_entropy(np.array([0.0, 5.0, 0.0])) == 0.0


def test_entropy_uniform_is_log_n():
    for n in (2, 4, 16):
        coeffs = np.full(n, 3.7)
        coeffs[::2] *= -1.0  # sign must not matter
        assert abs(wavelet.shannon_entropy(coeffs) - math.log(n)) < 1e-12


def test_entropy_hand_case_three_four():
    # p = [9/25, 16/25]
    want = -(0.36 * math.log(0.36) + 0.64 * math.log(0.64))
    got = wavelet.shannon_entropy(np.array([3.0, 4.0]))
    assert abs(got - want) < 1e-12
    assert abs(got - 0.6534181947937018) < 1e-12


def test_entropy_all_zero_rejected():
    with pytest.raises(InvalidArgumentError):
        wavelet.shannon_entropy(np.zeros(8))


def loop_entropies(block):
    return np.array([wavelet.shannon_entropy(row) for row in block])


@pytest.mark.parametrize("length", [3, 5, 17, 128, 129, 8193])
def test_block_entropies_bitwise_equal_per_row(length):
    rng = np.random.default_rng(length)
    for rows in (1, 3, 4, 64):
        for scale in (1e-150, 1e-50, 1e-5, 1.0, 1e20, 1e100):
            block = scale * rng.normal(size=(rows, length))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = wavelet._block_entropies(block)
            assert got.tobytes() == loop_entropies(block).tobytes()


def test_block_entropies_zero_share_takes_per_row_path(monkeypatch):
    # dropping a zero share regroups the pairwise sum, so that row goes
    # through shannon_entropy itself and still matches it bit for bit
    block = np.random.default_rng(5).normal(size=(4, 300))
    block[2, 17] = 0.0
    want = loop_entropies(block)
    seen = []
    real = wavelet.shannon_entropy

    def counted(row):
        seen.append(row.copy())
        return real(row)

    monkeypatch.setattr(wavelet, "shannon_entropy", counted)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = wavelet._block_entropies(block)
    assert got.tobytes() == want.tobytes()
    assert len(seen) == 1 and np.array_equal(seen[0], block[2])


def test_block_entropies_all_zero_row_rejected():
    block = np.random.default_rng(6).normal(size=(3, 64))
    block[1] = 0.0
    with pytest.raises(InvalidArgumentError, match="all-zero"):
        wavelet._block_entropies(block)
    with pytest.raises(InvalidArgumentError, match="all-zero"):
        wavelet.select_level(block, max_level=3)


# ---------------------------------------------------------------------------
# level selection / features
# ---------------------------------------------------------------------------


def loop_select_level(x, max_level):
    """The level scan one row and one level at a time: the same padded
    cascade as select_level, scored with shannon_entropy per row."""
    rows = np.atleast_2d(x)
    n = rows.shape[1]
    cap = min(max_level, int(math.floor(math.log2(n))))
    levels = []
    for row in rows:
        best, best_ent = 1, float("inf")
        for lvl in range(1, cap + 1):
            block = 1 << lvl
            approx = np.concatenate([row, np.zeros(-(-n // block) * block - n)])
            for _ in range(lvl):
                approx = _kernels.analysis_level(approx, wavelet.DB8_H)
            ent = wavelet.shannon_entropy(approx)
            if ent <= best_ent:  # ties toward deeper
                best, best_ent = lvl, ent
        levels.append(best)
    return levels


def test_select_level_matches_loop_oracle():
    rng = np.random.default_rng(31)
    for n in (100, 777, 4096):
        decay = np.exp(-np.arange(n) / (0.05 * n))
        block = np.vstack([rng.normal(size=n), decay * rng.normal(size=n),
                           rng.normal(size=n) ** 3, 1e-120 * rng.normal(size=n)])
        for max_level in (1, 4, 8):
            got = wavelet.select_level(block, max_level=max_level)
            assert got.tolist() == loop_select_level(block, max_level)


def exhaustive_argmin(x, max_level):
    cap = min(max_level, int(math.floor(math.log2(len(x)))))
    best, best_ent = 1, float("inf")
    for lvl in range(1, cap + 1):
        ent = wavelet.shannon_entropy(wavelet.extract_features(x, lvl))
        if ent <= best_ent:  # ties toward deeper
            best, best_ent = lvl, ent
    return best


def test_select_level_matches_exhaustive_scan_on_toneburst():
    x = make_toneburst(50e3, 5, 12.0, 1e6)
    x = np.concatenate([x, np.zeros(4096 - len(x))])
    assert wavelet.select_level(x) == exhaustive_argmin(x, 8)


def test_select_level_matches_exhaustive_scan_on_noise():
    rng = np.random.default_rng(9)
    for _ in range(5):
        x = rng.normal(size=1024)
        assert wavelet.select_level(x) == exhaustive_argmin(x, 8)


def test_select_level_matches_exhaustive_scan_on_padded_lengths():
    # lengths that are not multiples of 2^8: deeper levels pad further, so
    # the single-cascade scan has to restart where the padding grows
    rng = np.random.default_rng(17)
    for n in (100, 777, 1000, 5000):
        decay = np.exp(-np.arange(n) / (0.2 * n))
        for x in (rng.normal(size=n), decay * rng.normal(size=n)):
            for max_level in (1, 3, 8):
                assert wavelet.select_level(x, max_level=max_level) == exhaustive_argmin(
                    x, max_level
                )


def test_select_level_runs_one_cascade(monkeypatch):
    calls = []
    real = _kernels.analysis_level

    def counting(x, f):
        calls.append(x.shape)
        assert f is wavelet.DB8_H  # the level scan never computes details
        return real(x, f)

    monkeypatch.setattr(_kernels, "analysis_level", counting)
    block = np.random.default_rng(3).normal(size=(3, 4096))
    wavelet.select_level(block, max_level=8)
    assert calls == [(3, 4096 >> k) for k in range(8)]


def test_select_level_block_matches_exhaustive_scan_per_row():
    rng = np.random.default_rng(23)
    for n in (100, 777, 5000):
        decay = np.exp(-np.arange(n) / (0.2 * n))
        block = np.vstack([rng.normal(size=n), decay * rng.normal(size=n),
                           rng.normal(size=n) ** 3])
        for max_level in (1, 3, 8):
            got = wavelet.select_level(block, max_level=max_level)
            assert got.tolist() == [exhaustive_argmin(x, max_level) for x in block]


def test_select_level_max_level_one():
    assert wavelet.select_level(np.arange(64.0), max_level=1) == 1


def test_select_level_tie_breaks_deeper():
    # Build a signal whose two deepest approximations are single-spike
    # (entropy exactly 0 at both levels): start from a level-3 decomposition
    # with a one-hot approximation and zero details, then invert.
    approx = np.zeros(4)
    approx[1] = 2.0
    details = [np.zeros(16), np.zeros(8), np.zeros(4)]
    dec = wavelet.WaveletDecomposition(
        level=3, approx=approx, details=details, boundary="periodic",
        original_length=32,
    )
    x = wavelet.idwt(dec)
    # level 3 approx is one-hot by construction; level 2 approx must then
    # also be sparse enough that its entropy exceeds or ties level 3
    lvl = wavelet.select_level(x, max_level=3)
    e2 = wavelet.shannon_entropy(wavelet.extract_features(x, 2))
    e3 = wavelet.shannon_entropy(wavelet.extract_features(x, 3))
    assert e3 <= e2
    assert lvl == 3


def test_extract_features_counts_and_zero_pad():
    assert len(wavelet.extract_features(np.ones(4096), 8)) == 16
    assert np.all(wavelet.extract_features(np.zeros(4096), 8) == 0.0)
    # 100 samples at level 3 -> padded to 104 -> 13 coefficients
    feats = wavelet.extract_features(np.ones(100), 3)
    assert len(feats) == 13


def test_extract_features_matches_dwt_approx():
    # the composite filter sums in another order than the cascade, so the
    # two agree to rounding, not bitwise; at n = 300 and level 8 the padded
    # record is shorter than the periodic extension, which wraps it cyclically
    rng = np.random.default_rng(4)
    for n in (100, 300, 777, 16384):
        x = rng.normal(size=n)
        for level in range(1, 9):
            block = 1 << level
            padded = np.concatenate([x, np.zeros(-n % block)])
            want = wavelet.dwt(padded, level).approx
            got = wavelet.extract_features(x, level)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("rows", [1, 3, 4, 5, 9])
def test_extract_features_block_rows_bitwise_equal_single_signal(rows):
    # a row's features do not depend on the block it sits in or its place there
    rng = np.random.default_rng(rows)
    for n in (100, 777, 5000):
        block = rng.normal(size=(rows, n))
        for level in range(1, 9):
            got = wavelet.extract_features(block, level)
            assert got.shape == (rows, -(-n // (1 << level)))
            for x, row in zip(block, got):
                assert np.array_equal(row, wavelet.extract_features(x, level))
            order = rng.permutation(rows)
            assert np.array_equal(wavelet.extract_features(block[order], level), got[order])


@st.composite
def feature_inputs(draw):
    """(level, records, form): 1-6 records of one length n in 2..5,000,
    with lengths of one full chunk, multiples of the chunk and lengths
    shorter than the periodic head drawn on purpose."""
    level = draw(st.integers(1, 8))
    s, taps = wavelet._polyphase_filter(level).shape
    tail = s * (taps - 1)
    n = draw(st.one_of(
        st.integers(2, 5000),
        st.integers(s, 2 * s - 1),
        st.integers(2, min(tail, 5000) - 1),
        st.integers(1, 5000 // s).map(lambda k: k * s),
    ))
    form = draw(st.sampled_from(["1-D", "2-D", "list"]))
    rows = 1 if form == "1-D" else draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    records = rng.normal(size=(rows, n)) * 10.0 ** draw(st.integers(-3, 3))
    return level, records, form


@settings(derandomize=True, max_examples=80, deadline=None)
@given(feature_inputs())
def test_extract_features_bitwise_equal_two_copy_form(args):
    # each record, read in place, keeps the bits of the form that copied it
    # into a zero-padded array and then into a periodically extended one
    level, records, form = args
    x = {"1-D": records[0], "2-D": records, "list": [r.copy() for r in records]}[form]
    got = wavelet.extract_features(x, level)
    assert got.ndim == (1 if form == "1-D" else 2)
    for row, rec in zip(np.atleast_2d(got), records):
        assert row.tobytes() == two_copy_features(rec, level).tobytes()
        assert row.tobytes() == wavelet.extract_features(rec, level).tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("n", [4096, 777])
def test_extract_features_refuses_non_finite_sample(n, bad):
    # at level 8, 4,096 samples need no pad and 777 are padded; the head
    # position lies in the periodic extension, which wraps the 777-sample
    # record
    level = 8
    s, taps = wavelet._polyphase_filter(level).shape
    rng = np.random.default_rng(n)
    for pos in (0, n - 1, min(n, s * (taps - 1)) // 2):
        block = rng.normal(size=(3, n))
        block[1, pos] = bad
        for x in (block, list(block), block[1]):
            with pytest.raises(InvalidArgumentError, match="signal contains non-finite samples"):
                wavelet.extract_features(x, level)


@pytest.mark.parametrize("n", [4096, 777])
def test_extract_features_keeps_overflowing_features_of_finite_records(n):
    # the features of constant 1e308 records overflow; the records are
    # finite, so they are featured, not refused
    block = np.full((2, n), 1e308)
    block[1] *= -1.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        got = wavelet.extract_features(list(block), 8)
        want = [two_copy_features(r, 8) for r in block]
    assert not np.all(np.isfinite(got))
    np.testing.assert_array_equal(got, want)


def test_extract_features_list_records_share_one_length():
    with pytest.raises(InvalidArgumentError, match="one sample length"):
        wavelet.extract_features([np.ones(64), np.ones(65)], 3)
    with pytest.raises(InvalidArgumentError):
        wavelet.extract_features([np.ones(64), np.ones(0)], 3)
    with pytest.raises(InvalidArgumentError, match="level must be >= 1"):
        wavelet.extract_features([np.ones(64)], 0)


def features_digest() -> str:
    rng = np.random.default_rng(64)
    block = rng.normal(size=(64, 4096))
    records = [r.copy() for r in block[:, :3000]]
    feats = [wavelet.extract_features(x, level)
             for level in (1, 4, 8) for x in (block, records)]
    return hashlib.sha256(b"".join(f.tobytes() for f in feats)).hexdigest()


def test_extract_features_same_bits_with_one_and_two_blas_threads():
    src = os.path.dirname(os.path.dirname(aubase.__file__))
    tests = os.path.dirname(os.path.abspath(__file__))
    here = features_digest()
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c",
             "import test_wavelet; print(test_wavelet.features_digest())"],
            env=env, cwd=tests, capture_output=True, text=True, check=True,
        )
        assert out.stdout.strip() == here


def test_block_inputs_checked_like_signals():
    with pytest.raises(InvalidArgumentError):
        wavelet.extract_features(np.zeros((2, 0)), 3)
    with pytest.raises(InvalidArgumentError):
        wavelet.extract_features(np.zeros((2, 2, 64)), 3)
    with pytest.raises(InvalidArgumentError):
        wavelet.select_level(np.array([[1.0] * 64, [np.inf] + [1.0] * 63]))
    with pytest.raises(InvalidArgumentError):
        wavelet.dwt(np.zeros((2, 64)), 3)
