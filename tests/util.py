"""Shared helpers for the test suite."""
import itertools
import math

import numpy as np

from aubase import _kernels, pca, pipeline, signals, wavelet


def best_agreement(truth, predicted) -> float:
    """Fraction of items whose predicted cluster matches the truth group
    under the best one-to-one relabelling of cluster ids.

    Brute-force over permutations; intended for small label alphabets.
    """
    truth = list(truth)
    predicted = list(predicted)
    if len(truth) != len(predicted):
        raise ValueError("label sequences differ in length")
    truth_ids = sorted(set(truth))
    pred_ids = sorted(set(predicted))
    # pad the smaller alphabet so every permutation is a full injection
    size = max(len(truth_ids), len(pred_ids))
    pred_ids = pred_ids + [None] * (size - len(pred_ids))
    n = len(truth)
    best = 0.0
    for perm in itertools.permutations(pred_ids, len(truth_ids)):
        mapping = dict(zip(truth_ids, perm))
        hits = sum(1 for t, p in zip(truth, predicted) if mapping[t] == p)
        best = max(best, hits / n)
    return best


def random_symmetric(rng: np.random.Generator, m: int, scale: float = 1.0) -> np.ndarray:
    a = rng.normal(0.0, scale, (m, m))
    return (a + a.T) / 2.0


def make_toneburst(carrier_freq_hz, n_cycles, amplitude, sample_rate_hz) -> np.ndarray:
    """Hanning-windowed cosine burst sampled on [0, n_cycles / carrier), from
    the burst kernel and range checks the scenario generator uses."""
    signals._validate_burst(carrier_freq_hz, n_cycles, amplitude, sample_rate_hz)
    n = int(round(n_cycles / carrier_freq_hz * sample_rate_hz))
    t = np.arange(n) / sample_rate_hz
    return signals._burst_at(t, carrier_freq_hz, n_cycles, amplitude)


def bmu_indices(model, data) -> np.ndarray:
    """Best-matching unit per row of data; ties go to the lowest unit index."""
    data = np.atleast_2d(np.asarray(data, dtype=float))
    return np.argmin(_kernels.pairwise_sqdist(data, model.weights), axis=1)


def bmu(model, x) -> int:
    return int(bmu_indices(model, x)[0])


def two_copy_features(x, level):
    """The level-`level` features as the two-copy form computed them: the
    zero-padded record, then its periodic extension, each a new array,
    through the same product and fixed-order diagonal sum."""
    phases = wavelet._polyphase_filter(level)
    s, taps = phases.shape
    x = np.concatenate([x, np.zeros(-x.size % s)])
    n, m = x.size, x.size // s
    head = np.take(x, np.arange(s * (taps - 1)) % n)
    y = np.concatenate([x, head]).reshape(m + taps - 1, s) @ phases
    out = y[:m, 0].copy()
    for p in range(1, taps):
        out += y[p:p + m, p]
    return out


def score_row_oracle(sm, feature_row):
    """(selection, scored cluster, SPE, normalized SPE) of one row of step
    model sm, scored on its own: the one-row BMU search, np.linalg.norm for
    the q.e. and the mode distances, and pca.spe for the SPE."""
    row = np.asarray(feature_row, dtype=float).ravel()
    unit = bmu(sm.map, row)
    qe = float(np.linalg.norm(row - sm.map.weights[unit]))
    cid = int(sm.partition.unit_label[unit])
    modeled = cid >= 0 and sm.clusters[cid].model is not None
    novel = not modeled or qe > sm.clusters[cid].q95
    sel = pipeline.SelectionResult(novel=novel, cluster=None if novel else cid, bmu=unit, qe=qe)
    if not modeled:
        candidates = [k for k in sorted(sm.clusters) if sm.clusters[k].model is not None]
        # the first of equally near modes wins
        cid = min(candidates, key=lambda k: float(
            np.linalg.norm(row - sm.map.weights[sm.partition.modes[k]])))
    cm = sm.clusters[cid]
    spe_val = float(pca.spe(cm.model, row))
    if cm.spe_threshold is None or cm.spe_threshold <= 0.0:
        norm = math.inf if spe_val > 0.0 else 0.0
    else:
        norm = spe_val / cm.spe_threshold
    return sel, cid, spe_val, norm
