"""Shared helpers for the test suite."""
import itertools

import numpy as np

from aubase import signals


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
