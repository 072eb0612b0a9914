"""Synthetic toneburst generator and dataset round-tripping."""
import concurrent.futures
import dataclasses
import json
import math
import os
import sys

import numpy as np
import pytest

from aubase import _kernels, signals
from aubase.errors import DataFormatError, InvalidArgumentError
from util import make_toneburst


def tiny_config(**kw) -> signals.ScenarioConfig:
    base = dict(
        n_transducers=2,
        temperatures_c=[35.0, 45.0],
        echoes=[(100e-6, 1.0), (700e-6, 0.5)],
        noise_snr_db=40.0,
        n_repeats=2,
        n_samples=4096,
        sample_rate_hz=1e6,
        seed=7,
    )
    base.update(kw)
    return signals.ScenarioConfig(**base)


# ---------------------------------------------------------------------------
# toneburst
# ---------------------------------------------------------------------------


def test_toneburst_reference_shape():
    burst = make_toneburst(50e3, 5, 12.0, 1e6)
    assert len(burst) == 100
    assert np.max(np.abs(burst)) <= 12.0 + 1e-12
    assert burst[0] == 0.0


def test_toneburst_zero_amplitude_is_all_zero():
    burst = make_toneburst(50e3, 5, 0.0, 1e6)
    assert np.all(burst == 0.0)


def test_toneburst_matches_closed_form():
    carrier, cycles, amp, rate = 1e3, 1, 2.5, 1e5
    burst = make_toneburst(carrier, cycles, amp, rate)
    duration = cycles / carrier
    n = len(burst)
    assert n == 100
    t = np.arange(n) / rate
    expected = (
        amp
        * 0.5
        * (1.0 - np.cos(2.0 * np.pi * t / duration))
        * np.cos(2.0 * np.pi * carrier * t)
    )
    assert np.allclose(burst, expected, atol=1e-12)
    # window peak sits mid-burst where the carrier phase is pi
    assert abs(burst[50] - (-amp)) < 1e-12


def test_toneburst_validation():
    with pytest.raises(InvalidArgumentError):
        make_toneburst(-1.0, 5, 12.0, 1e6)
    with pytest.raises(InvalidArgumentError):
        make_toneburst(50e3, 0, 12.0, 1e6)
    with pytest.raises(InvalidArgumentError):
        make_toneburst(50e3, 5, 12.0, 400e3)  # below 10x carrier
    with pytest.raises(InvalidArgumentError):
        make_toneburst(50e3, 5, -2.0, 1e6)


# ---------------------------------------------------------------------------
# synthesize
# ---------------------------------------------------------------------------


def test_synthesize_clean_superposition():
    cfg = tiny_config(noise_snr_db=None, temp_stretch_per_c=1e-3, temp_gain_per_c=0.01)
    rng = np.random.default_rng(0)
    got = signals.synthesize(cfg, 1, 2, 35.0, 0.0, rng)  # T_ref, severity 0
    burst = make_toneburst(
        cfg.carrier_freq_hz, cfg.n_cycles, cfg.amplitude, cfg.sample_rate_hz
    )
    expected = np.zeros(cfg.n_samples)
    for delay, gain in cfg.echoes:
        k = int(round(delay * cfg.sample_rate_hz))
        expected[k : k + len(burst)] += gain * burst
    assert np.allclose(got, expected, atol=1e-9)


def test_synthesize_same_seed_bit_identical():
    cfg = tiny_config()
    a = signals.synthesize(cfg, 1, 2, 45.0, 0.0, np.random.default_rng(33))
    b = signals.synthesize(cfg, 1, 2, 45.0, 0.0, np.random.default_rng(33))
    assert np.array_equal(a, b)


def test_synthesize_stretch_shifts_crosscorrelation_peak():
    cfg = tiny_config(
        noise_snr_db=None,
        temp_stretch_per_c=1e-3,
        temperatures_c=[35.0, 75.0],
        echoes=[(1.0e-3, 1.0)],
    )
    ref = signals.synthesize(cfg, 1, 2, 35.0, 0.0, np.random.default_rng(0))
    hot = signals.synthesize(cfg, 1, 2, 75.0, 0.0, np.random.default_rng(0))
    # alpha = 1 + 1e-3 * 40 = 1.04 stretches the 1 ms delay to 1.04 ms
    lags = np.arange(-200, 201)
    corr = [float(np.dot(np.roll(ref, k), hot)) for k in lags]
    best = int(lags[int(np.argmax(corr))])
    want = int(round(1.0e-3 * 0.04 * cfg.sample_rate_hz))
    assert abs(best - want) <= 1


def test_synthesize_noise_matches_snr():
    cfg = tiny_config(noise_snr_db=40.0, n_samples=16384)
    clean_cfg = dataclasses.replace(cfg, noise_snr_db=None)
    clean = signals.synthesize(clean_cfg, 1, 2, 35.0, 0.0, np.random.default_rng(1))
    noisy = signals.synthesize(cfg, 1, 2, 35.0, 0.0, np.random.default_rng(1))
    noise = noisy - clean
    snr_db = 10.0 * math.log10(np.mean(clean**2) / np.mean(noise**2))
    assert abs(snr_db - 40.0) < 0.5


def test_synthesize_severity_monotone_without_noise():
    cfg = tiny_config(noise_snr_db=None, damage_severities=[1.0, 2.0, 3.0])
    rng = np.random.default_rng(0)
    base = signals.synthesize(cfg, 1, 2, 35.0, 0.0, rng)
    dists = [
        float(np.linalg.norm(signals.synthesize(cfg, 1, 2, 35.0, s, rng) - base))
        for s in (1.0, 2.0, 3.0)
    ]
    assert dists[0] > 0.0
    assert dists[0] < dists[1] < dists[2]


def test_synthesize_rejects_bad_pair():
    cfg = tiny_config()
    rng = np.random.default_rng(0)
    with pytest.raises(InvalidArgumentError):
        signals.synthesize(cfg, 1, 1, 35.0, 0.0, rng)
    with pytest.raises(InvalidArgumentError):
        signals.synthesize(cfg, 1, 9, 35.0, 0.0, rng)
    with pytest.raises(InvalidArgumentError):
        signals.synthesize(cfg, 0, 2, 35.0, 0.0, rng)


def test_temperature_lag_monotone_in_delta_t():
    cfg = tiny_config(
        noise_snr_db=None,
        temp_stretch_per_c=1e-3,
        temperatures_c=[35.0, 45.0, 55.0, 65.0, 75.0],
        echoes=[(1.0e-3, 1.0)],
    )
    ref = signals.synthesize(cfg, 1, 2, 35.0, 0.0, np.random.default_rng(0))
    lags = []
    search = np.arange(0, 120)
    for t in (45.0, 55.0, 65.0, 75.0):
        sig = signals.synthesize(cfg, 1, 2, t, 0.0, np.random.default_rng(0))
        corr = [float(np.dot(np.roll(ref, k), sig)) for k in search]
        lags.append(int(search[int(np.argmax(corr))]))
    assert lags == sorted(lags)
    assert len(set(lags)) == len(lags)


# ---------------------------------------------------------------------------
# dataset generation
# ---------------------------------------------------------------------------


def test_generate_dataset_counts_baseline_only():
    cfg = signals.ScenarioConfig(
        n_transducers=4,
        temperatures_c=[35.0, 45.0, 55.0, 65.0, 75.0],
        n_repeats=10,
        n_samples=64,
        sample_rate_hz=1e6,
        echoes=[(10e-6, 1.0)],
        damage_echo=(20e-6, 0.25),
    )
    records = signals.generate_dataset(cfg)
    # 4 steps x 3 sensors x 5 temps x 10 repeats
    assert len(records) == 600
    assert len({r.id for r in records}) == 600
    assert all(r.state == "baseline" for r in records)


def test_generate_dataset_damage_states_present():
    cfg = tiny_config(
        damage_severities=[1.0, 2.0, 3.0, 4.0], damage_temperatures_c=[35.0]
    )
    records = signals.generate_dataset(cfg)
    states = {(r.state, r.severity) for r in records}
    assert ("baseline", 0.0) in states
    for s in (1.0, 2.0, 3.0, 4.0):
        assert ("damage", s) in states
    damage = [r for r in records if r.state == "damage"]
    assert all(r.temperature_c == 35.0 for r in damage)
    # 2 steps x 1 sensor x 4 severities x 2 repeats
    assert len(damage) == 16


def test_generate_dataset_deterministic():
    cfg = tiny_config()
    a = signals.generate_dataset(cfg)
    b = signals.generate_dataset(cfg)
    assert [r.id for r in a] == [r.id for r in b]
    for ra, rb in zip(a, b):
        assert np.array_equal(ra.samples, rb.samples)


def test_record_count_matches_spec_enumeration():
    cases = [
        tiny_config(),
        tiny_config(damage_severities=[1.0, 2.0, 3.0], damage_temperatures_c=[45.0]),
        tiny_config(n_transducers=4, damage_severities=[1.0, 2.0]),
        signals.reference_scenario(with_damage=True),
    ]
    for cfg in cases:
        assert signals._record_count(cfg) == len(list(signals._iter_record_specs(cfg)))


def test_size_limit_admits_reference_damage_and_refuses_beyond():
    cfg = signals.reference_scenario(with_damage=True)
    signals._validate_config(cfg)  # 3,888 x 16,384 x 8 bytes = 509 MB
    limit_samples = signals.MAX_SCENARIO_BYTES // (8 * signals._record_count(cfg))
    with pytest.raises(InvalidArgumentError, match="limit"):
        signals._validate_config(dataclasses.replace(cfg, n_samples=limit_samples + 1))


def test_generate_dataset_empty_temperatures_rejected():
    with pytest.raises(InvalidArgumentError):
        signals.generate_dataset(tiny_config(temperatures_c=[]))


def test_actuation_jitter_shared_across_sensors():
    cfg = signals.ScenarioConfig(
        n_transducers=3,
        temperatures_c=[35.0, 45.0],
        temp_jitter_c=0.5,
        temp_stretch_per_c=5e-3,
        noise_snr_db=None,
        n_repeats=3,
        n_samples=2048,
        sample_rate_hz=1e6,
        echoes=[(1.0e-3, 1.0)],
    )
    specs = list(signals._iter_record_specs(cfg))
    jitter = signals._actuation_jitter(cfg, signals._group_events(specs))
    # keyed by actuation event: no sensor component in the key
    keys = set(jitter)
    assert all(len(k) == 5 for k in keys)
    draws = np.array(list(jitter.values()))
    assert np.std(draws) > 0.0
    # same (actuator, temp, state, severity, repeat) across sensors shares a draw:
    # sensors of one actuation see identical plate temperature, so records of
    # one event at different sensors are identical signals here
    records = signals.generate_dataset(cfg)
    by_event = {}
    for r in records:
        by_event.setdefault((r.actuator_id, r.temperature_c, r.severity), []).append(r)
    for group in by_event.values():
        reps = {}
        for r in group:
            reps.setdefault(r.id.rsplit("-", 1)[1], []).append(r.samples)
        for samples in reps.values():
            for s in samples[1:]:
                assert np.array_equal(s, samples[0])


def test_actuation_jitter_zero_when_disabled():
    cfg = tiny_config()
    specs = list(signals._iter_record_specs(cfg))
    jitter = signals._actuation_jitter(cfg, signals._group_events(specs))
    assert all(v == 0.0 for v in jitter.values())


def test_metadata_keeps_nominal_setpoint():
    cfg = tiny_config(temp_jitter_c=0.4)
    records = signals.generate_dataset(cfg)
    assert {r.temperature_c for r in records} == {35.0, 45.0}


def per_record_dataset(cfg):
    """Reference generator: one `synthesize` call per spec, in spec order,
    with the record's own child generator and its event's temperature drift
    (drawn per event in first-seen order from the jitter seed)."""
    specs = list(signals._iter_record_specs(cfg))
    events = list(dict.fromkeys((a, t, st, sev, rep) for a, _s, t, st, sev, rep in specs))
    drift = dict.fromkeys(events, 0.0)
    if cfg.temp_jitter_c > 0.0:
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 104729]))
        drift = dict(zip(events, rng.normal(0.0, cfg.temp_jitter_c, len(events)).tolist()))
    children = np.random.SeedSequence(cfg.seed).spawn(len(specs))
    out = []
    for (a, s, t, st, sev, rep), child in zip(specs, children):
        t_actual = t + drift[(a, t, st, sev, rep)]
        x = signals.synthesize(cfg, a, s, t_actual, sev, np.random.default_rng(child))
        out.append((signals._record_id(a, s, t, st, sev, rep), x))
    return out


ORACLE_CASES = {
    "4-transducers-noisy": dict(
        n_transducers=4, temp_jitter_c=0.4, temp_gain_per_c=0.012,
        damage_severities=[1.0, 2.5], damage_temperatures_c=[35.0, 55.0],
    ),
    "2-transducers-clean": dict(
        n_transducers=2, temp_jitter_c=0.4, temp_gain_per_c=-0.005,
        damage_severities=[1.5], damage_temperatures_c=[45.0], noise_snr_db=None,
    ),
    "3-transducers-no-jitter": dict(n_transducers=3, damage_severities=[2.0]),
}


def oracle_config(kw) -> signals.ScenarioConfig:
    return tiny_config(
        temperatures_c=[35.0, 45.0, 55.0], n_repeats=3, n_samples=1024,
        echoes=[(100e-6, 1.0), (300e-6, 0.5)], damage_echo=(200e-6, 0.6),
        temp_stretch_per_c=5e-3, **kw,
    )


@pytest.mark.parametrize("kw", list(ORACLE_CASES.values()), ids=list(ORACLE_CASES))
def test_generate_dataset_matches_per_record_synthesis(kw):
    cfg = oracle_config(kw)
    got = signals.generate_dataset(cfg)
    want = per_record_dataset(cfg)
    assert [r.id for r in got] == [rid for rid, _ in want]
    for rec, (_rid, x) in zip(got, want):
        assert rec.samples.tobytes() == x.tobytes()


@pytest.mark.parametrize("snr_db, sigma_kind", [
    (1e4, "zero"),  # sigma underflows to 0.0; negative draws give -0.0 noise
    (6200.0, "subnormal"),
    (60.0, "normal"),  # the reference scenario's SNR
])
def test_synthesize_noise_is_a_normal_draw_of_the_record_generator(snr_db, sigma_kind):
    # independent of _finish_record: the echo train, the path-weighted damage
    # echo, then Generator.normal(0, sigma) on the record's own generator
    cfg = tiny_config(noise_snr_db=snr_db, n_samples=1024, damage_echo=(200e-6, 0.6))
    cases = [(1, 2, 35.0, 0.0), (2, 1, 45.0, 0.0), (1, 2, 35.0, 2.0), (2, 1, 40.3, 1.5)]
    children = np.random.SeedSequence(cfg.seed).spawn(len(cases))
    for (actuator, sensor, temp, sev), child in zip(cases, children):
        clean = signals._echo_train(cfg, temp)
        if sev > 0.0:
            weight = signals.damage_path_weight(cfg, actuator, sensor)
            clean += sev * cfg.damage_echo[1] * weight * signals._damage_burst(cfg)
        sigma = float(np.sqrt(np.mean(clean * clean))) * 10.0 ** (-snr_db / 20.0)
        kind = ("zero" if sigma == 0.0 else
                "subnormal" if sigma < np.finfo(float).tiny else "normal")
        assert kind == sigma_kind
        want = clean + np.random.default_rng(child).normal(0.0, sigma, cfg.n_samples)
        got = signals.synthesize(cfg, actuator, sensor, temp, sev,
                                 np.random.default_rng(child))
        assert got.tobytes() == want.tobytes()


def pooled_dataset(monkeypatch, cfg, workers):
    """generate_dataset(cfg) with the step pool forced on for `workers`
    threads; also returns the pool sizes started."""
    started = []

    class CountingPool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            started.append(max_workers)
            super().__init__(max_workers, **kwargs)

    with monkeypatch.context() as mp:
        mp.setattr(concurrent.futures, "ThreadPoolExecutor", CountingPool)
        mp.setattr(_kernels, "POOL_MIN_RECORDS", 0)
        mp.setattr(_kernels, "STEP_WORKERS", workers)
        return signals.generate_dataset(cfg), started


def assert_same_records(got, want):
    assert [r.id for r in got] == [r.id for r in want]
    for a, b in zip(got, want):
        assert a.samples.tobytes() == b.samples.tobytes()


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("kw", list(ORACLE_CASES.values()), ids=list(ORACLE_CASES))
def test_generate_dataset_same_bytes_on_the_step_pool(kw, workers, monkeypatch):
    # the 3-transducer case splits 3 steps over 2 workers
    cfg = oracle_config(kw)
    monkeypatch.setattr(_kernels, "STEP_WORKERS", 1)
    inline = signals.generate_dataset(cfg)
    pooled, started = pooled_dataset(monkeypatch, cfg, workers)
    assert started == [min(workers, cfg.n_transducers)]
    assert_same_records(pooled, inline)


def test_generate_dataset_step_pool_stress_switching(monkeypatch):
    # switching threads every microsecond: a record written to the wrong
    # index, or made from another event's echo train, would move its bytes
    cfg = oracle_config(ORACLE_CASES["4-transducers-noisy"])
    inline = signals.generate_dataset(cfg)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pooled, started = pooled_dataset(monkeypatch, cfg, 4)
    finally:
        sys.setswitchinterval(interval)
    assert started == [4]
    assert_same_records(pooled, inline)


def test_small_scenario_generation_starts_no_pool(monkeypatch):
    # the 2-transducer reference-physics baselines: 180 records per step,
    # under POOL_MIN_RECORDS, so they are made inline
    class NoPool:
        def __init__(self, *args, **kwargs):
            raise AssertionError("a thread pool was started")

    cfg = dataclasses.replace(signals.reference_scenario(seed=1), n_transducers=2)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", NoPool)
    monkeypatch.setattr(_kernels, "STEP_WORKERS", 2)
    assert len(signals.generate_dataset(cfg)) == 360
    # the patch is live: with the gate lowered, the same call reaches it
    monkeypatch.setattr(_kernels, "POOL_MIN_RECORDS", 0)
    with pytest.raises(AssertionError, match="thread pool"):
        signals.generate_dataset(cfg)


# ---------------------------------------------------------------------------
# save / load
# ---------------------------------------------------------------------------


def test_save_load_round_trip(tmp_path):
    cfg = tiny_config()
    records = signals.generate_dataset(cfg)
    manifest = signals.save_dataset(records, str(tmp_path / "d"))
    loaded = signals.load_dataset(manifest)
    assert len(loaded) == len(records)
    by_id = {r.id: r for r in loaded}
    for rec in records:
        other = by_id[rec.id]
        assert np.array_equal(rec.samples, other.samples)
        assert other.actuator_id == rec.actuator_id
        assert other.sensor_id == rec.sensor_id
        assert other.temperature_c == rec.temperature_c
        assert other.state == rec.state
        assert other.severity == rec.severity
        assert other.sample_rate_hz == rec.sample_rate_hz


def test_load_missing_signal_file_names_record(tmp_path):
    cfg = tiny_config(n_repeats=1)
    records = signals.generate_dataset(cfg)
    manifest = signals.save_dataset(records, str(tmp_path / "d"))
    victim = records[0].id
    with open(manifest) as fh:
        rows = json.load(fh)
    assert isinstance(rows, list)
    path = [row["path"] for row in rows if row["id"] == victim][0]
    os.remove(tmp_path / "d" / path)
    with pytest.raises(DataFormatError) as err:
        signals.load_dataset(manifest)
    assert victim in str(err.value)


def test_load_truncated_sample_file_rejected(tmp_path):
    cfg = tiny_config(n_repeats=1)
    records = signals.generate_dataset(cfg)
    manifest = signals.save_dataset(records, str(tmp_path / "d"))
    with open(manifest) as fh:
        rows = json.load(fh)
    path = tmp_path / "d" / rows[0]["path"]
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[: len(lines) // 2]) + "\n")
    with pytest.raises(DataFormatError):
        signals.load_dataset(manifest)


def test_scenario_config_round_trip():
    cfg = signals.reference_scenario(seed=3, with_damage=True)
    back = signals.scenario_from_dict(signals.scenario_to_dict(cfg))
    assert back == cfg


def test_reference_scenario_sampling_keeps_carrier_in_deep_band():
    cfg = signals.reference_scenario()
    # deepest approximation band is [0, rate / 2^9]
    assert cfg.sample_rate_hz / 2.0**9 > cfg.carrier_freq_hz
