"""Two-phase training/detection mechanics on small scenarios."""
import concurrent.futures
import copy
import dataclasses
import json
import math
import os
import subprocess
import sys
import time
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import aubase
from aubase import _kernels, fusion, pca, pipeline, signals, store, wavelet
from aubase.errors import DegenerateDataError, InvalidArgumentError, LayoutError
from util import score_row_oracle, two_copy_features


def step_rows(bank, records, step):
    """Raw unfolded rows for one step, keyed by experiment: each record's
    features computed on their own, concatenated in sensor order."""
    layout = fusion.build_step_layouts(records)[step]
    level = bank.steps[step].level
    by_id = {r.id: r for r in records}
    return {
        slot.key: np.concatenate([
            wavelet.extract_features(by_id[slot.record_ids[s]].samples, level)
            for s in layout.sensor_ids
        ])
        for slot in layout.experiments
    }


# ---------------------------------------------------------------------------
# split
# ---------------------------------------------------------------------------


def test_split_sizes_disjoint_deterministic():
    train, val = pipeline._split_indices(180, 0.70, seed=0)
    assert len(train) == 126 and len(val) == 54
    assert not set(train) & set(val)
    assert sorted(train + val) == list(range(180))
    again_train, again_val = pipeline._split_indices(180, 0.70, seed=0)
    assert train == again_train and val == again_val
    other_train, _ = pipeline._split_indices(180, 0.70, seed=1)
    assert other_train != train
    with pytest.raises(InvalidArgumentError):
        pipeline._split_indices(1, 0.70, seed=0)


def test_bank_key_partition(small_bank, small_records):
    layouts = fusion.build_step_layouts(small_records)
    keys = [slot.key for slot in layouts[small_bank.step_ids[0]].experiments]
    assert sorted(small_bank.train_keys + small_bank.val_keys) == sorted(keys)
    assert not set(small_bank.train_keys) & set(small_bank.val_keys)
    assert len(small_bank.train_keys) == round(0.7 * len(keys))


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


def test_bank_structure(small_bank):
    assert small_bank.step_ids == [1, 2]
    for s in small_bank.step_ids:
        sm = small_bank.steps[s]
        assert sm.feature_width == len(sm.sensor_ids) * (4096 // 2**sm.level)
        assert sm.partition.n_clusters >= 1
        assert 0.0 <= sm.validation_exceedance <= 1.0
        for cm in sm.clusters.values():
            assert cm.q95 > 0.0 and math.isfinite(cm.q95)
            if cm.n_members >= 2:
                assert cm.model is not None
                assert cm.spe_threshold is not None
                assert cm.spe_threshold > 0.0 and math.isfinite(cm.spe_threshold)
    for vec in small_bank.validation:
        assert len(vec.spe) == len(small_bank.step_ids)
        assert all(v >= 0.0 for v in vec.spe)


def test_train_rejects_damage_records(damage_records):
    with pytest.raises(InvalidArgumentError):
        pipeline.train_phase1(damage_records, pipeline.PipelineConfig(seed=0))


def test_train_rejects_step_key_mismatch(small_records):
    victim = [
        r
        for r in small_records
        if r.actuator_id == 1 and r.temperature_c == 45.0 and r.id.endswith("r005")
    ]
    assert victim
    pruned = [r for r in small_records if r not in victim]
    with pytest.raises(LayoutError):
        pipeline.train_phase1(pruned, pipeline.PipelineConfig(seed=0))


def test_level_override_respected(small_records):
    bank = pipeline.train_phase1(
        small_records, pipeline.PipelineConfig(seed=0, level=5)
    )
    for s in bank.step_ids:
        assert bank.steps[s].level == 5
        assert bank.steps[s].feature_width == 4096 // 2**5


@pytest.mark.parametrize("n_records", [1, 3, 4, 5, 9])
def test_feature_blocks_match_per_record_calls(small_records, n_records):
    # step 1 has one channel, so n_records experiments hold n_records records
    # and the blocks of BLOCK_ROWS rows end mid-batch; 777 samples are
    # zero-padded at both levels
    full = fusion.build_step_layouts(small_records)[1]
    assert full.sensor_ids == [2]
    layout = dataclasses.replace(full, experiments=full.experiments[:n_records])
    for n_samples in (4096, 777):
        by_id = {r.id: dataclasses.replace(r, samples=r.samples[:n_samples])
                 for r in small_records}
        picked = [by_id[slot.record_ids[2]] for slot in layout.experiments]
        for level in (3, 8):
            fm = pipeline._step_matrix(layout, by_id, level)
            assert fm.n == n_records
            for row, rec in zip(fm.values, picked):
                assert np.array_equal(row, wavelet.extract_features(rec.samples, level))
        votes = Counter(wavelet.select_level(rec.samples) for rec in picked)
        modal = max(votes.items(), key=lambda kv: (kv[1], kv[0]))[0]
        blocks = pipeline._blocks(layout, by_id, layout.experiments)
        assert pipeline._modal_level(blocks, pipeline.PipelineConfig()) == modal


def test_feature_blocks_reject_non_1d_samples(small_records):
    full = fusion.build_step_layouts(small_records)[1]
    layout = dataclasses.replace(full, experiments=full.experiments[:1])
    rec_id = layout.experiments[0].record_ids[2]
    by_id = {r.id: r for r in small_records}
    by_id[rec_id] = dataclasses.replace(by_id[rec_id], samples=by_id[rec_id].samples.reshape(2, -1))
    with pytest.raises(InvalidArgumentError, match=r"\(2, 2048\)"):
        pipeline._step_matrix(layout, by_id, 3)


def short_step(small_records, n_records, n_samples):
    """(layout, by_id, picked records) for the first n_records experiments
    of the one-channel step 1, every record cut to n_samples."""
    full = fusion.build_step_layouts(small_records)[1]
    layout = dataclasses.replace(full, experiments=full.experiments[:n_records])
    by_id = {r.id: dataclasses.replace(r, samples=r.samples[:n_samples].copy())
             for r in small_records}
    return layout, by_id, [by_id[slot.record_ids[2]] for slot in layout.experiments]


@pytest.mark.parametrize("n_samples", [3, 5, 17, 777])
def test_step_matrix_one_copy_bitwise_equal(small_records, n_samples):
    # 6 records, read in place. At every length here some level pads the
    # record to fewer samples than its periodic extension, which then tiles
    # the padded record
    layout, by_id, picked = short_step(small_records, 6, n_samples)
    tiled = 0
    for level in range(1, 9):
        s, taps = wavelet._polyphase_filter(level).shape
        tiled += -(-n_samples // s) * s < s * (taps - 1)
        fm = pipeline._step_matrix(layout, by_id, level)
        assert fm.values.shape == (6, -(-n_samples // s))
        for row, rec in zip(fm.values, picked):
            assert row.tobytes() == wavelet.extract_features(rec.samples, level).tobytes()
            assert row.tobytes() == two_copy_features(rec.samples, level).tobytes()
    assert tiled > 0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_step_matrix_refuses_non_finite_mid_block(small_records, bad):
    # the sixth of nine records
    layout, by_id, picked = short_step(small_records, 9, 777)
    picked[5].samples[100] = bad
    with pytest.raises(InvalidArgumentError, match="signal contains non-finite samples"):
        pipeline._step_matrix(layout, by_id, 3)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("n_samples", [4096, 777])
def test_step_matrix_refuses_non_finite_first_last_and_head_sample(small_records, n_samples, bad):
    # level 8: 4,096 samples need no pad, 777 are padded and their
    # periodic extension wraps; the third position lies in the extension
    s, taps = wavelet._polyphase_filter(8).shape
    for pos in (0, n_samples - 1, min(n_samples, s * (taps - 1)) // 2):
        layout, by_id, picked = short_step(small_records, 3, n_samples)
        picked[1].samples[pos] = bad
        with pytest.raises(InvalidArgumentError, match="signal contains non-finite samples"):
            pipeline._step_matrix(layout, by_id, 8)


@pytest.mark.parametrize("n_samples", [4096, 777])
def test_step_matrix_keeps_overflowing_features_of_finite_records(small_records, n_samples):
    layout, by_id, picked = short_step(small_records, 3, n_samples)
    for sign, rec in zip((1.0, -1.0, 1.0), picked):
        rec.samples[:] = sign * 1e308
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        fm = pipeline._step_matrix(layout, by_id, 8)
        want = [two_copy_features(rec.samples, 8) for rec in picked]
    assert not np.all(np.isfinite(fm.values))
    np.testing.assert_array_equal(fm.values, want)


def test_step_matrix_mixed_lengths_name_both_shapes(small_records):
    layout, by_id, picked = short_step(small_records, 6, 17)
    picked[4].samples = picked[4].samples[:5]
    with pytest.raises(InvalidArgumentError) as err:
        pipeline._step_matrix(layout, by_id, 2)
    assert "(5,)" in str(err.value) and "(17,)" in str(err.value)


def test_record_order_changes_neither_bank_nor_report(small_records, small_bank,
                                                     damage_records, detect_report):
    order = np.random.default_rng(5).permutation(len(small_records))
    shuffled = [small_records[i] for i in order]
    bank = pipeline.train_phase1(shuffled, pipeline.PipelineConfig(seed=0))
    assert store.bank_hash(bank) == store.bank_hash(small_bank)
    reversed_report = pipeline.detect(small_bank, damage_records[::-1])
    assert store.canonical_json(store.detection_report_to_dict(reversed_report)) == (
        store.canonical_json(store.detection_report_to_dict(detect_report))
    )


def test_validation_never_influences_models(small_records, small_bank):
    def model_hash(bank):
        # bank_hash also covers the validation vectors, which must move here
        return store.bank_hash(dataclasses.replace(bank, validation=[]))

    base_hash = model_hash(small_bank)
    val_keys = set(small_bank.val_keys)
    layouts = fusion.build_step_layouts(small_records)
    val_ids = set()
    for s, layout in layouts.items():
        for slot in layout.experiments:
            if slot.key in val_keys:
                val_ids.update(slot.record_ids.values())
    assert val_ids
    perturbed = []
    for rec in small_records:
        if rec.id in val_ids:
            rec = dataclasses.replace(rec, samples=rec.samples * 1.7 + 0.3)
        perturbed.append(rec)
    bank2 = pipeline.train_phase1(perturbed, pipeline.PipelineConfig(seed=0))
    assert model_hash(bank2) == base_hash
    # control: touching one training record must change the fit
    train_id = next(
        rid
        for slot in layouts[1].experiments
        if slot.key in set(small_bank.train_keys)
        for rid in slot.record_ids.values()
    )
    control = [
        dataclasses.replace(r, samples=r.samples * 1.7 + 0.3) if r.id == train_id else r
        for r in small_records
    ]
    bank3 = pipeline.train_phase1(control, pipeline.PipelineConfig(seed=0))
    assert model_hash(bank3) != base_hash


def test_train_deterministic(small_records, small_bank):
    again = pipeline.train_phase1(small_records, pipeline.PipelineConfig(seed=0))
    assert store.bank_hash(again) == store.bank_hash(small_bank)


# ---------------------------------------------------------------------------
# baseline selection
# ---------------------------------------------------------------------------


def test_select_baseline_memorizes_calm_training_row(small_bank, small_records):
    step = small_bank.step_ids[0]
    sm = small_bank.steps[step]
    rows = step_rows(small_bank, small_records, step)
    train_rows = np.vstack([rows[k] for k in small_bank.train_keys])
    bmus = [int(np.argmin(np.sum((sm.map.weights - r) ** 2, axis=1))) for r in train_rows]
    qes = [float(np.linalg.norm(r - sm.map.weights[b])) for r, b in zip(train_rows, bmus)]
    # training rows may legitimately fall in unmodelled singleton clusters or
    # beyond their cluster gate (the gate is a 95th percentile), so pick the
    # quietest row that a fitted cluster can claim
    candidates = []
    for i, (b, qe) in enumerate(zip(bmus, qes)):
        cid = int(sm.partition.unit_label[b])
        if cid >= 0 and sm.clusters[cid].model is not None and qe <= sm.clusters[cid].q95:
            candidates.append((qe, i))
    assert candidates
    _, calm = min(candidates)
    sel = pipeline.select_baseline(small_bank, step, train_rows[calm])
    assert not sel.novel
    assert sel.cluster == int(sm.partition.datum_label[calm])


def test_select_baseline_mode_weight_hits_its_cluster(small_bank):
    step = small_bank.step_ids[0]
    sm = small_bank.steps[step]
    for cid, mode_unit in enumerate(sm.partition.modes):
        sel = pipeline.select_baseline(small_bank, step, sm.map.weights[mode_unit])
        if sm.clusters[cid].model is None:
            assert sel.novel
        else:
            assert not sel.novel
            assert sel.cluster == cid
            assert sel.bmu == mode_unit
            assert sel.qe == pytest.approx(0.0, abs=1e-9)


def test_select_baseline_far_outlier_is_novel(small_bank, small_records):
    step = small_bank.step_ids[0]
    rows = step_rows(small_bank, small_records, step)
    train_rows = np.vstack([rows[k] for k in small_bank.train_keys])
    mean = train_rows.mean(axis=0)
    radius = float(np.max(np.linalg.norm(train_rows - mean, axis=1)))
    direction = np.ones_like(mean) / np.sqrt(mean.size)
    outlier = mean + 10.0 * radius * direction
    sel = pipeline.select_baseline(small_bank, step, outlier)
    assert sel.novel
    assert sel.cluster is None
    sm = small_bank.steps[step]
    cid = int(sm.partition.unit_label[sel.bmu])
    if cid >= 0:
        assert sel.qe > sm.clusters[cid].q95


def test_select_baseline_validation(small_bank):
    step = small_bank.step_ids[0]
    width = small_bank.steps[step].feature_width
    with pytest.raises(InvalidArgumentError):
        pipeline.select_baseline(small_bank, step, np.zeros(width + 1))
    with pytest.raises(InvalidArgumentError):
        pipeline.select_baseline(small_bank, 99, np.zeros(width))


def test_select_baseline_refuses_non_1d_row(small_bank):
    # a (2, m/2) block holds m values but is no row
    step = small_bank.step_ids[0]
    row = small_bank.steps[step].map.weights[0]
    for block in (row.reshape(2, -1), row[None]):
        with pytest.raises(InvalidArgumentError):
            pipeline.select_baseline(small_bank, step, block)


def test_select_baseline_refuses_non_finite_row(small_bank):
    step = small_bank.step_ids[0]
    for bad in (np.nan, np.inf, -np.inf):
        row = small_bank.steps[step].map.weights[0].copy()
        row[3] = bad
        with pytest.raises(InvalidArgumentError):
            pipeline.select_baseline(small_bank, step, row)


def check_against_oracle(sm, rows):
    """The step pass over the 2-D rows, checked bit for bit against the
    per-row oracle; returns the pass's scores."""
    got = pipeline._score_step(sm, rows)
    assert len(got) == len(rows)
    for row, (sel, cid, spe_val, norm) in zip(rows, got):
        want_sel, want_cid, want_spe, want_norm = score_row_oracle(sm, row)
        assert (sel.novel, sel.cluster, sel.bmu, cid) == (
            want_sel.novel, want_sel.cluster, want_sel.bmu, want_cid)
        assert np.array([sel.qe, spe_val, norm]).tobytes() == np.array(
            [want_sel.qe, want_spe, want_norm]).tobytes()
    return got


def test_score_step_matches_per_row_oracle(small_bank, small_records):
    # every train and validation row, scored in one pass per step
    for s in small_bank.step_ids:
        rows = step_rows(small_bank, small_records, s)
        keys = small_bank.train_keys + small_bank.val_keys
        got = check_against_oracle(small_bank.steps[s], np.vstack([rows[k] for k in keys]))
        assert [sel for sel, *_ in got] == [
            pipeline.select_baseline(small_bank, s, rows[k]) for k in keys]


def test_score_step_unclustered_bmu_falls_back_to_lowest_equally_near_mode(small_bank):
    sm = copy.deepcopy(small_bank.steps[small_bank.step_ids[0]])
    w, labels = sm.map.weights, sm.partition.unit_label
    row = w[int(np.nonzero(labels < 0)[0][0])].copy()
    modeled = [k for k in sorted(sm.clusters) if sm.clusters[k].model is not None]
    assert len(modeled) >= 2
    sel, cid, _, _ = check_against_oracle(sm, row[None])[0]
    assert sel.novel and sel.cluster is None and labels[sel.bmu] < 0
    assert cid in modeled
    # two modes at one prototype: the lower cluster id wins
    lo, hi = modeled[:2]
    w[sm.partition.modes[lo]] = w[sm.partition.modes[hi]]
    sel, cid, _, _ = check_against_oracle(sm, row[None])[0]
    assert labels[sel.bmu] < 0 and cid == lo


def test_score_step_cluster_without_model_is_novel(small_bank):
    sm = small_bank.steps[small_bank.step_ids[0]]
    bare = [k for k in sorted(sm.clusters) if sm.clusters[k].model is None]
    assert bare
    row = sm.map.weights[sm.partition.modes[bare[0]]]
    sel, cid, _, _ = check_against_oracle(sm, row[None])[0]
    assert sel.novel and sel.cluster is None
    assert sm.partition.unit_label[sel.bmu] == bare[0]
    assert sm.clusters[cid].model is not None


def test_score_step_without_spe_threshold(small_bank, small_records):
    # no alarm threshold: a positive SPE normalizes to inf, a zero one to 0
    s = small_bank.step_ids[0]
    sm = copy.deepcopy(small_bank.steps[s])
    for cm in sm.clusters.values():
        cm.spe_threshold = None
    row = step_rows(small_bank, small_records, s)[small_bank.train_keys[0]]
    (_, cid, spe_val, norm), = check_against_oracle(sm, row[None])
    assert spe_val > 0.0 and norm == math.inf
    sm.clusters[cid].model.scaling.col_means = row.copy()
    (_, _, spe_val, norm), = check_against_oracle(sm, row[None])
    assert spe_val == 0.0 and norm == 0.0


def tie_bank(small_bank, ulps):
    """(bank, step, row, low, high): a copy of small_bank whose first step
    map has unit low < high set to unit high's prototype, moved by ulps
    units in the last place in one coordinate; row is unit high's
    prototype. One of the two is the first cluster's mode."""
    bank = copy.deepcopy(small_bank)
    step = bank.step_ids[0]
    w = bank.steps[step].map.weights
    high = int(bank.steps[step].partition.modes[0])
    low, high = sorted((high, 0 if high > 0 else 1))
    w[low] = w[high]
    for _ in range(ulps):
        w[low, 0] = np.nextafter(w[low, 0], np.inf)
    return bank, step, w[high].copy(), low, high


@pytest.mark.parametrize("ulps", [0, 1, 4])
def test_score_pass_ties_keep_their_bits(small_bank, ulps):
    # duplicated prototypes tie exactly and the lowest unit wins; prototypes
    # a few ulps apart may round to one distance in the p2 + r2 - 2 p.r
    # form, and the pass rounds them as the one-row search does
    bank, step, row, low, high = tie_bank(small_bank, ulps)
    sm = bank.steps[step]
    d2 = _kernels.pairwise_sqdist(row[None], sm.map.weights)[0]
    if ulps == 0:
        assert d2[low] == d2[high] == d2.min()
    sel = check_against_oracle(sm, row[None])[0][0]
    assert sel.bmu == (low if d2[low] <= d2[high] else high)
    assert sel == pipeline.select_baseline(bank, step, row)
    exact = np.sum((sm.map.weights - row) ** 2, axis=1)
    assert exact[sel.bmu] <= exact.min() + 1e-12 * float(row @ row)


def nudge(x, ulps):
    """x moved by ulps units in the last place (toward -inf when negative)."""
    for _ in range(abs(ulps)):
        x = np.nextafter(x, math.copysign(math.inf, ulps))
    return x


@settings(derandomize=True, max_examples=40, deadline=None)
@given(data=st.data())
def test_score_step_near_tie_bmus_match_oracle(small_bank, data):
    # rows a few ulps from a prototype with a twin an exact copy of it or a
    # few ulps away: the pass picks the oracle's unit, and between exact
    # copies always the lower index
    s = data.draw(st.sampled_from(small_bank.step_ids))
    sm = copy.deepcopy(small_bank.steps[s])
    w = sm.map.weights
    unit = data.draw(st.integers(0, len(w) - 1))
    twin = data.draw(st.integers(0, len(w) - 1).filter(lambda u: u != unit))
    twin_ulps = data.draw(st.integers(-4, 4))
    w[twin] = w[unit]
    w[twin, 0] = nudge(w[twin, 0], twin_ulps)
    moves = data.draw(st.lists(
        st.tuples(st.integers(0, w.shape[1] - 1), st.integers(-4, 4)), min_size=1, max_size=4))
    rows = np.repeat(w[unit][None], len(moves) + 1, axis=0)
    for row, (coord, ulps) in zip(rows[1:], moves):
        row[coord] = nudge(row[coord], ulps)
    for sel, *_ in check_against_oracle(sm, rows):
        assert sel.bmu in (unit, twin)
        if twin_ulps == 0:
            assert sel.bmu == min(unit, twin)


@pytest.mark.parametrize("batch", ["small_records", "damage_records"])
def test_scores_independent_of_batch_composition(small_bank, batch, request):
    # a row's per-step cells carry the same bits alone, in its batch and in
    # the reversed batch
    slots, rows, _ = pipeline._experiment_rows(small_bank, request.getfixturevalue(batch))

    def cells(order):
        picked = {s: rows[s][order] for s in small_bank.step_ids}
        scored = pipeline._score_experiments(small_bank, [slots[i] for i in order], picked)
        return {slots[i].key: repr(c) for i, (c, _) in zip(order, scored)}

    whole = cells(list(range(len(slots))))
    assert cells(list(reversed(range(len(slots))))) == whole
    for i, slot in enumerate(slots):
        assert cells([i]) == {slot.key: whole[slot.key]}


# ---------------------------------------------------------------------------
# single-temperature degenerate scenario
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def single_temp_setup():
    cfg = signals.ScenarioConfig(
        n_transducers=2,
        temperatures_c=[35.0],
        echoes=[(60e-6, 1.0), (170e-6, 0.4)],
        damage_echo=(140e-6, 0.8),
        damage_severities=[1.0],
        noise_snr_db=60.0,
        n_repeats=24,
        n_samples=16384,
        sample_rate_hz=51.2e6,
        seed=5,
    )
    records = signals.generate_dataset(cfg)
    # a compact map: ~17 training rows would splinter on the autosized grid
    pcfg = pipeline.PipelineConfig(seed=3, grid=(3, 3))
    return pcfg, records


def test_single_temperature_one_cluster(single_temp_setup):
    pcfg, records = single_temp_setup
    baselines = [r for r in records if r.state == "baseline"]
    bank = pipeline.train_phase1(baselines, pcfg)
    for s in bank.step_ids:
        assert bank.steps[s].partition.n_clusters == 1


def test_single_temperature_comparison_coincides(single_temp_setup):
    pcfg, records = single_temp_setup
    report = pipeline.compare_monolithic(records, pcfg)
    for step in report.steps:
        assert set(step.r_clusters) == {0}
        assert step.r_clusters[0] == step.r_mono


# ---------------------------------------------------------------------------
# detection
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def detect_report(small_bank, damage_records):
    return pipeline.detect(small_bank, damage_records)


def test_detect_covers_every_experiment_once(detect_report, damage_records):
    layouts = fusion.build_step_layouts(damage_records)
    want = {slot.key for layout in layouts.values() for slot in layout.experiments}
    got = [r.key for r in detect_report.results] + list(detect_report.incomplete)
    assert len(got) == len(set(got))
    assert set(got) == want
    assert detect_report.incomplete == []


@pytest.fixture(scope="module")
def train_records(small_bank, small_records):
    """The bank's training-fraction baseline experiments. Every experiment
    of damage_records scores novel; some of these do not."""
    return experiment_records(small_records, small_bank.train_keys)


@pytest.fixture(scope="module")
def train_report(small_bank, train_records):
    return pipeline.detect(small_bank, train_records)


def test_training_baselines_include_a_non_novel_experiment(train_report):
    assert any(not res.novelty for res in train_report.results)


def check_result_consistency(report, bank):
    steps = report.step_ids
    for res in report.results:
        assert len(res.spe_vector.spe) == len(steps)
        assert all(v >= 0.0 for v in res.spe_vector.spe)
        assert res.novelty == any(res.spe_vector.novelty)
        if res.novelty:
            assert res.score == math.inf
        else:
            assert res.score == pytest.approx(max(res.spe_vector.normalized))
        assert res.second_cluster is not None and res.second_cluster >= 0
        assert res.decision != ""
        for s in steps:
            cell = res.per_step[s]
            sm = bank.steps[s]
            assert cell["qe"] >= 0.0
            assert cell["scored_cluster"] in sm.clusters
            assert sm.clusters[cell["scored_cluster"]].model is not None
            if cell["selected"] != "novel":
                assert cell["selected"] == cell["scored_cluster"]
                assert cell["qe"] <= sm.clusters[cell["selected"]].q95 + 1e-12


def test_detect_result_consistency(detect_report, small_bank):
    check_result_consistency(detect_report, small_bank)


def test_detect_result_consistency_on_training_baselines(train_report, small_bank):
    check_result_consistency(train_report, small_bank)


def experiment_records(records, keys):
    """The records of the experiments with the given keys."""
    keys = set(keys)
    ids = {rid for layout in fusion.build_step_layouts(records).values()
           for slot in layout.experiments if slot.key in keys
           for rid in slot.record_ids.values()}
    return [r for r in records if r.id in ids]


def test_detect_on_held_out_baselines_reproduces_validation(small_bank, small_records):
    # one scoring path: detect scores the held-out experiments exactly as
    # training scored them into the bank's validation references
    held_out = experiment_records(small_records, small_bank.val_keys)
    report = pipeline.detect(small_bank, held_out)
    assert len(report.results) == len(small_bank.validation)
    for res, ref in zip(report.results, small_bank.validation):
        vec = res.spe_vector
        assert vec.temperature_c == ref.temperature_c
        assert np.array(vec.spe).tobytes() == np.array(ref.spe).tobytes()
        assert vec.novelty == ref.novelty
        assert np.array(vec.normalized).tobytes() == np.array(ref.normalized).tobytes()
    cells = {res.key: res.per_step for res in report.results}
    for s in small_bank.step_ids:
        rows = step_rows(small_bank, held_out, s)
        assert sorted(rows) == sorted(cells)
        for key, row in rows.items():
            sel = pipeline.select_baseline(small_bank, s, row)
            assert cells[key][s]["selected"] == ("novel" if sel.novel else sel.cluster)
            assert cells[key][s]["qe"] == sel.qe


def test_threshold_rule_below_four_spe_vectors(small_bank, small_records, damage_records):
    # with fewer than 4 SPE vectors, validation references included, no
    # second map is fit and the first-level scores decide
    rows = {s: step_rows(small_bank, small_records, s) for s in small_bank.step_ids}
    calm_key = next(
        key for key in small_bank.train_keys
        if not any(pipeline.select_baseline(small_bank, s, rows[s][key]).novel
                   for s in small_bank.step_ids)
    )
    calm = experiment_records(small_records, [calm_key])
    damaged = [r for r in damage_records
               if r.state == "damage" and r.severity == 1.0 and r.id.endswith("r000")]

    def decisions(bank, records):
        report = pipeline.detect(bank, records)
        assert len(bank.validation) + len(report.results) < 4
        for res in report.results:
            assert res.second_cluster is None
            if res.novelty:
                assert res.decision == "novel/damage"
            elif res.score > 1.0:
                assert res.decision == "damage-suspect"
            else:
                assert res.decision == "baseline-like"
        return {res.state: res.decision for res in report.results}

    one_ref = dataclasses.replace(small_bank, validation=small_bank.validation[:1])
    two_refs = dataclasses.replace(small_bank, validation=small_bank.validation[:2])
    # thresholds below the calm experiment's SPE push it over 1 without
    # touching its selection
    tight = copy.deepcopy(one_ref)
    calm_spe = pipeline.detect(one_ref, calm).results[0].spe_vector.spe
    for sm in tight.steps.values():
        for cm in sm.clusters.values():
            if cm.model is not None:
                cm.spe_threshold = min(calm_spe) / 2.0
    assert decisions(two_refs, calm) == {"baseline": "baseline-like"}
    assert decisions(tight, calm) == {"baseline": "damage-suspect"}
    assert decisions(one_ref, calm + damaged) == {
        "baseline": "baseline-like", "damage": "novel/damage"}


def check_novelty_gate(bank, records):
    # recompute selection per step from raw rows and compare with the gate
    for s in bank.step_ids:
        rows = step_rows(bank, records, s)
        sm = bank.steps[s]
        for key, row in rows.items():
            sel = pipeline.select_baseline(bank, s, row)
            cid = int(sm.partition.unit_label[sel.bmu])
            if not sel.novel:
                assert sel.qe <= sm.clusters[sel.cluster].q95 + 1e-12
            else:
                assert (
                    cid < 0
                    or sm.clusters[cid].model is None
                    or sel.qe > sm.clusters[cid].q95
                )


def test_detect_novelty_gate_recheckable(small_bank, damage_records):
    check_novelty_gate(small_bank, damage_records)


def test_detect_novelty_gate_recheckable_on_training_baselines(small_bank, train_records):
    check_novelty_gate(small_bank, train_records)


def test_detect_incomplete_experiment_listed(small_bank, damage_records):
    layouts = fusion.build_step_layouts(damage_records)
    victim_key = layouts[1].experiments[-1].key
    victim_ids = set(layouts[1].experiments[-1].record_ids.values())
    pruned = [r for r in damage_records if r.id not in victim_ids]
    report = pipeline.detect(small_bank, pruned)
    assert victim_key in report.incomplete
    assert victim_key not in {r.key for r in report.results}


def test_detect_deterministic(small_bank, damage_records, detect_report):
    again = pipeline.detect(small_bank, damage_records)
    a = store.canonical_json(store.detection_report_to_dict(again))
    b = store.canonical_json(store.detection_report_to_dict(detect_report))
    assert a == b


def test_detect_rejects_missing_step(small_bank, damage_records):
    only_step_one = [r for r in damage_records if r.actuator_id == 1]
    with pytest.raises(LayoutError):
        pipeline.detect(small_bank, only_step_one)


def test_detection_report_serializes(detect_report):
    doc = store.detection_report_to_dict(detect_report)
    text = store.canonical_json(doc)
    assert text
    keys = [row["key"] for row in doc["results"]]
    assert len(keys) == len(set(keys))


# ---------------------------------------------------------------------------
# monolithic comparison
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_comparison(damage_records):
    return pipeline.compare_monolithic(damage_records, pipeline.PipelineConfig(seed=0))


def test_compare_extracts_each_record_once(damage_records, monkeypatch):
    rows = []
    extract = wavelet.extract_features

    def counted(x, level, *args, **kwargs):
        rows.append(np.atleast_2d(x).shape[0])
        return extract(x, level, *args, **kwargs)

    monkeypatch.setattr(wavelet, "extract_features", counted)
    pipeline.compare_monolithic(damage_records, pipeline.PipelineConfig(seed=0))
    assert sum(rows) == len(damage_records)


def test_compare_report_structure(small_comparison, damage_records):
    layouts = fusion.build_step_layouts(damage_records)
    n_damage = sum(
        1 for slot in layouts[1].experiments if slot.state == "damage"
    )
    for step in small_comparison.steps:
        assert step.r_mono >= 1
        assert all(r >= 1 for r in step.r_clusters.values())
        for v in (step.auc_proposed, step.auc_mono):
            assert 0.0 <= v <= 1.0
        for v in (
            step.fpr_calibrated_proposed,
            step.fpr_calibrated_mono,
            step.fpr_theoretical_mono,
            step.fpr_tpr95_proposed,
            step.fpr_tpr95_mono,
        ):
            assert 0.0 <= v <= 1.0
        assert step.n_pos == n_damage
        assert step.n_neg >= 1
    summary = small_comparison.summary
    for field in (
        "mean_auc_proposed",
        "mean_auc_mono",
        "mean_fpr_tpr95_proposed",
        "mean_fpr_tpr95_mono",
        "fpr_reduction_factor",
    ):
        assert field in summary
    doc = store.comparison_report_to_dict(small_comparison)
    assert store.canonical_json(doc)


def test_pipeline_config_round_trip():
    cfg = pipeline.PipelineConfig(seed=4, theta=0.5, grid=(6, 5), level=7)
    back = pipeline.PipelineConfig.from_dict(cfg.to_dict())
    assert back == cfg


@pytest.mark.parametrize("cfg", [
    pipeline.PipelineConfig(),
    pipeline.PipelineConfig(
        seed=4, theta=0.5, grid=(6, 5), second_grid=(3, 2), level=7,
        lambda_start=2.5, rho=0.3, kernel_form="gaussian", init="random",
        labeled_decisions=False,
    ),
])
def test_pipeline_config_to_dict_matches_asdict_form(cfg):
    want = dataclasses.asdict(cfg)
    want["grid"] = list(cfg.grid) if cfg.grid else None
    want["second_grid"] = list(cfg.second_grid) if cfg.second_grid else None
    got = cfg.to_dict()
    assert got == want
    assert json.dumps(got) == json.dumps(want)  # same keys in the same order


def test_second_level_log1p_matches_per_row_form(small_bank, damage_records, monkeypatch):
    # the stacked log1p gives the second map the bits of one log1p per vector
    seen = []
    fit_map = pipeline._fit_map

    def spy(grid, data, config, seed):
        seen.append(data.copy())
        return fit_map(grid, data, config, seed)

    monkeypatch.setattr(pipeline, "_fit_map", spy)
    report = pipeline.detect(small_bank, damage_records)
    want = np.vstack(
        [np.log1p(np.asarray(v.spe)) for v in small_bank.validation]
        + [np.log1p(np.asarray(r.spe_vector.spe)) for r in report.results]
    )
    assert len(seen) == 1
    assert seen[0].tobytes() == want.tobytes() and seen[0].shape == want.shape


# ---------------------------------------------------------------------------
# the step pool: same bytes with any worker count, same errors
# ---------------------------------------------------------------------------


def pool_on(monkeypatch, workers):
    """Send every call's steps to a pool of `workers` threads (1 runs inline)."""
    monkeypatch.setattr(_kernels, "POOL_MIN_RECORDS", 0)
    monkeypatch.setattr(_kernels, "STEP_WORKERS", workers)


def four_step_records():
    from conftest import small_scenario

    cfg = dataclasses.replace(small_scenario(with_damage=True), n_transducers=4,
                              n_repeats=4)
    return signals.generate_dataset(cfg)


@pytest.fixture(scope="module")
def four_step_outputs():
    """The four-step records, and their bank hash, canonical report text
    and comparison summary with every step run inline."""
    records = four_step_records()
    with pytest.MonkeyPatch.context() as mp:
        pool_on(mp, 1)
        return records, step_pool_outputs(records)


def step_pool_outputs(records):
    baselines = [r for r in records if r.state == "baseline"]
    bank = pipeline.train_phase1(baselines, pipeline.PipelineConfig(seed=3))
    report = pipeline.detect(bank, records)
    comparison = pipeline.compare_monolithic(records, pipeline.PipelineConfig(seed=3))
    return (store.bank_hash(bank),
            store.canonical_json(store.detection_report_to_dict(report)),
            store.canonical_json(comparison.summary))


@pytest.mark.parametrize("workers", [2, 3])
def test_step_pool_same_bytes_for_any_worker_count(four_step_outputs, monkeypatch,
                                                   workers):
    records, inline = four_step_outputs
    pool_on(monkeypatch, workers)
    assert step_pool_outputs(records) == inline


def test_step_pool_stress_more_workers_than_cores(four_step_outputs, monkeypatch):
    # 4 threads on at most 2 cores, switching every microsecond: a lost
    # update between steps would move the bank, report or summary bytes
    records, inline = four_step_outputs
    pool_on(monkeypatch, 4)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert step_pool_outputs(records) == inline
    finally:
        sys.setswitchinterval(interval)


def pooled_bank_hash() -> str:
    """Bank hash of the small scenario fitted with the step pool on."""
    from conftest import small_scenario

    _kernels.POOL_MIN_RECORDS = 0
    _kernels.STEP_WORKERS = 2
    bank = pipeline.train_phase1(signals.generate_dataset(small_scenario()),
                                 pipeline.PipelineConfig(seed=0))
    return store.bank_hash(bank)


def test_step_pool_same_bank_with_one_and_two_blas_threads(small_bank):
    src = os.path.dirname(os.path.dirname(aubase.__file__))
    tests = os.path.dirname(os.path.abspath(__file__))
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c",
             "import test_pipeline; print(test_pipeline.pooled_bank_hash())"],
            env=env, cwd=tests, capture_output=True, text=True, check=True,
            timeout=300,
        )
        assert out.stdout.strip() == store.bank_hash(small_bank)


def test_step_pool_keeps_step_order(monkeypatch):
    # later steps finish first; the results still come back in step order
    pool_on(monkeypatch, 4)
    done = []

    def work(step):
        time.sleep(0.05 * (4 - step))
        done.append(step)
        return step * 10

    assert _kernels._map_steps(work, range(4), 0) == [0, 10, 20, 30]
    assert done != [0, 1, 2, 3]


@pytest.mark.parametrize("workers", [1, 2])
def test_step_pool_raises_the_lowest_failing_step(small_records, monkeypatch, workers):
    def degenerate(*args, **kwargs):
        raise DegenerateDataError("no variance")

    monkeypatch.setattr(pca, "fit", degenerate)
    pool_on(monkeypatch, workers)
    with pytest.raises(DegenerateDataError) as err:
        pipeline.train_phase1(small_records, pipeline.PipelineConfig(seed=0))
    assert str(err.value) == (
        "step 1: no cluster of the baseline map has a usable PCA model"
    )


def test_one_experiment_detect_starts_no_pool(small_bank, damage_records, monkeypatch):
    class NoPool:
        def __init__(self, *args, **kwargs):
            raise AssertionError("a thread pool was started")

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", NoPool)
    monkeypatch.setattr(_kernels, "STEP_WORKERS", 2)
    one = experiment_records(damage_records, [fusion.build_step_layouts(
        damage_records)[1].experiments[0].key])
    report = pipeline.detect(small_bank, one)
    assert len(report.results) == 1
    # the patch is live: with the gate lowered, the same call reaches it
    monkeypatch.setattr(_kernels, "POOL_MIN_RECORDS", 0)
    with pytest.raises(AssertionError, match="thread pool"):
        pipeline.detect(small_bank, one)
