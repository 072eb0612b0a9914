"""Step layouts, unfolding and group-scaling behaviour."""
import numpy as np
import pytest

from aubase import fusion, pipeline, signals, wavelet
from aubase.errors import DegenerateDataError, InvalidArgumentError, LayoutError


def layout_for(n_channels: int, n_experiments: int) -> fusion.StepLayout:
    slots = []
    for e in range(n_experiments):
        slots.append(
            fusion.ExperimentSlot(
                key=f"T35-baseline-e{e:03d}",
                temperature_c=35.0,
                state="baseline",
                severity=0.0,
                record_ids={s: f"rec-e{e}-s{s}" for s in range(1, n_channels + 1)},
            )
        )
    return fusion.StepLayout(
        actuator_id=0, sensor_ids=list(range(1, n_channels + 1)), experiments=slots
    )


def records_for(layout, n_samples, rng):
    """Record id -> record of random samples, for every channel of every
    experiment of the layout."""
    return {
        rec_id: signals.SignalRecord(
            id=rec_id,
            actuator_id=layout.actuator_id,
            sensor_id=sensor,
            temperature_c=slot.temperature_c,
            state=slot.state,
            severity=slot.severity,
            sample_rate_hz=1e6,
            samples=rng.normal(size=n_samples),
        )
        for slot in layout.experiments
        for sensor, rec_id in slot.record_ids.items()
    }


def record_features(by_id, rec_id, level):
    return wavelet.extract_features(by_id[rec_id].samples, level)


# ---------------------------------------------------------------------------
# unfolding (pipeline._step_matrix builds every step's matrix)
# ---------------------------------------------------------------------------


def test_unfold_single_channel_stacks_vectors():
    layout = layout_for(1, 4)
    by_id = records_for(layout, 64, np.random.default_rng(0))
    mat = pipeline._step_matrix(layout, by_id, 2)
    assert mat.values.shape == (4, 16)
    for row, slot in zip(mat.values, layout.experiments):
        assert np.array_equal(row, record_features(by_id, slot.record_ids[1], 2))


def test_unfold_three_channels_sixteen_coeffs():
    layout = layout_for(3, 5)
    for slot in layout.experiments:
        # the layout's sensor order decides the channel order, not the slot's
        slot.record_ids = dict(reversed(slot.record_ids.items()))
    by_id = records_for(layout, 256, np.random.default_rng(1))
    mat = pipeline._step_matrix(layout, by_id, 4)
    assert mat.m == 48
    assert mat.n == 5
    groups, counts = np.unique(mat.col_groups, return_counts=True)
    assert list(groups) == [0, 1, 2]
    assert list(counts) == [16, 16, 16]
    # channel blocks appear in ascending sensor order
    slot = layout.experiments[2]
    row = mat.values[2]
    assert np.array_equal(row[:16], record_features(by_id, slot.record_ids[1], 4))
    assert np.array_equal(row[16:32], record_features(by_id, slot.record_ids[2], 4))
    assert np.array_equal(row[32:], record_features(by_id, slot.record_ids[3], 4))


def test_unfold_refold_recovers_inputs():
    # 6 experiments x 3 channels: feature blocks end inside experiments,
    # and 100 samples are zero-padded to 104 at level 3
    layout = layout_for(3, 6)
    by_id = records_for(layout, 100, np.random.default_rng(2))
    mat = pipeline._step_matrix(layout, by_id, 3)
    assert mat.meta == layout.experiments
    assert mat.sensor_ids == layout.sensor_ids
    width = mat.m // len(mat.sensor_ids)
    assert width == 13
    for i, slot in enumerate(mat.meta):
        for g, sensor in enumerate(mat.sensor_ids):
            block = mat.values[i, mat.col_groups == g]
            assert block.shape == (width,)
            assert np.array_equal(block, record_features(by_id, slot.record_ids[sensor], 3))


def test_unfold_ragged_lengths_rejected():
    # 776 and 777 samples give the same 98 coefficients at level 3: the
    # records of one step must share one sample length all the same
    layout = layout_for(2, 2)
    by_id = records_for(layout, 776, np.random.default_rng(3))
    victim = by_id[layout.experiments[1].record_ids[2]]
    victim.samples = np.zeros(777)
    with pytest.raises(InvalidArgumentError) as err:
        pipeline._step_matrix(layout, by_id, 3)
    msg = str(err.value)
    assert "(776,)" in msg and "(777,)" in msg


def test_build_step_layouts_groups_by_actuator():
    cfg = signals.ScenarioConfig(
        n_transducers=3,
        temperatures_c=[35.0, 45.0],
        echoes=[(10e-6, 1.0)],
        damage_echo=(20e-6, 0.25),
        n_repeats=2,
        n_samples=256,
        sample_rate_hz=1e6,
    )
    records = signals.generate_dataset(cfg)
    layouts = fusion.build_step_layouts(records)
    assert sorted(layouts) == [1, 2, 3]
    step = layouts[1]
    assert step.sensor_ids == [2, 3]
    # 2 temps x 2 repeats experiments, each slot holds one record per channel
    assert len(step.experiments) == 4
    for slot in step.experiments:
        assert sorted(slot.record_ids) == [2, 3]


def test_build_step_layouts_missing_channel_rejected():
    cfg = signals.ScenarioConfig(
        n_transducers=3,
        temperatures_c=[35.0],
        echoes=[(10e-6, 1.0)],
        damage_echo=(20e-6, 0.25),
        n_repeats=2,
        n_samples=256,
        sample_rate_hz=1e6,
    )
    records = signals.generate_dataset(cfg)
    victim = next(r for r in records if r.actuator_id == 1 and r.sensor_id == 3)
    pruned = [r for r in records if r is not victim]
    with pytest.raises(LayoutError) as err:
        fusion.build_step_layouts(pruned)
    assert "sensor 3" in str(err.value)


def test_experiment_key_format():
    assert fusion.experiment_key(35.0, "baseline", 0.0, 7) == "T35-baseline-e007"
    assert fusion.experiment_key(45.5, "damage", 2.0, 0) == "T45.5-damage2-e000"


# ---------------------------------------------------------------------------
# group scaling
# ---------------------------------------------------------------------------


def matrix(values, groups):
    values = np.asarray(values, dtype=float)
    return fusion.FeatureMatrix(
        values=values,
        col_groups=np.asarray(groups),
        sensor_ids=sorted(set(int(g) + 1 for g in groups)),
        meta=[None] * values.shape[0],
    )


def test_fit_hand_case_single_column():
    params = fusion.fit_group_scaling(matrix([[0.0], [2.0]], [0]))
    assert np.allclose(params.col_means, [1.0])
    # centered column {-1, +1}: sample std with n-1 convention = sqrt(2)
    assert abs(params.group_stds[0] - np.sqrt(2.0)) < 1e-12


def test_fit_pooled_std_matches_hand_pooling():
    # two columns in one group: pooled over all centered entries, n-1 per column
    vals = np.array([[0.0, 10.0], [2.0, 14.0], [4.0, 12.0]])
    params = fusion.fit_group_scaling(matrix(vals, [0, 0]))
    centered = vals - vals.mean(axis=0)
    pooled = np.sqrt(np.sum(centered**2) / (centered.size - 1))
    assert abs(params.group_stds[0] - pooled) < 1e-12


def test_identical_rows_rejected():
    with pytest.raises(DegenerateDataError):
        fusion.fit_group_scaling(matrix([[1.0, 2.0], [1.0, 2.0]], [0, 1]))


def test_apply_normalizes_each_group():
    rng = np.random.default_rng(3)
    vals = np.hstack([rng.normal(0, 5, (20, 3)), rng.normal(100, 0.2, (20, 4))])
    mat = matrix(vals, [0, 0, 0, 1, 1, 1, 1])
    params = fusion.fit_group_scaling(mat)
    out = fusion.apply_scaling(mat.values, params)
    assert np.max(np.abs(out.mean(axis=0))) < 1e-9
    for g in (0, 1):
        block = out[:, mat.col_groups == g]
        pooled = np.sqrt(np.sum(block**2) / (block.size - 1))
        assert abs(pooled - 1.0) < 1e-9


def test_apply_not_idempotent():
    rng = np.random.default_rng(4)
    mat = matrix(rng.normal(2.0, 3.0, (10, 2)), [0, 1])
    params = fusion.fit_group_scaling(mat)
    once = fusion.apply_scaling(mat.values, params)
    twice = fusion.apply_scaling(once, params)
    assert not np.allclose(once, twice)


def test_apply_row_equal_to_means_is_zero():
    rng = np.random.default_rng(5)
    mat = matrix(rng.normal(size=(8, 6)), [0, 0, 1, 1, 2, 2])
    params = fusion.fit_group_scaling(mat)
    out = fusion.apply_scaling(np.asarray(params.col_means), params)
    assert np.max(np.abs(out)) < 1e-12


def test_apply_is_affine():
    rng = np.random.default_rng(6)
    mat = matrix(rng.normal(size=(12, 4)), [0, 0, 1, 1])
    params = fusion.fit_group_scaling(mat)
    x1 = rng.normal(size=(3, 4))
    x2 = rng.normal(size=(3, 4))
    alpha = 0.3
    left = fusion.apply_scaling(alpha * x1 + (1 - alpha) * x2, params)
    right = alpha * fusion.apply_scaling(x1, params) + (
        1 - alpha
    ) * fusion.apply_scaling(x2, params)
    assert np.allclose(left, right, atol=1e-12)


def test_apply_layout_mismatch_rejected():
    rng = np.random.default_rng(7)
    mat = matrix(rng.normal(size=(6, 4)), [0, 0, 1, 1])
    params = fusion.fit_group_scaling(mat)
    with pytest.raises(InvalidArgumentError):
        fusion.apply_scaling(np.zeros(5), params)
