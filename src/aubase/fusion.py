"""Step layouts, unfolded feature matrices and group scaling.

For one actuation step, every experiment (one actuator firing, all other
transducers listening) contributes one record, and so one feature vector,
per sensing channel. A step layout fixes which record fills each channel of
each experiment. Unfolding concatenates an experiment's channel vectors into
a single row, so the matrix is experiments x (channels * features); the
pipeline builds it from the layout in one place. Group scaling then centres
each column and divides every column belonging to a sensing channel by one
pooled standard deviation for that channel, which equalizes channel energies
without destroying the relative scale of features inside a channel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDataError, InvalidArgumentError, LayoutError


@dataclass
class ExperimentSlot:
    """One experiment of a step layout: which record fills each channel."""

    key: str
    temperature_c: float
    state: str
    severity: float
    record_ids: dict  # sensor_id -> record id


@dataclass
class StepLayout:
    actuator_id: int
    sensor_ids: list  # sorted sensing channels
    experiments: list  # list[ExperimentSlot]


@dataclass
class FeatureMatrix:
    values: np.ndarray  # (n experiments, channels * features)
    col_groups: np.ndarray  # group id per column (index into sensor_ids)
    sensor_ids: list
    meta: list  # list[ExperimentSlot], one per row

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def m(self) -> int:
        return self.values.shape[1]

    def subset(self, indices) -> "FeatureMatrix":
        idx = list(indices)
        return FeatureMatrix(
            values=self.values[idx],
            col_groups=self.col_groups,
            sensor_ids=list(self.sensor_ids),
            meta=[self.meta[i] for i in idx],
        )


def experiment_key(temperature_c: float, state: str, severity: float, position: int) -> str:
    tag = "baseline" if state == "baseline" else f"damage{severity:g}"
    return f"T{temperature_c:g}-{tag}-e{position:03d}"


def build_step_layouts(records) -> dict:
    """Group records into per-step experiment layouts.

    Records sharing (actuator, temperature, state, severity) are bucketed by
    sensor and paired positionally after sorting by record id, so the k-th
    repeat of every channel lands in the same experiment. Channel counts must
    agree; a missing channel raises LayoutError naming the hole.
    """
    by_step: dict = {}
    for rec in records:
        by_step.setdefault(rec.actuator_id, []).append(rec)
    layouts = {}
    for actuator in sorted(by_step):
        recs = by_step[actuator]
        sensor_ids = sorted({r.sensor_id for r in recs})
        groups: dict = {}
        for r in recs:
            groups.setdefault((r.temperature_c, r.state, r.severity), {}).setdefault(
                r.sensor_id, []
            ).append(r)
        experiments = []
        for gkey in sorted(groups, key=lambda k: (k[0], k[1], k[2])):
            buckets = groups[gkey]
            counts = {s: len(buckets.get(s, [])) for s in sensor_ids}
            expected = max(counts.values())
            for s in sensor_ids:
                if counts[s] != expected:
                    temp, state, sev = gkey
                    raise LayoutError(
                        f"step {actuator}: sensor {s} has {counts[s]} records but "
                        f"{expected} expected for T={temp:g} state={state} severity={sev:g}"
                    )
            for s in sensor_ids:
                buckets[s].sort(key=lambda r: r.id)
            temp, state, sev = gkey
            for pos in range(expected):
                experiments.append(
                    ExperimentSlot(
                        key=experiment_key(temp, state, sev, pos),
                        temperature_c=temp,
                        state=state,
                        severity=sev,
                        record_ids={s: buckets[s][pos].id for s in sensor_ids},
                    )
                )
        layouts[actuator] = StepLayout(
            actuator_id=actuator, sensor_ids=sensor_ids, experiments=experiments
        )
    return layouts


@dataclass
class ScalingParams:
    col_means: np.ndarray
    group_stds: np.ndarray  # pooled std per group id
    col_groups: np.ndarray


def fit_group_scaling(matrix: FeatureMatrix) -> ScalingParams:
    """Column means plus one pooled sample standard deviation per group.

    The pooled std of group g uses every centred entry of the group block
    with the (count - 1) convention. A group with zero variance cannot be
    scaled and raises DegenerateDataError.
    """
    values, col_groups = matrix.values, matrix.col_groups
    if values.ndim != 2 or values.shape[0] < 2:
        raise InvalidArgumentError("group scaling needs a matrix with at least 2 rows")
    means = values.mean(axis=0)
    centred = values - means
    n_groups = int(col_groups.max()) + 1
    stds = np.zeros(n_groups)
    for g in range(n_groups):
        block = centred[:, col_groups == g]
        count = block.size
        if count < 2:
            raise InvalidArgumentError(f"group {g} has fewer than 2 entries")
        ss = float((block * block).sum())
        stds[g] = np.sqrt(ss / (count - 1))
        if not np.isfinite(stds[g]) or stds[g] <= 0.0:
            raise DegenerateDataError(f"group {g} has zero variance, cannot scale")
    return ScalingParams(col_means=means, group_stds=stds, col_groups=col_groups.copy())


def apply_scaling(values, params: ScalingParams) -> np.ndarray:
    """Centre and scale a 2-D array of rows, or one row."""
    values = np.asarray(values, dtype=float)
    if values.shape[-1] != params.col_means.shape[0]:
        raise InvalidArgumentError(
            f"column count {values.shape[-1]} does not match scaling "
            f"({params.col_means.shape[0]})"
        )
    return (values - params.col_means) / params.group_stds[params.col_groups]
