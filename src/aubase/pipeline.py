"""Two-phase damage detection with temperature-aware baseline selection.

Phase 1 (training) runs per actuation step on baseline records only:
wavelet features are extracted at the entropy-selected level, unfolded per
experiment, and split 70/30 into training and validation experiments. One
builder, _step_matrix, makes every step's unfolded matrix, for training,
detection and the monolithic comparison alike: the records of a step share
one 1-D sample length, and their features are stacked in layout order. A SOM
is batch-trained on the training fraction and clustered (density + border
merging), which discovers the operating-condition groups without being told
how many there are. Every cluster with enough members gets its own group
scaling, its own PCA model at the configured variance share, a quantization
error gate (q95 of its members), and an SPE alarm threshold (95th percentile
of its members' SPE).

Phase 2 (detection) scores every experiment and step through one path,
the same one that scores the held-out validation baselines during training.
The best-matching unit of the step's map picks the baseline cluster. The
experiment is novel, which short-circuits to damage, when that unit lies in
no cluster, the cluster has no PCA model, or the quantization error exceeds
the cluster's q95 gate. The SPE is scored against the selected cluster's
model (for a novel row, the nearest modeled mode's) and normalized by that
cluster's alarm threshold; one entry per step makes the experiment's SPE
vector. The log-scaled vectors of the batch plus the held-out validation
baselines feed a second-level SOM whose clusters separate pristine data
from damage classes.

The validation fraction never touches any model parameter or threshold; it
only provides reference SPE vectors and calibration statistics.

A step's features are made in one pass that reads each record in place
(see wavelet.extract_features). A step's rows are scored in one pass of
stacked one-row products: a row gets the same bits alone and in any batch.

The steps share nothing until the SPE vectors are assembled, so their work
(level choice, features, map fit and cluster PCA in training; features in
detection) runs on the step pool (_kernels._map_steps), one thread per
usable core, when every step holds at least _kernels.POOL_MIN_RECORDS
records; smaller calls run the steps inline. The results are collected in
step order, so no output depends on the pool.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, fields

import numpy as np

from . import _kernels, ds2l, pca, som, wavelet
from .errors import (
    AT_LEAST_ONE,
    NON_NEGATIVE,
    POSITIVE,
    DegenerateDataError,
    InvalidArgumentError,
    LayoutError,
    check_fields,
)
from .fusion import FeatureMatrix, apply_scaling, build_step_layouts

QUANTILE = 0.95
# Records per block for level selection. A block amortizes the per-call
# overhead of the cascade over its rows; blocks of 64 rows were no faster
# than blocks of 4. The step pool (_kernels._map_steps) works on whole steps.
BLOCK_ROWS = 4


@dataclass
class PipelineConfig:
    train_frac: float = 0.70
    variance_threshold: float = 0.95
    max_level: int = wavelet.DEFAULT_MAX_LEVEL
    level: int | None = None  # override the entropy-based choice
    grid: tuple | None = None  # None -> size heuristic
    second_grid: tuple | None = None
    epochs: int = som.DEFAULT_EPOCHS
    lambda_start: float | None = None
    lambda_end: float = 1.0
    kernel_form: str = "normalized"
    init: str = "linear"
    theta: float = 0.45
    rho: float | None = None
    labeled_decisions: bool = True
    seed: int = 0

    def to_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["grid"] = list(self.grid) if self.grid else None
        d["second_grid"] = list(self.second_grid) if self.second_grid else None
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "PipelineConfig":
        known = set(cls.__dataclass_fields__)
        extra = set(d) - known
        if extra:
            raise InvalidArgumentError(f"unknown pipeline config fields: {sorted(extra)}")
        check_fields(d, "pipeline config", _CONFIG_KINDS, _CONFIG_RANGES, _OPTIONAL_FIELDS)
        kwargs = dict(d)
        for key in ("grid", "second_grid"):
            if kwargs.get(key) is not None:
                kwargs[key] = tuple(kwargs[key])
        return cls(**kwargs)


# JSON value kind of each PipelineConfig field; the optional ones may be null
_CONFIG_KINDS = {
    "train_frac": "a finite number", "variance_threshold": "a finite number",
    "max_level": "an integer", "level": "an integer",
    "grid": "two positive integers", "second_grid": "two positive integers",
    "epochs": "an integer", "lambda_start": "a finite number",
    "lambda_end": "a finite number", "kernel_form": "a string", "init": "a string",
    "theta": "a finite number", "rho": "a finite number", "labeled_decisions": "a boolean",
    "seed": "an integer",
}
_OPTIONAL_FIELDS = {"level", "grid", "second_grid", "lambda_start", "rho"}
# allowed values of the numeric fields, checked once the kind is right
_CONFIG_RANGES = {
    "train_frac": ("in (0, 1)", lambda v: 0 < v < 1),
    "variance_threshold": ("in (0, 1]", lambda v: 0 < v <= 1),
    "max_level": AT_LEAST_ONE, "level": AT_LEAST_ONE, "epochs": AT_LEAST_ONE,
    "lambda_start": POSITIVE, "lambda_end": POSITIVE, "rho": POSITIVE,
    "theta": NON_NEGATIVE, "seed": NON_NEGATIVE,
}


@dataclass
class ClusterModel:
    model: pca.PcaModel | None
    q95: float
    spe_threshold: float | None
    n_members: int


@dataclass
class StepModel:
    actuator_id: int
    level: int
    sensor_ids: list
    feature_width: int
    map: som.SomModel
    rho: float
    theta: float
    partition: ds2l.ClusterPartition
    clusters: dict  # cluster id -> ClusterModel
    validation_exceedance: float | None = None


@dataclass
class SpeVector:
    key: str
    temperature_c: float
    state: str
    severity: float
    spe: list
    novelty: list
    normalized: list


@dataclass
class BaselineBank:
    config: PipelineConfig
    step_ids: list
    steps: dict  # actuator id -> StepModel
    train_keys: list
    val_keys: list
    validation: list  # list[SpeVector] for the held-out baselines


@dataclass
class SelectionResult:
    novel: bool
    cluster: int | None
    bmu: int
    qe: float


def _split_indices(n: int, train_frac: float, seed: int):
    if n < 2:
        raise InvalidArgumentError("need at least 2 experiments per step to split")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    order = rng.permutation(n)
    n_train = int(round(train_frac * n))
    n_train = max(1, min(n_train, n - 1))
    return sorted(order[:n_train].tolist()), sorted(order[n_train:].tolist())


def _step_samples(layout, by_id: dict, experiments) -> list:
    """The sample arrays of the given experiments of the layout,
    experiment-major, each experiment's channels in layout.sensor_ids
    order. The records of a step must share one 1-D sample length."""
    samples = [by_id[slot.record_ids[s]].samples
               for slot in experiments for s in layout.sensor_ids]
    shapes = sorted({np.shape(x) for x in samples})
    if len(shapes) != 1 or len(shapes[0]) != 1:
        raise InvalidArgumentError(
            f"step {layout.actuator_id}: records must share one 1-D sample "
            f"length; found sample shapes {shapes}"
        )
    return samples


def _blocks(layout, by_id: dict, experiments):
    """Yield (rows, samples) blocks of at most BLOCK_ROWS records: the
    _step_samples of the experiments, stacked."""
    samples = _step_samples(layout, by_id, experiments)
    for start in range(0, len(samples), BLOCK_ROWS):
        yield np.stack(samples[start:start + BLOCK_ROWS])


def _modal_level(blocks, config: PipelineConfig) -> int:
    votes = Counter()
    for block in blocks:
        votes.update(wavelet.select_level(block, max_level=config.max_level).tolist())
    # most common level; ties resolve toward the deeper decomposition
    best = max(votes.items(), key=lambda kv: (kv[1], kv[0]))
    return best[0]


def _step_matrix(layout, by_id: dict, level: int) -> FeatureMatrix:
    """The step's unfolded features: one row per experiment of the layout,
    holding its channels' level-`level` approximation coefficients side by
    side in layout.sensor_ids order. by_id maps record id -> record. The
    step's records go to extract_features as one list, read in place."""
    features = wavelet.extract_features(
        _step_samples(layout, by_id, layout.experiments), level)
    channels = len(layout.sensor_ids)
    width = features.shape[1]
    return FeatureMatrix(
        values=features.reshape(len(layout.experiments), channels * width),
        col_groups=np.repeat(np.arange(channels), width),
        sensor_ids=list(layout.sensor_ids),
        meta=list(layout.experiments),
    )


def _fit_map(grid, data: np.ndarray, config: PipelineConfig, seed):
    """(enriched map, partition): a map initialized from seed, batch-trained
    on data and clustered."""
    model = som.init_som(
        grid,
        data,
        mode=config.init,
        seed=seed,
        kernel_form=config.kernel_form,
        lambda_start=config.lambda_start,
        lambda_end=config.lambda_end,
    )
    model = som.train(model, data, epochs=config.epochs)
    enriched = ds2l.enrich(model, data, rho=config.rho)
    return enriched, ds2l.cluster(enriched, theta=config.theta)


def _quantile(values: np.ndarray) -> float:
    return float(np.quantile(np.asarray(values, dtype=float), QUANTILE, method="linear"))


def train_phase1(records, config: PipelineConfig | None = None) -> BaselineBank:
    """Build the per-step baseline bank from baseline records."""
    return _fit_bank(records, config)[0]


def _fit_bank(records, config: PipelineConfig | None):
    """(bank, {step: unfolded features of every baseline experiment})."""
    config = config or PipelineConfig()
    records = list(records)
    if not records:
        raise InvalidArgumentError("no records to train on")
    bad = [r.id for r in records if r.state != "baseline"]
    if bad:
        raise InvalidArgumentError(
            f"training expects baseline records only; found {len(bad)} others "
            f"(first: {bad[0]})"
        )
    if config.level is not None:
        # the cap select_level applies: at least one coefficient remains
        cap = min(np.size(r.samples) for r in records).bit_length() - 1
        if config.level > cap:
            raise InvalidArgumentError(
                f"level {config.level} exceeds {cap}, the deepest level the "
                "shortest record allows"
            )
    layouts = build_step_layouts(records)
    step_ids = sorted(layouts)
    key_lists = {s: [slot.key for slot in layouts[s].experiments] for s in step_ids}
    ref_keys = key_lists[step_ids[0]]
    for s in step_ids[1:]:
        if key_lists[s] != ref_keys:
            raise LayoutError(
                f"steps {step_ids[0]} and {s} disagree on experiment keys; "
                "every step must cover the same conditions and repeats"
            )
    train_idx, val_idx = _split_indices(len(ref_keys), config.train_frac, config.seed)
    by_id = {r.id: r for r in records}

    fits = _kernels._map_steps(
        lambda si: _fit_step(layouts[step_ids[si]], by_id, train_idx, config, si),
        range(len(step_ids)),
        len(records) / len(step_ids),
    )
    steps = {s: sm for s, (sm, _) in zip(step_ids, fits)}
    fm_by_step = {s: fm for s, (_, fm) in zip(step_ids, fits)}

    bank = BaselineBank(
        config=config,
        step_ids=step_ids,
        steps=steps,
        train_keys=[ref_keys[i] for i in train_idx],
        val_keys=[ref_keys[i] for i in val_idx],
        validation=[],
    )
    val_slots = [fm_by_step[step_ids[0]].meta[i] for i in val_idx]
    val_rows = {s: fm_by_step[s].values[val_idx] for s in step_ids}
    bank.validation = [vec for _, vec in _score_experiments(bank, val_slots, val_rows)]
    for i, s in enumerate(step_ids):
        exceed = sum(vec.normalized[i] > 1.0 for vec in bank.validation)
        steps[s].validation_exceedance = exceed / len(bank.validation)
    return bank, fm_by_step


def _fit_step(layout, by_id: dict, train_idx, config: PipelineConfig, si: int):
    """(StepModel, unfolded features of every experiment) for the step-si
    layout: level choice on the training experiments, the feature pass, the
    map fit and one PCA per cluster."""
    s = layout.actuator_id
    level = config.level
    if level is None:
        train_slots = [layout.experiments[i] for i in train_idx]
        level = _modal_level(_blocks(layout, by_id, train_slots), config)
    fm_all = _step_matrix(layout, by_id, level)
    fm_train = fm_all.subset(train_idx)
    enriched, partition = _fit_map(
        config.grid or som.default_grid(fm_train.n),
        fm_train.values,
        config,
        np.random.SeedSequence([config.seed, 2, si]),
    )

    qe_all = np.sqrt(
        np.sum((fm_train.values - enriched.som.weights[enriched.bmu1]) ** 2, axis=1)
    )
    clusters = {}
    for cid in range(partition.n_clusters):
        member_idx = np.nonzero(partition.datum_label == cid)[0]
        q95 = _quantile(qe_all[member_idx])
        cluster_model = None
        threshold = None
        if member_idx.size >= 2:
            try:
                cluster_model = pca.fit(
                    fm_train.subset(member_idx.tolist()),
                    variance_threshold=config.variance_threshold,
                )
                threshold = _quantile(
                    pca.spe(cluster_model, fm_train.values[member_idx])
                )
            except DegenerateDataError:
                cluster_model = None
                threshold = None
        clusters[cid] = ClusterModel(
            model=cluster_model,
            q95=q95,
            spe_threshold=threshold,
            n_members=int(member_idx.size),
        )
    if all(c.model is None for c in clusters.values()):
        # detection scores novel rows against some modeled cluster
        raise DegenerateDataError(
            f"step {s}: no cluster of the baseline map has a usable PCA model"
        )
    model = StepModel(
        actuator_id=s,
        level=level,
        sensor_ids=list(layout.sensor_ids),
        feature_width=fm_all.m,
        map=enriched.som,
        rho=enriched.rho,
        theta=config.theta,
        partition=partition,
        clusters=clusters,
    )
    return model, fm_all


def select_baseline(bank: BaselineBank, step: int, feature_row) -> SelectionResult:
    """Pick the baseline cluster for one unfolded feature row, or flag novelty.

    Novel means: the BMU belongs to no cluster, the cluster has no usable
    model, or the quantization error exceeds the cluster's q95 gate. The
    row must be 1-D and finite; it is scored as a one-row pass.
    """
    if step not in bank.steps:
        raise InvalidArgumentError(f"bank has no actuation step {step}")
    row = np.asarray(feature_row, dtype=float)
    if row.ndim != 1 or not np.isfinite(row).all():
        raise InvalidArgumentError("feature row must be a 1-D array of finite values")
    return _score_step(bank.steps[step], np.ascontiguousarray(row)[None])[0][0]


def _row_dots(d: np.ndarray) -> np.ndarray:
    """d . d along the last axis, one (1, m) @ (m, 1) product per row."""
    return (d[..., None, :] @ d[..., :, None])[..., 0, 0]


def _spe_rows(model: pca.PcaModel, rows: np.ndarray) -> np.ndarray:
    """pca.spe of each row alone, through stacked one-row products."""
    xs = apply_scaling(rows, model.scaling)
    resid = xs - ((xs[:, None, :] @ model.loadings) @ model.loadings.T)[:, 0]
    return _row_dots(resid)


def _score_step(sm: StepModel, rows: np.ndarray) -> list:
    """[(selection, scored cluster, SPE, SPE / that cluster's alarm
    threshold)] per row of the 2-D rows: every row the pipeline scores.

    A novel row is still scored: against its BMU's cluster when that one is
    modeled, else against the modeled cluster with the nearest mode
    prototype. Every product is a stack of one-row products, so a row gets
    the bits it gets alone in any batch; a GEMM over the rows rounds
    differently in the last bits, which would move bank and report bytes.
    """
    if rows.shape[1] != sm.feature_width:
        raise InvalidArgumentError(
            f"feature row has {rows.shape[1]} columns, step {sm.actuator_id} "
            f"expects {sm.feature_width}"
        )
    w = sm.map.weights
    d2 = (_kernels.row_sqnorms(rows)[:, None] + _kernels.row_sqnorms(w)
          - 2.0 * (rows[:, None, :] @ w.T)[:, 0])
    np.maximum(d2, 0.0, out=d2)
    units = d2.argmin(axis=1)
    qes = np.sqrt(_row_dots(rows - w[units])).tolist()
    clusters = sm.clusters
    selections, scored = [], []
    for unit, cid, qe in zip(units.tolist(), sm.partition.unit_label[units].tolist(), qes):
        modeled = cid >= 0 and clusters[cid].model is not None
        novel = not modeled or qe > clusters[cid].q95
        selections.append(SelectionResult(novel, None if novel else cid, unit, qe))
        scored.append(cid if modeled else None)
    fallback = [i for i, cid in enumerate(scored) if cid is None]
    if fallback:
        candidates = [k for k in sorted(clusters) if clusters[k].model is not None]
        if not candidates:
            raise DegenerateDataError(
                f"step {sm.actuator_id} has no cluster with a usable PCA model"
            )
        modes = w[[sm.partition.modes[k] for k in candidates]]
        # the first of the modes at the least norm (not squared distance) wins
        near = np.sqrt(_row_dots(rows[fallback][:, None, :] - modes)).argmin(axis=1)
        for i, k in zip(fallback, near.tolist()):
            scored[i] = candidates[k]
    spe = {}
    for cid in set(scored):
        idx = [i for i, c in enumerate(scored) if c == cid]
        part = rows if len(idx) == len(rows) else rows[idx]  # no copy for one cluster
        spe.update(zip(idx, _spe_rows(clusters[cid].model, part).tolist()))
    out = []
    for i, (sel, cid) in enumerate(zip(selections, scored)):
        spe_val, threshold = spe[i], clusters[cid].spe_threshold
        if threshold is None or threshold <= 0.0:
            norm = math.inf if spe_val > 0.0 else 0.0
        else:
            norm = spe_val / threshold
        out.append((sel, cid, spe_val, norm))
    return out


def _score_experiments(bank: BaselineBank, slots, rows: dict) -> list:
    """[(per-step cells, SpeVector)] for each experiment slot, where rows
    maps each bank step to its 2-D unfolded rows aligned with slots."""
    per_step = [_score_step(bank.steps[s], rows[s]) for s in bank.step_ids]
    scored = []
    for slot, row_scores in zip(slots, zip(*per_step)):
        cells = {
            s: {
                "selected": "novel" if sel.novel else sel.cluster,
                "scored_cluster": cid,
                "qe": sel.qe,
                "spe": spe_val,
                "normalized": norm,
            }
            for s, (sel, cid, spe_val, norm) in zip(bank.step_ids, row_scores)
        }
        vec = SpeVector(
            key=slot.key,
            temperature_c=slot.temperature_c,
            state=slot.state,
            severity=slot.severity,
            spe=[c["spe"] for c in cells.values()],
            novelty=[sel.novel for sel, *_ in row_scores],
            normalized=[c["normalized"] for c in cells.values()],
        )
        scored.append((cells, vec))
    return scored


@dataclass
class ExperimentResult:
    key: str
    temperature_c: float
    state: str
    severity: float
    per_step: dict  # step -> {selected, scored_cluster, qe, spe, normalized}
    novelty: bool
    spe_vector: SpeVector
    score: float
    second_cluster: int | None = None
    decision: str = ""


@dataclass
class DetectionReport:
    step_ids: list
    results: list  # list[ExperimentResult]
    incomplete: list  # experiment keys missing at least one step
    metadata: dict


def _experiment_rows(bank: BaselineBank, records):
    """(slots of the experiments that cover every bank step, in layout order;
    each step's rows as one 2-D array aligned with them; keys missing a step)."""
    layouts = build_step_layouts(records)
    missing = [s for s in bank.step_ids if s not in layouts]
    if missing:
        raise LayoutError(f"records do not cover bank steps {missing}")
    extra = [s for s in layouts if s not in bank.steps]
    if extra:
        raise LayoutError(f"records contain steps {extra} the bank was not trained on")
    for s in bank.step_ids:
        if layouts[s].sensor_ids != bank.steps[s].sensor_ids:
            raise LayoutError(
                f"step {s}: sensing channels {layouts[s].sensor_ids} do not match "
                f"the bank ({bank.steps[s].sensor_ids})"
            )
    by_id = {r.id: r for r in records}
    fms = _kernels._map_steps(
        lambda s: _step_matrix(layouts[s], by_id, bank.steps[s].level),
        bank.step_ids,
        len(records) / len(layouts),
    )
    index = [{slot.key: i for i, slot in enumerate(fm.meta)} for fm in fms]
    complete = [slot for slot in fms[0].meta if all(slot.key in ix for ix in index)]
    incomplete = list(dict.fromkeys(
        key for ix in index for key in ix if not all(key in jx for jx in index)))
    aligned = {s: fm.values[[ix[slot.key] for slot in complete]]
               for s, fm, ix in zip(bank.step_ids, fms, index)}
    return complete, aligned, incomplete


def detect(bank: BaselineBank, records, config: PipelineConfig | None = None) -> DetectionReport:
    """Score a batch of experiments against the bank and classify them.

    The first-level selection and SPE scores of an experiment depend only
    on its own records. The second-level decision does not: the second map
    is refit on every call over the bank's validation references plus this
    batch's SPE vectors, so it depends on the rest of the batch.
    """
    config = config or bank.config
    records = list(records)
    if not records:
        raise InvalidArgumentError("no records to detect on")
    slots, rows, incomplete = _experiment_rows(bank, records)
    if not slots:
        raise LayoutError("no experiment covers every bank step")

    results = [
        ExperimentResult(
            key=vec.key,
            temperature_c=vec.temperature_c,
            state=vec.state,
            severity=vec.severity,
            per_step=cells,
            novelty=any(vec.novelty),
            spe_vector=vec,
            score=math.inf if any(vec.novelty) else max(vec.normalized),
        )
        for cells, vec in _score_experiments(bank, slots, rows)
    ]
    _second_level(bank, results, config)
    metadata = {
        "config": config.to_dict(),
        "seed": config.seed,
        "levels": {s: bank.steps[s].level for s in bank.step_ids},
        "n_validation_references": len(bank.validation),
    }
    return DetectionReport(
        step_ids=list(bank.step_ids),
        results=results,
        incomplete=incomplete,
        metadata=metadata,
    )


def _state_tag(state: str, severity: float) -> str:
    return "baseline" if state == "baseline" else f"damage{severity:g}"


def _second_level(bank: BaselineBank, results, config: PipelineConfig) -> None:
    """Cluster log-scaled SPE vectors (batch plus validation references)."""
    reference = bank.validation
    rows = [v.spe for v in reference] + [r.spe_vector.spe for r in results]
    z = np.log1p(np.array(rows, dtype=float))
    if z.shape[0] < 4:
        for r in results:
            if r.novelty:
                r.decision = "novel/damage"
            elif r.score > 1.0:
                r.decision = "damage-suspect"
            else:
                r.decision = "baseline-like"
        return
    # SPE vectors clump tightly; keep the map dense (>= ~4 points per unit)
    # so stray tail points cannot occupy isolated units of their own
    grid = config.second_grid
    if grid is None:
        rows_default, _ = som.default_grid(z.shape[0])
        side = max(2, min(rows_default, int(np.sqrt(z.shape[0] / 4.0))))
        grid = (side, side)
    _, partition = _fit_map(grid, z, config, np.random.SeedSequence([config.seed, 3]))

    tags = ["baseline"] * len(reference) + [
        _state_tag(r.state, r.severity) for r in results
    ]
    majority = {}
    for cid in range(partition.n_clusters):
        members = [tags[i] for i in np.nonzero(partition.datum_label == cid)[0]]
        counts = Counter(members)
        # ties prefer the baseline tag (fewer false alarms), then sort order
        top = max(sorted(counts.items()), key=lambda kv: (kv[1], kv[0] == "baseline"))
        majority[cid] = top[0]
    offset = len(reference)
    for i, r in enumerate(results):
        cid = int(partition.datum_label[offset + i])
        r.second_cluster = cid
        if r.novelty:
            r.decision = "novel/damage"
        elif not config.labeled_decisions:
            r.decision = f"cluster-{cid}"
        elif majority[cid] == "baseline":
            r.decision = f"baseline-{cid}"
        else:
            r.decision = f"damage-{cid}"


# ---------------------------------------------------------------------------
# ablation: one all-temperature PCA model per step
# ---------------------------------------------------------------------------

@dataclass
class StepComparison:
    step: int
    r_mono: int
    r_clusters: dict  # cluster id -> retained components
    auc_proposed: float
    auc_mono: float
    fpr_calibrated_proposed: float
    fpr_calibrated_mono: float
    fpr_theoretical_mono: float
    fpr_tpr95_proposed: float
    fpr_tpr95_mono: float
    n_pos: int
    n_neg: int
    roc_proposed: object = None
    roc_mono: object = None


@dataclass
class ComparisonReport:
    steps: list  # list[StepComparison]
    summary: dict
    bank: BaselineBank


def compare_monolithic(records, config: PipelineConfig | None = None) -> ComparisonReport:
    """Train the clustered bank and a single all-temperature PCA per step,
    then score the same paired hold-out (held-out baselines as negatives,
    damage experiments as positives) under both.

    Reported per step: retained components, AUC, and three false-positive
    readings: at each method's own calibrated threshold (95th-percentile SPE
    construction for both), at the monolithic model's normal-theory control
    limit, and at the high-sensitivity ROC operating point (the smallest FPR
    reaching 95% detection), which is the comparison the ROC study uses.
    """
    from . import evaluate

    config = config or PipelineConfig()
    records = list(records)
    baselines = [r for r in records if r.state == "baseline"]
    damages = [r for r in records if r.state != "baseline"]
    if not baselines or not damages:
        raise InvalidArgumentError(
            "comparison needs both baseline and damage records"
        )
    bank, fm_by_step = _fit_bank(baselines, config)
    dmg_layouts = build_step_layouts(damages)
    dmg_by_id = {r.id: r for r in damages}
    missing = [s for s in bank.step_ids if s not in dmg_layouts]
    if missing:
        raise LayoutError(f"damage records do not cover steps {missing}")

    key_order = {slot.key: i for i, slot in enumerate(fm_by_step[bank.step_ids[0]].meta)}
    train_idx = [key_order[k] for k in bank.train_keys]
    val_idx = [key_order[k] for k in bank.val_keys]

    steps = []
    for s in bank.step_ids:
        sm = bank.steps[s]
        fm_train = fm_by_step[s].subset(train_idx)
        fm_val = fm_by_step[s].subset(val_idx)

        mono = pca.fit(fm_train, variance_threshold=config.variance_threshold)
        mono_thr = _quantile(pca.spe(mono, fm_train.values))
        mono_jm = pca.spe_control_limit(mono, alpha=1.0 - QUANTILE)

        fm_dmg = _step_matrix(dmg_layouts[s], dmg_by_id, sm.level)
        rows = np.vstack([fm_val.values, fm_dmg.values])
        labels = np.repeat([0, 1], [fm_val.n, fm_dmg.n])
        prop_scores = np.array([math.inf if sel.novel else norm
                                for sel, _, _, norm in _score_step(sm, rows)])
        mono_scores = _spe_rows(mono, rows)

        roc_prop = evaluate.roc(prop_scores, labels)
        roc_mono = evaluate.roc(mono_scores, labels)
        steps.append(
            StepComparison(
                step=s,
                r_mono=mono.r,
                r_clusters={
                    cid: cm.model.r
                    for cid, cm in sm.clusters.items()
                    if cm.model is not None
                },
                auc_proposed=evaluate.auc(roc_prop),
                auc_mono=evaluate.auc(roc_mono),
                fpr_calibrated_proposed=evaluate.fpr_at(prop_scores, labels, 1.0),
                fpr_calibrated_mono=evaluate.fpr_at(mono_scores, labels, mono_thr),
                fpr_theoretical_mono=evaluate.fpr_at(mono_scores, labels, mono_jm),
                fpr_tpr95_proposed=evaluate.fpr_at_tpr(roc_prop, QUANTILE),
                fpr_tpr95_mono=evaluate.fpr_at_tpr(roc_mono, QUANTILE),
                n_pos=int(labels.sum()),
                n_neg=int(labels.size - labels.sum()),
                roc_proposed=roc_prop,
                roc_mono=roc_mono,
            )
        )

    mean_prop = float(np.mean([st.fpr_tpr95_proposed for st in steps]))
    mean_mono = float(np.mean([st.fpr_tpr95_mono for st in steps]))
    summary = {
        "mean_fpr_tpr95_proposed": mean_prop,
        "mean_fpr_tpr95_mono": mean_mono,
        "fpr_reduction_factor": (math.inf if mean_prop == 0.0 else mean_mono / mean_prop),
        "mean_auc_proposed": float(np.mean([st.auc_proposed for st in steps])),
        "mean_auc_mono": float(np.mean([st.auc_mono for st in steps])),
        "max_cluster_r": {
            st.step: max(st.r_clusters.values(), default=0) for st in steps
        },
        "r_mono": {st.step: st.r_mono for st in steps},
    }
    return ComparisonReport(steps=steps, summary=summary, bank=bank)
