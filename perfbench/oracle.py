"""Reference computations made apart from the package, for checking its outputs.

The first level of detection is re-scored here in plain numpy from a bank's
stored parameters, following the documented rule:

1. features: approximation coefficients of a periodic orthonormal DWT at the
   step's level, one block per sensing channel in sensor order;
2. BMU: the unit at minimum Euclidean distance (brute force over all units);
3. novelty: the BMU belongs to no cluster, its cluster has no PCA model, or
   the distance exceeds the cluster's q95 gate;
4. scored cluster: the BMU's cluster when it has a model, else the modelled
   cluster whose mode prototype is nearest;
5. SPE: squared residual of the group-scaled row after projection on the
   cluster's loadings; normalized = SPE / the cluster's SPE threshold;
6. experiment: novel when any step is; score = inf if novel, else the
   largest normalized SPE.

Where round-off can decide (near-tie BMUs, a distance on its gate, equally
near modes) every candidate is tried and the reported value must match one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

RTOL_TIE = 1e-9  # distances this close are treated as ties
RTOL = 1e-9  # agreement asked of reported values


class CheckFailed(Exception):
    pass


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# wavelet features
# ---------------------------------------------------------------------------

def check_filter(h: np.ndarray, vanishing: int = 8) -> None:
    """Orthonormal scaling filter with the given number of vanishing moments
    (the properties that pin down a Daubechies filter up to its phase)."""
    h = np.asarray(h, dtype=float)
    taps = h.size
    require(taps == 2 * vanishing, f"filter has {taps} taps, expected {2 * vanishing}")
    require(abs(h.sum() - math.sqrt(2.0)) < 1e-12, "filter taps do not sum to sqrt(2)")
    for shift in range(0, taps, 2):
        dot = float(h[shift:] @ h[: taps - shift])
        require(abs(dot - (1.0 if shift == 0 else 0.0)) < 1e-12,
                f"filter is not orthonormal at shift {shift}")
    g = np.where(np.arange(taps) % 2 == 0, 1.0, -1.0) * h[::-1]
    k = (np.arange(taps) - (taps - 1) / 2.0) / ((taps - 1) / 2.0)
    for p in range(vanishing):
        require(abs(float(g @ k ** p)) < 1e-10, f"wavelet moment {p} is not zero")


def approximation(signals: np.ndarray, h: np.ndarray, level: int) -> np.ndarray:
    """Level-`level` approximation of each row: a[k] = sum_l h[l] x[(2k+l) mod n],
    applied `level` times, after zero-padding to a multiple of 2**level."""
    a = np.atleast_2d(np.asarray(signals, dtype=float))
    block = 1 << level
    if a.shape[1] % block:
        a = np.pad(a, ((0, 0), (0, block - a.shape[1] % block)))
    for _ in range(level):
        out = np.zeros((a.shape[0], a.shape[1] // 2))
        for lag, tap in enumerate(h):
            out += tap * np.roll(a, -lag, axis=1)[:, ::2]
        a = out
    return a


# ---------------------------------------------------------------------------
# bank parameters, from the library objects or from the bank's JSON files
# ---------------------------------------------------------------------------

@dataclass
class ClusterView:
    q95: float
    threshold: float | None
    means: np.ndarray | None  # None when the cluster has no PCA model
    scale: np.ndarray | None  # per-column divisor (group std of the column)
    loadings: np.ndarray | None


@dataclass
class StepView:
    level: int
    sensor_ids: list
    weights: np.ndarray
    unit_label: np.ndarray
    modes: list
    clusters: dict  # cluster id -> ClusterView


def step_from_model(sm) -> StepView:
    clusters = {}
    for cid, cm in sm.clusters.items():
        m = cm.model
        clusters[int(cid)] = ClusterView(
            q95=float(cm.q95),
            threshold=cm.spe_threshold,
            means=None if m is None else np.asarray(m.scaling.col_means, dtype=float),
            scale=None if m is None else np.asarray(
                m.scaling.group_stds, dtype=float)[np.asarray(m.scaling.col_groups)],
            loadings=None if m is None else np.asarray(m.loadings, dtype=float),
        )
    return StepView(
        level=int(sm.level),
        sensor_ids=[int(s) for s in sm.sensor_ids],
        weights=np.asarray(sm.map.weights, dtype=float),
        unit_label=np.asarray(sm.partition.unit_label, dtype=int),
        modes=[int(u) for u in sm.partition.modes],
        clusters=clusters,
    )


def step_from_json(doc: dict) -> StepView:
    clusters = {}
    for cid, cd in doc["clusters"].items():
        pca = cd["pca"]
        scaling = pca["scaling"] if pca else None
        clusters[int(cid)] = ClusterView(
            q95=float(cd["q95"]),
            threshold=cd["spe_threshold"],
            means=None if pca is None else np.array(scaling["col_means"], dtype=float),
            scale=None if pca is None else np.array(scaling["group_stds"], dtype=float)[
                np.array(scaling["col_groups"], dtype=int)],
            loadings=None if pca is None else np.array(pca["loadings"], dtype=float),
        )
    return StepView(
        level=int(doc["level"]),
        sensor_ids=[int(s) for s in doc["sensor_ids"]],
        weights=np.array(doc["som"]["weights"], dtype=float),
        unit_label=np.array(doc["partition"]["unit_label"], dtype=int),
        modes=[int(u) for u in doc["partition"]["modes"]],
        clusters=clusters,
    )


def same_step(a: StepView, b: StepView) -> bool:
    """Bit-for-bit equality of two views of a step model."""
    def same(x, y):
        if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
            return x is not None and y is not None and np.array_equal(x, y)
        return x == y

    return (
        a.level == b.level and a.sensor_ids == b.sensor_ids and a.modes == b.modes
        and same(a.weights, b.weights) and same(a.unit_label, b.unit_label)
        and a.clusters.keys() == b.clusters.keys()
        and all(same(getattr(a.clusters[k], f), getattr(b.clusters[k], f))
                for k in a.clusters for f in ("q95", "threshold", "means", "scale", "loadings"))
    )


# ---------------------------------------------------------------------------
# first-level re-scoring
# ---------------------------------------------------------------------------

def _spe(cv: ClusterView, row: np.ndarray):
    xs = (row - cv.means) / cv.scale
    resid = xs - cv.loadings @ (cv.loadings.T @ xs)
    return float(resid @ resid), float(xs @ xs)


def _normalized(spe: float, threshold) -> float:
    if threshold is None or threshold <= 0.0:
        return math.inf if spe > 0.0 else 0.0
    return spe / threshold


def _nearest(points: np.ndarray, x: np.ndarray) -> tuple:
    """Indices of the points within round-off of the nearest one to x, and
    the distances to all points. Squared distances computed by any sound
    formula (the expanded |x|^2 + |p|^2 - 2 x.p included) agree to far
    better than 1e-12 of |x|^2 + |p|^2, which sets the tie width."""
    d2 = ((points - x) ** 2).sum(axis=1)
    slack = 1e-12 * (float(x @ x) + float((points ** 2).sum(axis=1).max()))
    best = float(d2.min())
    return np.flatnonzero(d2 <= best * (1.0 + RTOL_TIE) + slack), np.sqrt(d2)


def step_candidates(view: StepView, row: np.ndarray) -> list:
    """Every outcome the documented rule allows for one step, as dicts with
    the keys of a report's per-step entry plus the scaled row energy and the
    SPE threshold, which set the tolerances."""
    near, dist = _nearest(view.weights, row)
    out = []
    for unit in near:
        qe = float(dist[unit])
        cid = int(view.unit_label[unit])
        cv = view.clusters.get(cid) if cid >= 0 else None
        if cv is None or cv.loadings is None:
            gates = [True]
        elif abs(qe - cv.q95) <= RTOL_TIE * cv.q95:
            gates = [False, True]
        else:
            gates = [qe > cv.q95]
        for novel in gates:
            for scored in _scored_clusters(view, row, cid, novel):
                spe, energy = _spe(view.clusters[scored], row)
                threshold = view.clusters[scored].threshold
                out.append({
                    "selected": "novel" if novel else cid,
                    "scored_cluster": scored,
                    "qe": qe,
                    "spe": spe,
                    "normalized": _normalized(spe, threshold),
                    "energy": energy,
                    "threshold": threshold,
                })
    return out


def _scored_clusters(view: StepView, row: np.ndarray, cid: int, novel: bool) -> list:
    modeled = sorted(k for k, cv in view.clusters.items() if cv.loadings is not None)
    require(bool(modeled), "step has no cluster with a PCA model")
    if not novel or cid in modeled:
        return [cid]
    near, _ = _nearest(view.weights[[view.modes[k] for k in modeled]], row)
    return [modeled[i] for i in near]


def _close(got: float, want: float, scale: float) -> bool:
    if math.isinf(got) or math.isinf(want):
        return got == want
    return abs(got - want) <= RTOL * max(abs(want), scale)


def _matches(reported: dict, cand: dict) -> bool:
    """Round-off in an SPE grows with |residual| * |scaled row|, so
    sqrt(SPE * energy) (over the threshold, for the normalized score) sets
    the scale of the tolerance."""
    sel = reported["selected"]
    sel = "novel" if sel == "novel" else int(sel)
    thr = cand["threshold"]
    scale = math.sqrt(cand["spe"] * cand["energy"])
    return (
        sel == cand["selected"]
        and int(reported["scored_cluster"]) == cand["scored_cluster"]
        and _close(float(reported["qe"]), cand["qe"], 0.0)
        and _close(float(reported["spe"]), cand["spe"], scale)
        and _close(float(reported["normalized"]), cand["normalized"],
                   scale / thr if thr else 0.0)
    )


def rescore_experiment(key: str, views: dict, rows: dict, result: dict) -> None:
    """Check one reported experiment. `views` and `rows` map step id to a
    StepView and the experiment's unfolded feature row; `result` holds
    `per_step` (step id -> entry with selected, scored_cluster, qe, spe,
    normalized), `novelty`, `score`, `spe` and `normalized` (lists in step
    order). Non-finite values arrive as floats."""
    steps = sorted(views)
    novel_any = False
    for pos, s in enumerate(steps):
        reported = result["per_step"][s]
        cands = step_candidates(views[s], rows[s])
        require(any(_matches(reported, c) for c in cands),
                f"{key} step {s}: reported {reported} matches none of the "
                f"re-scored outcomes {[{k: c[k] for k in reported} for c in cands]}")
        require(float(result["spe"][pos]) == float(reported["spe"])
                and float(result["normalized"][pos]) == float(reported["normalized"]),
                f"{key} step {s}: SPE vector disagrees with the per-step entry")
        novel_any = novel_any or reported["selected"] == "novel"
    require(bool(result["novelty"]) == novel_any, f"{key}: novelty flag is wrong")
    want = math.inf if novel_any else max(float(v) for v in result["normalized"])
    require(float(result["score"]) == want, f"{key}: score {result['score']} != {want}")


def pair_count_auc(scores, labels) -> float:
    """P(positive outscores negative), ties counted as half."""
    pos = np.array([s for s, y in zip(scores, labels) if y == 1], dtype=float)
    neg = np.array([s for s, y in zip(scores, labels) if y == 0], dtype=float)
    require(pos.size > 0 and neg.size > 0, "AUC needs both classes")
    wins = (pos[:, None] > neg[None, :]).sum() + 0.5 * (pos[:, None] == neg[None, :]).sum()
    return float(wins) / (pos.size * neg.size)
