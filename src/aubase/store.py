"""Serialization of banks and reports to deterministic JSON.

Documents are written with sorted keys, a fixed indent, and a trailing
newline, so re-running a command with the same inputs reproduces every file
byte for byte. Non-finite floats are encoded as the strings "inf"/"-inf"
to keep the documents strictly valid JSON.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np

from .ds2l import ClusterPartition
from .errors import DataFormatError
from .fusion import ScalingParams
from .pca import PcaModel
from .pipeline import (
    BaselineBank,
    ClusterModel,
    ComparisonReport,
    DetectionReport,
    PipelineConfig,
    SpeVector,
    StepModel,
)
from .som import SomModel

# Bank directories: version 2 hashes the validation vectors too, so a bank
# saved under version 1 cannot pass the wider check and is refused by version.
SCHEMA_VERSION = 2
# Detection and comparison reports; their format has not changed.
REPORT_SCHEMA_VERSION = 1


def _sanitize(obj):
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _sanitize(obj.tolist())
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        obj = float(obj)
    if isinstance(obj, float):
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        if math.isnan(obj):
            raise DataFormatError("refusing to serialize NaN")
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def canonical_json(obj) -> str:
    return json.dumps(_sanitize(obj), sort_keys=True, indent=1, allow_nan=False) + "\n"


def write_json(path: str, obj) -> None:
    # serialize first: a refused document leaves no file behind
    text = canonical_json(obj)
    with open(path, "w") as fh:
        fh.write(text)


def read_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise DataFormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{path} is not valid JSON: {exc}") from exc


def parse_float(value) -> float:
    if value == "inf":
        return math.inf
    if value == "-inf":
        return -math.inf
    return float(value)


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# model <-> dict converters
# ---------------------------------------------------------------------------

def _som_to_dict(model: SomModel) -> dict:
    return {
        "grid": list(model.grid),
        "weights": model.weights.tolist(),
        "kernel_form": model.kernel_form,
        "lambda_start": model.lambda_start,
        "lambda_end": model.lambda_end,
        "trained_epochs": model.trained_epochs,
    }


def _som_from_dict(d: dict) -> SomModel:
    from .som import _lattice_positions

    grid = tuple(d["grid"])
    return SomModel(
        grid=grid,
        weights=np.array(d["weights"], dtype=float),
        unit_pos=_lattice_positions(grid),
        kernel_form=d["kernel_form"],
        lambda_start=d["lambda_start"],
        lambda_end=d["lambda_end"],
        trained_epochs=d["trained_epochs"],
    )


def _partition_to_dict(p: ClusterPartition) -> dict:
    return {
        "n_clusters": p.n_clusters,
        "unit_label": p.unit_label.tolist(),
        "datum_label": p.datum_label.tolist(),
        "modes": list(p.modes),
    }


def _partition_from_dict(d: dict) -> ClusterPartition:
    return ClusterPartition(
        n_clusters=d["n_clusters"],
        unit_label=np.array(d["unit_label"], dtype=int),
        datum_label=np.array(d["datum_label"], dtype=int),
        modes=[int(u) for u in d["modes"]],
    )


def _scaling_to_dict(s: ScalingParams) -> dict:
    return {
        "col_means": s.col_means.tolist(),
        "group_stds": s.group_stds.tolist(),
        "col_groups": s.col_groups.tolist(),
    }


def _scaling_from_dict(d: dict) -> ScalingParams:
    return ScalingParams(
        col_means=np.array(d["col_means"], dtype=float),
        group_stds=np.array(d["group_stds"], dtype=float),
        col_groups=np.array(d["col_groups"], dtype=int),
    )


def _pca_to_dict(m: PcaModel) -> dict:
    return {
        "eigvals": m.eigvals.tolist(),
        "loadings": m.loadings.tolist(),
        "r": m.r,
        "variance_threshold": m.variance_threshold,
        "scaling": _scaling_to_dict(m.scaling),
        "n_train": m.n_train,
    }


def _pca_from_dict(d: dict) -> PcaModel:
    return PcaModel(
        eigvals=np.array(d["eigvals"], dtype=float),
        loadings=np.array(d["loadings"], dtype=float),
        r=d["r"],
        variance_threshold=d["variance_threshold"],
        scaling=_scaling_from_dict(d["scaling"]),
        n_train=d["n_train"],
    )


def _vector_to_dict(v: SpeVector) -> dict:
    return {
        "key": v.key,
        "temperature_c": v.temperature_c,
        "state": v.state,
        "severity": v.severity,
        "spe": list(v.spe),
        "novelty": [bool(b) for b in v.novelty],
        "normalized": list(v.normalized),
    }


def _vector_from_dict(d: dict) -> SpeVector:
    return SpeVector(
        key=d["key"],
        temperature_c=d["temperature_c"],
        state=d["state"],
        severity=d["severity"],
        spe=[float(x) for x in d["spe"]],
        novelty=[bool(b) for b in d["novelty"]],
        normalized=[parse_float(x) for x in d["normalized"]],
    )


def _step_to_dict(sm: StepModel) -> dict:
    return {
        "actuator_id": sm.actuator_id,
        "level": sm.level,
        "sensor_ids": list(sm.sensor_ids),
        "feature_width": sm.feature_width,
        "som": _som_to_dict(sm.map),
        "rho": sm.rho,
        "theta": sm.theta,
        "partition": _partition_to_dict(sm.partition),
        "clusters": {
            str(cid): {
                "pca": _pca_to_dict(cm.model) if cm.model is not None else None,
                "q95": cm.q95,
                "spe_threshold": cm.spe_threshold,
                "n_members": cm.n_members,
            }
            for cid, cm in sm.clusters.items()
        },
        "validation_exceedance": sm.validation_exceedance,
    }


def _step_from_dict(d: dict) -> StepModel:
    clusters = {}
    for cid, cd in d["clusters"].items():
        clusters[int(cid)] = ClusterModel(
            model=_pca_from_dict(cd["pca"]) if cd["pca"] is not None else None,
            q95=cd["q95"],
            spe_threshold=cd["spe_threshold"],
            n_members=cd["n_members"],
        )
    return StepModel(
        actuator_id=d["actuator_id"],
        level=d["level"],
        sensor_ids=list(d["sensor_ids"]),
        feature_width=d["feature_width"],
        map=_som_from_dict(d["som"]),
        rho=d["rho"],
        theta=d["theta"],
        partition=_partition_from_dict(d["partition"]),
        clusters=clusters,
        validation_exceedance=d["validation_exceedance"],
    )


# ---------------------------------------------------------------------------
# bank directory
# ---------------------------------------------------------------------------

def save_bank(bank: BaselineBank, out_dir: str) -> str:
    """One JSON per step model plus an index; returns the index path."""
    os.makedirs(out_dir, exist_ok=True)
    step_files = {}
    for s in bank.step_ids:
        name = f"step-{s}.json"
        write_json(os.path.join(out_dir, name), _step_to_dict(bank.steps[s]))
        step_files[str(s)] = name
    write_json(
        os.path.join(out_dir, "validation.json"),
        {"vectors": [_vector_to_dict(v) for v in bank.validation]},
    )
    index = {
        "schema_version": SCHEMA_VERSION,
        "config": bank.config.to_dict(),
        "step_ids": bank.step_ids,
        "step_files": step_files,
        "train_keys": bank.train_keys,
        "val_keys": bank.val_keys,
        "validation_file": "validation.json",
        "model_hash": bank_hash(bank),
    }
    index_path = os.path.join(out_dir, "index.json")
    write_json(index_path, index)
    return index_path


def load_bank(bank_dir: str) -> BaselineBank:
    """Read a bank directory back, refusing one that was edited after
    training: the fitted model must hash to the index's model_hash."""
    index = read_json(os.path.join(bank_dir, "index.json"))
    version = index.get("schema_version") if isinstance(index, dict) else None
    if version != SCHEMA_VERSION:
        raise DataFormatError(f"bank schema version {version} not supported")
    try:
        config = PipelineConfig.from_dict(index["config"])
        steps = {}
        for key, name in index["step_files"].items():
            steps[int(key)] = _step_from_dict(read_json(os.path.join(bank_dir, name)))
        validation = [
            _vector_from_dict(v)
            for v in read_json(os.path.join(bank_dir, index["validation_file"]))["vectors"]
        ]
        bank = BaselineBank(
            config=config,
            step_ids=[int(s) for s in index["step_ids"]],
            steps=steps,
            train_keys=index["train_keys"],
            val_keys=index["val_keys"],
            validation=validation,
        )
        digest = bank_hash(bank)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise DataFormatError(
            f"bank in {bank_dir} is malformed: {type(exc).__name__}: {exc}"
        ) from exc
    if digest != index.get("model_hash"):
        raise DataFormatError(
            f"bank in {bank_dir} does not match its model_hash; "
            "it was changed after training"
        )
    return bank


def bank_hash(bank: BaselineBank) -> str:
    """Digest of everything the training phase produced: the fitted models
    and the held-out validation vectors the second-level map reads."""
    doc = {
        "config": bank.config.to_dict(),
        "steps": {str(s): _step_to_dict(bank.steps[s]) for s in bank.step_ids},
        "train_keys": bank.train_keys,
        "val_keys": sorted(bank.val_keys),
        "validation": [_vector_to_dict(v) for v in bank.validation],
    }
    return hashlib.sha256(canonical_json(doc).encode()).hexdigest()


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def detection_report_to_dict(report: DetectionReport) -> dict:
    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "step_ids": report.step_ids,
        "metadata": report.metadata,
        "incomplete": report.incomplete,
        "results": [
            {
                "key": r.key,
                "temperature_c": r.temperature_c,
                "state": r.state,
                "severity": r.severity,
                "per_step": {str(s): d for s, d in r.per_step.items()},
                "novelty": bool(r.novelty),
                "spe": list(r.spe_vector.spe),
                "normalized": list(r.spe_vector.normalized),
                "score": r.score,
                "second_cluster": r.second_cluster,
                "decision": r.decision,
            }
            for r in report.results
        ],
    }


def comparison_report_to_dict(report: ComparisonReport) -> dict:
    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "summary": report.summary,
        "steps": [
            {
                "step": st.step,
                "r_mono": st.r_mono,
                "r_clusters": {str(c): r for c, r in sorted(st.r_clusters.items())},
                "auc_proposed": st.auc_proposed,
                "auc_mono": st.auc_mono,
                "fpr_calibrated_proposed": st.fpr_calibrated_proposed,
                "fpr_calibrated_mono": st.fpr_calibrated_mono,
                "fpr_theoretical_mono": st.fpr_theoretical_mono,
                "fpr_tpr95_proposed": st.fpr_tpr95_proposed,
                "fpr_tpr95_mono": st.fpr_tpr95_mono,
                "n_pos": st.n_pos,
                "n_neg": st.n_neg,
            }
            for st in report.steps
        ],
    }
