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
from dataclasses import fields, is_dataclass

import numpy as np

from .ds2l import ClusterPartition
from .errors import DataFormatError, check_fields
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
from .som import SomModel, _lattice_positions

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
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise DataFormatError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # not UTF-8, or not JSON
        raise DataFormatError(f"{path} is not valid JSON: {exc}") from exc


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# bank dataclasses <-> dicts
# ---------------------------------------------------------------------------

# JSON key of each field whose key is not its name, and the fields that are
# not stored: a map's lattice positions follow from its grid, and a
# comparison report carries no ROC curves
_KEYS = {"map": "som", "model": "pca"}
_SKIP = {"unit_pos", "roc_proposed", "roc_mono"}
# JSON kind of each scalar field and the grid, checked on load; no bank
# scalar is ever infinite, so none is saved as "inf"
_KINDS = {
    **dict.fromkeys(
        ("actuator_id", "level", "feature_width", "n_clusters", "n_members", "r",
         "n_train", "trained_epochs"), "an integer"),
    **dict.fromkeys(
        ("rho", "theta", "q95", "spe_threshold", "validation_exceedance", "lambda_start",
         "lambda_end", "variance_threshold", "temperature_c", "severity"), "a finite number"),
    **dict.fromkeys(("kernel_form", "key", "state"), "a string"),
    "grid": "two positive integers",
}
_OPTIONAL = {"model", "spe_threshold", "validation_exceedance"}


def _floats(values) -> list:
    return [float(x) for x in values]  # float() reads "inf" and "-inf"


# how each field that is not kept as parsed is read back
_READ = {
    **dict.fromkeys(("weights", "eigvals", "loadings", "col_means", "group_stds"),
                    lambda v: np.array(v, dtype=float)),
    **dict.fromkeys(("unit_label", "datum_label", "col_groups"),
                    lambda v: np.array(v, dtype=int)),
    "grid": tuple, "modes": lambda v: [int(u) for u in v], "spe": _floats,
    "normalized": _floats, "map": SomModel, "partition": ClusterPartition,
    "model": PcaModel, "scaling": ScalingParams, "clusters": ClusterModel,
}


def _encode(obj):
    """A bank dataclass as a dict of its stored fields, nested ones too;
    canonical_json turns the arrays, tuples and numpy scalars into JSON."""
    if is_dataclass(obj):
        return {_KEYS.get(f.name, f.name): _encode(getattr(obj, f.name))
                for f in fields(obj) if f.name not in _SKIP}
    if isinstance(obj, dict):
        return {str(k): _encode(v) for k, v in obj.items()}
    return obj


def _decode(cls, doc: dict, where: str):
    """The cls instance that _encode wrote as doc, refusing a scalar field of
    the wrong JSON kind by where (its file and place) and its name."""
    names = [f.name for f in fields(cls) if f.name not in _SKIP]
    check_fields({n: doc[n] for n in names if n in _KINDS}, where, _KINDS, {}, _OPTIONAL,
                 DataFormatError)
    kwargs = {}
    for name in names:
        key = _KEYS.get(name, name)
        value, read = doc[key], _READ.get(name)
        if read is None or (value is None and name in _OPTIONAL):
            kwargs[name] = value
        elif name == "clusters":
            kwargs[name] = {int(k): _decode(read, v, f"{where} cluster {k}")
                            for k, v in value.items()}
        elif is_dataclass(read):
            kwargs[name] = _decode(read, value, f"{where} {key}")
        else:
            kwargs[name] = read(value)
    if cls is SomModel:
        kwargs["unit_pos"] = _lattice_positions(kwargs["grid"])
    return cls(**kwargs)


# ---------------------------------------------------------------------------
# bank directory
# ---------------------------------------------------------------------------

def save_bank(bank: BaselineBank, out_dir: str) -> str:
    """One JSON per step model plus an index; returns the index path."""
    os.makedirs(out_dir, exist_ok=True)
    step_files = {}
    for s in bank.step_ids:
        name = f"step-{s}.json"
        write_json(os.path.join(out_dir, name), _encode(bank.steps[s]))
        step_files[str(s)] = name
    write_json(
        os.path.join(out_dir, "validation.json"),
        {"vectors": [_encode(v) for v in bank.validation]},
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
            path = os.path.join(bank_dir, name)
            steps[int(key)] = _decode(StepModel, read_json(path), f"bank file {path}")
        path = os.path.join(bank_dir, index["validation_file"])
        validation = [
            _decode(SpeVector, v, f"bank file {path} vector {i}")
            for i, v in enumerate(read_json(path)["vectors"])
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
        "steps": {str(s): _encode(bank.steps[s]) for s in bank.step_ids},
        "train_keys": bank.train_keys,
        "val_keys": sorted(bank.val_keys),
        "validation": [_encode(v) for v in bank.validation],
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
        "steps": [_encode(st) for st in report.steps],
    }
