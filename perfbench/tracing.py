"""Span recording around the public functions of every aubase module.

`install` replaces each public module-level function of the traced layers
with a wrapper that records one span (name, start, end, parent) per call,
and rebinds every module namespace that holds a reference to the original
function, including names brought in by `from .x import f`. Nothing in the
package changes on disk; the wrappers live only in the benchmark process.

Spans stay in memory until `write_jsonl`. `layer_metrics` reduces them to
the per-layer metrics the benchmark reports: self time and call count per
layer, total time and calls of the hot functions, and a few work counts
recorded by hooks at the same boundaries.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time

import numpy as np

LAYERS = (
    "signals", "wavelet", "fusion", "som", "ds2l", "pca",
    "pipeline", "store", "evaluate", "cli", "_kernels",
)

HOT = (
    "signals.generate_dataset", "signals.save_dataset", "signals.load_dataset",
    "wavelet.select_level", "wavelet.extract_features",
    "_kernels.dwt_level", "_kernels.jacobi_sweeps",
    "pca.eig_sym", "pca.fit", "pca.spe",
    "som.init_som", "som.train",
    "ds2l.enrich", "ds2l.cluster",
    "pipeline.train_phase1", "pipeline.detect", "pipeline.select_baseline",
    "store.save_bank", "store.load_bank", "store.sha256_file",
)

COUNTS = (
    "som.train.epoch_rows", "pca.eig_sym.dim3", "pipeline.rows_scored",
    "signals.bytes_written", "signals.bytes_read", "store.bytes_written",
)


class Tracer:
    """In-memory span store. `enabled` is cleared while the benchmark runs
    its own checks, so their calls into the package are not counted."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.stack = []
        self.counts = dict.fromkeys(COUNTS, 0)
        self.enabled = True

    def wrap(self, name, fn, hook=None):
        tracer = self
        signature = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, tracer.stack[-1] if tracer.stack else -1]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer.stack.pop()
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(tracer, bound.arguments, result)
            return result

        return traced

    def inside(self, name) -> bool:
        return any(self.spans[i][0] == name for i in self.stack)

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent}))
                fh.write("\n")


# ---------------------------------------------------------------------------
# work-count hooks, keyed by span name; each gets the bound call arguments
# ---------------------------------------------------------------------------

def _tree_bytes(path: str) -> int:
    total = 0
    for dirpath, _dirs, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(dirpath, f)) for f in files)
    return total


def _som_train(tr, a, _result):
    rows = len(np.atleast_2d(a["data"]))
    tr.counts["som.train.epoch_rows"] += int(a["epochs"]) * rows


def _eig_sym(tr, a, _result):
    tr.counts["pca.eig_sym.dim3"] += int(len(a["c"])) ** 3


def _rows_detect(tr, a, report):
    tr.counts["pipeline.rows_scored"] += len(report.results) * len(report.step_ids)


def _rows_train(tr, a, bank):
    tr.counts["pipeline.rows_scored"] += len(bank.validation) * len(bank.step_ids)


def _save_dataset(tr, a, _manifest):
    tr.counts["signals.bytes_written"] += _tree_bytes(a["out_dir"])


def _load_dataset(tr, a, records):
    base = os.path.dirname(os.path.abspath(a["manifest_path"]))
    tr.counts["signals.bytes_read"] += os.path.getsize(a["manifest_path"]) + sum(
        os.path.getsize(os.path.join(base, r.path)) for r in records
    )


def _save_bank(tr, a, _index):
    tr.counts["store.bytes_written"] += _tree_bytes(a["out_dir"])


def _write_json(tr, a, _result):
    if not tr.inside("store.save_bank"):  # save_bank counts its own files
        tr.counts["store.bytes_written"] += os.path.getsize(a["path"])


HOOKS = {
    "som.train": _som_train,
    "pca.eig_sym": _eig_sym,
    "pipeline.detect": _rows_detect,
    "pipeline.train_phase1": _rows_train,
    "signals.save_dataset": _save_dataset,
    "signals.load_dataset": _load_dataset,
    "store.save_bank": _save_bank,
    "store.write_json": _write_json,
}


def install(tracer: Tracer) -> int:
    """Wrap every public function of the traced layers; returns how many."""
    modules = {layer: importlib.import_module(f"aubase.{layer}") for layer in LAYERS}
    modules["aubase"] = importlib.import_module("aubase")
    by_identity = {}  # id(original) -> {attribute name: wrapper}
    wrapped = 0
    for layer in LAYERS:
        mod = modules[layer]
        for attr, obj in list(vars(mod).items()):
            if (attr.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__):
                continue
            name = f"{layer}.{attr}"
            wrapper = tracer.wrap(name, obj, HOOKS.get(name))
            setattr(mod, attr, wrapper)
            by_identity.setdefault(id(obj), {})[attr] = wrapper
            wrapped += 1
    # rebind references held elsewhere (`from .fusion import unfold`);
    # prefer the wrapper registered under the same attribute name
    for mod in modules.values():
        for attr, obj in list(vars(mod).items()):
            choices = by_identity.get(id(obj))
            if choices:
                setattr(mod, attr, choices.get(attr, next(iter(choices.values()))))
    return wrapped


def metric_name(span_name: str) -> str:
    """Metric names start with a letter: `_kernels.x` reports as `kernels.x`."""
    return span_name.lstrip("_")


def layer_metrics(tracer: Tracer) -> dict:
    """Self time and calls per layer, totals of the hot functions, counts."""
    spans = tracer.spans
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    hot_s = dict.fromkeys(HOT, 0.0)
    hot_calls = dict.fromkeys(HOT, 0)
    detect_s = 0.0
    for i, (name, start, end, parent) in enumerate(spans):
        layer = name.split(".", 1)[0]
        dur = end - start
        self_s[layer] += dur - child[i]
        calls[layer] += 1
        if name in hot_s:
            hot_calls[name] += 1
            if not _has_ancestor(spans, parent, name):
                hot_s[name] += dur
        if name == "som.train" and _has_ancestor(spans, parent, "pipeline.detect"):
            detect_s += dur
    out = {}
    for layer in LAYERS:
        out[f"{metric_name(layer)}.self_s"] = self_s[layer]
        out[f"{metric_name(layer)}.calls"] = calls[layer]
    for fn in HOT:
        out[f"{metric_name(fn)}.total_s"] = hot_s[fn]
        out[f"{metric_name(fn)}.calls"] = hot_calls[fn]
    out["som.train.detect_s"] = detect_s
    out.update(tracer.counts)
    return out


def _has_ancestor(spans, parent: int, name: str) -> bool:
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if ".bytes_" in metric:
        return "bytes"
    return "count"
