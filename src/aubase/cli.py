"""Command-line workflow: generate -> train -> detect -> evaluate -> export.

Every command writes a ``run.json`` provenance record (command, arguments,
resolved config, seed, input digests, output list) as its final artifact, so
a completed output directory always carries enough information to reproduce
itself byte for byte. Exit codes: 0 success, 1 rejected input, 2 internal
failure.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys

from . import evaluate, pipeline, signals, som, store
from .errors import AubaseError, DataFormatError, InvalidArgumentError

_PRESETS = ("reference", "reference-damage")


class _Parser(argparse.ArgumentParser):
    """argparse that reports bad usage through the package error type."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise InvalidArgumentError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="aubase", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("generate", help="synthesize a dataset", add_help=True)
    p.add_argument("--out", required=True, help="output dataset directory")
    p.add_argument("--scenario", help="scenario config JSON")
    p.add_argument("--preset", choices=_PRESETS, help="built-in scenario")
    p.add_argument("--seed", type=int, help="override the scenario seed")

    p = sub.add_parser("train", help="fit the baseline bank")
    p.add_argument("--data", required=True, help="dataset directory or manifest.json")
    p.add_argument("--out", required=True, help="output bank directory")
    p.add_argument("--config", help="pipeline config JSON")
    p.add_argument("--seed", type=int, help="override the pipeline seed")

    p = sub.add_parser("detect", help="score experiments against a bank")
    p.add_argument("--bank", required=True, help="bank directory")
    p.add_argument("--data", required=True, help="dataset directory or manifest.json")
    p.add_argument("--out", required=True, help="output report directory")

    p = sub.add_parser("evaluate", help="ROC/AUC tables from a detection report")
    p.add_argument("--report", required=True, help="report.json from detect")
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("compare", help="per-cluster vs single-model comparison")
    p.add_argument("--data", required=True, help="dataset directory or manifest.json")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--config", help="pipeline config JSON")
    p.add_argument("--seed", type=int, help="override the pipeline seed")

    p = sub.add_parser("export-umatrix", help="per-step u-matrix CSV/SVG")
    p.add_argument("--bank", required=True, help="bank directory")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--svg", action="store_true", help="also write SVG heatmaps")

    p = sub.add_parser("export-clusters", help="per-step unit labels CSV/SVG")
    p.add_argument("--bank", required=True, help="bank directory")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--svg", action="store_true", help="also write SVG maps")

    return parser


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------

def _manifest_path(data: str) -> str:
    path = os.path.join(data, "manifest.json") if os.path.isdir(data) else data
    if not os.path.exists(path):
        raise InvalidArgumentError(f"dataset manifest not found: {path}")
    return path


def _load_dataset(manifest_path: str) -> tuple:
    """(records, one digest covering the manifest and every sample file),
    the digest taken over the very bytes the records were parsed from."""
    digest = hashlib.sha256()
    records = signals.load_dataset(manifest_path, digest=digest)
    return records, digest.hexdigest()


def _digest_dir_json(path: str) -> str:
    digest = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        if name.endswith(".json"):
            digest.update(name.encode())
            digest.update(store.sha256_file(os.path.join(path, name)).encode())
    return digest.hexdigest()


def _write_run(out_dir, command, argv, config, seed, inputs, outputs) -> None:
    from . import __version__

    store.write_json(
        os.path.join(out_dir, "run.json"),
        {
            "command": command,
            "argv": list(argv),
            "config": config,
            "seed": seed,
            "inputs": inputs,
            "outputs": sorted(outputs),
            "version": __version__,
        },
    )


def _load_pipeline_config(path, seed) -> pipeline.PipelineConfig:
    doc = {} if path is None else store.read_json(path)
    if not isinstance(doc, dict):
        raise DataFormatError("pipeline config must be a JSON object")
    if seed is not None:
        doc = {**doc, "seed": seed}
    return pipeline.PipelineConfig.from_dict(doc)


def _split_baseline(records):
    kept = [r for r in records if r.state == "baseline"]
    dropped = len(records) - len(kept)
    if dropped:
        print(f"note: ignoring {dropped} non-baseline records for training")
    return kept


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _cmd_generate(args, argv) -> int:
    if args.scenario and args.preset:
        raise InvalidArgumentError("--scenario and --preset are mutually exclusive")
    if args.scenario:
        doc = store.read_json(args.scenario)
        if not isinstance(doc, dict):
            raise DataFormatError("scenario config must be a JSON object")
    else:
        preset = args.preset or "reference"
        doc = signals.scenario_to_dict(
            signals.reference_scenario(with_damage=(preset == "reference-damage"))
        )
    if args.seed is not None:
        doc = {**doc, "seed": args.seed}
    config = signals.scenario_from_dict(doc)

    records = signals.generate_dataset(config)
    os.makedirs(args.out, exist_ok=True)
    manifest = signals.save_dataset(records, args.out)
    store.write_json(os.path.join(args.out, "scenario.json"), signals.scenario_to_dict(config))
    outputs = ["manifest.json", "scenario.json"] + [
        f"signals/{r.id}.csv" for r in records
    ]
    inputs = {args.scenario: store.sha256_file(args.scenario)} if args.scenario else {}
    _write_run(args.out, "generate", argv, signals.scenario_to_dict(config),
               config.seed, inputs, outputs)
    print(f"wrote {len(records)} records to {manifest}")
    return 0


def _cmd_train(args, argv) -> int:
    manifest = _manifest_path(args.data)
    config = _load_pipeline_config(args.config, args.seed)
    records, data_digest = _load_dataset(manifest)
    bank = pipeline.train_phase1(_split_baseline(records), config)
    os.makedirs(args.out, exist_ok=True)
    store.save_bank(bank, args.out)
    inputs = {manifest: data_digest}
    if args.config:
        inputs[args.config] = store.sha256_file(args.config)
    outputs = ["index.json", "validation.json"] + [f"step-{s}.json" for s in bank.step_ids]
    _write_run(args.out, "train", argv, config.to_dict(), config.seed, inputs, outputs)
    for s in bank.step_ids:
        sm = bank.steps[s]
        print(
            f"step {s}: level={sm.level} grid={sm.map.grid[0]}x{sm.map.grid[1]} "
            f"clusters={sm.partition.n_clusters} "
            f"exceedance={sm.validation_exceedance:.3f}"
        )
    return 0


def _cmd_detect(args, argv) -> int:
    manifest = _manifest_path(args.data)
    bank = store.load_bank(args.bank)
    records, data_digest = _load_dataset(manifest)
    report = pipeline.detect(bank, records)
    os.makedirs(args.out, exist_ok=True)
    store.write_json(os.path.join(args.out, "report.json"),
                     store.detection_report_to_dict(report))
    inputs = {
        manifest: data_digest,
        args.bank: _digest_dir_json(args.bank),
    }
    _write_run(args.out, "detect", argv, bank.config.to_dict(), bank.config.seed,
               inputs, ["report.json"])
    flagged = sum(1 for r in report.results if r.score > 1.0)
    print(f"scored {len(report.results)} experiments, {flagged} above threshold")
    if report.incomplete:
        print(f"note: {len(report.incomplete)} experiments missing at least one step")
    return 0


def _roc_csv(path: str, curve: evaluate.RocCurve) -> None:
    with open(path, "w") as fh:
        fh.write("threshold,fpr,tpr\n")
        for t, f, p in evaluate.roc_rows(curve):
            fh.write(f"{t!r},{f!r},{p!r}\n")


def _roc_entry(scores, labels) -> tuple:
    curve = evaluate.roc(scores, labels)
    return curve, {
        "auc": evaluate.auc(curve),
        "fpr_calibrated": evaluate.fpr_at(scores, labels, 1.0),
        "tpr_calibrated": evaluate.tpr_at(scores, labels, 1.0),
        "fpr_at_tpr95": evaluate.fpr_at_tpr(curve, 0.95),
        "n_pos": curve.n_pos,
        "n_neg": curve.n_neg,
    }


def _cmd_evaluate(args, argv) -> int:
    doc = store.read_json(args.report)
    if not isinstance(doc, dict) or "results" not in doc:
        raise DataFormatError("report file does not look like a detection report")
    results = doc["results"]
    if not results:
        raise InvalidArgumentError("report contains no scored experiments")
    try:
        labels = [0 if r["state"] == "baseline" else 1 for r in results]
        overall = [store.parse_float(r["score"]) for r in results]
        step_scores = [
            (s, [store.parse_float(r["per_step"][str(s)]["normalized"]) for r in results])
            for s in doc["step_ids"]
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise DataFormatError(
            f"report {args.report} is malformed: {type(exc).__name__}: {exc}"
        ) from exc
    os.makedirs(args.out, exist_ok=True)
    outputs = []
    summary = {"steps": {}}

    curve, entry = _roc_entry(overall, labels)
    _roc_csv(os.path.join(args.out, "roc-overall.csv"), curve)
    outputs.append("roc-overall.csv")
    summary["overall"] = entry

    for s, scores in step_scores:
        curve, entry = _roc_entry(scores, labels)
        name = f"roc-step-{s}.csv"
        _roc_csv(os.path.join(args.out, name), curve)
        outputs.append(name)
        summary["steps"][str(s)] = entry

    store.write_json(os.path.join(args.out, "summary.json"), summary)
    outputs.append("summary.json")
    _write_run(args.out, "evaluate", argv, None, None,
               {args.report: store.sha256_file(args.report)}, outputs)
    print(
        f"overall AUC {summary['overall']['auc']:.4f} over "
        f"{summary['overall']['n_pos']}+{summary['overall']['n_neg']} experiments"
    )
    return 0


def _cmd_compare(args, argv) -> int:
    manifest = _manifest_path(args.data)
    config = _load_pipeline_config(args.config, args.seed)
    records, data_digest = _load_dataset(manifest)
    report = pipeline.compare_monolithic(records, config)
    os.makedirs(args.out, exist_ok=True)
    store.write_json(os.path.join(args.out, "comparison.json"),
                     store.comparison_report_to_dict(report))
    inputs = {manifest: data_digest}
    if args.config:
        inputs[args.config] = store.sha256_file(args.config)
    _write_run(args.out, "compare", argv, config.to_dict(), config.seed,
               inputs, ["comparison.json"])
    s = report.summary
    print(
        f"AUC proposed {s['mean_auc_proposed']:.4f} vs single-model "
        f"{s['mean_auc_mono']:.4f}; FPR@TPR95 "
        f"{s['mean_fpr_tpr95_proposed']:.4f} vs {s['mean_fpr_tpr95_mono']:.4f}"
    )
    return 0


# fixed palette for cluster maps; -1 (unassigned) renders light grey
_PALETTE = (
    "#4477aa", "#ee6677", "#228833", "#ccbb44", "#66ccee", "#aa3377",
    "#bbbbbb", "#004488", "#997700", "#994455", "#117733", "#dddddd",
)


def _svg_grid(path: str, colors) -> None:
    """colors: 2-D nested list of '#rrggbb' fills, one per lattice cell."""
    rows, cols = len(colors), len(colors[0])
    cell, pad = 24, 8
    width, height = cols * cell + 2 * pad, rows * cell + 2 * pad
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>',
    ]
    for r in range(rows):
        for c in range(cols):
            parts.append(
                f'<rect x="{pad + c * cell}" y="{pad + r * cell}" '
                f'width="{cell}" height="{cell}" fill="{colors[r][c]}" '
                f'stroke="#ffffff" stroke-width="1"/>'
            )
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts))
        fh.write("\n")


def _grey(value: float, lo: float, hi: float) -> str:
    frac = 0.0 if hi <= lo else (value - lo) / (hi - lo)
    level = int(round(255 * (1.0 - frac)))
    return f"#{level:02x}{level:02x}{level:02x}"


def _cmd_export_umatrix(args, argv) -> int:
    bank = store.load_bank(args.bank)
    os.makedirs(args.out, exist_ok=True)
    outputs = []
    for s in bank.step_ids:
        umat = som.u_matrix(bank.steps[s].map)
        name = f"umatrix-step-{s}.csv"
        with open(os.path.join(args.out, name), "w") as fh:
            for row in umat:
                fh.write(",".join(repr(float(v)) for v in row))
                fh.write("\n")
        outputs.append(name)
        if args.svg:
            lo, hi = float(umat.min()), float(umat.max())
            colors = [[_grey(float(v), lo, hi) for v in row] for row in umat]
            svg_name = f"umatrix-step-{s}.svg"
            _svg_grid(os.path.join(args.out, svg_name), colors)
            outputs.append(svg_name)
    _write_run(args.out, "export-umatrix", argv, None, None,
               {args.bank: _digest_dir_json(args.bank)}, outputs)
    print(f"exported u-matrices for steps {bank.step_ids}")
    return 0


def _cmd_export_clusters(args, argv) -> int:
    bank = store.load_bank(args.bank)
    os.makedirs(args.out, exist_ok=True)
    outputs = []
    for s in bank.step_ids:
        sm = bank.steps[s]
        rows, cols = sm.map.grid
        label = sm.partition.unit_label
        name = f"clusters-step-{s}.csv"
        with open(os.path.join(args.out, name), "w") as fh:
            fh.write("unit,row,col,cluster\n")
            for u in range(rows * cols):
                fh.write(f"{u},{u // cols},{u % cols},{label[u]}\n")
        outputs.append(name)
        if args.svg:
            colors = [
                [
                    "#eeeeee"
                    if label[r * cols + c] < 0
                    else _PALETTE[label[r * cols + c] % len(_PALETTE)]
                    for c in range(cols)
                ]
                for r in range(rows)
            ]
            svg_name = f"clusters-step-{s}.svg"
            _svg_grid(os.path.join(args.out, svg_name), colors)
            outputs.append(svg_name)
    _write_run(args.out, "export-clusters", argv, None, None,
               {args.bank: _digest_dir_json(args.bank)}, outputs)
    print(f"exported cluster maps for steps {bank.step_ids}")
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "train": _cmd_train,
    "detect": _cmd_detect,
    "evaluate": _cmd_evaluate,
    "compare": _cmd_compare,
    "export-umatrix": _cmd_export_umatrix,
    "export-clusters": _cmd_export_clusters,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            raise InvalidArgumentError("a subcommand is required")
        return _COMMANDS[args.command](args, argv)
    except AubaseError as exc:
        print(exc.one_line(), file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    except Exception as exc:  # noqa: BLE001  unexpected -> exit 2
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
