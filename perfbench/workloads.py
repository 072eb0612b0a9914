"""The benchmark workloads: reference, monitor and cli.

Each workload has two halves. `measure_*` drives aubase through its public
functions (or `aubase.cli.main`), times the phases and gathers the outputs
into an evidence dict; `check_*` verifies that evidence against the
computations in `oracle` and raises `oracle.CheckFailed` on the first wrong
value. The self-test plants wrong values into real evidence and expects the
checks to refuse them.

Phases and their clocks:

- set-up: from process start to the first timed phase (imports and input
  generation; for cli the `generate` command);
- train: one bank fit (`pipeline.train_phase1`, or the `train` command);
- detect: whole rounds of detect calls, repeated until the run's seconds are
  used up and at least twice, so every input is scored more than once.

Every workload makes its inputs several times (reference twice, the others
three times) and reports the median making time; monitor fits its bank three
times and cli runs its train command five times, and they report the median
fit; reference fits once.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time

import numpy as np

import oracle
from oracle import require

from aubase import cli, pipeline, signals, wavelet

RESCORED = 36  # experiments re-scored by the oracle per run
MONITOR_ROUND = 48  # single-experiment detect calls per monitor round
MONITOR_STREAM_REPEATS = 8  # repeats per condition in the monitor's stream
# 162 records, ~52 MB of CSV: a detect command takes ~1.5 s, so a run holds
# several; the first command in a process runs up to 40% slower than later
# ones (fresh memory), and with two or three commands the median swung by a
# third from run to run.
CLI_REPEATS = 9
# A monitor or cli set-up or fit takes 1-4 s, short enough for the machine's
# speed swings and the first-command slowdown to move one reading by half;
# those workloads make each three times and report the median.
REPEATS = 3
# Reference makes its inputs twice (one making, 3-8 s, spread by a quarter
# over ten runs) and fits once (16-44 s): a third making would add up to
# 8 s a run, and 22 runs per workload would come close to the benchmark's
# time budget on the slow machine.
REFERENCE_MAKINGS = 2
# A cli train command (~2.8 s) is the shortest timed phase; over ten runs the
# median of three still spread by a quarter, so cli takes the median of five.
CLI_TRAINS = 5
STREAM_SEED_OFFSET = 1_000_003  # the stream is a later, independent recording


class Failed(Exception):
    """An operation the workload cannot continue without did not succeed."""


@dataclasses.dataclass
class Run:
    seconds: float
    started: float  # perf_counter() reading at process start
    tracer: object = None
    attempted: int = 0
    failed: int = 0
    setup_s: float = 0.0
    train_s: float = 0.0
    detect_s: list = dataclasses.field(default_factory=list)
    experiments: int = 0  # scored by the timed detect calls
    peak_kib: int = 0  # ru_maxrss at the end of the measured phases

    @contextlib.contextmanager
    def evidence(self):
        """Close the measured phases: read their peak memory now, so the
        benchmark's own checks do not count in it, and keep the checks (which
        call into the package too) out of the trace."""
        self.peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if self.tracer is not None:
            self.tracer.enabled = False
        try:
            yield
        finally:
            if self.tracer is not None:
                self.tracer.enabled = True

    def setup(self, fn, repeats: int = 1, digest=None):
        """Make the inputs `repeats` times; setup_s is the time from process
        start to the first call plus the median making time. Returns the
        last inputs and, when `digest` is given, the digest of every set.
        Each set is dropped before the next is made, so the program never
        holds more than one set."""
        startup = time.perf_counter() - self.started
        made, digests, times = None, [], []
        for _ in range(repeats):
            made = None
            t0 = time.perf_counter()
            made = fn()
            times.append(time.perf_counter() - t0)
            if digest is not None:
                digests.append(digest(made))
        self.setup_s = startup + statistics.median(times)
        return made, digests

    def train(self, fn, repeats: int = 1) -> list:
        """Fit `repeats` times; train_s is the median fit. Returns every fit."""
        fits, times = [], []
        for _ in range(repeats):
            self.attempted += 1
            t0 = time.perf_counter()
            fits.append(fn())
            times.append(time.perf_counter() - t0)
        self.train_s = statistics.median(times)
        return fits

    def detect_rounds(self, calls, n_experiments) -> list:
        """Run the round `calls` (zero-argument callables) until the run's
        seconds are spent, at least twice; returns every call's output."""
        outputs = []
        t_start = time.perf_counter()
        rounds = 0
        while rounds < 2 or time.perf_counter() - t_start < self.seconds:
            for call, n in zip(calls, n_experiments):
                self.attempted += 1
                t0 = time.perf_counter()
                out = call()
                self.detect_s.append(time.perf_counter() - t0)
                self.experiments += n
                outputs.append(out)
            rounds += 1
        return outputs

    def end_to_end(self) -> dict:
        return {
            "setup_s": (self.setup_s, "s"),
            "train_s": (self.train_s, "s"),
            "detect_exp_per_s": (self.experiments / sum(self.detect_s), "1/s"),
            "detect_p50_ms": (statistics.median(self.detect_s) * 1e3, "ms"),
            "peak_rss_mb": (self.peak_kib / 1024.0, "MB"),
        }


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def reference_config(seed: int, tiny: bool) -> signals.ScenarioConfig:
    """The tuned paper-scale scenario: 4 transducers, 5 temperatures, 36
    repeats, damage at the coldest temperature."""
    config = signals.reference_scenario(seed=seed, with_damage=True)
    return dataclasses.replace(config, n_repeats=8) if tiny else config


def monitor_config(seed: int, tiny: bool, with_damage: bool = True,
                   n_repeats: int | None = None) -> signals.ScenarioConfig:
    """The same signal physics with 2 transducers (64-wide feature rows)."""
    config = signals.reference_scenario(seed=seed, with_damage=with_damage)
    repeats = n_repeats or (8 if tiny else config.n_repeats)
    return dataclasses.replace(config, n_transducers=2, n_repeats=repeats)


def experiment_groups(records) -> dict:
    """Experiment key -> {(step, sensor): record}. An experiment is the k-th
    repeat (records in id order) of one condition, recorded by every sensor
    of every step; keys follow the report format `T35-damage1-e003`."""
    buckets = {}
    for rec in records:
        cond = (rec.temperature_c, rec.state, rec.severity)
        buckets.setdefault(cond, {}).setdefault((rec.actuator_id, rec.sensor_id), []).append(rec)
    out = {}
    for (temp, state, sev), channels in buckets.items():
        tag = "baseline" if state == "baseline" else f"damage{sev:g}"
        for channel, recs in channels.items():
            for pos, rec in enumerate(sorted(recs, key=lambda r: r.id)):
                out.setdefault(f"T{temp:g}-{tag}-e{pos:03d}", {})[channel] = rec
    return out


def result_rows(report, experiment: str | None = None) -> list:
    """A library DetectionReport as plain dicts in the report.json layout,
    each tagged with the experiment it scored (by default its report key;
    a one-experiment batch always reports position e000)."""
    return [
        {
            "experiment": experiment or r.key,
            "key": r.key,
            "state": r.state,
            "severity": float(r.severity),
            "temperature_c": float(r.temperature_c),
            "per_step": {int(s): dict(d) for s, d in r.per_step.items()},
            "novelty": bool(r.novelty),
            "score": float(r.score),
            "spe": [float(v) for v in r.spe_vector.spe],
            "normalized": [float(v) for v in r.spe_vector.normalized],
            "second_cluster": r.second_cluster,
            "decision": r.decision,
        }
        for r in report.results
    ]


def _parse(value):
    return math.inf if value == "inf" else (-math.inf if value == "-inf" else value)


def json_rows(doc: dict) -> list:
    """report.json results with step keys as ints and "inf" as a float."""
    rows = []
    for r in doc["results"]:
        rows.append({
            **r,
            "experiment": r["key"],
            "per_step": {int(s): {k: _parse(v) for k, v in d.items()}
                         for s, d in r["per_step"].items()},
            "score": float(_parse(r["score"])),
            "spe": [float(v) for v in r["spe"]],
            "normalized": [float(_parse(v)) for v in r["normalized"]],
        })
    return rows


def _sample_keys(keys, seed: int) -> list:
    keys = sorted(set(keys))
    rng = np.random.default_rng([seed, 7])
    pick = rng.choice(len(keys), size=min(RESCORED, len(keys)), replace=False)
    return [keys[i] for i in sorted(pick)]


def _records_digest(records) -> str:
    digest = hashlib.sha256()
    for rec in records:
        digest.update(repr((rec.id, rec.actuator_id, rec.sensor_id, rec.temperature_c,
                            rec.state, rec.severity, rec.sample_rate_hz)).encode())
        digest.update(np.ascontiguousarray(rec.samples).tobytes())
    return digest.hexdigest()


def _signals_for(groups: dict, keys, views: dict) -> dict:
    """Raw samples of each sampled experiment: key -> step -> (sensors, n)."""
    return {
        key: {s: np.vstack([groups[key][(s, sensor)].samples for sensor in v.sensor_ids])
              for s, v in views.items()}
        for key in keys
    }


# ---------------------------------------------------------------------------
# checks shared by every workload
# ---------------------------------------------------------------------------

def check_common(ev: dict) -> None:
    """Independent re-scoring, identical repeats, every damage flagged."""
    oracle.check_filter(ev["filter"])
    digests = ev.get("input_digests", [])
    require(all(d == digests[0] for d in digests),
            "repeated input generation from one seed gave different inputs")
    for refit in ev.get("refits", []):
        require(refit.keys() == ev["views"].keys()
                and all(oracle.same_step(refit[s], ev["views"][s]) for s in refit),
                "repeated bank fits on the same records disagree")
    first = {}
    for call in ev["calls"]:
        for row in call:
            seen = first.setdefault(row["experiment"], row)
            require(seen == row, f"{row['experiment']}: repeated detects disagree")
    for key, row in first.items():
        if row["state"] != "baseline":
            require(row["score"] > 1.0,
                    f"{key}: damaged experiment not flagged (score {row['score']})")
    for key, per_step in ev["signals"].items():
        rows = {
            s: oracle.approximation(x, ev["filter"], ev["views"][s].level).ravel()
            for s, x in per_step.items()
        }
        oracle.rescore_experiment(key, ev["views"], rows, first[key])


def pristine_flagged(ev: dict) -> tuple:
    first = {}
    for call in ev["calls"]:
        for row in call:
            first.setdefault(row["experiment"], row)
    pristine = [r for r in first.values() if r["state"] == "baseline"]
    return sum(r["score"] > 1.0 for r in pristine), len(pristine)


# ---------------------------------------------------------------------------
# reference: paper-scale training, large detect batches
# ---------------------------------------------------------------------------

def measure_reference(run: Run, seed: int, tiny: bool = False) -> dict:
    config = reference_config(seed, tiny)
    records, input_digests = run.setup(lambda: signals.generate_dataset(config),
                                       REFERENCE_MAKINGS, digest=_records_digest)
    baselines = [r for r in records if r.state == "baseline"]
    t_low = min(config.temperatures_c)
    batch = [r for r in records if r.temperature_c == t_low]
    (bank,) = run.train(lambda: pipeline.train_phase1(
        baselines, pipeline.PipelineConfig(seed=seed)))
    n_exp = len(experiment_groups(batch))
    reports = run.detect_rounds([lambda: pipeline.detect(bank, batch)], [n_exp])
    with run.evidence():
        views = {s: oracle.step_from_model(bank.steps[s]) for s in bank.step_ids}
        calls = [result_rows(rep) for rep in reports]
        keys = _sample_keys([r["key"] for r in calls[0]], seed)
        return {
            "filter": wavelet.DB8_H.copy(),
            "views": views,
            "input_digests": input_digests,
            "calls": calls,
            "signals": _signals_for(experiment_groups(batch), keys, views),
        }


# ---------------------------------------------------------------------------
# monitor: small bank, long stream of one-experiment detect calls
# ---------------------------------------------------------------------------

def measure_monitor(run: Run, seed: int, tiny: bool = False) -> dict:
    config = monitor_config(seed, tiny, with_damage=False)
    stream_config = monitor_config(seed + STREAM_SEED_OFFSET, tiny,
                                   n_repeats=MONITOR_STREAM_REPEATS)
    (records, stream_records), input_digests = run.setup(
        lambda: (signals.generate_dataset(config), signals.generate_dataset(stream_config)),
        REPEATS, digest=lambda made: _records_digest(made[0] + made[1]))
    stream = experiment_groups(stream_records)
    fits = run.train(lambda: pipeline.train_phase1(
        records, pipeline.PipelineConfig(seed=seed)), REPEATS)
    bank = fits[0]
    rng = np.random.default_rng([seed, 11])
    keys = sorted(stream)
    order = [keys[i] for i in rng.choice(len(keys), size=min(MONITOR_ROUND, len(keys)),
                                         replace=False)]
    calls = [
        (lambda recs=list(stream[k].values()): pipeline.detect(bank, recs))
        for k in order
    ]
    reports = run.detect_rounds(calls, [1] * len(calls))
    with run.evidence():
        views = {s: oracle.step_from_model(bank.steps[s]) for s in bank.step_ids}
        return {
            "filter": wavelet.DB8_H.copy(),
            "views": views,
            "refits": [{s: oracle.step_from_model(b.steps[s]) for s in b.step_ids}
                       for b in fits[1:]],
            "input_digests": input_digests,
            "calls": [result_rows(rep, order[i % len(order)])
                      for i, rep in enumerate(reports)],
            "signals": _signals_for(stream, _sample_keys(order, seed), views),
        }


# ---------------------------------------------------------------------------
# cli: the command-line path on an on-disk dataset
# ---------------------------------------------------------------------------

def _cli(argv) -> int:
    """One in-process command; its console output goes to stderr."""
    with contextlib.redirect_stdout(sys.stderr):
        return cli.main(list(argv))


def _essential(argv) -> None:
    if _cli(argv) != 0:
        raise Failed(f"aubase {' '.join(argv)} exited non-zero")


def measure_cli(run: Run, seed: int, work: str, tiny: bool = False) -> dict:
    config = monitor_config(seed, tiny, n_repeats=None if tiny else CLI_REPEATS)
    data_dirs = [os.path.join(work, f"data-{i}") for i in range(REPEATS)]
    data = data_dirs[0]
    bank_dirs = [os.path.join(work, f"bank-{i}") for i in range(CLI_TRAINS)]
    scenario = os.path.join(work, "scenario.json")
    with open(scenario, "w") as fh:
        json.dump(signals.scenario_to_dict(config), fh)
    pending = iter(data_dirs)
    run.setup(lambda: _essential(
        ["generate", "--scenario", scenario, "--out", next(pending)]), REPEATS)
    run.attempted += REPEATS
    pending = iter(bank_dirs)
    run.train(lambda: _essential(
        ["train", "--data", data, "--out", next(pending), "--seed", str(seed)]),
        CLI_TRAINS)
    bank_dir = bank_dirs[0]

    with open(os.path.join(data, "manifest.json")) as fh:
        manifest = json.load(fh)
    # every experiment has one record on each channel
    first = (manifest[0]["actuator_id"], manifest[0]["sensor_id"])
    n_exp = sum((r["actuator_id"], r["sensor_id"]) == first for r in manifest)
    out_dirs = []

    def detect_once():
        out = os.path.join(work, f"report-{len(out_dirs)}")
        out_dirs.append(out)
        code = _cli(["detect", "--bank", bank_dir, "--data", data, "--out", out])
        run.failed += code != 0
        return code

    codes = run.detect_rounds([detect_once], [n_exp])
    reports = [os.path.join(d, "report.json") for d, c in zip(out_dirs, codes) if c == 0]
    if not reports:
        raise Failed("no detect command succeeded")
    eval_dir = os.path.join(work, "eval")
    run.attempted += 1
    _essential(["evaluate", "--report", reports[0], "--out", eval_dir])

    with run.evidence():
        report_bytes = [_read_bytes(path) for path in reports]
        views = {}
        for name in sorted(os.listdir(bank_dir)):
            if name.startswith("step-") and name.endswith(".json"):
                with open(os.path.join(bank_dir, name)) as fh:
                    doc = json.load(fh)
                views[int(doc["actuator_id"])] = oracle.step_from_json(doc)
        with open(os.path.join(eval_dir, "summary.json")) as fh:
            summary = json.load(fh)
        loaded = signals.load_dataset(os.path.join(data, "manifest.json"))
        generated = signals.generate_dataset(config)
        calls = [json_rows(json.loads(b)) for b in report_bytes]
        keys = _sample_keys([r["key"] for r in calls[0]], seed)
        return {
            "filter": wavelet.DB8_H.copy(),
            "views": views,
            "calls": calls,
            "signals": _signals_for(experiment_groups(loaded), keys, views),
            "report_bytes": report_bytes,
            "bank_digests": [_tree_digest(d) for d in bank_dirs],
            "input_digests": [_tree_digest(d) for d in data_dirs],
            "summary": summary,
            "loaded": loaded,
            "generated": generated,
        }


def _tree_digest(root: str) -> str:
    """sha256 over every file's relative path and bytes, run.json aside."""
    digest = hashlib.sha256()
    for dirpath, dirnames, files in os.walk(root):
        dirnames.sort()
        for name in sorted(files):
            if name != "run.json":  # it records the --out path
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, root).encode())
                digest.update(_read_bytes(path))
    return digest.hexdigest()


def _read_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


_RECORD_FIELDS = ("id", "actuator_id", "sensor_id", "temperature_c", "state",
                  "severity", "sample_rate_hz")


def check_cli(ev: dict) -> None:
    check_common(ev)
    require(all(b == ev["report_bytes"][0] for b in ev["report_bytes"]),
            "repeated detect commands wrote different report.json bytes")
    require(all(d == ev["bank_digests"][0] for d in ev["bank_digests"]),
            "repeated train commands wrote different bank files")
    loaded, generated = ev["loaded"], ev["generated"]
    require(len(loaded) == len(generated), "loaded dataset has a different record count")
    for got, want in zip(loaded, generated):
        for name in _RECORD_FIELDS:
            require(getattr(got, name) == getattr(want, name),
                    f"record {want.id}: loaded {name} differs from the generated one")
        require(got.samples.dtype == want.samples.dtype
                and got.samples.tobytes() == want.samples.tobytes(),
                f"record {want.id}: loaded samples differ from the generated bits")
    results = ev["calls"][0]
    labels = [0 if r["state"] == "baseline" else 1 for r in results]
    summary = ev["summary"]
    wanted = {"overall": [r["score"] for r in results]}
    for pos, s in enumerate(sorted(ev["views"])):
        wanted[str(s)] = [r["normalized"][pos] for r in results]
    for name, scores in wanted.items():
        entry = summary["overall"] if name == "overall" else summary["steps"][name]
        auc = oracle.pair_count_auc(scores, labels)
        require(abs(entry["auc"] - auc) < 1e-12,
                f"evaluate AUC ({name}) {entry['auc']} != pair-count AUC {auc}")


def check(workload: str, ev: dict) -> None:
    (check_cli if workload == "cli" else check_common)(ev)
