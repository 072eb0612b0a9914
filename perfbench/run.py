"""Pipeline benchmark for aubase: one run of one workload.

    python3 perfbench/run.py --workload reference --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/` directory. The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics of a traced run with `--trace 1`. The
traced run also writes its spans as JSON lines to
`.bench_work/trace-<workload>.jsonl`. Diagnostics go to standard error.
Exit codes: 0 with a result, 1 when a workload cannot finish, 2 on bad usage
or a checkout without the package.
"""

import os
import sys
import time


def _process_start() -> float:
    """perf_counter() reading at the moment this process was started."""
    now = time.perf_counter()
    try:
        with open("/proc/self/stat") as fh:
            ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        age = time.clock_gettime(time.CLOCK_BOOTTIME) - ticks / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError, AttributeError):
        age = 0.0
    return now - max(age, 0.0)


STARTED = _process_start()

# one BLAS thread, whatever the caller's environment says (set before numpy loads)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_work")
WORKLOADS = ("reference", "monitor", "cli")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="how long the detect phase runs (at least two rounds)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _usage_error(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_package():
    """Import aubase from this checkout's src/, and nothing else."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "aubase", "__init__.py")):
        _usage_error(f"no aubase package under {src}")
    sys.path[:0] = [src, HERE]
    import aubase

    if not os.path.abspath(aubase.__file__).startswith(src + os.sep):
        _usage_error(f"imported aubase from {aubase.__file__}, not {src}")


def measure(workload: str, seed: int, seconds: float, tracer=None, tiny=False):
    """Run one workload; returns (run, evidence). `tiny` makes small inputs,
    for the self-test (not a measurement)."""
    import workloads

    run = workloads.Run(seconds=seconds, started=STARTED, tracer=tracer)
    if workload == "reference":
        return run, workloads.measure_reference(run, seed, tiny)
    if workload == "monitor":
        return run, workloads.measure_monitor(run, seed, tiny)
    work = os.path.join(WORK, f"cli-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        return run, workloads.measure_cli(run, seed, work, tiny)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_package()
    import oracle
    import tracing
    import workloads

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        n = tracing.install(tracer)
        print(f"perfbench: tracing {n} functions", file=sys.stderr)
    try:
        run, evidence = measure(args.workload, args.seed, args.seconds, tracer)
    except workloads.Failed as exc:
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        return 1
    end_to_end = run.end_to_end()
    correct = True
    try:
        workloads.check(args.workload, evidence)
    except oracle.CheckFailed as exc:
        print(f"perfbench: CHECK FAILED: {exc}", file=sys.stderr)
        correct = False
    flagged, pristine = workloads.pristine_flagged(evidence)
    p90 = sorted(run.detect_s)[int(0.9 * len(run.detect_s))] * 1e3
    print(f"perfbench: {args.workload} seed {args.seed}: "
          + ", ".join(f"{k} {v:.6g} {u}" for k, (v, u) in end_to_end.items())
          + f"; {run.attempted} operations, {len(run.detect_s)} detect calls"
          + (f" (p90 {p90:.4g} ms)" if len(run.detect_s) >= 40 else "")
          + f"; pristine flagged {flagged}/{pristine}", file=sys.stderr)
    if tracer is not None:
        os.makedirs(WORK, exist_ok=True)
        path = os.path.join(WORK, f"trace-{args.workload}.jsonl")
        tracer.write_jsonl(path)
        print(f"perfbench: {len(tracer.spans)} spans written to {path}", file=sys.stderr)
        metrics = {name: {"value": value, "unit": tracing.unit(name)}
                   for name, value in tracing.layer_metrics(tracer).items()}
    else:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in end_to_end.items()}
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
