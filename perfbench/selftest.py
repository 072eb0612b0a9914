"""Self-test of the benchmark's correctness checks.

Runs each workload at a tiny size, shows that its checks accept the real
outputs, then plants one wrong value at a time into a copy of those outputs
and shows that the checks refuse every one:

    python3 perfbench/selftest.py            # all workloads, 0.5-1.5 min
    python3 perfbench/selftest.py monitor    # one workload

Exits 0 when every planted value is refused and the real outputs pass.
"""

import copy
import math
import sys

import numpy as np

import run as bench


def _rows(ev, experiment):
    return [row for call in ev["calls"] for row in call if row["experiment"] == experiment]


def _sampled(ev):
    return next(iter(ev["signals"]))


def _damaged(ev):
    return next(row["experiment"] for call in ev["calls"] for row in call
                if row["state"] != "baseline")


def plant_filter(ev):
    ev["filter"][3] += 1e-9


def plant_spe(ev):
    for row in _rows(ev, _sampled(ev)):
        step = min(row["per_step"])
        row["per_step"][step]["spe"] *= 1.0 + 1e-6
        row["spe"][0] = row["per_step"][step]["spe"]


def plant_selected(ev):
    for row in _rows(ev, _sampled(ev)):
        entry = row["per_step"][min(row["per_step"])]
        entry["selected"] = 0 if entry["selected"] == "novel" else "novel"


def plant_score(ev):
    for row in _rows(ev, _sampled(ev)):
        row["score"] = 1.5 if math.isinf(row["score"]) else row["score"] * 1.01


def plant_novelty(ev):
    for row in _rows(ev, _sampled(ev)):
        row["novelty"] = not row["novelty"]


def plant_repeat(ev):
    row = ev["calls"][-1][-1]
    row["decision"] = row["decision"] + "-x"


def plant_unflagged(ev):
    for row in _rows(ev, _damaged(ev)):
        row["score"] = 0.5


def plant_inputs(ev):
    ev["input_digests"][-1] = ev["input_digests"][-1][::-1]


def plant_refit(ev):
    refit = ev["refits"][-1]
    refit[min(refit)].weights = refit[min(refit)].weights + 1e-12


def plant_bank_bytes(ev):
    ev["bank_digests"][-1] = ev["bank_digests"][-1][::-1]


def plant_report_bytes(ev):
    last = bytearray(ev["report_bytes"][-1])
    last[len(last) // 2] ^= 1
    ev["report_bytes"][-1] = bytes(last)


def plant_loaded_bits(ev):
    rec = ev["loaded"][len(ev["loaded"]) // 2]
    rec.samples = rec.samples.copy()
    rec.samples[100] = np.nextafter(rec.samples[100], np.inf)


def plant_loaded_meta(ev):
    ev["loaded"][0].temperature_c += 1.0


def plant_auc(ev):
    ev["summary"]["overall"]["auc"] += 1e-6


COMMON = [
    ("DWT filter taps", plant_filter, "filter"),
    ("per-step SPE", plant_spe, "matches none"),
    ("selected cluster", plant_selected, "matches none"),
    ("experiment score", plant_score, "score"),
    ("novelty flag", plant_novelty, "novelty"),
    ("repeated detect", plant_repeat, "repeated detects disagree"),
    ("damage flagged", plant_unflagged, "not flagged"),
]
REFERENCE_ONLY = [
    ("repeated set-up", plant_inputs, "repeated input generation"),
]
MONITOR_ONLY = REFERENCE_ONLY + [
    ("repeated bank fit", plant_refit, "repeated bank fits"),
]
CLI_ONLY = [
    ("report.json bytes", plant_report_bytes, "report.json bytes"),
    ("repeated train command", plant_bank_bytes, "different bank files"),
    ("repeated generate command", plant_inputs, "repeated input generation"),
    ("loaded samples", plant_loaded_bits, "loaded samples"),
    ("loaded manifest field", plant_loaded_meta, "differs from the generated"),
    ("evaluate AUC", plant_auc, "pair-count AUC"),
]


def selftest(workload: str) -> bool:
    import oracle
    import workloads

    _run, evidence = bench.measure(workload, seed=3, seconds=0, tiny=True)
    ok = True
    try:
        workloads.check(workload, evidence)
        print(f"{workload:9s} real outputs            accepted")
    except oracle.CheckFailed as exc:
        print(f"{workload:9s} real outputs            REFUSED: {exc}")
        ok = False
    extra = {"reference": REFERENCE_ONLY, "monitor": MONITOR_ONLY, "cli": CLI_ONLY}[workload]
    for label, plant, expect in COMMON + extra:
        planted = copy.deepcopy(evidence)
        plant(planted)
        try:
            workloads.check(workload, planted)
            print(f"{workload:9s} planted {label:22s} MISSED")
            ok = False
        except oracle.CheckFailed as exc:
            hit = expect in str(exc)
            ok = ok and hit
            print(f"{workload:9s} planted {label:22s} "
                  f"{'refused' if hit else 'refused by another check'}: {str(exc)[:70]}")
    return ok


def main(argv) -> int:
    bench.import_package()
    names = argv or list(bench.WORKLOADS)
    results = [selftest(name) for name in names]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
