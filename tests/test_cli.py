"""End-to-end command-line workflow on a miniature dataset."""
import hashlib
import json
import math
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

import aubase
from aubase import cli, pca, pipeline, signals, store
from aubase.errors import DegenerateDataError


def tiny_scenario_dict(seed=11):
    cfg = signals.ScenarioConfig(
        n_transducers=2,
        temperatures_c=[35.0, 45.0],
        echoes=[(100e-6, 1.0), (700e-6, 0.5)],
        damage_echo=(400e-6, 0.6),
        damage_severities=[1.0],
        damage_temperatures_c=[35.0],
        noise_snr_db=40.0,
        n_repeats=4,
        n_samples=4096,
        sample_rate_hz=1e6,
        seed=seed,
    )
    return signals.scenario_to_dict(cfg)


def tree_digest(root, skip=("run.json",)):
    """Digest of every file under root except the skip names."""
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            if name in skip:
                continue
            rel = os.path.relpath(os.path.join(dirpath, name), root)
            digest.update(rel.encode())
            with open(os.path.join(dirpath, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def run_workflow(root, scenario_path):
    """generate -> train -> detect -> evaluate -> compare -> exports."""
    data = os.path.join(root, "data")
    bank = os.path.join(root, "bank")
    rep = os.path.join(root, "report")
    ev = os.path.join(root, "eval")
    cmp_dir = os.path.join(root, "cmp")
    exp = os.path.join(root, "export")
    steps = [
        ["generate", "--scenario", scenario_path, "--out", data],
        ["train", "--data", data, "--out", bank, "--seed", "2"],
        ["detect", "--bank", bank, "--data", data, "--out", rep],
        ["evaluate", "--report", os.path.join(rep, "report.json"), "--out", ev],
        ["compare", "--data", data, "--out", cmp_dir, "--seed", "2"],
        ["export-umatrix", "--bank", bank, "--out", exp, "--svg"],
        ["export-clusters", "--bank", bank, "--out", exp, "--svg"],
    ]
    for argv in steps:
        assert cli.main(argv) == 0, argv
    return data, bank, rep, ev, cmp_dir, exp


@pytest.fixture(scope="module")
def workflow(tmp_path_factory):
    root = tmp_path_factory.mktemp("cliwork")
    scenario_path = str(root / "scenario.json")
    store.write_json(scenario_path, tiny_scenario_dict())
    dirs = run_workflow(str(root), scenario_path)
    return (str(root), scenario_path) + dirs


# ---------------------------------------------------------------------------
# exit codes and argument handling
# ---------------------------------------------------------------------------


def test_help_exits_zero(capsys):
    assert cli.main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "generate" in out and "detect" in out


def console_script_command():
    """argv prefix and environment that start the ``aubase`` console script.

    An ``aubase`` on ``PATH`` (put there by installing the package) runs as
    it is, with this process's environment. Without one, the entry point that
    ``pyproject.toml`` declares under ``[project.scripts]`` runs in a child
    ``sys.executable`` the way the installed wrapper starts it: import the
    function from its module, set ``sys.argv[0]`` to ``aubase``, then
    ``sys.exit(main())``. The child's ``PYTHONPATH`` starts with the directory
    that holds the imported ``aubase`` package, since pytest's ``pythonpath``
    setting reaches only this process's ``sys.path``.
    """
    if shutil.which("aubase") is not None:
        return ["aubase"], None
    tomllib = pytest.importorskip("tomllib")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "pyproject.toml"), "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["aubase"]
    module, func = target.split(":")
    wrapper = (
        f"import sys\nfrom {module} import {func}\n"
        f"sys.argv[0] = 'aubase'\nsys.exit({func}())\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(aubase.__file__)))
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    return [sys.executable, "-c", wrapper], env


def test_console_script_help():
    argv, env = console_script_command()
    proc = subprocess.run(
        argv + ["--help"], capture_output=True, text=True, check=False, env=env
    )
    assert proc.returncode == 0
    assert "usage" in proc.stdout.lower()


def test_unknown_command_exit_one(capsys):
    assert cli.main(["frobnicate"]) == 1
    err = capsys.readouterr().err
    assert "usage" in err.lower()


def test_missing_command_exit_one(capsys):
    assert cli.main([]) == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_missing_dataset_exit_one(tmp_path, capsys):
    rc = cli.main(
        ["train", "--data", str(tmp_path / "nope"), "--out", str(tmp_path / "bank")]
    )
    assert rc == 1
    assert "error" in capsys.readouterr().err.lower()


def test_conflicting_generate_flags(tmp_path, capsys):
    cfg = str(tmp_path / "s.json")
    store.write_json(cfg, tiny_scenario_dict())
    rc = cli.main(
        ["generate", "--scenario", cfg, "--preset", "reference", "--out", str(tmp_path / "d")]
    )
    assert rc == 1
    assert "exclusive" in capsys.readouterr().err


def test_evaluate_rejects_malformed_report(tmp_path, capsys):
    bad = str(tmp_path / "bad.json")
    store.write_json(bad, {"foo": 1})
    assert cli.main(["evaluate", "--report", bad, "--out", str(tmp_path / "o")]) == 1
    assert "report" in capsys.readouterr().err


@pytest.mark.parametrize(
    "doc",
    [
        {"step_ids": [1], "results": "abc"},
        {"step_ids": [1], "results": [{"score": 1.0, "per_step": {"1": {"normalized": 1.0}}}]},
        {"step_ids": [1], "results": [{"state": "baseline", "score": "high",
                                       "per_step": {"1": {"normalized": 1.0}}}]},
        {"step_ids": [2], "results": [{"state": "baseline", "score": 1.0,
                                       "per_step": {"1": {"normalized": 1.0}}}]},
    ],
    ids=["results-string", "no-state", "score-string", "missing-step"],
)
def test_evaluate_rejects_malformed_results(tmp_path, capsys, doc):
    bad = str(tmp_path / "bad.json")
    store.write_json(bad, doc)
    out = str(tmp_path / "o")
    assert cli.main(["evaluate", "--report", bad, "--out", out]) == 1
    assert "data-format" in capsys.readouterr().err
    assert not os.path.exists(out)


# ---------------------------------------------------------------------------
# artifacts
# ---------------------------------------------------------------------------


def test_generate_artifacts(workflow):
    _, scenario_path, data = workflow[:3]
    manifest = store.read_json(os.path.join(data, "manifest.json"))
    assert isinstance(manifest, list)
    # 2 steps x (2 temps x 4 repeats baseline + 1 sev x 1 temp x 4 damage)
    assert len(manifest) == 24
    for row in manifest:
        assert os.path.exists(os.path.join(data, row["path"]))
    scen = store.read_json(os.path.join(data, "scenario.json"))
    assert scen == store.read_json(scenario_path)
    run = store.read_json(os.path.join(data, "run.json"))
    assert run["command"] == "generate"
    assert run["seed"] == scen["seed"]
    assert run["config"] == scen
    assert scenario_path in run["inputs"]
    assert "manifest.json" in run["outputs"]
    assert run["version"]


def test_train_artifacts_and_note(workflow, capsys):
    _, _, data, bank = workflow[:4]
    for name in ("index.json", "validation.json", "step-1.json", "step-2.json"):
        assert os.path.exists(os.path.join(bank, name))
    loaded = store.load_bank(bank)
    assert loaded.step_ids == [1, 2]
    run = store.read_json(os.path.join(bank, "run.json"))
    assert run["command"] == "train"
    assert run["seed"] == 2
    # stdout note about dropped damage records comes from a fresh run
    out_dir = bank + "-again"
    assert cli.main(["train", "--data", data, "--out", out_dir, "--seed", "2"]) == 0
    out = capsys.readouterr().out
    assert "ignoring 8 non-baseline records" in out
    assert "step 1:" in out and "step 2:" in out


def test_detect_artifacts(workflow):
    rep = workflow[4]
    doc = store.read_json(os.path.join(rep, "report.json"))
    keys = [r["key"] for r in doc["results"]]
    assert len(keys) == len(set(keys)) == 12
    assert doc["incomplete"] == []
    assert doc["step_ids"] == [1, 2]
    states = {r["state"] for r in doc["results"]}
    assert states == {"baseline", "damage"}


def test_evaluate_artifacts(workflow):
    ev = workflow[5]
    summary = store.read_json(os.path.join(ev, "summary.json"))
    assert set(summary["steps"]) == {"1", "2"}
    overall = summary["overall"]
    assert 0.0 <= float(overall["auc"]) <= 1.0
    assert overall["n_pos"] == 4 and overall["n_neg"] == 8
    for name in ("roc-overall.csv", "roc-step-1.csv", "roc-step-2.csv"):
        path = os.path.join(ev, name)
        with open(path) as fh:
            header = fh.readline().strip()
            body = fh.read().splitlines()
        assert header == "threshold,fpr,tpr"
        assert len(body) >= 3


def test_compare_artifacts(workflow):
    cmp_dir = workflow[6]
    doc = store.read_json(os.path.join(cmp_dir, "comparison.json"))
    assert {st["step"] for st in doc["steps"]} == {1, 2}
    assert "fpr_reduction_factor" in doc["summary"]


def test_export_artifacts(workflow):
    _, _, _, bank = workflow[:4]
    exp = workflow[7]
    loaded = store.load_bank(bank)
    for s in (1, 2):
        grid = loaded.steps[s].map.grid
        with open(os.path.join(exp, f"umatrix-step-{s}.csv")) as fh:
            rows = [line.split(",") for line in fh.read().splitlines()]
        assert len(rows) == grid[0] and len(rows[0]) == grid[1]
        with open(os.path.join(exp, f"clusters-step-{s}.csv")) as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "unit,row,col,cluster"
        assert len(lines) == 1 + grid[0] * grid[1]
        for name in (f"umatrix-step-{s}.svg", f"clusters-step-{s}.svg"):
            with open(os.path.join(exp, name)) as fh:
                text = fh.read()
            assert text.startswith("<svg") and text.rstrip().endswith("</svg>")


# ---------------------------------------------------------------------------
# determinism and input safety
# ---------------------------------------------------------------------------


def test_workflow_deterministic(workflow, tmp_path):
    root, scenario_path = workflow[:2]
    scenario_copy = str(tmp_path / "scenario.json")
    shutil.copy(scenario_path, scenario_copy)
    run_workflow(str(tmp_path), scenario_copy)
    for sub in ("data", "bank", "report", "eval", "cmp", "export"):
        a = tree_digest(os.path.join(root, sub))
        b = tree_digest(os.path.join(tmp_path, sub))
        assert a == b, f"{sub} differs between identically seeded runs"


def test_inputs_never_mutated(workflow):
    root, _, data, bank = workflow[:4]
    before_data = tree_digest(data, skip=())
    before_bank = tree_digest(bank, skip=())
    out = os.path.join(root, "scratch")
    assert cli.main(["detect", "--bank", bank, "--data", data, "--out", out]) == 0
    assert cli.main(["compare", "--data", data, "--out", out + "2", "--seed", "7"]) == 0
    assert tree_digest(data, skip=()) == before_data
    assert tree_digest(bank, skip=()) == before_bank


@pytest.mark.parametrize("edit", ["som-weight", "drop-theta", "scaled-spe", "cut-vectors"])
def test_detect_refuses_edited_bank(workflow, tmp_path, capsys, edit):
    _, _, data, bank = workflow[:4]
    edited = str(tmp_path / "bank")
    shutil.copytree(bank, edited)
    name = "validation.json" if edit in ("scaled-spe", "cut-vectors") else "step-1.json"
    path = os.path.join(edited, name)
    doc = store.read_json(path)
    if edit == "som-weight":
        doc["som"]["weights"][0][0] += 0.5
    elif edit == "drop-theta":
        del doc["theta"]
    elif edit == "scaled-spe":
        doc["vectors"][0]["spe"][0] *= 100.0
    else:
        doc["vectors"] = doc["vectors"][:-1]
    store.write_json(path, doc)
    capsys.readouterr()
    rc = cli.main(["detect", "--bank", edited, "--data", data, "--out", str(tmp_path / "r")])
    assert rc == 1
    assert "data-format" in capsys.readouterr().err


def _first_step(bank):
    return bank.steps[bank.step_ids[0]]


@pytest.mark.parametrize(
    "name, field, edit",
    [
        ("step", "level", lambda b: setattr(_first_step(b), "level", "8")),
        ("step", "level", lambda b: setattr(_first_step(b), "level", 8.5)),
        ("step", "theta", lambda b: setattr(_first_step(b), "theta", "x")),
        ("step", "q95", lambda b: setattr(_first_step(b).clusters[0], "q95", "x")),
        ("step", "r", lambda b: setattr(next(
            c.model for c in _first_step(b).clusters.values() if c.model), "r", "2")),
        ("step", "grid", lambda b: setattr(_first_step(b).map, "grid", (4, "4"))),
        ("validation", "severity", lambda b: setattr(b.validation[0], "severity", "x")),
    ],
    ids=["level-string", "level-fraction", "theta-string", "q95-string", "r-string",
         "grid-string", "severity-string"],
)
def test_detect_refuses_rehashed_bank_with_wrong_kind_field(workflow, tmp_path, capsys,
                                                            name, field, edit):
    # model_hash is a digest, not a MAC: an edited bank can carry a fresh one
    data, bank_dir = workflow[2], workflow[3]
    bank = store.load_bank(bank_dir)
    edit(bank)
    edited = str(tmp_path / "bank")
    store.save_bank(bank, edited)
    capsys.readouterr()
    out = tmp_path / "r"
    assert cli.main(["detect", "--bank", edited, "--data", data, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    where = f"step-{bank.step_ids[0]}.json" if name == "step" else "validation.json"
    assert "data-format" in err and where in err and f"field {field!r}" in err
    assert not out.exists()


def test_generate_seed_override(tmp_path):
    cfg = str(tmp_path / "s.json")
    store.write_json(cfg, tiny_scenario_dict(seed=11))
    out = str(tmp_path / "d")
    assert cli.main(["generate", "--scenario", cfg, "--seed", "99", "--out", out]) == 0
    scen = store.read_json(os.path.join(out, "scenario.json"))
    assert scen["seed"] == 99
    assert store.read_json(os.path.join(out, "run.json"))["seed"] == 99


def test_train_config_file(workflow, tmp_path):
    data = workflow[2]
    cfg_path = str(tmp_path / "pipe.json")
    store.write_json(cfg_path, {"seed": 5, "grid": [3, 3]})
    out = str(tmp_path / "bank")
    assert cli.main(["train", "--data", data, "--config", cfg_path, "--out", out]) == 0
    run = store.read_json(os.path.join(out, "run.json"))
    assert run["config"]["grid"] == [3, 3]
    assert run["seed"] == 5
    loaded = store.load_bank(out)
    assert loaded.steps[1].map.grid == (3, 3)
    with open(cfg_path) as fh:
        assert "grid" in fh.read()


def test_train_rejects_unknown_config_field(workflow, tmp_path, capsys):
    data = workflow[2]
    cfg_path = str(tmp_path / "pipe.json")
    store.write_json(cfg_path, {"seed": 5, "bogus": 1})
    rc = cli.main(["train", "--data", data, "--config", cfg_path, "--out", str(tmp_path / "b")])
    assert rc == 1
    assert "bogus" in capsys.readouterr().err


@pytest.mark.parametrize(
    "doc",
    [{"max_level": "8"}, {"epochs": 2.5}, {"grid": [3]}, {"theta": None},
     {"labeled_decisions": 1}, {"seed": True}, {"theta": math.inf}],
    ids=["max-level-string", "epochs-float", "grid-one-side", "theta-null",
         "decisions-int", "seed-bool", "theta-inf"],
)
def test_train_rejects_mistyped_config_field(workflow, tmp_path, capsys, doc):
    data = workflow[2]
    cfg_path = str(tmp_path / "pipe.json")
    with open(cfg_path, "w") as fh:
        json.dump(doc, fh)
    rc = cli.main(["train", "--data", data, "--config", cfg_path, "--out", str(tmp_path / "b")])
    assert rc == 1
    assert next(iter(doc)) in capsys.readouterr().err


RANGE_CASES = {
    "train-frac-zero": {"train_frac": 0}, "train-frac-one": {"train_frac": 1.0},
    "train-frac-two": {"train_frac": 2}, "variance-zero": {"variance_threshold": 0.0},
    "variance-above-one": {"variance_threshold": 1.5}, "epochs-zero": {"epochs": 0},
    "max-level-zero": {"max_level": 0}, "level-zero": {"level": 0},
    "level-40": {"level": 40}, "lambda-start-negative": {"lambda_start": -1},
    "lambda-start-zero": {"lambda_start": 0.0}, "lambda-end-zero": {"lambda_end": 0},
    "theta-negative": {"theta": -1}, "rho-negative": {"rho": -1.0},
    "rho-zero": {"rho": 0.0}, "seed-negative": {"seed": -1},
}


@pytest.mark.parametrize("doc", list(RANGE_CASES.values()), ids=list(RANGE_CASES))
def test_train_rejects_out_of_range_config_field(workflow, tmp_path, capsys, doc):
    # level 40 passes the field check and is refused against the record
    # length before any zero padding is allocated
    data = workflow[2]
    cfg_path = str(tmp_path / "pipe.json")
    store.write_json(cfg_path, doc)
    out = tmp_path / "b"
    rc = cli.main(["train", "--data", data, "--config", cfg_path, "--out", str(out)])
    assert rc == 1
    assert next(iter(doc)) in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_train_rejects_negative_seed_override(workflow, tmp_path, capsys):
    out = tmp_path / "b"
    rc = cli.main(["train", "--data", workflow[2], "--seed", "-1", "--out", str(out)])
    assert rc == 1
    assert "seed" in capsys.readouterr().err
    assert not out.exists()


SCENARIO_CASES = {
    "repeats-string": {"n_repeats": "2"}, "repeats-float": {"n_repeats": 1.5},
    "samples-string": {"n_samples": "100"}, "transducers-float": {"n_transducers": 2.0},
    "echoes-int": {"echoes": 5}, "echo-one-value": {"echoes": [[1e-4]]},
    "temperatures-string": {"temperatures_c": "20"},
    "snr-string": {"noise_snr_db": "60"}, "damage-echo-null": {"damage_echo": None},
    "seed-negative": {"seed": -1}, "seed-float": {"seed": 1.5}, "seed-bool": {"seed": True},
    # Python's json reads NaN and Infinity, which are not JSON numbers
    "carrier-nan": {"carrier_freq_hz": math.nan}, "amplitude-inf": {"amplitude": math.inf},
    "temperature-nan": {"temperatures_c": [35.0, math.nan]},
    # a damage record with severity <= 0 carries no damage echo
    "severity-negative": {"damage_severities": [1.0, -1.0]},
    "severity-zero": {"damage_severities": [0.0]},
    # the noise scales with the clean RMS: a silent echo train gives all-zero baselines
    "echoes-empty": {"echoes": []},
    "echo-gains-zero": {"echoes": [[100e-6, 0.0], [700e-6, 0.0]]},
    "amplitude-zero": {"amplitude": 0.0},
}


@pytest.mark.parametrize("edit", list(SCENARIO_CASES.values()), ids=list(SCENARIO_CASES))
def test_generate_rejects_bad_scenario_field(tmp_path, capsys, edit):
    cfg = str(tmp_path / "s.json")
    with open(cfg, "w") as fh:  # store.write_json refuses NaN and Infinity
        json.dump({**tiny_scenario_dict(), **edit}, fh)
    out = tmp_path / "d"
    assert cli.main(["generate", "--scenario", cfg, "--out", str(out)]) == 1
    assert next(iter(edit)) in capsys.readouterr().err
    assert not out.exists()


MANIFEST_CASES = {
    "path-int": ("path", 5),
    "path-null": ("path", None),
    "path-empty": ("path", ""),
    "temperature-nan": ("temperature_c", math.nan),
    "temperature-inf": ("temperature_c", math.inf),
    "actuator-bool": ("actuator_id", True),
    "path-nul": ("path", "signals/x\u0000.csv"),
}


@pytest.mark.parametrize("command", ["train", "detect"])
@pytest.mark.parametrize("edit", list(MANIFEST_CASES.values()), ids=list(MANIFEST_CASES))
def test_train_and_detect_reject_mistyped_manifest_row(workflow, tmp_path, capsys,
                                                       command, edit):
    data, bank = workflow[2], workflow[3]
    edited = str(tmp_path / "data")
    shutil.copytree(data, edited)
    manifest = os.path.join(edited, "manifest.json")
    with open(manifest) as fh:
        doc = json.load(fh)
    key, value = edit
    doc[0][key] = value
    with open(manifest, "w") as fh:  # json.dump writes NaN and Infinity
        json.dump(doc, fh)
    out = tmp_path / "out"
    argv = {
        "train": ["train", "--data", edited, "--out", str(out)],
        "detect": ["detect", "--bank", bank, "--data", edited, "--out", str(out)],
    }[command]
    capsys.readouterr()
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert "data-format" in err and key in err
    assert not out.exists()


def test_generate_refuses_oversized_scenario_before_allocating(tmp_path, capsys, monkeypatch):
    # 2**40 samples a record is 8 TiB each: the scenario check refuses it, and
    # nothing that makes sample arrays is reached
    def unreachable(config):
        raise AssertionError("generate_dataset reached for a refused scenario")

    monkeypatch.setattr(signals, "generate_dataset", unreachable)
    cfg = str(tmp_path / "s.json")
    store.write_json(cfg, {**tiny_scenario_dict(), "n_samples": 2**40})
    out = tmp_path / "d"
    assert cli.main(["generate", "--scenario", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "n_samples" in err and "GiB limit" in err
    assert not out.exists()


@pytest.mark.parametrize("source", [["--preset", "reference"], ["--scenario"]])
def test_generate_rejects_negative_seed_override(tmp_path, capsys, source):
    if source == ["--scenario"]:
        cfg = str(tmp_path / "s.json")
        store.write_json(cfg, tiny_scenario_dict())
        source = source + [cfg]
    out = tmp_path / "d"
    assert cli.main(["generate", *source, "--seed", "-1", "--out", str(out)]) == 1
    assert "seed" in capsys.readouterr().err
    assert not out.exists()


def parent_dataset_digest(manifest):
    """The dataset digest built by re-reading the files after the command:
    the manifest's sha256 hex, then each sample file's path and sha256 hex."""
    digest = hashlib.sha256()
    with open(manifest, "rb") as fh:
        raw = fh.read()
    digest.update(hashlib.sha256(raw).hexdigest().encode())
    for row in json.loads(raw):
        with open(os.path.join(os.path.dirname(manifest), row["path"]), "rb") as fh:
            digest.update(row["path"].encode())
            digest.update(hashlib.sha256(fh.read()).hexdigest().encode())
    return digest.hexdigest()


def test_dataset_digest_covers_the_parsed_bytes(workflow, tmp_path, monkeypatch):
    # each sample file is read once: its digest comes from the bytes read,
    # parsed or not
    data, bank = workflow[2], workflow[3]
    manifest = os.path.join(data, "manifest.json")
    want = parent_dataset_digest(manifest)
    real = store.sha256_file

    def no_sample_rereads(path):
        if os.sep + "signals" + os.sep in os.path.abspath(path):
            raise AssertionError(f"sample file read twice: {path}")
        return real(path)

    monkeypatch.setattr(store, "sha256_file", no_sample_rereads)
    for argv, out in (
        (["train", "--data", data, "--out", str(tmp_path / "b"), "--seed", "2"],
         tmp_path / "b"),
        (["detect", "--bank", bank, "--data", data, "--out", str(tmp_path / "r")],
         tmp_path / "r"),
    ):
        assert cli.main(argv) == 0, argv
        assert store.read_json(str(out / "run.json"))["inputs"][manifest] == want


def first_damage_row(rows):
    return next(row for row in rows if row["state"] == "damage")


@pytest.mark.parametrize("victim", ["manifest", "sample", "damage"])
def test_non_utf8_dataset_file_exits_one(workflow, tmp_path, capsys, victim):
    # train parses no damage record, but still reads and decodes its file
    data = tmp_path / "data"
    shutil.copytree(workflow[2], data)
    rows = store.read_json(str(data / "manifest.json"))
    row = first_damage_row(rows) if victim == "damage" else rows[0]
    path = data / ("manifest.json" if victim == "manifest" else row["path"])
    path.write_bytes(b"0.5\n\xff\xfe\n")
    argv = (["train", "--data", str(data)] if victim == "damage"
            else ["detect", "--bank", workflow[3], "--data", str(data)])
    assert cli.main(argv + ["--out", str(tmp_path / "r")]) == 1
    err = capsys.readouterr().err
    assert ("manifest" if victim == "manifest" else row["id"]) in err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize(
    "entry", ["train-config", "generate-scenario", "evaluate-report", "bank-detect",
              "bank-export"])
def test_non_utf8_json_input_exits_one(workflow, tmp_path, capsys, entry):
    data, bank = workflow[2], workflow[3]
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"seed": 1}\xff\n')
    edited = tmp_path / "bank"
    shutil.copytree(bank, edited)
    (edited / "index.json").write_bytes(b"\xff")
    out = tmp_path / "out"
    argv = {
        "train-config": ["train", "--data", data, "--config", str(bad)],
        "generate-scenario": ["generate", "--scenario", str(bad)],
        "evaluate-report": ["evaluate", "--report", str(bad)],
        "bank-detect": ["detect", "--bank", str(edited), "--data", data],
        "bank-export": ["export-umatrix", "--bank", str(edited)],
    }[entry]
    capsys.readouterr()
    assert cli.main(argv + ["--out", str(out)]) == 1
    assert "data-format" in capsys.readouterr().err
    assert not out.exists()


def test_train_parses_only_baseline_records(workflow, tmp_path, monkeypatch):
    data, bank = workflow[2], workflow[3]
    rows = store.read_json(os.path.join(data, "manifest.json"))
    parsed = []
    real = signals._parse_samples

    def spy(text, rec_id):
        parsed.append(rec_id)
        return real(text, rec_id)

    monkeypatch.setattr(signals, "_parse_samples", spy)
    assert cli.main(["train", "--data", data, "--out", str(tmp_path / "b")]) == 0
    assert parsed == [row["id"] for row in rows if row["state"] == "baseline"]
    parsed.clear()
    assert cli.main(["detect", "--bank", bank, "--data", data,
                     "--out", str(tmp_path / "r")]) == 0
    assert parsed == [row["id"] for row in rows]


def mutate_sample_file(path, edit):
    """Rewrite one sample file: a bad token, a non-finite value, a truncated
    body (the first half of the rows), an empty file or a trailing 0xff."""
    if edit == "append-ff":
        path.write_bytes(path.read_bytes() + b"\xff")
        return
    lines = path.read_text().splitlines()
    if edit == "bad-token":
        lines[10] = "0.5x"
    elif edit == "nan":
        lines[10] = "nan"
    elif edit == "truncate":
        lines = lines[: len(lines) // 2]
    elif edit == "empty":
        lines = []
    path.write_text("".join(line + "\n" for line in lines))


@pytest.mark.parametrize("edit", ["bad-token", "nan", "truncate"])
def test_train_ignores_malformed_damage_sample_detect_refuses(workflow, tmp_path, capsys,
                                                              edit):
    # a bank from these records is the clean bank; detect parses every record
    data, bank = tmp_path / "data", workflow[3]
    shutil.copytree(workflow[2], data)
    row = first_damage_row(store.read_json(str(data / "manifest.json")))
    mutate_sample_file(data / row["path"], edit)
    capsys.readouterr()
    out = tmp_path / "b"
    assert cli.main(["train", "--data", str(data), "--out", str(out), "--seed", "2"]) == 0
    assert "ignoring 8 non-baseline records" in capsys.readouterr().out
    assert tree_digest(out) == tree_digest(bank)
    rep = tmp_path / "r"
    assert cli.main(["detect", "--bank", bank, "--data", str(data), "--out", str(rep)]) == 1
    err = capsys.readouterr().err
    assert "data-format" in err and row["id"] in err
    assert not rep.exists()


def test_train_refuses_missing_damage_file(workflow, tmp_path, capsys):
    data = tmp_path / "data"
    shutil.copytree(workflow[2], data)
    row = first_damage_row(store.read_json(str(data / "manifest.json")))
    os.remove(data / row["path"])
    out = tmp_path / "b"
    assert cli.main(["train", "--data", str(data), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "cannot read sample file" in err and row["id"] in err
    assert not out.exists()


DATASET_EDITS = ["truncate", "append-ff", "bad-token", "nan", "empty", "state"]


@settings(derandomize=True, max_examples=25, deadline=None)
@given(edit=st.sampled_from(DATASET_EDITS), index=st.integers(0, 23))
def test_mutated_dataset_exits_zero_or_one(workflow, edit, index):
    # one manifest row or one sample file is mutated; train and detect
    # either succeed or refuse it with exit 1 and write nothing
    clean, bank = workflow[2], workflow[3]
    with tempfile.TemporaryDirectory() as root:
        data = os.path.join(root, "data")
        shutil.copytree(clean, data)
        manifest = os.path.join(data, "manifest.json")
        rows = store.read_json(manifest)
        row = rows[index]
        if edit == "state":
            row["state"] = "damage" if row["state"] == "baseline" else "baseline"
            store.write_json(manifest, rows)
        else:
            mutate_sample_file(pathlib.Path(data, row["path"]), edit)
        codes = {}
        for command, argv in (
            ("train", ["train", "--data", data, "--seed", "2"]),
            ("detect", ["detect", "--bank", bank, "--data", data]),
        ):
            out = os.path.join(root, command)
            codes[command] = cli.main(argv + ["--out", out])
            assert codes[command] in (0, 1), (command, edit, index)
            if codes[command] == 1:
                assert not os.path.exists(out), (command, edit, index)
        if edit == "state":
            return
        assert codes["detect"] == 1
        if row["state"] == "damage":  # read and digested, not parsed
            assert codes["train"] == (1 if edit == "append-ff" else 0)
            if codes["train"] == 0:
                assert tree_digest(os.path.join(root, "train")) == tree_digest(bank)


def test_train_refuses_step_without_modeled_cluster(workflow, tmp_path, capsys, monkeypatch):
    # every cluster PCA fit fails: the bank could not score a novel row
    def degenerate(*args, **kwargs):
        raise DegenerateDataError("no variance")

    monkeypatch.setattr(pca, "fit", degenerate)
    out = tmp_path / "b"
    assert cli.main(["train", "--data", workflow[2], "--out", str(out)]) == 1
    assert "no cluster of the baseline map" in capsys.readouterr().err
    assert not out.exists()


def test_detect_refuses_step_without_modeled_cluster(workflow, tmp_path, capsys):
    # a bank edited so that one step has no PCA model left has nothing to
    # score a row of that step against
    data, bank_dir = workflow[2], workflow[3]
    bank = store.load_bank(bank_dir)
    step = bank.step_ids[-1]
    for cm in bank.steps[step].clusters.values():
        cm.model = None
    edited = tmp_path / "bank"
    edited.mkdir()
    store.save_bank(bank, str(edited))
    with pytest.raises(DegenerateDataError, match=rf"step {step} has no cluster"):
        pipeline.detect(store.load_bank(str(edited)), signals.load_dataset(
            os.path.join(data, "manifest.json")))
    capsys.readouterr()
    out = tmp_path / "r"
    assert cli.main(["detect", "--bank", str(edited), "--data", data, "--out", str(out)]) == 1
    assert f"step {step} has no cluster" in capsys.readouterr().err
    assert not out.exists()
