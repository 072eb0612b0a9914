"""Acceptance gate: the ten shipping criteria, one visible verdict line each.

Each test prints "criterion N: PASS (...)" straight to the terminal once its
assertions hold, so a full run leaves a ten-line scorecard. The batteries on
the built-in scenario are the slow part (about four minutes total).
"""
import hashlib
import os
import shutil
import time

import numpy as np
import pytest

from aubase import cli, ds2l, evaluate, fusion, pca, pipeline, signals, som, store, wavelet
from util import best_agreement


def say(capsys, line):
    with capsys.disabled():
        print(f"\n{line}", flush=True)


def feature_matrix(values, groups=None) -> fusion.FeatureMatrix:
    values = np.asarray(values, dtype=float)
    if groups is None:
        groups = np.zeros(values.shape[1], dtype=int)
    return fusion.FeatureMatrix(
        values=values,
        col_groups=np.asarray(groups),
        sensor_ids=sorted(set(int(g) + 1 for g in np.asarray(groups))),
        meta=[None] * values.shape[0],
    )


def pair_count_auc(scores, labels):
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


# ---------------------------------------------------------------------------
# shared batteries on the built-in scenario
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def temperature_battery():
    """Train on baselines only, 10 seeds; keep the seed-0 bank."""
    runs = []
    for seed in range(10):
        cfg = signals.reference_scenario(seed=seed)
        records = signals.generate_dataset(cfg)
        bank = pipeline.train_phase1(records, pipeline.PipelineConfig(seed=seed))
        layouts = fusion.build_step_layouts(records)
        per_step = []
        for s in bank.step_ids:
            sm = bank.steps[s]
            keys = [slot.key for slot in layouts[s].experiments]
            train_idx, _ = pipeline._split_indices(
                len(keys), bank.config.train_frac, seed
            )
            temps = [layouts[s].experiments[i].temperature_c for i in train_idx]
            ag = best_agreement(temps, sm.partition.datum_label.tolist())
            per_step.append((sm.partition.n_clusters, ag))
        runs.append({"per_step": per_step, "bank": bank if seed == 0 else None})
    return runs


@pytest.fixture(scope="module")
def damage_battery():
    """Detect pristine + 4 severities at the coldest temperature, 10 seeds."""
    runs = []
    for seed in range(10):
        cfg = signals.reference_scenario(seed=seed, with_damage=True)
        records = signals.generate_dataset(cfg)
        baselines = [r for r in records if r.state == "baseline"]
        t_low = min(cfg.temperatures_c)
        batch = [r for r in records if r.temperature_c == t_low]
        bank = pipeline.train_phase1(baselines, pipeline.PipelineConfig(seed=seed))
        report = pipeline.detect(bank, batch)
        tags = [
            "baseline" if r.state == "baseline" else f"damage{r.severity:g}"
            for r in report.results
        ]
        labels = [r.second_cluster for r in report.results]
        runs.append(
            {
                "k": len(set(labels)),
                "agreement": best_agreement(tags, labels),
                "report": report if seed == 0 else None,
            }
        )
    return runs


@pytest.fixture(scope="module")
def damage_comparison():
    cfg = signals.reference_scenario(seed=0, with_damage=True)
    records = signals.generate_dataset(cfg)
    return pipeline.compare_monolithic(records, pipeline.PipelineConfig(seed=0))


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_criterion_1_wavelet_reconstruction(capsys):
    rng = np.random.default_rng(1)
    warm = wavelet.idwt(wavelet.dwt(rng.standard_normal(4096), 8))
    assert warm.shape == (4096,)
    t0 = time.time()
    worst_pr = 0.0
    worst_energy = 0.0
    for _ in range(1000):
        x = rng.standard_normal(4096)
        d = wavelet.dwt(x, 8)
        y = wavelet.idwt(d)
        worst_pr = max(worst_pr, float(np.max(np.abs(y - x))))
        e_sig = float(x @ x)
        e_coef = float(d.approx @ d.approx) + sum(float(v @ v) for v in d.details)
        worst_energy = max(worst_energy, abs(e_sig - e_coef) / e_sig)
    elapsed = time.time() - t0
    assert worst_pr < 1e-9
    assert worst_energy < 1e-9
    assert elapsed < 5.0
    say(
        capsys,
        f"criterion 1: PASS (1000 signals, max |idwt(dwt(x))-x| {worst_pr:.2e}, "
        f"max energy error {worst_energy:.2e}, {elapsed:.2f}s)",
    )


def test_criterion_2_pca_oracle(capsys):
    rng = np.random.default_rng(2)
    worst_resid = worst_orth = worst_trace = 0.0
    for _ in range(50):
        a = rng.standard_normal((5, 5))
        c = a + a.T
        vals, vecs = pca.eig_sym(c)
        c_norm = float(np.linalg.norm(c))
        worst_resid = max(
            worst_resid, float(np.linalg.norm(c @ vecs - vecs * vals)) / c_norm
        )
        worst_orth = max(
            worst_orth, float(np.linalg.norm(vecs.T @ vecs - np.eye(5)))
        )
        worst_trace = max(
            worst_trace, abs(float(vals.sum()) - float(np.trace(c))) / abs(np.trace(c))
        )
    assert worst_resid < 1e-8
    assert worst_orth < 1e-9
    assert worst_trace < 1e-8

    scales = np.arange(1, 13, dtype=float)[::-1] ** 2
    train = feature_matrix(rng.standard_normal((300, 12)) * scales)
    model = pca.fit(train)
    assert 1 <= model.r < 12
    projector = model.loadings @ model.loadings.T
    worst_dual = 0.0
    for _ in range(1000):
        x = rng.standard_normal(12) * scales
        z = fusion.apply_scaling(x, model.scaling)
        resid = z - projector @ z
        by_norm = float(resid @ resid)
        by_quad = float(z @ (np.eye(12) - projector) @ z)
        worst_dual = max(worst_dual, abs(by_norm - by_quad))
        assert abs(pca.spe(model, x) - by_norm) < 1e-9
    assert worst_dual < 1e-9
    say(
        capsys,
        f"criterion 2: PASS (50 symmetric eigs: resid {worst_resid:.2e}, "
        f"orth {worst_orth:.2e}, trace {worst_trace:.2e}; "
        f"SPE dual gap {worst_dual:.2e} over 1000 rows)",
    )


def test_criterion_3_density_clustering_blobs(capsys):
    t0 = time.time()

    def run(centers, seed):
        rng = np.random.default_rng(seed)
        pts = np.vstack([rng.normal(c, 1.0, size=(200, 2)) for c in centers])
        labels = [i for i in range(len(centers)) for _ in range(200)]
        model = som.init_som((10, 10), pts, mode="linear")
        trained = som.train(model, pts, epochs=30)
        part = ds2l.cluster(ds2l.enrich(trained, pts))
        return part.n_clusters, best_agreement(labels, part.datum_label.tolist())

    three_ok = 0
    for seed in range(10):
        k, ag = run([(0.0, 0.0), (6.0, 0.0), (0.0, 6.0)], seed)
        three_ok += k == 3 and ag >= 0.95
    one_ok = 0
    for seed in range(10):
        k, _ = run([(0.0, 0.0)], seed)
        one_ok += k == 1
    elapsed = time.time() - t0
    assert three_ok >= 9
    assert one_ok == 10
    assert elapsed < 30.0
    say(
        capsys,
        f"criterion 3: PASS (3-blob {three_ok}/10, 1-blob {one_ok}/10, "
        f"{elapsed:.1f}s)",
    )


def test_criterion_4_temperature_clustering(capsys, temperature_battery):
    passes = 0
    for run in temperature_battery:
        passes += all(k == 5 and ag >= 0.9 for k, ag in run["per_step"])
    assert passes >= 8
    say(capsys, f"criterion 4: PASS (5 temperature clusters per step in {passes}/10 seeds)")


def test_criterion_5_damage_identification(capsys, damage_battery):
    passes = sum(1 for run in damage_battery if run["k"] == 5 and run["agreement"] >= 0.9)
    assert passes >= 8
    say(
        capsys,
        f"criterion 5: PASS (pristine + 4 severities resolved in {passes}/10 seeds)",
    )


def test_criterion_6_model_size(capsys, damage_comparison):
    strict = 0
    for step in damage_comparison.steps:
        worst_cluster_r = max(step.r_clusters.values())
        assert worst_cluster_r <= step.r_mono
        strict += worst_cluster_r < step.r_mono
    assert strict >= 3
    rs = [(max(s.r_clusters.values()), s.r_mono) for s in damage_comparison.steps]
    say(capsys, f"criterion 6: PASS (per-cluster vs single-model r: {rs}, strict on {strict}/4)")


def test_criterion_7_false_positive_reduction(capsys, damage_comparison):
    props, monos = [], []
    for step in damage_comparison.steps:
        assert step.fpr_tpr95_proposed <= step.fpr_tpr95_mono
        props.append(step.fpr_tpr95_proposed)
        monos.append(step.fpr_tpr95_mono)
    factor = damage_comparison.summary["fpr_reduction_factor"]
    assert factor >= 2.0
    say(
        capsys,
        f"criterion 7: PASS (FPR at 95% sensitivity {np.mean(props):.3f} vs "
        f"{np.mean(monos):.3f} single-model, reduction {factor:.1f}x)",
    )


def test_criterion_8_roc_dominance(capsys, damage_comparison, damage_battery):
    for step in damage_comparison.steps:
        assert step.auc_proposed >= step.auc_mono
    aucs = [(round(s.auc_proposed, 4), round(s.auc_mono, 4)) for s in damage_comparison.steps]

    report = damage_battery[0]["report"]
    labels = [0 if r.state == "baseline" else 1 for r in report.results]
    worst_gap = 0.0
    checked = 0
    score_sets = [[r.score for r in report.results]]
    for i in range(len(report.step_ids)):
        score_sets.append([r.spe_vector.normalized[i] for r in report.results])
    for scores in score_sets:
        trap = evaluate.auc(evaluate.roc(scores, labels))
        brute = pair_count_auc(scores, labels)
        worst_gap = max(worst_gap, abs(trap - brute))
        checked += 1
    assert worst_gap < 1e-12
    say(
        capsys,
        f"criterion 8: PASS (AUC proposed vs single-model {aucs}; "
        f"trapezoid vs pair-count gap {worst_gap:.1e} on {checked} test sets)",
    )


def test_criterion_9_cli_determinism(capsys, tmp_path, monkeypatch):
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
        seed=11,
    )

    def run_tree(root):
        os.makedirs(root, exist_ok=True)
        store.write_json(os.path.join(root, "scenario.json"), signals.scenario_to_dict(cfg))
        monkeypatch.chdir(root)
        for argv in (
            ["generate", "--scenario", "scenario.json", "--out", "data"],
            ["train", "--data", "data", "--out", "bank", "--seed", "2"],
            ["detect", "--bank", "bank", "--data", "data", "--out", "report"],
            ["evaluate", "--report", "report/report.json", "--out", "eval"],
            ["compare", "--data", "data", "--out", "cmp", "--seed", "2"],
            ["export-umatrix", "--bank", "bank", "--out", "export", "--svg"],
            ["export-clusters", "--bank", "bank", "--out", "export", "--svg"],
        ):
            assert cli.main(argv) == 0

    def digests(root):
        out = {}
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames.sort()
            for name in sorted(filenames):
                full = os.path.join(dirpath, name)
                rel = os.path.relpath(full, root)
                with open(full, "rb") as fh:
                    out[rel] = hashlib.sha256(fh.read()).hexdigest()
        return out

    a, b = str(tmp_path / "run-a"), str(tmp_path / "run-b")
    run_tree(a)
    run_tree(b)
    da, db = digests(a), digests(b)
    assert set(da) == set(db)
    diff = [rel for rel in da if da[rel] != db[rel]]
    assert diff == []
    say(
        capsys,
        f"criterion 9: PASS ({len(da)} artifacts byte-identical across two seeded runs)",
    )


def test_criterion_10_calibration_sanity(capsys, temperature_battery):
    bank = temperature_battery[0]["bank"]
    assert bank is not None
    cells = 0
    exceed = 0
    for vec in bank.validation:
        for value in vec.normalized:
            cells += 1
            exceed += value > 1.0
    rate = exceed / cells
    assert rate <= 0.10
    say(
        capsys,
        f"criterion 10: PASS (validation exceedance {exceed}/{cells} = {rate:.3f} <= 0.10)",
    )
