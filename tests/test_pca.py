"""Covariance, symmetric eigendecomposition, retention, and SPE residuals."""
import warnings

import numpy as np
import pytest

from aubase import fusion, pca
from aubase.errors import InvalidArgumentError, NotConvergedError
from util import random_symmetric


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


def naive_det(mat) -> float:
    m = len(mat)
    if m == 1:
        return mat[0][0]
    total = 0.0
    for j in range(m):
        minor = [row[:j] + row[j + 1 :] for row in mat[1:]]
        total += (-1.0) ** j * mat[0][j] * naive_det(minor)
    return total


# ---------------------------------------------------------------------------
# covariance
# ---------------------------------------------------------------------------


def test_covariance_hand_case():
    c = pca.covariance(np.array([[1.0], [-1.0]]))
    assert c.shape == (1, 1)
    assert abs(c[0, 0] - 2.0) < 1e-12


def test_covariance_orthogonal_columns():
    x = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
    c = pca.covariance(x)
    assert abs(c[0, 1]) < 1e-12 and abs(c[1, 0]) < 1e-12


def test_covariance_matches_naive_double_loop():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(9, 4))
    x -= x.mean(axis=0)
    c = pca.covariance(x)
    n, m = x.shape
    for j in range(m):
        for k in range(m):
            want = sum(x[i, j] * x[i, k] for i in range(n)) / (n - 1)
            assert abs(c[j, k] - want) < 1e-12
    assert np.max(np.abs(c - c.T)) < 1e-12


def test_covariance_needs_two_rows():
    with pytest.raises(InvalidArgumentError):
        pca.covariance(np.ones((1, 3)))


# ---------------------------------------------------------------------------
# eig_sym
# ---------------------------------------------------------------------------


def test_eig_identity():
    vals, vecs = pca.eig_sym(np.eye(3))
    assert np.allclose(vals, 1.0)
    assert np.allclose(vecs @ vecs.T, np.eye(3), atol=1e-9)
    for j in range(3):
        assert np.allclose(np.eye(3) @ vecs[:, j], vals[j] * vecs[:, j], atol=1e-9)


def test_eig_diagonal_sorted_descending():
    vals, vecs = pca.eig_sym(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(vals, [3.0, 2.0, 1.0])
    # axis-aligned up to sign; sign convention makes the big entry positive
    assert np.allclose(np.abs(vecs), np.eye(3)[:, [0, 2, 1]], atol=1e-9)
    assert np.all(vecs[np.argmax(np.abs(vecs), axis=0), np.arange(3)] > 0)


def test_eig_random_symmetric_defining_property():
    rng = np.random.default_rng(1)
    for _ in range(10):
        c = random_symmetric(rng, 5, 2.0)
        vals, vecs = pca.eig_sym(c)
        norm = np.linalg.norm(c)
        for j in range(5):
            resid = np.linalg.norm(c @ vecs[:, j] - vals[j] * vecs[:, j])
            assert resid < 1e-8 * max(norm, 1.0)
        assert np.max(np.abs(vecs.T @ vecs - np.eye(5))) < 1e-9
        assert np.all(np.diff(vals) <= 1e-12)
        # spectrum matches an independent implementation, signs included
        ref = np.sort(np.linalg.eigvalsh(c))[::-1]
        assert np.allclose(vals, ref, atol=1e-8 * max(norm, 1.0))


def test_eig_trace_and_determinant_identities():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(5, 5))
    c = a @ a.T + np.eye(5)  # positive definite, nonzero determinant
    vals, _ = pca.eig_sym(c)
    assert abs(vals.sum() - np.trace(c)) < 1e-8 * abs(np.trace(c))
    det_ref = naive_det(c.tolist())
    assert abs(np.prod(vals) - det_ref) < 1e-8 * abs(det_ref)


def test_eig_rejects_non_symmetric():
    with pytest.raises(InvalidArgumentError):
        pca.eig_sym(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_eig_not_converged(monkeypatch):
    def fail(_c):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(NotConvergedError):
        pca.eig_sym(np.array([[1.0, 0.5], [0.5, 1.0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_eig_rejects_non_finite(bad):
    c = np.array([[1.0, 0.5], [0.5, 1.0]])
    c[0, 1] = c[1, 0] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # rejected before any arithmetic warns
        with pytest.raises(InvalidArgumentError):
            pca.eig_sym(c)


# ---------------------------------------------------------------------------
# fit / retention
# ---------------------------------------------------------------------------


def test_fit_rank_one_data():
    rng = np.random.default_rng(3)
    t = rng.normal(size=40)
    mat = feature_matrix(np.column_stack([t, 2.0 * t]))
    model = pca.fit(mat, 0.95)
    assert model.r == 1
    assert model.eigvals[0] / model.eigvals.sum() > 0.999


def test_fit_threshold_one_keeps_all_components():
    rng = np.random.default_rng(4)
    mat = feature_matrix(rng.normal(size=(40, 4)))
    model = pca.fit(mat, 1.0)
    assert model.r == 4


def test_fit_recovers_embedded_rank_two():
    rng = np.random.default_rng(5)
    u = rng.normal(size=10)
    v = rng.normal(size=10)
    coef = rng.normal(size=(30, 2))
    x = np.outer(coef[:, 0], u) + np.outer(coef[:, 1], v)
    x += 1e-6 * rng.normal(size=x.shape)
    model = pca.fit(feature_matrix(x), 0.95)
    assert model.r == 2


def test_fit_loadings_orthonormal():
    rng = np.random.default_rng(6)
    model = pca.fit(feature_matrix(rng.normal(size=(25, 6))), 0.95)
    eye = model.loadings.T @ model.loadings
    assert np.max(np.abs(eye - np.eye(model.r))) < 1e-9


def test_fit_gram_route_matches_direct_spectrum_and_spe():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(8, 12))  # n - 1 < m forces the Gram route
    mat = feature_matrix(x)
    model = pca.fit(mat, 0.95)
    scaling = fusion.fit_group_scaling(mat)
    xs = fusion.apply_scaling(mat.values, scaling)
    ref_vals = np.sort(np.linalg.eigvalsh(pca.covariance(xs)))[::-1]
    k = min(len(ref_vals), x.shape[0] - 1)
    assert np.allclose(model.eigvals[:k], np.clip(ref_vals[:k], 0, None), atol=1e-8)
    # SPE agrees with a projector built from an independent eigendecomposition
    _, ref_vecs = np.linalg.eigh(pca.covariance(xs))
    top = ref_vecs[:, ::-1][:, : model.r]
    probe = rng.normal(size=(5, 12))
    ps = fusion.apply_scaling(probe, scaling)
    ref_spe = np.sum((ps - ps @ top @ top.T) ** 2, axis=1)
    assert np.allclose(pca.spe(model, probe), ref_spe, atol=1e-8)


def test_fit_rejects_bad_threshold():
    rng = np.random.default_rng(8)
    mat = feature_matrix(rng.normal(size=(10, 3)))
    for bad in (0.0, -0.5, 1.5):
        with pytest.raises(InvalidArgumentError):
            pca.fit(mat, bad)


# ---------------------------------------------------------------------------
# projection and spe
# ---------------------------------------------------------------------------


def fitted_model(seed=9, n=30, m=6, threshold=0.95):
    rng = np.random.default_rng(seed)
    mat = feature_matrix(rng.normal(size=(n, m)) * np.arange(1, m + 1))
    return pca.fit(mat, threshold), mat


def project(model, x):
    """Scores T = normalize(x) Xi, the projection SPE measures the residual of."""
    return fusion.apply_scaling(np.asarray(x, dtype=float), model.scaling) @ model.loadings


def test_project_training_mean_is_zero():
    model, _ = fitted_model()
    scores = project(model, model.scaling.col_means.copy())
    assert np.max(np.abs(scores)) < 1e-9


def test_project_along_first_loading():
    model, _ = fitted_model()
    sigma = 2.5
    stds = model.scaling.group_stds[model.scaling.col_groups]
    x = model.scaling.col_means + sigma * model.loadings[:, 0] * stds
    scores = project(model, x)
    assert abs(scores[0] - sigma) < 1e-9
    assert np.max(np.abs(scores[1:])) < 1e-9


def test_residual_orthogonal_to_span():
    model, mat = fitted_model()
    xs = fusion.apply_scaling(mat.values, model.scaling)
    resid = xs - project(model, mat.values) @ model.loadings.T
    assert np.max(np.abs(resid @ model.loadings)) < 1e-9


def test_projector_idempotent():
    model, _ = fitted_model()
    p = model.loadings @ model.loadings.T
    assert np.max(np.abs(p @ p - p)) < 1e-12


def test_spe_dual_route_agreement():
    model, mat = fitted_model()
    rng = np.random.default_rng(10)
    rows = rng.normal(size=(50, mat.m)) * 3.0
    direct = pca.spe(model, rows)
    xs = fusion.apply_scaling(rows, model.scaling)
    dual = np.sum(xs**2, axis=1) - np.sum((xs @ model.loadings) ** 2, axis=1)
    assert np.max(np.abs(direct - dual)) < 1e-9
    # scalar form agrees with the vector form
    assert abs(pca.spe(model, rows[0]) - direct[0]) < 1e-12


def test_spe_non_increasing_in_r():
    _, mat = fitted_model(threshold=1.0)
    full = pca.fit(mat, 1.0)
    rng = np.random.default_rng(11)
    rows = rng.normal(size=(20, mat.m))
    xs = fusion.apply_scaling(rows, full.scaling)
    prev = None
    for r in range(1, full.r + 1):
        load = full.loadings[:, :r]
        vals = np.sum((xs - xs @ load @ load.T) ** 2, axis=1)
        if prev is not None:
            assert np.all(vals <= prev + 1e-12)
        prev = vals


def test_trace_preserved_by_scaled_spectrum():
    model, mat = fitted_model()
    xs = fusion.apply_scaling(mat.values, model.scaling)
    c = pca.covariance(xs)
    assert abs(model.eigvals.sum() - np.trace(c)) < 1e-8 * abs(np.trace(c))


def test_validation_spe_within_factor_of_training():
    rng = np.random.default_rng(12)
    # decaying spectrum and n >> m keep the residual space well estimated
    pool = rng.normal(size=(600, 10)) * np.arange(1, 11.0)[::-1] ** 2
    train, val = pool[:300], pool[300:]
    model = pca.fit(feature_matrix(train), 0.95)
    med_train = np.median(pca.spe(model, train))
    med_val = np.median(pca.spe(model, val))
    assert med_val <= 3.0 * med_train


def test_spe_control_limit_behaviour():
    model, _ = fitted_model(threshold=0.6)
    lim05 = pca.spe_control_limit(model, 0.05)
    lim20 = pca.spe_control_limit(model, 0.20)
    assert lim05 > 0.0
    assert lim05 >= lim20
    full = pca.fit(fitted_model(threshold=1.0)[1], 1.0)
    assert pca.spe_control_limit(full) == 0.0
