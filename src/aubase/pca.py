"""Principal-component models with squared prediction error residuals.

Eigendecomposition is LAPACK's symmetric solver (numpy.linalg.eigh),
wrapped so its output is canonical: eigenvalues in descending order, each
eigenvector signed by its largest entry, and round-off eigenvalues snapped
to zero. When a training block has fewer rows than columns the
decomposition runs on the n x n Gram matrix instead and maps the
eigenvectors back; both routes agree to 1e-8 and the tests hold them to it.

SPE of a row x against a model with loadings Xi is the residual power
x (I - Xi Xi^T) x^T evaluated in the normalized space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, NotConvergedError
from .fusion import FeatureMatrix, ScalingParams, apply_scaling, fit_group_scaling

EIGVAL_CLAMP_FACTOR = 1e-12


def covariance(x: np.ndarray) -> np.ndarray:
    """Sample covariance X^T X / (n - 1) of an already-centred matrix."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] < 2:
        raise InvalidArgumentError("covariance needs at least 2 rows")
    return (x.T @ x) / (x.shape[0] - 1)


def eig_sym(c: np.ndarray):
    """Eigenvalues (descending) and orthonormal eigenvectors.

    The input must be finite and symmetric to 1e-9 relative. Each
    eigenvector is signed so its largest-magnitude entry is positive;
    eigenvalues within round-off of zero (1e-12 * spectral radius) are
    snapped to exactly zero so that positive-semidefinite inputs keep a
    clean nonnegative spectrum.
    """
    c = np.asarray(c, dtype=float)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise InvalidArgumentError("eig_sym expects a square matrix")
    if not np.all(np.isfinite(c)):
        raise InvalidArgumentError("matrix contains non-finite entries")
    scale = max(1.0, float(np.abs(c).max()) if c.size else 0.0)
    if float(np.abs(c - c.T).max() if c.size else 0.0) > 1e-9 * scale:
        raise InvalidArgumentError("matrix is not symmetric")
    try:
        vals, vecs = np.linalg.eigh(c)
    except np.linalg.LinAlgError as exc:
        raise NotConvergedError(f"symmetric eigensolver failed: {exc}") from exc
    order = np.argsort(-vals, kind="stable")
    vals = vals[order]
    vecs = vecs[:, order]
    radius = float(np.abs(vals).max()) if vals.size else 0.0
    vals[np.abs(vals) < EIGVAL_CLAMP_FACTOR * radius] = 0.0
    for j in range(vecs.shape[1]):
        k = int(np.argmax(np.abs(vecs[:, j])))
        if vecs[k, j] < 0:
            vecs[:, j] = -vecs[:, j]
    return vals, vecs


@dataclass
class PcaModel:
    eigvals: np.ndarray  # length m, descending, >= 0
    loadings: np.ndarray  # m x r
    r: int
    variance_threshold: float
    scaling: ScalingParams
    n_train: int


def _retained_count(eigvals: np.ndarray, threshold: float) -> int:
    total = float(eigvals.sum())
    if total <= 0.0:
        raise InvalidArgumentError("total variance is zero; nothing to retain")
    cum = np.cumsum(eigvals) / total
    r = int(np.searchsorted(cum, threshold - 1e-15) + 1)
    return max(1, min(r, eigvals.shape[0]))


def fit(matrix: FeatureMatrix, variance_threshold: float = 0.95) -> PcaModel:
    """Group-scale the matrix, eigendecompose, and keep the smallest r whose
    cumulative variance share reaches the threshold (floor 1)."""
    if not 0.0 < variance_threshold <= 1.0:
        raise InvalidArgumentError("variance_threshold must be in (0, 1]")
    scaling = fit_group_scaling(matrix)
    xs = apply_scaling(matrix.values, scaling)
    n, m = xs.shape
    if n - 1 < m:
        # Gram route: same nonzero spectrum, far smaller matrix.
        gram = (xs @ xs.T) / (n - 1)
        gvals, gvecs = eig_sym(gram)
        vals = np.zeros(m)
        vals[: gvals.shape[0]] = gvals
        r = _retained_count(vals, variance_threshold)
        rank = int(np.count_nonzero(gvals))
        r = max(1, min(r, max(rank, 1)))
        loadings = np.empty((m, r))
        for j in range(r):
            lam = gvals[j]
            if lam <= 0.0:
                raise InvalidArgumentError("retained component has zero variance")
            loadings[:, j] = (xs.T @ gvecs[:, j]) / np.sqrt(lam * (n - 1))
    else:
        vals, vecs = eig_sym(covariance(xs))
        r = _retained_count(vals, variance_threshold)
        loadings = vecs[:, :r].copy()
    for j in range(loadings.shape[1]):
        k = int(np.argmax(np.abs(loadings[:, j])))
        if loadings[k, j] < 0:
            loadings[:, j] = -loadings[:, j]
    return PcaModel(
        eigvals=vals,
        loadings=loadings,
        r=loadings.shape[1],
        variance_threshold=variance_threshold,
        scaling=scaling,
        n_train=n,
    )


def spe(model: PcaModel, x: np.ndarray):
    """Squared prediction error; scalar for one row, vector for a block."""
    xs = apply_scaling(np.asarray(x, dtype=float), model.scaling)
    resid = xs - (xs @ model.loadings) @ model.loadings.T
    if resid.ndim == 1:
        return float(resid @ resid)
    return np.einsum("ij,ij->i", resid, resid)


def spe_control_limit(model: PcaModel, alpha: float = 0.05) -> float:
    """Theoretical SPE limit from the residual spectrum (normal-theory form).

    This is the classical control limit used by covariance-monitoring
    detectors: with theta_i the residual eigenvalue moments, the limit is
    theta1 * (z_a * sqrt(2 theta2 h0^2) / theta1 + 1 +
    theta2 h0 (h0 - 1) / theta1^2) ** (1 / h0).
    """
    from statistics import NormalDist

    resid = model.eigvals[model.r:]
    theta1 = float(resid.sum())
    theta2 = float((resid ** 2).sum())
    theta3 = float((resid ** 3).sum())
    if theta1 <= 0.0 or theta2 <= 0.0:
        return 0.0
    h0 = 1.0 - 2.0 * theta1 * theta3 / (3.0 * theta2 * theta2)
    if h0 <= 0.0:
        h0 = 1e-4
    z = NormalDist().inv_cdf(1.0 - alpha)
    term = (
        z * np.sqrt(2.0 * theta2 * h0 * h0) / theta1
        + 1.0
        + theta2 * h0 * (h0 - 1.0) / (theta1 * theta1)
    )
    if term <= 0.0:
        return 0.0
    return float(theta1 * term ** (1.0 / h0))
