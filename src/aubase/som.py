"""Self-organizing map on a rectangular lattice with batch training.

The default neighbourhood kernel is the width-normalized exponential
K_ij = (1/lambda) * exp(-d1(i,j)^2 / lambda^2) where d1 is the Euclidean
distance between unit coordinates on the lattice; a conventional Gaussian
exp(-d^2 / (2 lambda^2)) is available behind the kernel_form switch. The
batch rule replaces every prototype by the kernel-weighted mean of the
data, weighted by each datum's BMU, so the leading 1/lambda cancels and
only the effective width differs between the two forms.

lambda decays exponentially from lambda_start (default: half the larger grid
side) to lambda_end = 0.5 over the epoch budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import _kernels
from .errors import InvalidArgumentError
from .pca import eig_sym

DEFAULT_EPOCHS = 50
DEFAULT_LAMBDA_END = 0.5
GRID_CAP = 20


@dataclass
class SomModel:
    grid: tuple  # (rows, cols)
    weights: np.ndarray  # (rows * cols, dim)
    unit_pos: np.ndarray  # (rows * cols, 2) lattice coordinates, row-major
    kernel_form: str = "normalized"
    lambda_start: float = None  # type: ignore[assignment]
    lambda_end: float = DEFAULT_LAMBDA_END
    trained_epochs: int = 0

    def __post_init__(self):
        if self.lambda_start is None:
            self.lambda_start = max(self.grid) / 2.0

    @property
    def n_units(self) -> int:
        return self.grid[0] * self.grid[1]

    @property
    def dim(self) -> int:
        return self.weights.shape[1]


def default_grid(n_samples: int) -> tuple:
    """Square grid sized by the usual 5*sqrt(N) unit-count rule, capped."""
    if n_samples < 1:
        raise InvalidArgumentError("grid heuristic needs at least one sample")
    side = int(math.ceil(math.sqrt(5.0 * math.sqrt(n_samples))))
    side = max(2, min(side, GRID_CAP))
    return (side, side)


def _lattice_positions(grid: tuple) -> np.ndarray:
    rows, cols = grid
    rr, cc = np.meshgrid(np.arange(rows), np.arange(cols), indexing="ij")
    return np.column_stack([rr.ravel(), cc.ravel()]).astype(float)


def init_som(
    grid: tuple,
    data: np.ndarray,
    mode: str = "linear",
    seed=None,
    kernel_form: str = "normalized",
    lambda_start: float | None = None,
    lambda_end: float = DEFAULT_LAMBDA_END,
) -> SomModel:
    """Prototype initialization: 'linear' spans the first two principal
    directions of the data across the lattice, 'random' samples uniformly
    inside the per-dimension data range."""
    rows, cols = int(grid[0]), int(grid[1])
    if rows < 1 or cols < 1:
        raise InvalidArgumentError(f"grid dimensions must be >= 1, got {grid}")
    data = np.asarray(data, dtype=float)
    if data.ndim != 2 or data.shape[0] == 0:
        raise InvalidArgumentError("init data must be a nonempty 2-D array")
    if kernel_form not in ("normalized", "gaussian"):
        raise InvalidArgumentError(f"unknown kernel_form {kernel_form!r}")
    if not lambda_end > 0.0 or (lambda_start is not None and not lambda_start > 0.0):
        raise InvalidArgumentError("kernel width must be positive")
    pos = _lattice_positions((rows, cols))
    dim = data.shape[1]
    if mode == "random":
        rng = np.random.default_rng(seed)
        lo = data.min(axis=0)
        hi = data.max(axis=0)
        weights = rng.uniform(0.0, 1.0, size=(rows * cols, dim)) * (hi - lo) + lo
    elif mode == "linear":
        if data.shape[0] < 2:
            raise InvalidArgumentError("linear init needs at least 2 data rows")
        mean = data.mean(axis=0)
        centred = data - mean
        cov = (centred.T @ centred) / (data.shape[0] - 1)
        vals, vecs = eig_sym(cov)
        axes = np.zeros((2, dim))
        spans = np.zeros(2)
        for k in range(min(2, dim)):
            if vals[k] > 0.0:
                axes[k] = vecs[:, k]
                spans[k] = np.sqrt(vals[k])
        # width follows the leading component, height the second
        cc = pos[:, 1]
        rr = pos[:, 0]
        alpha = np.zeros_like(cc) if cols == 1 else 2.0 * cc / (cols - 1) - 1.0
        beta = np.zeros_like(rr) if rows == 1 else 2.0 * rr / (rows - 1) - 1.0
        weights = (
            mean[None, :]
            + np.outer(alpha * spans[0], axes[0])
            + np.outer(beta * spans[1], axes[1])
        )
    else:
        raise InvalidArgumentError(f"unknown init mode {mode!r}")
    return SomModel(
        grid=(rows, cols),
        weights=weights,
        unit_pos=pos,
        kernel_form=kernel_form,
        lambda_start=lambda_start,
        lambda_end=lambda_end,
    )


def _kernel_matrix(neg_lattice_d2: np.ndarray, kernel_form: str, lam: float) -> np.ndarray:
    """Neighbourhood kernel at width lam from negated squared lattice
    distances."""
    if kernel_form == "normalized":
        return np.exp(neg_lattice_d2 / (lam * lam)) / lam
    return np.exp(neg_lattice_d2 / (2.0 * lam * lam))


def lambda_schedule(model: SomModel, epoch: int, epochs: int) -> float:
    ratio = model.lambda_end / model.lambda_start
    return float(model.lambda_start * ratio ** (epoch / epochs))


def train(model: SomModel, data: np.ndarray, epochs: int = DEFAULT_EPOCHS) -> SomModel:
    """Batch-train a copy of the model and return it.

    Each epoch assigns every datum to its BMU and replaces prototype j with
    the kernel-weighted average sum_n K(j, bmu_n) x_n / sum_n K(j, bmu_n).
    Prototypes whose accumulated kernel mass underflows to zero keep their
    previous value. The negated squared lattice distances and the data row
    norms are computed once per fit; an epoch computes only its kernel, the
    distances to the current prototypes, the BMUs and the update, written in
    place into one working copy of the weights. No quantization trace is
    kept: nothing is measured that the update does not use.
    """
    data = np.atleast_2d(np.asarray(data, dtype=float))
    if data.shape[1] != model.dim:
        raise InvalidArgumentError("data dimension does not match the map")
    if data.shape[0] == 0:
        raise InvalidArgumentError("cannot train on empty data")
    if epochs < 1:
        raise InvalidArgumentError("epochs must be >= 1")
    neg_lattice_d2 = -_kernels.pairwise_sqdist(model.unit_pos, model.unit_pos)
    data_sq = _kernels.row_sqnorms(data)[:, None]
    weights = model.weights.copy()
    for epoch in range(epochs):
        lam = lambda_schedule(model, epoch, epochs)
        kmat = _kernel_matrix(neg_lattice_d2, model.kernel_form, lam)
        # pairwise_sqdist(data, weights), spelled out for the per-fit norms
        d2 = data_sq + _kernels.row_sqnorms(weights)[None, :] - 2.0 * (data @ weights.T)
        np.maximum(d2, 0.0, out=d2)
        kb = kmat[:, d2.argmin(axis=1)]
        denom = kb.sum(axis=1)[:, None]
        np.divide(kb @ data, denom, out=weights, where=denom > 0.0)
    return replace(model, weights=weights, trained_epochs=model.trained_epochs + epochs)


def u_matrix(model: SomModel) -> np.ndarray:
    """Mean weight-space distance to the 4-neighbourhood, shaped like the grid."""
    rows, cols = model.grid
    w = model.weights.reshape(rows, cols, -1)
    out = np.zeros((rows, cols))
    for r in range(rows):
        for c in range(cols):
            dists = []
            for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1)):
                rr, cc = r + dr, c + dc
                if 0 <= rr < rows and 0 <= cc < cols:
                    dists.append(float(np.linalg.norm(w[r, c] - w[rr, cc])))
            out[r, c] = float(np.mean(dists)) if dists else 0.0
    return out
