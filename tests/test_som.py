"""Self-organizing map training, kernels, and diagnostics."""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from aubase import _kernels, ds2l, som
from aubase.errors import InvalidArgumentError
from util import bmu, bmu_indices


def quantization_error(model: som.SomModel, data: np.ndarray) -> float:
    """Mean Euclidean distance from each datum to its BMU prototype."""
    d2 = _kernels.pairwise_sqdist(np.atleast_2d(data), model.weights)
    return float(np.sqrt(d2.min(axis=1)).mean())


def blob_data(seed=0, n=60, dim=3):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, dim))


def kernel(model, lam):
    """The training kernel of a model's lattice at width lam."""
    lattice_d2 = _kernels.pairwise_sqdist(model.unit_pos, model.unit_pos)
    return som._kernel_matrix(-lattice_d2, model.kernel_form, lam)


# ---------------------------------------------------------------------------
# grids and initialization
# ---------------------------------------------------------------------------


def test_default_grid_heuristic_values():
    assert som.default_grid(100) == (8, 8)
    assert som.default_grid(720) == (12, 12)
    side = int(math.ceil(math.sqrt(5.0 * math.sqrt(9.0))))
    assert som.default_grid(9) == (side, side)
    assert som.default_grid(10**8) == (20, 20)  # capped
    assert som.default_grid(1)[0] >= 2
    with pytest.raises(InvalidArgumentError):
        som.default_grid(0)


def test_linear_init_spans_top_two_principal_directions():
    rng = np.random.default_rng(1)
    basis = np.linalg.qr(rng.normal(size=(5, 5)))[0]
    coef = rng.normal(size=(200, 2)) * np.array([4.0, 1.5])
    data = coef @ basis[:, :2].T + 0.7
    model = som.init_som((6, 7), data, mode="linear")
    assert model.weights.shape == (42, 5)
    centred = model.weights - data.mean(axis=0)
    # residual after projecting onto the two leading principal directions
    proj = centred @ basis[:, :2] @ basis[:, :2].T
    assert np.max(np.abs(centred - proj)) < 1e-9


def test_random_init_stays_in_data_range_and_is_seeded():
    data = blob_data(2)
    a = som.init_som((4, 4), data, mode="random", seed=9)
    b = som.init_som((4, 4), data, mode="random", seed=9)
    c = som.init_som((4, 4), data, mode="random", seed=10)
    assert np.array_equal(a.weights, b.weights)
    assert not np.array_equal(a.weights, c.weights)
    lo, hi = data.min(axis=0), data.max(axis=0)
    assert np.all(a.weights >= lo - 1e-12) and np.all(a.weights <= hi + 1e-12)


def test_init_validation():
    data = blob_data(3)
    with pytest.raises(InvalidArgumentError):
        som.init_som((0, 3), data)
    with pytest.raises(InvalidArgumentError):
        som.init_som((3, 3), data, mode="bogus")
    with pytest.raises(InvalidArgumentError):
        som.init_som((3, 3), data, kernel_form="bogus")


# ---------------------------------------------------------------------------
# kernel and lattice
# ---------------------------------------------------------------------------


def test_kernel_hand_values_normalized_form():
    model = som.init_som((1, 2), blob_data(4, dim=2), mode="random", seed=0)
    assert model.kernel_form == "normalized"
    kmat = kernel(model, 1.0)
    assert abs(kmat[0, 0] - 1.0) < 1e-12
    assert abs(kmat[0, 1] - math.exp(-1.0)) < 1e-12
    # symmetric, decaying with lattice distance
    assert kmat[0, 1] == kmat[1, 0]
    # the leading 1/lambda of the normalized form
    assert abs(kernel(model, 2.0)[0, 0] - 0.5) < 1e-12


def test_kernel_gaussian_form():
    model = som.init_som(
        (1, 2), blob_data(5, dim=2), mode="random", seed=0, kernel_form="gaussian"
    )
    kmat = kernel(model, 1.0)
    assert abs(kmat[0, 0] - 1.0) < 1e-12
    assert abs(kmat[0, 1] - math.exp(-0.5)) < 1e-12


def test_kernel_rejects_nonpositive_width():
    data = blob_data(6, dim=2)
    for widths in ({"lambda_start": 0.0}, {"lambda_start": -1.0}, {"lambda_end": 0.0}):
        with pytest.raises(InvalidArgumentError):
            som.init_som((2, 2), data, mode="random", seed=0, **widths)


def test_lattice_distance_euclidean():
    model = som.init_som((3, 4), blob_data(7, dim=2), mode="random", seed=0)
    # unit 0 is (0,0); unit 5 is (1,1) in a 4-wide row-major layout, and the
    # kernel sees their squared lattice distance
    assert np.array_equal(model.unit_pos[5], [1.0, 1.0])
    kmat = kernel(model, 1.0)
    assert abs(kmat[0, 5] - math.exp(-2.0)) < 1e-12
    assert kmat[2, 2] == 1.0


# ---------------------------------------------------------------------------
# BMU searches
# ---------------------------------------------------------------------------


def test_bmu_matches_exhaustive_search():
    model = som.init_som((4, 4), blob_data(8, dim=3), mode="random", seed=1)
    data = blob_data(9, n=25, dim=3)
    got = bmu_indices(model, data)
    for i, x in enumerate(data):
        dists = [float(np.sum((x - w) ** 2)) for w in model.weights]
        assert got[i] == int(np.argmin(dists))


def test_bmu_tie_breaks_to_lower_index():
    weights = np.array([[1.0, 0.0], [1.0, 0.0], [5.0, 5.0], [1.0, 0.0]])
    model = som.SomModel(grid=(2, 2), weights=weights, unit_pos=som._lattice_positions((2, 2)))
    assert bmu(model, np.array([1.0, 0.0])) == 0


def test_bmu_pair_distinct_units():
    # the (BMU, second BMU) pairs the clustering reads come from ds2l.enrich
    model = som.init_som((3, 3), blob_data(10, dim=2), mode="random", seed=2)
    data = blob_data(12, n=20, dim=2)
    e = ds2l.enrich(model, data)
    assert np.all(e.bmu1 != e.bmu2)
    for i, x in enumerate(data):
        d2 = np.sum((model.weights - x) ** 2, axis=1)
        order = np.argsort(d2, kind="stable")
        assert e.bmu1[i] == order[0] and e.bmu2[i] == order[1]


def test_bmu_pair_needs_two_units():
    model = som.init_som((1, 1), blob_data(11, dim=2), mode="random", seed=0)
    with pytest.raises(InvalidArgumentError):
        ds2l.enrich(model, np.zeros((1, 2)))


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


def test_single_unit_map_converges_to_mean():
    data = blob_data(12, n=40, dim=3)
    model = som.init_som((1, 1), data, mode="random", seed=3)
    trained = som.train(model, data, epochs=5)
    assert np.allclose(trained.weights[0], data.mean(axis=0), atol=1e-9)


def test_single_datum_pulls_all_units_onto_it():
    x = np.array([[2.0, -1.0, 0.5]])
    model = som.init_som((3, 3), np.vstack([x, x + 1.0]), mode="random", seed=4)
    trained = som.train(model, x, epochs=3)
    assert np.max(np.abs(trained.weights - x[0])) < 1e-6


def test_two_points_on_two_units():
    pts = np.array([[0.0, 0.0], [10.0, 0.0]])
    model = som.init_som((1, 2), pts, mode="linear")
    trained = som.train(model, pts, epochs=30)
    assigned = sorted(bmu_indices(trained, pts).tolist())
    assert assigned == [0, 1]
    gap = np.linalg.norm(pts[1] - pts[0])
    for x in pts:
        best = np.min(np.linalg.norm(trained.weights - x, axis=1))
        assert best < 0.1 * gap


def test_quantization_error_never_worse_than_init():
    for seed in range(20):
        data = blob_data(seed + 100, n=50, dim=4)
        model = som.init_som((5, 5), data, mode="random", seed=seed)
        trained = som.train(model, data, epochs=20)
        assert quantization_error(trained, data) <= quantization_error(model, data) + 1e-12


def test_train_trace_matches_per_epoch_quantization_error():
    # reference: the batch loop with a full BMU search per epoch
    data = blob_data(21, n=40, dim=3)
    model = som.init_som((4, 3), data, mode="random", seed=4)
    trained = som.train(model, data, epochs=12)
    work = model
    for epoch in range(12):
        kmat = kernel(work, som.lambda_schedule(model, epoch, 12))
        kb = kmat[:, bmu_indices(work, data)]
        denom = kb.sum(axis=1)
        weights = work.weights.copy()
        weights[denom > 0.0] = (kb @ data)[denom > 0.0] / denom[denom > 0.0, None]
        work = dataclasses.replace(work, weights=weights)
    assert np.array_equal(trained.weights, work.weights)
    assert quantization_error(trained, data) <= quantization_error(model, data) + 1e-12


def per_epoch_train(model, data, epochs):
    """The batch loop in its earlier per-epoch form: lattice distances and
    kernel rebuilt, data norms recomputed, the distances clipped through
    np.clip, a masked copy of the update and the model copied every epoch.
    Returns (model, whether some unit kept its previous value)."""

    def kernel_matrix(m, lam):
        d2 = _kernels.pairwise_sqdist(m.unit_pos, m.unit_pos)
        if m.kernel_form == "normalized":
            return np.exp(-d2 / (lam * lam)) / lam
        return np.exp(-d2 / (2.0 * lam * lam))

    weights = model.weights.copy()
    work = dataclasses.replace(model, weights=weights)
    kept = False
    for epoch in range(epochs):
        kmat = kernel_matrix(work, som.lambda_schedule(model, epoch, epochs))
        d2 = _kernels.row_sqnorms(data)[:, None] + _kernels.row_sqnorms(weights)[None, :]
        d2 = d2 - 2.0 * (data @ weights.T)
        np.clip(d2, 0.0, None, out=d2)
        kb = kmat[:, np.argmin(d2, axis=1)]
        denom = kb.sum(axis=1)
        numer = kb @ data
        mask = denom > 0.0
        kept = kept or not mask.all()
        weights = weights.copy()
        weights[mask] = numer[mask] / denom[mask, None]
        work = dataclasses.replace(work, weights=weights)
    trained = dataclasses.replace(work, trained_epochs=model.trained_epochs + epochs)
    return trained, kept


TRAIN_CASES = [
    (grid, init, form, lambda_end)
    for grid in ((1, 6), (3, 3), (10, 10))
    for init in ("linear", "random")
    for form in ("normalized", "gaussian")
    for lambda_end in (0.5, 1e-3)
]


@pytest.mark.parametrize("grid,init,form,lambda_end", TRAIN_CASES)
def test_train_bitwise_equals_per_epoch_form(grid, init, form, lambda_end):
    # duplicated rows put several data on one BMU; lambda_end 1e-3 makes the
    # kernel mass of units far from every BMU underflow to 0
    base = blob_data(31, n=20, dim=3)
    data = np.vstack([base, base[:8], base[:3]])
    model = som.init_som(
        grid, data, mode=init, seed=5, kernel_form=form, lambda_end=lambda_end
    )
    before = model.weights.copy()
    trained = som.train(model, data, epochs=15)
    want, kept = per_epoch_train(model, data, 15)
    assert np.array_equal(trained.weights, want.weights)
    assert trained.trained_epochs == want.trained_epochs == 15
    assert np.array_equal(model.weights, before)  # input model untouched
    assert model.trained_epochs == 0
    if lambda_end == 1e-3 and grid == (10, 10):
        assert kept  # the masked keep-previous path ran


def test_train_bitwise_equals_per_epoch_form_on_tied_prototypes():
    # identical prototypes: every BMU search is an exact tie between units
    data = np.vstack([blob_data(32, n=6, dim=2)] * 3)
    weights = np.repeat(data[:3], 3, axis=0)
    for form in ("normalized", "gaussian"):
        model = som.SomModel(
            grid=(3, 3), weights=weights, unit_pos=som._lattice_positions((3, 3)),
            kernel_form=form, lambda_end=1e-3,
        )
        trained = som.train(model, data, epochs=8)
        want, _ = per_epoch_train(model, data, 8)
        assert np.array_equal(trained.weights, want.weights)
        assert np.array_equal(model.weights, np.repeat(data[:3], 3, axis=0))


@st.composite
def train_inputs(draw):
    """A grid, data with repeated rows, and a training schedule."""
    rows, cols = draw(st.integers(1, 10)), draw(st.integers(1, 10))
    n, dim = draw(st.integers(2, 30)), draw(st.integers(1, 6))
    base = draw(hnp.arrays(float, (n, dim), elements=st.floats(-100.0, 100.0)))
    dups = draw(st.lists(st.integers(0, n - 1), max_size=20))
    return dict(
        grid=(rows, cols),
        data=np.vstack([base, base[dups]]),
        epochs=draw(st.integers(1, 50)),
        kernel_form=draw(st.sampled_from(["normalized", "gaussian"])),
        lambda_end=draw(st.floats(1e-3, 1.0)),
        mode=draw(st.sampled_from(["linear", "random"])),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


@settings(max_examples=30, derandomize=True, deadline=None)
@given(train_inputs())
def test_train_bitwise_equals_per_epoch_form_property(case):
    data, epochs = case["data"], case["epochs"]
    model = som.init_som(
        case["grid"], data, mode=case["mode"], seed=case["seed"],
        kernel_form=case["kernel_form"], lambda_end=case["lambda_end"],
    )
    trained = som.train(model, data, epochs=epochs)
    want, _ = per_epoch_train(model, data, epochs)
    assert np.array_equal(trained.weights, want.weights)
    assert trained.trained_epochs == epochs


@pytest.mark.parametrize("form", ["normalized", "gaussian"])
@pytest.mark.parametrize("n,dim,grid", [(55, 2, (3, 3)), (234, 4, (7, 7))])
def test_train_bitwise_equals_per_epoch_form_on_second_map_shapes(n, dim, grid, form):
    # the second-level map's shapes: log-scaled SPE vectors of the validation
    # references plus a batch, linear init, 50 epochs down to lambda 1
    rng = np.random.default_rng(n)
    data = np.log1p(rng.gamma(2.0, 1.0, size=(n, dim)))
    model = som.init_som(grid, data, mode="linear", kernel_form=form, lambda_end=1.0)
    trained = som.train(model, data, epochs=50)
    want, _ = per_epoch_train(model, data, 50)
    assert np.array_equal(trained.weights, want.weights)


def som_cost(model, data, lam):
    """Batch energy: mean over data of sum_j K(j, bmu) ||m_j - x||^2."""
    d2 = np.sum((data[:, None, :] - model.weights[None, :, :]) ** 2, axis=2)
    kmat = kernel(model, lam)
    return float((kmat[:, np.argmin(d2, axis=1)].T * d2).sum() / data.shape[0])


def test_batch_cost_decreases_for_most_seeds():
    wins = 0
    for seed in range(20):
        data = blob_data(seed + 300, n=60, dim=3)
        model = som.init_som((4, 4), data, mode="random", seed=seed)
        trained = som.train(model, data, epochs=25)
        lam = model.lambda_end
        if som_cost(trained, data, lam) < som_cost(model, data, lam):
            wins += 1
    assert wins >= 18


def test_train_is_deterministic_and_pure():
    data = blob_data(13, n=30, dim=3)
    model = som.init_som((3, 3), data, mode="linear")
    before = model.weights.copy()
    t1 = som.train(model, data, epochs=10)
    t2 = som.train(model, data, epochs=10)
    assert np.array_equal(t1.weights, t2.weights)
    assert np.array_equal(model.weights, before)  # input model untouched
    assert t1.trained_epochs == 10


def test_train_validation():
    data = blob_data(14, n=10, dim=2)
    model = som.init_som((2, 2), data, mode="linear")
    with pytest.raises(InvalidArgumentError):
        som.train(model, data[:, :1], epochs=5)
    with pytest.raises(InvalidArgumentError):
        som.train(model, data, epochs=0)


# ---------------------------------------------------------------------------
# schedule and u-matrix
# ---------------------------------------------------------------------------


def test_lambda_schedule_exponential_decay():
    data = blob_data(15, n=10, dim=2)
    model = som.init_som((6, 4), data, mode="linear", lambda_end=0.5)
    assert model.lambda_start == 3.0  # max(grid) / 2
    epochs = 10
    lams = [som.lambda_schedule(model, e, epochs) for e in range(epochs + 1)]
    assert lams[0] == pytest.approx(3.0)
    assert lams[-1] == pytest.approx(0.5)
    ratios = [lams[i + 1] / lams[i] for i in range(epochs)]
    assert all(abs(r - ratios[0]) < 1e-12 for r in ratios)  # geometric
    assert all(l2 < l1 for l1, l2 in zip(lams, lams[1:]))


def test_u_matrix_one_by_two():
    weights = np.array([[0.0, 0.0], [3.0, 4.0]])
    model = som.SomModel(
        grid=(1, 2), weights=weights, unit_pos=som._lattice_positions((1, 2))
    )
    um = som.u_matrix(model)
    assert um.shape == (1, 2)
    assert np.allclose(um, 5.0)


def test_u_matrix_identical_weights_zero():
    weights = np.zeros((6, 3))
    model = som.SomModel(
        grid=(2, 3), weights=weights, unit_pos=som._lattice_positions((2, 3))
    )
    assert np.all(som.u_matrix(model) == 0.0)


def test_u_matrix_two_by_two_hand_case():
    # row-major units: (0,0)=a, (0,1)=b, (1,0)=c, (1,1)=d
    weights = np.array([[0.0], [1.0], [2.0], [4.0]])
    model = som.SomModel(
        grid=(2, 2), weights=weights, unit_pos=som._lattice_positions((2, 2))
    )
    um = som.u_matrix(model)
    assert um[0, 0] == pytest.approx((1.0 + 2.0) / 2)  # |a-b|, |a-c|
    assert um[0, 1] == pytest.approx((1.0 + 3.0) / 2)  # |b-a|, |b-d|
    assert um[1, 0] == pytest.approx((2.0 + 2.0) / 2)  # |c-a|, |c-d|
    assert um[1, 1] == pytest.approx((3.0 + 2.0) / 2)  # |d-b|, |d-c|
