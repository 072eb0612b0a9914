"""Density-based two-level clustering on top of a trained map."""
import math

import numpy as np
import pytest

from aubase import ds2l, som
from aubase.errors import InvalidArgumentError
from util import best_agreement


def chain_som(n: int, dim: int = 1) -> som.SomModel:
    weights = np.zeros((n, dim))
    weights[:, 0] = np.arange(n, dtype=float) * 10.0
    return som.SomModel(
        grid=(1, n), weights=weights, unit_pos=som._lattice_positions((1, n))
    )


def enriched_chain(densities, occupied=None, second=None) -> ds2l.EnrichedSom:
    """Hand-built enrichment over a 1 x n lattice chain: one datum per
    occupied unit, whose second BMU is a lattice neighbour unless `second`
    names one per datum, so by default only lattice edges exist."""
    densities = np.asarray(densities, dtype=float)
    n = len(densities)
    occupied = list(range(n)) if occupied is None else occupied
    if second is None:
        second = [u + 1 if u + 1 < n else u - 1 for u in occupied]
    return ds2l.EnrichedSom(
        som=chain_som(n),
        density=densities,
        rho=1.0,
        bmu1=np.asarray(occupied, dtype=int),
        bmu2=np.asarray(second, dtype=int),
    )


def adj_of(e: ds2l.EnrichedSom) -> dict:
    return ds2l.segmentation_adjacency(e)


# ---------------------------------------------------------------------------
# enrichment
# ---------------------------------------------------------------------------


def test_density_hand_value_at_unit():
    model = chain_som(2)
    model = som.SomModel(
        grid=(1, 2), weights=np.array([[0.0], [1.0]]), unit_pos=model.unit_pos
    )
    e = ds2l.enrich(model, np.array([[0.0]]), rho=1.0)
    assert abs(e.density[0] - 1.0 / math.sqrt(2.0 * math.pi)) < 1e-12
    assert abs(e.density[1] - math.exp(-0.5) / math.sqrt(2.0 * math.pi)) < 1e-12
    assert int(np.argmax(e.density)) == 0
    assert np.array_equal(e.bmu1, [0]) and np.array_equal(e.bmu2, [1])


def test_density_matches_naive_double_loop():
    rng = np.random.default_rng(0)
    data = rng.normal(size=(30, 3))
    model = som.init_som((3, 4), data, mode="random", seed=1)
    e = ds2l.enrich(model, data)
    rho = e.rho
    for u in range(model.n_units):
        total = 0.0
        for x in data:
            d2 = float(np.sum((x - model.weights[u]) ** 2))
            total += math.exp(-d2 / (2.0 * rho * rho))
        want = total / len(data) / (rho * math.sqrt(2.0 * math.pi))
        assert abs(e.density[u] - want) < 1e-12


def test_mean_nn_distance_hand_value():
    w = np.array([[0.0], [1.0], [3.0]])
    assert abs(ds2l.mean_nn_distance(w) - (1.0 + 1.0 + 2.0) / 3.0) < 1e-12


def test_enrich_rho_override_and_validation():
    model = chain_som(3)
    data = np.array([[0.0], [10.0]])
    e = ds2l.enrich(model, data, rho=2.0)
    assert e.rho == 2.0
    with pytest.raises(InvalidArgumentError):
        ds2l.enrich(model, np.zeros((0, 1)))
    single = som.SomModel(
        grid=(1, 1), weights=np.zeros((1, 1)), unit_pos=som._lattice_positions((1, 1))
    )
    with pytest.raises(InvalidArgumentError):
        ds2l.enrich(single, data)


def test_lattice_neighbors_four_connectivity():
    # every unit of a 3 x 3 map occupied, second BMUs on lattice neighbours:
    # the graph is exactly the 4-neighbour lattice
    model = som.SomModel(
        grid=(3, 3), weights=np.zeros((9, 2)), unit_pos=som._lattice_positions((3, 3))
    )
    e = ds2l.EnrichedSom(
        som=model,
        density=np.zeros(9),
        rho=1.0,
        bmu1=np.arange(9),
        bmu2=np.array([1, 2, 1, 4, 5, 4, 7, 8, 7]),
    )
    adj = ds2l.segmentation_adjacency(e)
    assert adj[4] == [1, 3, 5, 7]
    assert adj[0] == [1, 3]
    assert adj[2] == [1, 5]
    assert adj[8] == [5, 7]


# ---------------------------------------------------------------------------
# segmentation graph and components
# ---------------------------------------------------------------------------


def test_isolated_occupied_units_are_singletons():
    # occupied units 0 and 3 on a 1x5 chain: not lattice-adjacent, no BMU pair
    e = enriched_chain([1.0, 0.0, 0.0, 1.0, 0.0], occupied=[0, 3])
    comps = ds2l.connected_components(adj_of(e))
    assert comps == [[0], [3]]


def test_components_union_find_oracle():
    rng = np.random.default_rng(2)
    data = rng.normal(size=(40, 2)) * 3.0
    model = som.init_som((4, 4), data, mode="random", seed=3)
    e = ds2l.enrich(model, data)
    adj = ds2l.segmentation_adjacency(e)
    # independent union-find over the same edges
    parent = {u: u for u in adj}

    def find(u):
        while parent[u] != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        return u

    for u, nbrs in adj.items():
        for k in nbrs:
            parent[find(u)] = find(k)
    want = {}
    for u in adj:
        want.setdefault(find(u), set()).add(u)
    got = {frozenset(c) for c in ds2l.connected_components(adj)}
    assert got == {frozenset(c) for c in want.values()}


def test_unoccupied_units_never_bridge():
    # occupied 0, 2 with a hole at 1: both data have the hole as second BMU,
    # which leaves them apart even though the hole is lattice-adjacent to both
    apart = enriched_chain([1.0, 0.0, 1.0], occupied=[0, 2], second=[1, 1])
    assert ds2l.connected_components(adj_of(apart)) == [[0], [2]]
    # a datum whose BMU pair is (0, 2) joins them across the hole
    joined = enriched_chain([1.0, 0.0, 1.0], occupied=[0, 2], second=[2, 1])
    assert ds2l.connected_components(adj_of(joined)) == [[0, 2]]


# ---------------------------------------------------------------------------
# watershed
# ---------------------------------------------------------------------------


def test_watershed_monotone_chain_single_group():
    e = enriched_chain([5.0, 4.0, 3.0, 2.0, 1.0])
    groups = ds2l.watershed_split(e, [0, 1, 2, 3, 4], adj_of(e))
    assert len(groups) == 1
    assert sorted(groups[0]) == [0, 1, 2, 3, 4]


def test_watershed_two_peaks_valley_follows_denser_side():
    e = enriched_chain([5.0, 4.0, 1.0, 4.5, 5.5])
    groups = {frozenset(g) for g in ds2l.watershed_split(e, range(5), adj_of(e))}
    assert groups == {frozenset({0, 1}), frozenset({2, 3, 4})}


def test_watershed_valley_tie_prefers_lower_index():
    e = enriched_chain([5.0, 4.0, 1.0, 4.0, 5.5])
    groups = {frozenset(g) for g in ds2l.watershed_split(e, range(5), adj_of(e))}
    assert groups == {frozenset({0, 1, 2}), frozenset({3, 4})}


def test_watershed_uniform_density_single_seed_at_lowest_index():
    e = enriched_chain([2.0, 2.0, 2.0, 2.0])
    groups = ds2l.watershed_split(e, range(4), adj_of(e))
    assert len(groups) == 1
    assert groups[0][0] == 0  # seeded by the lowest index


def test_watershed_each_group_contains_its_seed_mode():
    rng = np.random.default_rng(4)
    e = enriched_chain(rng.uniform(0.5, 5.0, size=9).tolist())
    groups = ds2l.watershed_split(e, range(9), adj_of(e))
    for g in groups:
        peak = max(g, key=lambda u: (e.density[u], -u))
        assert peak == g[0]


# ---------------------------------------------------------------------------
# merging
# ---------------------------------------------------------------------------


def merge_check(e, cluster_a, cluster_b, theta, adj) -> bool:
    """The fixpoint's merge rule for two clusters sharing a graph border."""
    peaks, border = ds2l._borders(e, [list(cluster_a), list(cluster_b)], adj)
    return ds2l._passes(border[0, 1], peaks[0], peaks[1], theta)


def test_merge_plateau_passes_near_one():
    e = enriched_chain([2.0, 2.0, 2.0, 2.0, 2.0])
    assert merge_check(e, [0, 1], [2, 3, 4], 0.99, adj_of(e))


def test_merge_deep_valley_rejected():
    e = enriched_chain([5.0, 0.001, 5.0])
    assert not merge_check(e, [0, 1], [2], 0.35, adj_of(e))
    assert merge_check(e, [0, 1], [2], 0.0, adj_of(e))


def test_merge_hand_threshold():
    e = enriched_chain([5.0, 4.0, 1.0, 4.5, 5.5])
    a, b = [0, 1], [2, 3, 4]
    # border = min(D1, D2) = 1; harmonic mean of peaks 5 and 5.5 = 5.2381
    harm = 2.0 / (1.0 / 5.0 + 1.0 / 5.5)
    assert not merge_check(e, a, b, 0.35, adj_of(e))
    assert merge_check(e, a, b, 0.9 / harm, adj_of(e))
    assert not merge_check(e, a, b, 1.1 / harm, adj_of(e))


def test_merge_requires_shared_border():
    e = enriched_chain([1.0, 0.0, 0.0, 1.0, 0.0], occupied=[0, 3])
    _, border = ds2l._borders(e, [[0], [3]], adj_of(e))
    assert (0, 1) not in border


def test_merge_fixpoint_order_independent():
    # the fixpoint orders the groups itself, so neither the order of the
    # watershed groups nor the order of units inside them changes the result
    rng_dens = np.random.default_rng(5)
    e = enriched_chain(rng_dens.uniform(0.2, 4.0, size=12).tolist())
    adj = ds2l.segmentation_adjacency(e)
    groups = ds2l.watershed_split(e, range(12), adj)
    assert len(groups) == 3
    for theta, n_final in ((0.1, 1), (0.5, 3)):
        want = ds2l._merge_fixpoint(e, groups, theta, adj)
        assert len(want) == n_final
        for seed in range(5):
            rng = np.random.default_rng(seed)
            shuffled = [list(rng.permutation(groups[k])) for k in rng.permutation(len(groups))]
            assert ds2l._merge_fixpoint(e, shuffled, theta, adj) == want


# ---------------------------------------------------------------------------
# full clustering
# ---------------------------------------------------------------------------


def blobs(centers, n_per, sigma, seed):
    rng = np.random.default_rng(seed)
    parts, labels = [], []
    for i, c in enumerate(centers):
        parts.append(rng.normal(0.0, sigma, size=(n_per, len(c))) + np.asarray(c))
        labels += [i] * n_per
    return np.vstack(parts), labels


def test_cluster_three_separated_blobs():
    data, labels = blobs([(0, 0), (6, 0), (0, 6)], 50, 0.08, seed=6)
    model = som.init_som((8, 8), data, mode="linear")
    trained = som.train(model, data, epochs=30)
    part = ds2l.cluster(ds2l.enrich(trained, data))
    assert part.n_clusters == 3
    assert best_agreement(labels, part.datum_label.tolist()) >= 0.95


def test_cluster_single_blob_is_one_cluster():
    data, _ = blobs([(1, 1)], 120, 0.3, seed=7)
    model = som.init_som((6, 6), data, mode="linear")
    trained = som.train(model, data, epochs=30)
    part = ds2l.cluster(ds2l.enrich(trained, data))
    assert part.n_clusters == 1
    assert np.all(part.datum_label == 0)


def test_cluster_two_identical_points():
    data = np.array([[1.0, 1.0], [1.0, 1.0]])
    model = som.init_som((2, 2), data, mode="random", seed=8)
    trained = som.train(model, data, epochs=5)
    part = ds2l.cluster(ds2l.enrich(trained, data))
    assert part.n_clusters == 1
    assert np.array_equal(part.datum_label, [0, 0])


def test_cluster_labels_and_modes_consistent():
    data, _ = blobs([(0, 0), (8, 8)], 40, 0.1, seed=9)
    model = som.init_som((6, 6), data, mode="linear")
    trained = som.train(model, data, epochs=25)
    e = ds2l.enrich(trained, data)
    part = ds2l.cluster(e)
    assert part.n_clusters == 2
    # unoccupied units are unlabelled
    occ = set(int(u) for u in e.bmu1)
    for u in range(trained.n_units):
        if u not in occ:
            assert part.unit_label[u] == -1
        else:
            assert part.unit_label[u] >= 0
    # datum labels follow the BMU's unit label
    assert np.array_equal(part.datum_label, part.unit_label[e.bmu1])
    # one mode per cluster, and it carries that cluster's peak density
    assert len(part.modes) == part.n_clusters
    for cid, mode in enumerate(part.modes):
        members = np.nonzero(part.unit_label == cid)[0]
        assert part.unit_label[mode] == cid
        assert e.density[mode] == pytest.approx(float(e.density[members].max()))


def test_cluster_deterministic():
    data, _ = blobs([(0, 0), (5, 5)], 30, 0.2, seed=10)
    model = som.init_som((5, 5), data, mode="linear")
    trained = som.train(model, data, epochs=20)
    p1 = ds2l.cluster(ds2l.enrich(trained, data))
    p2 = ds2l.cluster(ds2l.enrich(trained, data))
    assert p1.n_clusters == p2.n_clusters
    assert np.array_equal(p1.unit_label, p2.unit_label)
    assert np.array_equal(p1.datum_label, p2.datum_label)
    assert p1.modes == p2.modes


# ---------------------------------------------------------------------------
# reference: the neighbourhood-value matrix and the rescan-all-pairs merge
# ---------------------------------------------------------------------------


def reference_lattice(e: ds2l.EnrichedSom, u: int) -> list:
    rows, cols = e.som.grid
    r, c = divmod(u, cols)
    cand = ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1))
    return [rr * cols + cc for rr, cc in cand if 0 <= rr < rows and 0 <= cc < cols]


def reference_v(e: ds2l.EnrichedSom) -> np.ndarray:
    """Neighbourhood values built datum by datum: increment the (BMU, second
    BMU) pair, decrement the BMU's other lattice neighbours by 1/M, clamped
    at zero."""
    m = e.som.n_units
    v = np.zeros((m, m))
    for a, b in zip(e.bmu1.tolist(), e.bmu2.tolist()):
        v[a, b] += 1.0
        v[b, a] += 1.0
        for k in reference_lattice(e, a):
            if k != b:
                v[a, k] = v[k, a] = max(v[a, k] - 1.0 / m, 0.0)
    return v


def reference_adjacency(e: ds2l.EnrichedSom) -> dict:
    """Edges where v > 0 or where units are lattice neighbours, between
    data-representing units only."""
    v = reference_v(e)
    occ = set(e.bmu1.tolist())
    adj = {u: set() for u in occ}
    for u in occ:
        for k in list(np.nonzero(v[u] > 0.0)[0]) + reference_lattice(e, u):
            if int(k) in occ:
                adj[u].add(int(k))
                adj[int(k)].add(u)
    return adj


def reference_partition(e: ds2l.EnrichedSom, theta: float):
    """The DS2L-SOM stages as first written, kept as an oracle: the
    neighbourhood-value adjacency above and a merge that re-derives every
    pair's border from scratch after each merge. Returns (n_clusters,
    unit_label, datum_label, modes)."""
    m = e.som.n_units
    adj = reference_adjacency(e)
    occ = set(adj)
    dens = e.density

    def border(ga, gb):
        pairs = [(i, j) for i in ga for j in adj[i] if j in gb]
        return max(min(dens[i], dens[j]) for i, j in pairs) if pairs else None

    def passes(ga, gb):
        pa, pb = max(dens[u] for u in ga), max(dens[u] for u in gb)
        if pa <= 0.0 or pb <= 0.0:
            return True
        return border(ga, gb) >= 2.0 / (1.0 / pa + 1.0 / pb) * theta

    final, seen = [], set()
    for start in sorted(occ):
        if start in seen:
            continue
        comp, stack = set(), [start]
        while stack:
            u = stack.pop()
            if u not in comp:
                comp.add(u)
                stack.extend(adj[u] - comp)
        seen |= comp
        label, groups = {}, []
        for u in sorted(comp, key=lambda u: (-dens[u], u)):
            neigh = [k for k in adj[u] if k in label]
            if neigh:
                best = min(neigh, key=lambda k: (-dens[k], k))
                label[u] = label[best]
                groups[label[best]].append(u)
            else:
                label[u] = len(groups)
                groups.append([u])
        merged = True
        while merged:
            merged = False
            groups.sort(key=min)
            for a in range(len(groups)):
                for b in range(a + 1, len(groups)):
                    if border(groups[a], groups[b]) is not None and passes(groups[a], groups[b]):
                        groups = [g for k, g in enumerate(groups) if k not in (a, b)] + [
                            groups[a] + groups[b]
                        ]
                        merged = True
                        break
                if merged:
                    break
        final.extend(sorted(g) for g in groups)
    final.sort(key=lambda g: g[0])
    unit_label = np.full(m, -1)
    for cid, g in enumerate(final):
        unit_label[g] = cid
    modes = [min(g, key=lambda u: (-dens[u], u)) for g in final]
    return len(final), unit_label.tolist(), unit_label[e.bmu1].tolist(), modes


def test_cluster_matches_v_matrix_reference():
    multi = 0
    for seed in range(30):
        rng = np.random.default_rng(seed + 100)
        centers = rng.uniform(-6.0, 6.0, size=(1 + seed % 4, 2))
        data = np.vstack([rng.normal(c, rng.uniform(0.3, 1.5), size=(40, 2)) for c in centers])
        for grid in ((4, 4), (7, 5), (10, 10)):
            model = som.init_som(grid, data, mode="random", seed=seed)
            trained = som.train(model, data, epochs=10)
            e = ds2l.enrich(trained, data)
            for theta in (0.45, 0.9):
                part = ds2l.cluster(e, theta)
                got = (
                    part.n_clusters,
                    part.unit_label.tolist(),
                    part.datum_label.tolist(),
                    part.modes,
                )
                assert got == reference_partition(e, theta), (seed, grid, theta)
                multi += part.n_clusters > 1
    assert multi >= 60  # the merge stage is exercised, not just one-cluster maps


def test_neighbourhood_values_increment_and_decay():
    # three units in a row; datum near unit 0 with second BMU at unit 1
    model = chain_som(3)
    data = np.array([[1.0], [1.0], [12.0]])
    e = ds2l.enrich(model, data, rho=1.0)
    assert np.array_equal(e.bmu1, [0, 0, 1])
    assert np.array_equal(e.bmu2, [1, 1, 2])
    # two increments on (0,1); the third datum increments (1,2) and decays
    # the (1,0) edge by delta = 1/M = 1/3
    v = reference_v(e)
    assert abs(v[0, 1] - (2.0 - 1.0 / 3.0)) < 1e-12
    assert abs(v[1, 2] - 1.0) < 1e-12
    assert np.all(v >= 0.0)
    assert np.allclose(v, v.T)
    assert np.all(np.diag(v) == 0.0)
    # unit 2 represents no data, so its v > 0 edge is not in the graph, and
    # the decayed (0,1) edge survives: the graph is the pair set plus lattice
    assert ds2l.segmentation_adjacency(e) == {0: [1], 1: [0]}
    want = {u: sorted(k) for u, k in sorted(reference_adjacency(e).items())}
    assert ds2l.segmentation_adjacency(e) == want
