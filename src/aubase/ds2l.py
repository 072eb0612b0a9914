"""Density- and connectivity-driven clustering of a trained map.

Enrichment finds each datum's best and second-best matching units (BMU and
second BMU) and gives every unit a local density estimate: a spherical
Gaussian kernel over all data with bandwidth rho.

The segmentation graph joins two data-representing units when they are
lattice 4-neighbours or the BMU and second BMU of some datum; units that
represent no data are in neither edge set, so they always separate regions.
The original DS2L-SOM (Cabanes & Bennani, 2008) takes its edges from a
neighbourhood-value matrix alone: each datum increments its (BMU, second BMU)
entry and decrements, by 1/M, the entries between its BMU and the BMU's
other lattice neighbours. The lattice edges kept here witness adjacency where
a small batch gives the pairs too few samples, and with them the decrement
can never remove an edge, so the matrix reduces to the set of pairs.

Connected components of the graph are split by a watershed that grows
sub-clusters downhill from density peaks, and adjacent sub-clusters merge
when the density along their border reaches theta times the harmonic mean of
their peak densities, iterated to a fixed point, so the number of clusters is
an output, not an input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import InvalidArgumentError
from .som import SomModel

RHO_FLOOR = 1e-12


@dataclass
class EnrichedSom:
    som: SomModel
    density: np.ndarray  # (M,)
    rho: float
    bmu1: np.ndarray  # (n,) BMU per datum
    bmu2: np.ndarray  # (n,) second BMU per datum


@dataclass
class ClusterPartition:
    n_clusters: int
    unit_label: np.ndarray  # (M,) cluster id, -1 for units representing no data
    datum_label: np.ndarray  # (n,)
    modes: list  # density-peak unit per cluster


def mean_nn_distance(weights: np.ndarray) -> float:
    """Average distance from each prototype to its nearest other prototype."""
    d2 = _kernels.pairwise_sqdist(weights, weights)
    np.fill_diagonal(d2, np.inf)
    return float(np.sqrt(d2.min(axis=1)).mean())


def enrich(model: SomModel, data: np.ndarray, rho: float | None = None) -> EnrichedSom:
    """BMU and second BMU per datum, and a density per unit."""
    data = np.atleast_2d(np.asarray(data, dtype=float))
    if data.shape[0] == 0:
        raise InvalidArgumentError("enrich needs at least one datum")
    if model.n_units < 2:
        raise InvalidArgumentError("enrich needs a map with at least 2 units")
    d2 = _kernels.pairwise_sqdist(data, model.weights)  # (n, M)
    bmu1 = np.argmin(d2, axis=1)
    masked = d2.copy()
    masked[np.arange(len(bmu1)), bmu1] = np.inf
    bmu2 = np.argmin(masked, axis=1)
    if rho is None:
        rho = mean_nn_distance(model.weights)
    if rho <= 0.0:
        rho = RHO_FLOOR
    dens = np.exp(-d2 / (2.0 * rho * rho)).mean(axis=0) / (rho * math.sqrt(2.0 * math.pi))
    return EnrichedSom(som=model, density=dens, rho=float(rho), bmu1=bmu1, bmu2=bmu2)


def segmentation_adjacency(e: EnrichedSom) -> dict:
    """Sorted graph neighbours of each data-representing unit, keyed in
    ascending unit order. Edges join lattice 4-neighbours and (BMU, second
    BMU) pairs, and count only when both ends represent data."""
    occ = set(e.bmu1.tolist())
    cols = e.som.grid[1]
    lattice = [(u, u + 1) for u in occ if (u + 1) % cols] + [(u, u + cols) for u in occ]
    adj = {u: set() for u in occ}
    for a, b in lattice + list(zip(e.bmu1.tolist(), e.bmu2.tolist())):
        if a in occ and b in occ:
            adj[a].add(b)
            adj[b].add(a)
    return {u: sorted(adj[u]) for u in sorted(adj)}


def connected_components(adj: dict) -> list:
    """Maximal components of the segmentation graph, as sorted lists ordered
    by their smallest unit."""
    seen: set = set()
    comps = []
    for start in adj:
        if start in seen:
            continue
        stack, comp = [start], []
        seen.add(start)
        while stack:
            comp.append(stack.pop())
            fresh = [k for k in adj[comp[-1]] if k not in seen]
            seen.update(fresh)
            stack.extend(fresh)
        comps.append(sorted(comp))
    return comps


def watershed_split(e: EnrichedSom, component, adj: dict) -> list:
    """Grow sub-clusters downhill from density peaks inside one component.

    Units are processed by descending density (lower index first on ties).
    A unit with no already-assigned graph neighbour inside the component
    seeds a new sub-cluster; otherwise it joins the sub-cluster of its
    densest assigned neighbour (again lowest index on ties). Every
    sub-cluster therefore contains exactly one density mode: its seed.
    """
    comp_set = {int(u) for u in component}
    order = sorted(comp_set, key=lambda u: (-e.density[u], u))
    label: dict = {}
    groups: list = []
    for u in order:
        neigh = [k for k in adj.get(u, ()) if k in comp_set and k in label]
        if not neigh:
            label[u] = len(groups)
            groups.append([u])
        else:
            best = min(neigh, key=lambda k: (-e.density[k], k))
            label[u] = label[best]
            groups[label[best]].append(u)
    return groups


def _borders(e: EnrichedSom, groups: list, adj: dict):
    """One pass over the edges: each group's peak density and, for each
    adjacent pair (a, b) with a < b, the highest min-density of an edge
    between them."""
    owner = {u: k for k, g in enumerate(groups) for u in g}
    peaks = [float(max(e.density[u] for u in g)) for g in groups]
    border: dict = {}
    for a, g in enumerate(groups):
        for u in g:
            for k in adj.get(u, ()):
                b = owner.get(k, -1)
                if b > a:
                    d = min(e.density[u], e.density[k])
                    border[a, b] = max(border.get((a, b), d), d)
    return peaks, border


def _passes(border: float, peak_a: float, peak_b: float, theta: float) -> bool:
    """Border density reaches theta times the harmonic mean of the peaks."""
    if peak_a <= 0.0 or peak_b <= 0.0:
        return True
    return bool(border >= 2.0 / (1.0 / peak_a + 1.0 / peak_b) * theta)


def _merge_fixpoint(e: EnrichedSom, groups: list, theta: float, adj: dict) -> list:
    """Merge adjacent sub-clusters until no pair passes the merge rule.

    Groups are ordered by their smallest unit and pairs scanned in that
    order; the first pair that passes merges, and the scan starts again.
    """
    groups = sorted((sorted(g) for g in groups), key=lambda g: g[0])
    while True:
        peaks, border = _borders(e, groups, adj)
        for a, b in sorted(border):
            if _passes(border[a, b], peaks[a], peaks[b], theta):
                rest = [g for k, g in enumerate(groups) if k not in (a, b)]
                groups = sorted(rest + [sorted(groups[a] + groups[b])], key=lambda g: g[0])
                break
        else:
            return groups


def cluster(e: EnrichedSom, theta: float = 0.35) -> ClusterPartition:
    """Full second stage: components, watershed, border merging, labels.

    Deterministic for a given enriched map. Cluster ids are assigned by each
    final cluster's smallest unit index; units representing no data get -1.
    """
    adj = segmentation_adjacency(e)
    final_groups = []
    for comp in connected_components(adj):
        groups = watershed_split(e, comp, adj)
        final_groups.extend(_merge_fixpoint(e, groups, theta, adj))
    final_groups.sort(key=lambda g: g[0])
    unit_label = np.full(e.som.n_units, -1, dtype=int)
    modes = []
    for cid, group in enumerate(final_groups):
        for u in group:
            unit_label[u] = cid
        modes.append(min(group, key=lambda u: (-e.density[u], u)))
    return ClusterPartition(len(final_groups), unit_label, unit_label[e.bmu1], modes)
