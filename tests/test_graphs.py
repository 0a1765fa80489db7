"""Tests for neighbor systems and tubular graph construction."""

import math

import numpy as np
import pytest

from vesseltrees import graphs
from vesseltrees.geometry import OrientedSample, SampleCloud, fit_arc, arc_weight
from vesseltrees.graphs import (
    anisotropic_knn,
    build_confluent_graph,
    build_geodesic_graph,
    knn_neighbors,
)
from vesseltrees.solvers import minimum_spanning_tree


def random_cloud(rng, n, box=10.0):
    pos = rng.uniform(0, box, (n, 3))
    tan = rng.normal(size=(n, 3))
    tan /= np.linalg.norm(tan, axis=1, keepdims=True)
    return SampleCloud(pos, tan)


def pairs_set(system):
    return {tuple(row) for row in system.pairs.tolist()}


def brute_force_knn_pairs(positions, k):
    """All-pairs neighbor oracle with (distance, index) tie-breaking."""
    n = positions.shape[0]
    out = set()
    for i in range(n):
        d = np.linalg.norm(positions - positions[i], axis=1)
        order = sorted((float(d[j]), j) for j in range(n) if j != i)
        for _, j in order[:k]:
            out.add((min(i, j), max(i, j)))
    return out


def brute_force_anisotropic_pairs(positions, tangents, k_final, k_candidate,
                                  aspect_ratio_sq):
    """Per node: the k_candidate + 1 nearest by (distance, index), rescored
    by the tangent-aligned distance, self excluded, best k_final by
    (rescored distance, index)."""
    n = positions.shape[0]
    out = set()
    for i in range(n):
        d = np.linalg.norm(positions - positions[i], axis=1)
        cand = np.lexsort((np.arange(n), d))[:k_candidate + 1]
        d_par = (positions[cand] - positions[i]) @ tangents[i]
        maha = (d[cand] * d[cand]
                - d_par * d_par * (1.0 - 1.0 / aspect_ratio_sq))
        maha[cand == i] = np.inf
        for j in cand[np.lexsort((cand, maha))][:k_final].tolist():
            out.add((min(i, j), max(i, j)))
    return out


class _TieScramblingTree:
    """Exact stand-in for ``cKDTree``: returns the k nearest by (distance,
    index), but lists equal distances highest index first. scipy leaves
    that order unspecified, so the tie-break must not depend on it."""

    def __init__(self, positions):
        self.positions = np.asarray(positions, dtype=float)

    def query(self, points, k, workers=1):
        dist, idx = [], []
        for p in points:
            d = np.linalg.norm(self.positions - p, axis=1)
            near = np.lexsort((np.arange(d.size), d))[:k]
            near = near[np.lexsort((-near, d[near]))]
            dist.append(d[near])
            idx.append(near)
        return np.array(dist), np.array(idx)


def crowded_lattice_cloud(rng, g, crowd):
    """Integer g^3 lattice plus ``crowd`` extra copies of one lattice point,
    shuffled, with axis-aligned tangents (so rescored distances are exact)."""
    grid = np.stack(np.meshgrid(*[np.arange(g)] * 3, indexing="ij"),
                    axis=-1).reshape(-1, 3).astype(float)
    copies = np.repeat(grid[rng.integers(len(grid))][None, :], crowd, axis=0)
    pos = np.concatenate([grid, copies])[rng.permutation(len(grid) + crowd)]
    tan = np.zeros_like(pos)
    tan[np.arange(len(pos)), rng.integers(0, 3, len(pos))] = rng.choice(
        [-1.0, 1.0], len(pos))
    return SampleCloud(pos, tan)


def test_knn_tie_break_matches_brute_force_on_lattices(monkeypatch):
    # At least k + 2 coincident samples crowd some of them out of their
    # own query result; those rows keep the k smallest (distance, index).
    monkeypatch.setattr(graphs, "cKDTree", _TieScramblingTree)
    rng = np.random.default_rng(12)
    for _ in range(30):
        g = int(rng.integers(2, 5))
        k = int(rng.integers(1, 9))
        crowd = k + 1 + int(rng.integers(0, 4))
        cloud = crowded_lattice_cloud(rng, g, crowd)
        system = knn_neighbors(cloud, k=k)
        assert pairs_set(system) == brute_force_knn_pairs(cloud.positions, k)
        k_final = int(rng.integers(1, k + 1))
        ratio = float(rng.choice([1.0, 4.0, 10.0]))
        ani = anisotropic_knn(cloud, k_final=k_final, k_candidate=k,
                              aspect_ratio_sq=ratio)
        assert pairs_set(ani) == brute_force_anisotropic_pairs(
            cloud.positions, cloud.tangents, k_final, k, ratio)
        for system in (system, ani):
            pairs = system.pairs
            assert np.all(pairs[:, 0] < pairs[:, 1])
            assert np.all(np.diff(pairs[:, 0] * len(cloud) + pairs[:, 1]) > 0)


def test_crowded_samples_pair_among_themselves():
    # Real kd-tree: which coincident samples a query returns is its choice,
    # but each of them must keep k partners that coincide with it.
    rng = np.random.default_rng(13)
    k = 4
    cloud = crowded_lattice_cloud(rng, 3, crowd=k + 3)
    _, inverse, counts = np.unique(cloud.positions, axis=0,
                                   return_inverse=True, return_counts=True)
    coincident = counts[inverse] > 1
    assert coincident.sum() == k + 4
    pairs = knn_neighbors(cloud, k=k).pairs
    inside = pairs[coincident[pairs[:, 0]] & coincident[pairs[:, 1]]]
    degree = np.bincount(inside.ravel(), minlength=len(cloud))
    assert np.all(degree[coincident] >= k)


def test_collinear_three_points_k1():
    pos = np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0]], dtype=float)
    tan = np.tile([1.0, 0, 0], (3, 1))
    system = knn_neighbors(SampleCloud(pos, tan), k=1)
    assert pairs_set(system) == {(0, 1), (1, 2)}


def test_full_k_gives_complete_pairs():
    rng = np.random.default_rng(0)
    cloud = random_cloud(rng, 7)
    system = knn_neighbors(cloud, k=6)
    assert system.n_pairs == 7 * 6 // 2


def test_k_clamped_with_warning():
    rng = np.random.default_rng(1)
    cloud = random_cloud(rng, 5)
    with pytest.warns(UserWarning):
        system = knn_neighbors(cloud, k=10)
    assert system.k == 4
    assert system.n_pairs == 5 * 4 // 2


def test_knn_matches_brute_force():
    rng = np.random.default_rng(2)
    cloud = random_cloud(rng, 1000, box=50.0)
    system = knn_neighbors(cloud, k=10)
    assert pairs_set(system) == brute_force_knn_pairs(cloud.positions, 10)


def test_anisotropic_prefers_on_axis_neighbors():
    pos = np.array([[0, 0, 0], [1, 0, 0], [0, 0.5, 0]], dtype=float)
    tan = np.tile([1.0, 0, 0], (3, 1))
    cloud = SampleCloud(pos, tan)
    system = anisotropic_knn(cloud, k_final=1, k_candidate=2,
                             aspect_ratio_sq=10.0)
    # node 0 rescored: on-axis point at 1 -> 1/sqrt(10) beats off-axis 0.5
    assert (0, 1) in pairs_set(system)
    assert pairs_set(system) == {(0, 1), (0, 2)}


def test_anisotropic_isotropic_limit():
    rng = np.random.default_rng(3)
    cloud = random_cloud(rng, 200)
    iso = knn_neighbors(cloud, k=5)
    ani = anisotropic_knn(cloud, k_final=5, k_candidate=5, aspect_ratio_sq=1.0)
    assert pairs_set(iso) == pairs_set(ani)


def test_confluent_graph_straight_pair():
    # Tangents pointing at each other: both arcs are the chord; they land
    # head-on against the far flow, so only a threshold of pi admits them.
    pos = np.array([[0, 0, 0], [2, 0, 0]], dtype=float)
    tan = np.array([[1.0, 0, 0], [-1.0, 0, 0]])
    cloud = SampleCloud(pos, tan)
    system = knn_neighbors(cloud, k=1)
    graph = build_confluent_graph(cloud, system, epsilon=math.pi)
    assert graph.n_arcs == 2
    np.testing.assert_allclose(graph.weights, [2.0, 2.0])


def test_flipped_tangent_drops_both_directions():
    pos = np.array([[0, 0, 0], [2, 0, 0]], dtype=float)
    tan = np.array([[0.0, -1.0, 0], [0.0, -1.0, 0]])
    cloud = SampleCloud(pos, tan)
    system = knn_neighbors(cloud, k=1)
    graph = build_confluent_graph(cloud, system, epsilon=math.pi / 2)
    assert graph.n_arcs == 0


def test_confluent_graph_matches_scalar_brute_force():
    rng = np.random.default_rng(4)
    cloud = random_cloud(rng, 120, box=8.0)
    system = knn_neighbors(cloud, k=6)
    eps = math.pi / 2
    graph = build_confluent_graph(cloud, system, epsilon=eps,
                                  elastic_lambda=0.25)
    expected = {}
    for u, v in system.pairs.tolist():
        for a, b in ((u, v), (v, u)):
            arc = fit_arc(cloud.sample(a), cloud.positions[b])
            w = arc_weight(arc, cloud.tangents[b], eps, elastic_lambda=0.25)
            if math.isfinite(w):
                expected[(a, b)] = w
    got = {(int(t), int(h)): float(w)
           for t, h, w in zip(graph.tails, graph.heads, graph.weights)}
    assert set(got) == set(expected)
    for key, w in expected.items():
        assert got[key] == pytest.approx(w, rel=1e-12)


def test_confluent_graph_sorted_and_asymmetric():
    rng = np.random.default_rng(5)
    cloud = random_cloud(rng, 200, box=10.0)
    system = knn_neighbors(cloud, k=8)
    graph = build_confluent_graph(cloud, system, epsilon=math.pi / 2)
    order = np.lexsort((graph.heads, graph.tails))
    assert np.array_equal(order, np.arange(graph.n_arcs))
    # generic data: some pair present in both directions with w_pq != w_qp
    weights = {(int(t), int(h)): float(w)
               for t, h, w in zip(graph.tails, graph.heads, graph.weights)}
    asymmetric = [
        (a, b) for (a, b) in weights
        if (b, a) in weights and weights[(a, b)] != weights[(b, a)]
    ]
    assert asymmetric


def test_geodesic_chord_aligned_weight():
    pos = np.array([[0, 0, 0], [2, 0, 0]], dtype=float)
    tan = np.array([[1.0, 0, 0], [-1.0, 0, 0]])  # sign must not matter
    cloud = SampleCloud(pos, tan)
    graph = build_geodesic_graph(cloud, knn_neighbors(cloud, k=1))
    np.testing.assert_allclose(graph.weights, [4.0])


def test_geodesic_weight_symmetric_and_flip_invariant():
    rng = np.random.default_rng(6)
    cloud = random_cloud(rng, 100)
    system = knn_neighbors(cloud, k=5)
    graph = build_geodesic_graph(cloud, system)
    flipped = SampleCloud(cloud.positions, -cloud.tangents)
    graph_flipped = build_geodesic_graph(flipped, system)
    np.testing.assert_allclose(graph.weights, graph_flipped.weights)
    assert np.all(graph.tails < graph.heads)


def test_mst_on_straight_line_recovers_path():
    rng = np.random.default_rng(7)
    n = 30
    pos = np.zeros((n, 3))
    pos[:, 0] = np.arange(n) + rng.uniform(-0.3, 0.3, n)
    signs = rng.choice([-1.0, 1.0], n)
    tan = np.zeros((n, 3))
    tan[:, 0] = signs
    cloud = SampleCloud(pos, tan)
    graph = build_geodesic_graph(cloud, knn_neighbors(cloud, k=4))
    tree = minimum_spanning_tree(graph, 0)
    tree.validate()
    # path graph: node i hangs off node i-1
    assert np.all(tree.parent[1:] == np.arange(n - 1))


def test_oriented_sample_list_accepted():
    samples = [
        OrientedSample([0, 0, 0], [1, 0, 0]),
        OrientedSample([1, 0, 0], [1, 0, 0]),
        OrientedSample([2, 0, 0], [1, 0, 0]),
    ]
    system = knn_neighbors(samples, k=1)
    assert pairs_set(system) == {(0, 1), (1, 2)}
