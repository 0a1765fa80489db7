"""Tests for neighbor systems and tubular graph construction."""

import math
import threading
from functools import partial

import numpy as np
import pytest
import scipy.spatial
from scipy.spatial import cKDTree

from vesseltrees import graphs
from vesseltrees.geometry import (
    COINCIDENT_TOL,
    SampleCloud,
    arc_weight,
    batch_arc_geometry,
    batch_arc_weights,
    batch_confluence_angles,
    batch_shorter_arc_lengths,
    fit_arc,
)
from vesseltrees.graphs import (
    NeighborSystem,
    anisotropic_knn,
    build_confluent_graph,
    build_geodesic_graph,
    knn_neighbors,
    merge_graphs,
    widen_neighbors,
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
    that order unspecified, so the tie-break must not depend on it.
    ``graphs`` imports ``cKDTree`` from ``scipy.spatial`` when it builds
    one, so patching it there takes effect; ``queries`` counts the calls
    to show that it did."""

    queries = 0

    def __init__(self, positions):
        self.positions = np.asarray(positions, dtype=float)

    def query(self, points, k, workers=1):
        type(self).queries += 1
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
    monkeypatch.setattr(scipy.spatial, "cKDTree", _TieScramblingTree)
    monkeypatch.setattr(_TieScramblingTree, "queries", 0)
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
    assert _TieScramblingTree.queries == 60   # one per system built


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


def kd_tree_system(cloud, k):
    """``(pairs, d_k)`` of the k-d tree path of ``knn_neighbors``."""
    n = len(cloud)
    codes, kth = graphs._nearest_codes(cKDTree(cloud.positions),
                                       cloud.positions, np.arange(n), k, n)
    return graphs._decode_pairs(graphs._sorted_unique(codes), n), kth


class _NoQueryTree:
    def __init__(self, *args, **kwargs):
        raise AssertionError("the all-pairs system needs no k-d tree")


def test_all_pairs_system_is_the_kd_tree_system(monkeypatch):
    rng = np.random.default_rng(21)
    clouds = [random_cloud(rng, n, box=box) for n, box in
              ((2, 10.0), (3, 1e-3), (40, 10.0), (257, 1e4))]
    clouds.append(crowded_lattice_cloud(rng, 3, crowd=6))
    same = random_cloud(rng, 5)          # every sample at one point
    clouds.append(SampleCloud(np.zeros((5, 3)), same.tangents))
    twin = random_cloud(rng, 60)         # pairs and triples of coincident
    twin.positions[1::2] = twin.positions[::2]
    twin.positions[::3] = twin.positions[0]
    clouds.append(twin)
    for cloud in clouds:
        n = len(cloud)
        pairs, kth = kd_tree_system(cloud, n - 1)
        with monkeypatch.context() as patch:
            patch.setattr(scipy.spatial, "cKDTree", _NoQueryTree)
            if n > 2:   # the stub is in place: a smaller k does query
                with pytest.raises(AssertionError, match="no k-d tree"):
                    knn_neighbors(cloud, n - 2)
            system = knn_neighbors(cloud, n - 1)
            assert system.pairs.dtype == pairs.dtype
            assert system.pairs.tobytes() == pairs.tobytes()
            # every sample selected every other, so nothing is left out
            assert np.isposinf(kth).all()
            assert system.kth_distance.tobytes() == kth.tobytes()
            assert system.node_k.tolist() == [n - 1] * n
            assert system.k == n - 1
            # an oversized k still warns and clamps to the same system
            with pytest.warns(UserWarning, match="clamping"):
                clamped = knn_neighbors(cloud, n + 3)
        assert clamped.k == n - 1
        assert clamped.pairs.tobytes() == pairs.tobytes()
        assert clamped.kth_distance.tobytes() == kth.tobytes()


def test_knn_matches_brute_force():
    rng = np.random.default_rng(2)
    cloud = random_cloud(rng, 1000, box=50.0)
    system = knn_neighbors(cloud, k=10)
    assert pairs_set(system) == brute_force_knn_pairs(cloud.positions, 10)


def nearest_by_size(positions, sizes):
    """Per node i its sizes[i] nearest others by distance, symmetrized, and
    the distance to the farthest of them."""
    d = np.linalg.norm(positions[:, None] - positions[None], axis=2)
    np.fill_diagonal(d, np.inf)
    order = np.argsort(d, axis=1)
    pairs = {(min(i, j), max(i, j)) for i, size in enumerate(sizes)
             for j in order[i, :size].tolist()}
    kth = np.take_along_axis(d, order, axis=1)[np.arange(len(sizes)),
                                                np.asarray(sizes) - 1]
    return pairs, kth


def test_knn_keeps_each_nodes_kth_distance():
    rng = np.random.default_rng(4)
    cloud = random_cloud(rng, 300)
    system = knn_neighbors(cloud, k=7)
    pairs, kth = nearest_by_size(cloud.positions, [7] * 300)
    assert pairs_set(system) == pairs
    np.testing.assert_allclose(system.kth_distance, kth, rtol=1e-14)
    assert system.node_k.tolist() == [7] * 300


def test_widen_neighbors_matches_per_node_queries():
    rng = np.random.default_rng(5)
    cloud = random_cloud(rng, 200)
    sizes = rng.choice([3, 6, 12, 40], size=200)
    base = knn_neighbors(cloud, k=3)
    grown = np.flatnonzero(sizes > 3)
    system, added = widen_neighbors(cloud, base, grown, sizes[grown])
    pairs, kth = nearest_by_size(cloud.positions, sizes)
    assert pairs_set(system) == pairs
    # the added pairs are the new ones, in the system's pair order
    assert {tuple(p) for p in added.tolist()} == pairs - pairs_set(base)
    assert len(added) == len(pairs - pairs_set(base))
    assert np.all(np.diff(added[:, 0] * 200 + added[:, 1]) > 0)
    np.testing.assert_allclose(system.kth_distance, kth, rtol=1e-14)
    assert system.node_k.tolist() == sizes.tolist() and system.k == 40
    assert np.all(np.diff(system.pairs[:, 0] * 200 + system.pairs[:, 1]) > 0)
    # one size for every listed node, and nothing listed
    twice, _ = widen_neighbors(cloud, base, [0, 5], 9)
    assert twice.node_k[[0, 5]].tolist() == [9, 9]
    assert pairs_set(twice) == pairs_set(base) | {
        (min(i, j), max(i, j)) for i in (0, 5) for j in np.argsort(
            np.linalg.norm(cloud.positions - cloud.positions[i], axis=1)
        )[1:10].tolist()}
    same, none = widen_neighbors(cloud, base, [], 9)
    assert pairs_set(same) == pairs_set(base) and none.shape == (0, 2)
    # a node widened to every other sample leaves nothing out
    whole, _ = widen_neighbors(cloud, base, [0, 5], [199, 9])
    assert np.isposinf(whole.kth_distance[0])
    assert whole.kth_distance[5] == twice.kth_distance[5] < np.inf
    with pytest.raises(ValueError):
        widen_neighbors(cloud, system, [int(np.argmax(sizes))], 4)
    with pytest.raises(ValueError):
        widen_neighbors(cloud, base, [0], 200)


@pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
def test_weight_and_ratio_checks_refuse_non_finite_values(value):
    # NaN would make every arc weight or rescored distance NaN and run on
    cloud = random_cloud(np.random.default_rng(0), 20)
    with pytest.raises(ValueError, match="elastic_lambda must be finite"):
        build_confluent_graph(cloud, knn_neighbors(cloud, 4), math.pi / 2,
                              elastic_lambda=value)
    with pytest.raises(ValueError, match="aspect_ratio_sq must be finite"):
        anisotropic_knn(cloud, k_final=3, k_candidate=6,
                        aspect_ratio_sq=value)


def test_anisotropic_tie_at_the_k_final_boundary(monkeypatch):
    # Node 0 flows along x. Samples 1 to 4 lie at unit distance across
    # the flow, all tied at rescored distance 1, behind the on-axis sample
    # 5 at 1/sqrt(10). With k_final = 3 two of the four tied make the cut:
    # the lowest indices, whatever order the k-d tree lists them in.
    # Samples 3 and 4 flow along y, with three samples each close by on
    # their own axis, so they do not pick node 0 themselves.
    monkeypatch.setattr(scipy.spatial, "cKDTree", _TieScramblingTree)
    monkeypatch.setattr(_TieScramblingTree, "queries", 0)
    pos = [[0, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1],
           [1, 0, 0]]
    pos += [[0, dy, z] for z in (1, -1) for dy in (0.2, -0.2, 0.4)]
    pos = np.array(pos, dtype=float)
    tan = np.tile([1.0, 0, 0], (len(pos), 1))
    tan[[3, 4, *range(6, 12)]] = [0.0, 1.0, 0.0]
    cloud = SampleCloud(pos, tan)
    system = anisotropic_knn(cloud, k_final=3, k_candidate=5,
                             aspect_ratio_sq=10.0)
    assert {tuple(p) for p in system.pairs.tolist() if p[0] == 0} == \
        {(0, 1), (0, 2), (0, 5)}
    assert pairs_set(system) == brute_force_anisotropic_pairs(
        pos, tan, 3, 5, 10.0)
    assert _TieScramblingTree.queries == 1


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


def reference_confluent_arcs(cloud, pairs, epsilon, elastic_lambda):
    """Arcs as the two-direction kernel loop fits them: each direction
    gathers its endpoints and goes through batch_arc_geometry,
    batch_confluence_angles and batch_arc_weights on its own."""
    pos, tan = cloud.positions, cloud.tangents
    u, v = pairs[:, 0], pairs[:, 1]
    ok = np.linalg.norm(pos[v] - pos[u], axis=1) > COINCIDENT_TOL
    u, v = u[ok], v[ok]
    tails, heads, weights = [], [], []
    for a, b in ((u, v), (v, u)):
        _, alpha, length, end_tan = batch_arc_geometry(pos[a], tan[a], pos[b])
        conf = batch_confluence_angles(end_tan, tan[b])
        w = batch_arc_weights(alpha, length, conf, epsilon, elastic_lambda)
        keep = np.isfinite(w)
        tails.append(a[keep])
        heads.append(b[keep])
        weights.append(w[keep])
    tails = np.concatenate(tails).astype(np.int32)
    heads = np.concatenate(heads).astype(np.int32)
    order = np.lexsort((heads, tails))
    return tails[order], heads[order], np.concatenate(weights)[order]


def reference_geodesic_edges(cloud, pairs):
    pos, tan = cloud.positions, cloud.tangents
    u, v = pairs[:, 0], pairs[:, 1]
    ok = np.linalg.norm(pos[v] - pos[u], axis=1) > COINCIDENT_TOL
    u, v = u[ok], v[ok]
    w = (batch_shorter_arc_lengths(pos[u], tan[u], pos[v])
         + batch_shorter_arc_lengths(pos[v], tan[v], pos[u]))
    return u.astype(np.int32), v.astype(np.int32), w


def edge_case_cloud(rng, n):
    """Random cloud with coincident samples, anti-parallel (degenerate)
    start tangents that still land flow-aligned, chord-aligned tangents
    and head-on pairs whose confluence angle is exactly pi."""
    pos = rng.uniform(0, 6, (n, 3))
    tan = rng.normal(size=(n, 3))
    tan /= np.linalg.norm(tan, axis=1, keepdims=True)
    pos[1] = pos[0]
    pos[3] = pos[2]
    for a, b in ((4, 5), (6, 7)):   # tangents both point from b toward a:
        e = (pos[b] - pos[a]) / np.linalg.norm(pos[b] - pos[a])
        tan[a] = tan[b] = -e        # a -> b degenerate, b -> a straight
    for a, b in ((8, 9), (10, 11)):  # both point at each other
        e = (pos[b] - pos[a]) / np.linalg.norm(pos[b] - pos[a])
        tan[a], tan[b] = e, -e
    return SampleCloud(pos, tan)


def all_pairs(n):
    u, v = np.triu_indices(n, k=1)
    return NeighborSystem(k=n - 1, pairs=np.stack([u, v], axis=1))


def assert_same_arcs(graph, expected):
    tails, heads, weights = expected
    assert np.array_equal(graph.tails, tails)
    assert np.array_equal(graph.heads, heads)
    assert np.array_equal(graph.weights.view(np.int64),
                          weights.view(np.int64))


@pytest.mark.parametrize("epsilon", [math.pi / 4, math.pi / 2, math.pi])
@pytest.mark.parametrize("elastic_lambda", [0.0, 0.3])
def test_confluent_graph_bit_identical_to_two_direction_loop(epsilon,
                                                             elastic_lambda):
    rng = np.random.default_rng(21)
    for n in (12, 40, 90):
        cloud = edge_case_cloud(rng, n)
        system = all_pairs(n)
        graph = build_confluent_graph(cloud, system, epsilon=epsilon,
                                      elastic_lambda=elastic_lambda)
        expected = reference_confluent_arcs(cloud, system.pairs, epsilon,
                                            elastic_lambda)
        assert_same_arcs(graph, expected)
        arcs = set(zip(graph.tails.tolist(), graph.heads.tolist()))
        assert not arcs & {(0, 1), (1, 0), (2, 3), (3, 2)}
        assert (5, 4) in arcs and (4, 5) not in arcs
        assert ((8, 9) in arcs) == (epsilon == math.pi)


def refuse_thread_start(thread):
    raise AssertionError(f"started thread {thread.name}")


def test_confluent_graph_output_independent_of_chunks_and_threads(
        monkeypatch):
    rng = np.random.default_rng(22)
    cloud = edge_case_cloud(rng, 50)
    system = all_pairs(50)
    expected = reference_confluent_arcs(cloud, system.pairs, math.pi / 2,
                                        0.1)
    expected_geo = reference_geodesic_edges(cloud, system.pairs)
    # the chunks run in the calling thread: starting any thread fails
    monkeypatch.setattr(threading.Thread, "start", refuse_thread_start)
    for chunk in (1, 7, system.n_pairs):
        monkeypatch.setattr(graphs, "_PAIR_CHUNK", chunk)
        graph = build_confluent_graph(cloud, system, epsilon=math.pi / 2,
                                      elastic_lambda=0.1)
        assert_same_arcs(graph, expected)
        assert_same_arcs(build_geodesic_graph(cloud, system), expected_geo)


def test_geodesic_graph_matches_reference_on_knn_clouds():
    rng = np.random.default_rng(23)
    for n in (30, 200):
        cloud = edge_case_cloud(rng, n)
        system = knn_neighbors(cloud, k=8)
        assert_same_arcs(build_geodesic_graph(cloud, system),
                         reference_geodesic_edges(cloud, system.pairs))
        assert_same_arcs(
            build_confluent_graph(cloud, system, epsilon=math.pi / 2),
            reference_confluent_arcs(cloud, system.pairs, math.pi / 2, 0.0))


def test_graphs_without_distinct_pairs_are_empty():
    rng = np.random.default_rng(24)
    cloud = edge_case_cloud(rng, 12)
    for pairs in (np.empty((0, 2), dtype=np.int64), np.array([[0, 1]])):
        system = NeighborSystem(k=1, pairs=pairs)
        for graph in (build_confluent_graph(cloud, system, math.pi),
                      build_geodesic_graph(cloud, system)):
            assert graph.n_arcs == 0
            assert graph.tails.dtype == np.int32
            assert graph.weights.dtype == float


def test_merged_graphs_are_the_graph_of_the_joined_systems():
    # A graph fitted from the pairs a widening adds, merged into the graph
    # of the system it widened, is the graph of the widened system, array
    # for array, in both modes; coincident samples and an empty part too.
    rng = np.random.default_rng(25)
    cloud = edge_case_cloud(rng, 80)
    base = knn_neighbors(cloud, k=3)
    grown, added = widen_neighbors(cloud, base, np.arange(0, 80, 3), 12)
    empty = NeighborSystem(k=12, pairs=np.empty((0, 2), dtype=np.int64))
    for build in (partial(build_confluent_graph, epsilon=math.pi / 2),
                  build_geodesic_graph):
        whole = build(cloud, grown)
        merged = merge_graphs(build(cloud, base),
                              build(cloud, NeighborSystem(k=12, pairs=added)))
        assert merged.mode == whole.mode
        for name in ("tails", "heads", "weights"):
            assert getattr(merged, name).dtype == getattr(whole, name).dtype
            assert getattr(merged, name).tobytes() == \
                getattr(whole, name).tobytes()
        same = merge_graphs(whole, build(cloud, empty))
        assert same.weights.tobytes() == whole.weights.tobytes()
