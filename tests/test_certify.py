"""The certified neighbour count of isotropic reconstruction.

In every isotropic mode ``k`` is the cap, and ``reconstruct_cloud`` grows
per-node neighbourhoods until the solver's bound proves the tree optimal
over all arcs (confluent) or all edges (geodesic). These tests hold it to
the trees of the fixed-k and the all-pairs (K = N - 1) graphs.
"""

import math
import warnings

import numpy as np
import pytest

from vesseltrees import pipeline
from vesseltrees.geometry import SampleCloud
from vesseltrees.graphs import build_confluent_graph, build_geodesic_graph, \
    knn_neighbors
from vesseltrees.io import read_neighbor_pairs, read_point_cloud
from vesseltrees.pipeline import PipelineConfig, reconstruct_cloud, \
    reconstruct_corpus, synth_corpus
from vesseltrees.solvers import minimum_arborescence, minimum_spanning_tree
from vesseltrees.synth import SamplerConfig, generate_tree, sample_centerline


def fixed_tree(cloud, k, cfg, root):
    graph = build_confluent_graph(cloud, knn_neighbors(cloud, k),
                                  epsilon=cfg.epsilon,
                                  elastic_lambda=cfg.elastic_lambda)
    return minimum_arborescence(graph, root)


def fixed_mst(cloud, k, root):
    return minimum_spanning_tree(
        build_geodesic_graph(cloud, knn_neighbors(cloud, k)), root)


def same_tree(a, b):
    return all(getattr(a, name).tobytes() == getattr(b, name).tobytes()
               for name in ("parent", "edge_weight"))


def vessel_cloud(seed, n_max=60, position_noise=0.3, flip=0.0):
    """A small sampled tree, its spacing chosen to give at most n_max."""
    rng = np.random.default_rng(seed)
    gt = generate_tree(n_leaves=int(rng.integers(2, 5)), domain_size=30.0,
                       seed=seed)
    spacing = gt.total_length() / (n_max - 2 * gt.n_nodes)
    cloud = sample_centerline(gt, SamplerConfig(
        spacing=max(spacing, 0.5), position_noise_std=position_noise,
        tangent_noise_std_rad=0.1, orientation_flip_prob=flip, seed=seed))
    root = int(np.argmin(np.linalg.norm(
        cloud.positions - gt.positions[gt.root], axis=1)))
    return cloud, root


def random_cloud(seed, n):
    rng = np.random.default_rng(seed)
    tan = rng.normal(size=(n, 3)) + [2.0, 0.0, 0.0]
    tan /= np.linalg.norm(tan, axis=1, keepdims=True)
    return SampleCloud(rng.uniform(0.0, 10.0, (n, 3)), tan), 0


def small_clouds():
    for seed in range(6):
        yield vessel_cloud(seed)
    for seed in range(6):
        yield random_cloud(100 + seed, 20 + 6 * seed)


# random clouds may leave a root with nothing reachable, which both the
# certified and the reference solves warn about
@pytest.mark.filterwarnings("ignore:no nodes reachable")
@pytest.mark.parametrize("k0", [2, pipeline.CERTIFY_K0])
def test_certified_tree_is_the_all_pairs_and_the_fixed_k_tree(monkeypatch,
                                                              k0):
    # Random real-valued clouds: no two weights tie, so optimal weight
    # means the same parents.
    monkeypatch.setattr(pipeline, "CERTIFY_K0", k0)
    counts = {"certified": 0, "multi_round": 0, "fallback": 0}
    for cloud, root in small_clouds():
        n = len(cloud)
        for epsilon in (math.pi / 4, math.pi / 2, math.pi):
            for lam in (0.0, 0.3):
                for cap in (6, 30):
                    cfg = PipelineConfig(k=cap, epsilon=epsilon,
                                         elastic_lambda=lam)
                    tree, stats, neighbors = reconstruct_cloud(cloud, cfg,
                                                               root)
                    k = min(cap, n - 1)
                    fixed = fixed_tree(cloud, k, cfg, root)
                    assert tree.parent.tolist() == fixed.parent.tolist()
                    assert tree.total_weight == fixed.total_weight
                    assert neighbors.k == k
                    if not stats["certified"]:
                        counts["fallback"] += 1
                        assert stats["k_max"] == k
                        continue
                    counts["certified"] += 1
                    counts["multi_round"] += stats["k_rounds"] > 1
                    full = fixed_tree(cloud, n - 1, cfg, root)
                    assert tree.total_weight == pytest.approx(
                        full.total_weight, rel=1e-12)
                    assert tree.parent.tolist() == full.parent.tolist()
    assert counts["certified"] >= 30
    assert counts["multi_round"] >= 5
    assert counts["fallback"] >= 30


@pytest.mark.parametrize("k0", [2, pipeline.CERTIFY_K0])
def test_certified_mst_is_the_all_pairs_and_the_fixed_k_mst(monkeypatch, k0):
    # A left-out edge weighs at least twice its chord, so it is heavier than
    # every tree edge once half the heaviest is below each kNN radius.
    monkeypatch.setattr(pipeline, "CERTIFY_K0", k0)
    counts = {"certified": 0, "multi_round": 0, "fallback": 0}
    for cloud, root in small_clouds():
        n = len(cloud)
        for cap in (6, 30):
            cfg = PipelineConfig(mode="geodesic", k=cap)
            tree, stats, neighbors = reconstruct_cloud(cloud, cfg, root)
            k = min(cap, n - 1)
            assert same_tree(tree, fixed_mst(cloud, k, root))
            assert neighbors.k == k
            assert stats["n_arcs"] == build_geodesic_graph(
                cloud, neighbors).n_arcs
            if stats["certified"]:
                counts["certified"] += 1
                counts["multi_round"] += stats["k_rounds"] > 1
                assert same_tree(tree, fixed_mst(cloud, n - 1, root))
            else:
                counts["fallback"] += 1
                assert stats["k_max"] == k
    assert counts["certified"] >= 12
    assert counts["multi_round"] >= 5
    assert counts["fallback"] >= 8


def star_of_arms():
    """Three straight arms leave the root at 120 degrees, their samples 1,
    2.2 and 3.4 from it and flowing outward. The root flows across the
    plane, so its edges are quarter-circle arcs, the heaviest of the tree;
    of every sample's 3 nearest, only the root's lie within half of it."""
    pos, tan = [[0.0, 0.0, 0.0]], [[0.0, 0.0, 1.0]]
    for arm in range(3):
        angle = 2.0 * math.pi * arm / 3.0
        out = [math.cos(angle), math.sin(angle), 0.0]
        for r in (1.0, 2.2, 3.4):
            pos.append([r * c for c in out])
            tan.append(out)
    return SampleCloud(pos, tan)


def test_mst_certificate_holds_at_the_root(monkeypatch):
    # Unlike the arborescence, whose root has no entering arcs, the
    # spanning tree's root has left-out edges like any other node, so its
    # bound is the same and it must pass too. Each of those edges also has
    # an end that passes here, so the round the root asks for proves the
    # tree rather than changing it.
    cloud = star_of_arms()
    n = len(cloud)
    neighbors = knn_neighbors(cloud, 3)
    first = minimum_spanning_tree(build_geodesic_graph(cloud, neighbors), 0)
    assert first.potential[0] == np.max(first.edge_weight[1:]) / 2.0
    assert np.flatnonzero(pipeline._uncertified(first, neighbors)).tolist() \
        == [0]
    assert same_tree(first, fixed_mst(cloud, n - 1, 0))
    monkeypatch.setattr(pipeline, "CERTIFY_K0", 3)
    cfg = PipelineConfig(mode="geodesic")
    tree, stats, neighbors = reconstruct_cloud(cloud, cfg, 0)
    assert stats["k_rounds"] == 2 and stats["certified"] is True
    assert neighbors.node_k.tolist() == [6] + [3] * (n - 1)
    assert same_tree(tree, fixed_mst(cloud, n - 1, 0))


def test_mst_grows_across_a_gap_wider_than_twice_the_knn_radius():
    # Round one reaches only the root's chain; the far chain goes to the
    # cap, and the edge across the gap then fails every node of the near
    # chain, which grows until the tree is proven.
    near = [[float(i), 0.0, 0.0] for i in range(12)]
    far = [[31.0 + i, 0.0, 0.0] for i in range(12)]
    cloud = SampleCloud(near + far, np.tile([1.0, 0.0, 0.0], (24, 1)))
    d_8 = knn_neighbors(cloud, pipeline.CERTIFY_K0).kth_distance.max()
    assert 31.0 - 11.0 > 2.0 * d_8
    for cap in (23, 500):
        cfg = PipelineConfig(mode="geodesic", k=cap)
        tree, stats, _ = reconstruct_cloud(cloud, cfg, 0)
        assert stats["certified"] is True and stats["k_rounds"] >= 3
        assert tree.n_nodes == 24
        assert same_tree(tree, fixed_mst(cloud, 23, 0))


def test_flipped_tangent_fallback_is_the_fixed_k_tree():
    # A flipped sample's cheapest admissible entering arc is longer than
    # its 6-NN radius, so the loop falls back to one fixed-k solve.
    cloud, root = vessel_cloud(3, n_max=120, position_noise=0.3, flip=0.1)
    cfg = PipelineConfig(k=6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tree, stats, neighbors = reconstruct_cloud(cloud, cfg, root)
    assert stats["certified"] is False
    assert stats["uncertified_nodes"] > 0
    fixed = fixed_tree(cloud, 6, cfg, root)
    for name in ("parent", "edge_weight", "edge_alpha", "edge_length"):
        assert getattr(tree, name).tobytes() == getattr(fixed, name).tobytes()
    assert np.array_equal(neighbors.pairs, knn_neighbors(cloud, 6).pairs)
    assert stats["n_neighbor_pairs"] == neighbors.n_pairs
    assert stats["k_max"] == 6


def chain_beyond_cluster():
    """Root at the origin flowing +x. Its 8 nearest samples sit just behind
    it and flow -x, so no arc from it reaches them. A chain flowing +x
    runs ahead of it, farther than the chain's own 8-NN radius."""
    behind = [[-0.5 - 0.05 * i, 0.3 * math.cos(i), 0.3 * math.sin(i)]
              for i in range(10)]
    ahead = [[6.0 + 0.5 * i, 0.0, 0.0] for i in range(12)]
    pos = np.array([[0.0, 0.0, 0.0], *behind, *ahead])
    tan = np.tile([1.0, 0.0, 0.0], (len(pos), 1))
    tan[1:11] *= -1.0
    return SampleCloud(pos, tan)


def test_rounds_emit_no_warnings_and_the_kept_round_its_own():
    cloud = chain_beyond_cluster()
    n = len(cloud)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tree, stats, _ = reconstruct_cloud(cloud, PipelineConfig(), 0)
    # round 1 reached nothing, which the solver warns about; round 2 reaches
    # the chain, and the cluster stays unreachable with every pair present
    assert stats["k_rounds"] == 2 and stats["certified"] is True
    assert stats["k_clamped"] is True
    assert sorted(tree.excluded.tolist()) == list(range(1, 11))
    assert tree.parent.tolist() == fixed_tree(
        cloud, n - 1, PipelineConfig(), 0).parent.tolist()

    # a kept round's warning is issued once: nothing flows out of a root
    # whose samples all flow back at it
    tan = np.tile([-1.0, 0.0, 0.0], (10, 1))
    tan[0] *= -1.0
    line = SampleCloud(np.outer(np.arange(10.0), [1.0, 0.0, 0.0]), tan)
    with pytest.warns(UserWarning, match="no nodes reachable") as caught:
        tree, stats, _ = reconstruct_cloud(line, PipelineConfig(), 0)
    assert len(caught) == 1
    assert stats["k_rounds"] == 2 and stats["certified"] is True
    assert tree.n_nodes == 1


@pytest.mark.parametrize("mode, anisotropic, message", [
    ("confluent", False, "no nodes reachable"),
    ("confluent", True, "no nodes reachable"),
    ("geodesic", False, "root is isolated"),
])
def test_kept_round_warnings_keep_their_module(mode, anisotropic, message):
    # Every mode records the warnings of its rounds and issues the kept
    # round's: once, and under the filters that name the solver module.
    if mode == "geodesic":   # the root's only neighbour coincides with it
        pos = [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [5.0, 0.0, 0.0],
               [6.0, 0.0, 0.0]]
        cloud = SampleCloud(pos, np.tile([1.0, 0.0, 0.0], (4, 1)))
    else:                    # every sample flows back at the root
        tan = np.tile([-1.0, 0.0, 0.0], (10, 1))
        tan[0] *= -1.0
        cloud = SampleCloud(np.outer(np.arange(10.0), [1.0, 0.0, 0.0]), tan)
    cfg = PipelineConfig(mode=mode, anisotropic=anisotropic,
                         k=1 if mode == "geodesic" else len(cloud) - 1)
    with pytest.warns(UserWarning, match=message) as caught:
        tree, stats, _ = reconstruct_cloud(cloud, cfg, 0)
    assert len(caught) == 1 and tree.n_nodes == 1
    assert stats["k_rounds"] == (2 if stats["certified"] else 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        warnings.filterwarnings("ignore", module=r"vesseltrees\.solvers")
        reconstruct_cloud(cloud, cfg, 0)


def test_stats_describe_the_loop():
    cloud, root = vessel_cloud(5)
    n = len(cloud)
    _, stats, neighbors = reconstruct_cloud(cloud, PipelineConfig(k=40),
                                            root)
    assert stats["certified"] is True and stats["uncertified_nodes"] == 0
    assert stats["k_rounds"] >= 1 and stats["k_clamped"] is (40 > n - 1)
    assert stats["k_max"] == int(neighbors.node_k.max()) <= 40
    assert stats["n_neighbor_pairs"] == neighbors.n_pairs
    assert stats["n_arcs"] == build_confluent_graph(
        cloud, neighbors, math.pi / 2).n_arcs
    all_stats = [stats]
    cfg = PipelineConfig(mode="geodesic", k=20)
    _, stats, neighbors = reconstruct_cloud(cloud, cfg, root)
    assert stats["certified"] is True and stats["uncertified_nodes"] == 0
    assert stats["k_max"] == int(neighbors.node_k.max()) <= 20
    assert stats["n_neighbor_pairs"] == neighbors.n_pairs
    assert stats["n_arcs"] == build_geodesic_graph(cloud, neighbors).n_arcs
    all_stats.append(stats)
    cfg = PipelineConfig(anisotropic=True, k=20)
    _, stats, neighbors = reconstruct_cloud(cloud, cfg, root)
    assert stats["certified"] is None
    assert stats["uncertified_nodes"] is None
    assert stats["k_rounds"] == 1 and stats["k_max"] == neighbors.k
    all_stats.append(stats)
    # one lap clock: the stage times add up to the wall time in every mode
    for stats in all_stats:
        stages = stats["neighbors_s"] + stats["graph_s"] + stats["solve_s"]
        assert stages == pytest.approx(stats["wall_time_s"], rel=1e-12)


def test_fallback_counts_the_failing_nodes_of_the_kept_tree():
    # A flipped sample fails at the cap of 100, so the last round solves
    # the fixed-k graph; the count describes that round's tree, not the
    # round that was thrown away.
    gt = generate_tree(n_leaves=8, domain_size=60.0, seed=0)
    cloud = sample_centerline(gt, SamplerConfig(
        tangent_noise_std_rad=0.1, orientation_flip_prob=0.05, seed=0))
    root = int(np.argmin(np.linalg.norm(
        cloud.positions - gt.positions[gt.root], axis=1)))
    tree, stats, neighbors = reconstruct_cloud(cloud, PipelineConfig(k=100),
                                               root)
    assert stats["certified"] is False and stats["k_max"] == 100
    assert np.all(neighbors.node_k == 100)
    assert stats["uncertified_nodes"] == \
        pipeline._uncertified(tree, neighbors).sum() > 0


def test_dumped_neighbors_are_the_fixed_k_system(tmp_path):
    corpus = tmp_path / "corpus"
    manifest = synth_corpus(corpus, n_trees=1, n_leaves=4, domain_size=50.0,
                            seed=3)
    item = manifest["items"][0]
    cloud = read_point_cloud(corpus / item["clouds"][0]["path"])
    for mode in ("confluent", "geodesic"):
        run = tmp_path / mode
        results = reconstruct_corpus(corpus, run,
                                     PipelineConfig(mode=mode, k=30),
                                     dump_neighbors=True)
        assert results[0][2]["certified"] is True
        assert results[0][2]["k_max"] < 30
        dumped = read_neighbor_pairs(run / "neighbors" / "recon_000_l00.csv")
        assert np.array_equal(dumped.pairs, knn_neighbors(cloud, 30).pairs)
