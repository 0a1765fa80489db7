"""The certified neighbour count of isotropic reconstruction.

In every isotropic mode ``k`` is the cap, and ``reconstruct_cloud`` grows
per-node neighbourhoods until the solver's bound proves the tree optimal
over all arcs (confluent) or all edges (geodesic), or at the latest proves
it the fixed-cap graph's tree. There is no fallback solve: a tree that
fails the all-pairs test is kept and reported uncertified, and the tests
below that say "fallback" mean such a tree. These tests hold it to the
trees of the fixed-k and the all-pairs (K = N - 1) graphs.
"""

import math
import warnings

import numpy as np
import pytest
from scipy.spatial import cKDTree

from vesseltrees import graphs, pipeline
from vesseltrees.geometry import SampleCloud
from vesseltrees.graphs import NeighborSystem, build_confluent_graph, \
    build_geodesic_graph, knn_neighbors
from vesseltrees.io import read_neighbor_pairs, read_point_cloud
from vesseltrees.pipeline import PipelineConfig, reconstruct_cloud, \
    reconstruct_corpus, synth_corpus
from vesseltrees.solvers import minimum_arborescence, minimum_spanning_tree
from vesseltrees.synth import SamplerConfig, generate_tree, sample_centerline
from vesseltrees.trees import NO_PARENT


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
    # an end that passes here, so the first round has proven the tree: a
    # lone failing node is paired with every other failing node.
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
    assert stats["k_rounds"] == 1 and stats["certified"] is True
    assert stats["uncertified_nodes"] == 0
    assert neighbors.node_k.tolist() == [3] * n
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
    # its 6-NN radius. CERTIFY_K0 exceeds the cap of 6, so the first round
    # is already the fixed-k solve; it is kept and reported uncertified.
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


def kd_tree_knn(cloud, k):
    """``knn_neighbors`` through the k-d tree query at every k."""
    n = len(cloud)
    codes, kth = graphs._nearest_codes(cKDTree(cloud.positions),
                                       cloud.positions, np.arange(n), k, n)
    return NeighborSystem(k=k, pairs=graphs._decode_pairs(
        graphs._sorted_unique(codes), n), node_k=np.full(n, k),
        kth_distance=kth)


def knn_spy(monkeypatch):
    """Record the size of every ``knn_neighbors`` call of ``pipeline``."""
    sizes = []

    def spy(samples, k):
        sizes.append(k)
        return knn_neighbors(samples, k)

    monkeypatch.setattr(pipeline, "knn_neighbors", spy)
    return sizes


def assert_fixed_tree(tree, fixed):
    for name in ("parent", "edge_weight", "edge_alpha", "edge_length"):
        assert getattr(tree, name).tobytes() == getattr(fixed, name).tobytes()


@pytest.mark.parametrize("seed, n_max, sparse", [(1, 60, False),
                                                 (4, 120, True)],
                         ids=["1-60", "4-120"])
def test_fallback_at_a_clamped_cap_is_the_kd_tree_fallback(monkeypatch,
                                                           seed, n_max,
                                                           sparse):
    # k = 500 clamps to N - 1, and flipped samples fail their kNN radius
    # below it. The loop never queries the whole cloud at the cap, and
    # keeps the tree of the all-pairs system, built with or without a k-d
    # tree query. That tree is certified: the nodes still dearer than
    # their farthest sample selected every other sample, so nothing at
    # them was left out and their radius is +inf. At seed 1 the first
    # round leaves 44 of the 47 samples unreached, and an unreached node
    # goes to the cap at once, so that cloud ends with every pair.
    cloud, root = vessel_cloud(seed, n_max=n_max, position_noise=0.3,
                               flip=0.1)
    n = len(cloud)
    sizes = knn_spy(monkeypatch)
    tree, stats, neighbors = reconstruct_cloud(cloud, PipelineConfig(), root)
    assert sizes == [pipeline.CERTIFY_K0]
    assert stats["certified"] is True and stats["uncertified_nodes"] == 0
    assert not pipeline._uncertified(tree, neighbors).any()
    farthest = np.max(np.linalg.norm(
        cloud.positions[:, None] - cloud.positions[None], axis=2), axis=1)
    dearer = tree.potential > farthest
    assert dearer.any() and (neighbors.node_k[dearer] == n - 1).all()
    assert stats["n_neighbor_pairs"] == neighbors.n_pairs
    assert (neighbors.n_pairs < n * (n - 1) // 2) is sparse
    cfg = PipelineConfig()
    for knn in (knn_neighbors, kd_tree_knn):
        graph = build_confluent_graph(cloud, knn(cloud, n - 1), cfg.epsilon)
        assert_fixed_tree(tree, minimum_arborescence(graph, root))


def test_a_node_that_selected_every_sample_passes():
    # The root's tangent leaves 2 rad off the chord to sample 1, and
    # sample 1 flows across the chord to sample 2, so both enter the tree
    # by an arc longer than the farthest sample from them. Every node
    # selected every other sample, so no arc was left out and the tree
    # over all 3 pairs is certified.
    tan = [[math.cos(2.0), math.sin(2.0), 0.0], [1.0, 0.0, 0.0],
           [0.0, 1.0, 0.0]]
    cloud = SampleCloud([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                         [1.0, 1.2, 0.0]], tan)
    tree, stats, neighbors = reconstruct_cloud(
        cloud, PipelineConfig(epsilon=math.pi), 0)
    assert neighbors.n_pairs == 3 and stats["k_rounds"] == 1
    assert tree.parent.tolist() == [NO_PARENT, 0, 1]
    assert tree.potential[1] > 1.2 and tree.potential[2] > math.hypot(1, 1.2)
    assert stats["certified"] is True and stats["uncertified_nodes"] == 0
    assert np.isposinf(neighbors.kth_distance).all()


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


def test_fallback_counts_the_failing_nodes_of_the_kept_tree(monkeypatch):
    # A flipped sample fails its kNN radius at the cap of 100. The loop
    # takes only the samples within its potential to the cap, proves its
    # tree the fixed-k tree, keeps it, and counts the nodes of that tree
    # that fail the all-pairs test.
    gt = generate_tree(n_leaves=8, domain_size=60.0, seed=0)
    cloud = sample_centerline(gt, SamplerConfig(
        tangent_noise_std_rad=0.1, orientation_flip_prob=0.05, seed=0))
    root = int(np.argmin(np.linalg.norm(
        cloud.positions - gt.positions[gt.root], axis=1)))
    sizes = knn_spy(monkeypatch)
    cfg = PipelineConfig(k=100)
    tree, stats, neighbors = reconstruct_cloud(cloud, cfg, root)
    assert sizes == [pipeline.CERTIFY_K0]
    assert stats["certified"] is False and stats["k_max"] == 100
    assert neighbors.n_pairs < knn_neighbors(cloud, 100).n_pairs
    assert stats["uncertified_nodes"] == \
        pipeline._uncertified(tree, neighbors).sum() > 0
    assert_fixed_tree(tree, fixed_tree(cloud, 100, cfg, root))


def test_dumped_neighbors_are_the_solved_system(tmp_path):
    # Each dump is the system its tree was solved from: the pairs of
    # reconstruct_cloud, as many as its stats count, fewer than the fixed-k
    # system's.
    corpus = tmp_path / "corpus"
    manifest = synth_corpus(corpus, n_trees=1, n_leaves=4, domain_size=50.0,
                            seed=3)
    item = manifest["items"][0]
    cloud = read_point_cloud(corpus / item["clouds"][0]["path"])
    root = pipeline.resolve_root(cloud, root_at=item["root_position"])
    for mode in ("confluent", "geodesic"):
        cfg = PipelineConfig(mode=mode, k=30)
        run = tmp_path / mode
        stats = reconstruct_corpus(corpus, run, cfg,
                                   dump_neighbors=True)[0][2]
        assert stats["certified"] is True and stats["k_max"] < 30
        dumped = read_neighbor_pairs(run / "neighbors" / "recon_000_l00.csv")
        _, _, solved = reconstruct_cloud(cloud, cfg, root)
        assert np.array_equal(dumped.pairs, solved.pairs)
        assert stats["n_neighbor_pairs"] == dumped.n_pairs \
            < knn_neighbors(cloud, 30).n_pairs


def counted_solves(monkeypatch):
    """Record every tree that ``pipeline`` solves, with its graph."""
    solved = []
    for name in ("minimum_arborescence", "minimum_spanning_tree"):
        def counted(graph, root, solver=getattr(pipeline, name)):
            tree = solver(graph, root)
            solved.append((graph, tree))
            return tree
        monkeypatch.setattr(pipeline, name, counted)
    return solved


def untimed(stats):
    return {key: value for key, value in stats.items()
            if not key.endswith("_s")}


def assert_same_run(run, reference):
    """Trees, potentials, stats (timings aside) and systems are equal."""
    (tree, stats, neighbors), (ref_tree, ref_stats, ref_neighbors) = \
        run, reference
    for name in ("parent", "edge_weight", "edge_alpha", "edge_length",
                 "potential"):
        assert getattr(tree, name).tobytes() == \
            getattr(ref_tree, name).tobytes()
    assert untimed(stats) == untimed(ref_stats)
    assert neighbors.pairs.tobytes() == ref_neighbors.pairs.tobytes()


def solved_every_round(monkeypatch, cloud, cfg, root):
    """``reconstruct_cloud`` with a loop that solves every round."""
    with monkeypatch.context() as patch:
        patch.setattr(pipeline, "_keeps", lambda tree, arcs: False)
        return reconstruct_cloud(cloud, cfg, root)


def solved_from_scratch(cloud, cfg, root, neighbors):
    """The tree of the whole graph of ``neighbors``, and that graph."""
    if cfg.mode == "confluent":
        graph = build_confluent_graph(cloud, neighbors, cfg.epsilon,
                                      cfg.elastic_lambda)
        return minimum_arborescence(graph, root), graph
    graph = build_geodesic_graph(cloud, neighbors)
    return minimum_spanning_tree(graph, root), graph


def run_counted(monkeypatch, cloud, cfg, root):
    """The run, the trees it solved, and the checks against a loop that
    solves every round and against the final system's graph."""
    reference = solved_every_round(monkeypatch, cloud, cfg, root)
    with monkeypatch.context() as patch:
        solved = counted_solves(patch)
        run = reconstruct_cloud(cloud, cfg, root)
    assert_same_run(run, reference)
    tree, stats, neighbors = run
    full, graph = solved_from_scratch(cloud, cfg, root, neighbors)
    assert tree.parent.tobytes() == full.parent.tobytes()
    assert tree.potential.tobytes() == full.potential.tobytes()
    assert stats["n_arcs"] == graph.n_arcs
    assert 1 <= len(solved) <= stats["k_rounds"]
    return run, solved


def added_arcs(first, final):
    """The arcs of the graph ``final`` that the graph ``first`` lacks."""
    n = first.n_nodes
    keys = first.tails.astype(np.int64) * n + first.heads
    new = ~np.isin(final.tails.astype(np.int64) * n + final.heads, keys)
    return final.tails[new], final.heads[new], final.weights[new]


@pytest.mark.filterwarnings("ignore:no nodes reachable")
@pytest.mark.filterwarnings("ignore:root is isolated")
@pytest.mark.parametrize("mode", ["confluent", "geodesic"])
def test_rounds_solve_only_when_an_added_arc_can_change_the_tree(
        monkeypatch, mode):
    # "both": a run that keeps the tree in some rounds after the first and
    # solves again in others
    counts = {"kept": 0, "solved_again": 0, "both": 0}
    for cloud, root in small_clouds():
        for cap in (6, 30, 500):
            cfg = PipelineConfig(mode=mode, k=cap)
            (_, stats, _), solved = run_counted(monkeypatch, cloud, cfg,
                                                root)
            counts["kept"] += len(solved) < stats["k_rounds"]
            counts["solved_again"] += len(solved) > 1
            counts["both"] += 1 < len(solved) < stats["k_rounds"]
    assert counts["kept"] >= 6 and counts["solved_again"] >= 6
    assert counts["both"] >= 2


def test_a_round_whose_arcs_all_cost_more_than_the_potential_keeps_it(
        monkeypatch):
    # Three rounds widen the neighbourhoods, and every arc the second and
    # third add weighs more than the potential at its head, so the first
    # round's tree is the only one solved.
    cloud, root = vessel_cloud(3, n_max=60)
    (tree, stats, neighbors), solved = run_counted(
        monkeypatch, cloud, PipelineConfig(), root)
    assert stats["k_rounds"] == 3 and len(solved) == 1
    assert stats["certified"] is True
    (first, kept), = solved
    assert kept is tree and stats["n_arcs"] > first.n_arcs
    _, full = solved_from_scratch(cloud, PipelineConfig(), root, neighbors)
    _, heads, weights = added_arcs(first, full)
    assert heads.size and np.all(weights > tree.potential[heads])


def test_an_arc_that_undercuts_the_potential_solves_again(monkeypatch):
    # The second round adds an arc lighter than the potential at its head,
    # which the first round's tree cannot be proven against: the merged
    # graph is solved again, and its tree is not the first one.
    cloud, root = vessel_cloud(1, n_max=120)
    (tree, stats, _), solved = run_counted(monkeypatch, cloud,
                                           PipelineConfig(), root)
    assert stats["k_rounds"] == 2 and len(solved) == 2
    (first, first_tree), (final, final_tree) = solved
    assert final_tree is tree
    _, heads, weights = added_arcs(first, final)
    assert np.any(weights <= first_tree.potential[heads])
    assert np.isfinite(first_tree.potential[heads]).all()
    assert first_tree.parent.tobytes() != tree.parent.tobytes()


def test_a_node_unreached_in_the_first_round_is_solved_for(monkeypatch):
    # The first round reaches nothing, so every potential but the root's
    # is +inf and no added arc into the chain can be ruled out: the
    # second round solves again and reaches the chain.
    cloud = chain_beyond_cluster()
    (tree, stats, _), solved = run_counted(monkeypatch, cloud,
                                           PipelineConfig(), 0)
    assert stats["k_rounds"] == 2 and len(solved) == 2
    first = solved[0][1]
    assert first.n_nodes == 1 and np.isposinf(first.potential[1:]).all()
    assert tree.n_nodes == len(cloud) - 10


def test_geodesic_rounds_keep_the_tree_below_every_added_edge(monkeypatch):
    # Every edge the second round adds weighs more than twice the larger
    # potential of its ends, so it is heavier than every tree edge.
    cloud, root = vessel_cloud(1, n_max=60)
    cfg = PipelineConfig(mode="geodesic")
    (tree, stats, neighbors), solved = run_counted(monkeypatch, cloud, cfg,
                                                   root)
    assert stats["k_rounds"] == 2 and len(solved) == 1
    assert stats["certified"] is True
    (first, _), = solved
    _, full = solved_from_scratch(cloud, cfg, root, neighbors)
    tails, heads, weights = added_arcs(first, full)
    assert heads.size and np.all(weights > np.max(
        tree.edge_weight[tree.parent >= 0]))
    assert np.all(weights > 2.0 * np.maximum(tree.potential[tails],
                                             tree.potential[heads]))
