"""End-to-end pipeline behavior on small synthetic data."""

import math
import warnings

import numpy as np
import pytest

from vesseltrees.geometry import SampleCloud
from vesseltrees.graphs import build_confluent_graph, build_geodesic_graph, \
    knn_neighbors
from vesseltrees.metrics import MatchTolerance, centerline_roc, \
    median_angular_error
from vesseltrees.io import read_csv
from vesseltrees.pipeline import PipelineConfig, evaluate_corpus, \
    reconstruct_corpus, reconstruct_cloud, resolve_root, synth_corpus
from vesseltrees.solvers import minimum_arborescence, minimum_spanning_tree
from vesseltrees.synth import SamplerConfig, generate_tree, sample_centerline


def test_resolve_root():
    cloud = SampleCloud([[0, 0, 0], [5, 0, 0], [9, 0, 0]],
                        np.tile([1.0, 0, 0], (3, 1)))
    assert resolve_root(cloud, root_index=2) == 2
    assert resolve_root(cloud, root_at=(4.4, 0, 0)) == 1
    with pytest.raises(ValueError):
        resolve_root(cloud, root_index=7)
    with pytest.raises(ValueError):
        resolve_root(cloud)


def test_pipeline_config_validation():
    with pytest.raises(ValueError):
        PipelineConfig(mode="bogus")
    with pytest.raises(ValueError):
        PipelineConfig(epsilon=0.0)
    with pytest.raises(ValueError):
        PipelineConfig(epsilon=4.0)
    with pytest.raises(ValueError):
        PipelineConfig(elastic_lambda=-1.0)


def crossing_branch_cloud(theta_deg=30.0, n_chain=4, spacing=1.0):
    """A bifurcation whose two child branches leave at an acute angle.

    The first samples of the two children are closer to each other than to
    the branching point, the classic shortcut bait for distance-weighted
    MST.
    """
    half = math.radians(theta_deg) / 2.0
    u1 = np.array([math.cos(half), math.sin(half), 0.0])
    u2 = np.array([math.cos(half), -math.sin(half), 0.0])
    x = np.array([1.0, 0.0, 0.0])
    pts = [[-spacing, 0, 0], [0, 0, 0]]
    tans = [x, x]
    for i in range(1, n_chain + 1):
        pts.append(i * spacing * u1)
        tans.append(u1)
        pts.append(i * spacing * u2)
        tans.append(u2)
    return SampleCloud(np.array(pts), np.array(tans)), 1


def test_confluent_keeps_bifurcation_where_mst_shortcuts():
    cloud, bif_index = crossing_branch_cloud()
    neighbors = knn_neighbors(cloud, k=len(cloud) - 1)

    geo = build_geodesic_graph(cloud, neighbors)
    mst = minimum_spanning_tree(geo, 0)
    c1, c2 = 2, 3  # first samples of the two child branches
    # the geodesic MST bridges the two branches instead of branching
    assert mst.parent[c2] == c1 or mst.parent[c1] == c2
    assert bif_index not in mst.branching_nodes()

    conf = build_confluent_graph(cloud, neighbors, epsilon=math.pi / 2)
    arb = minimum_arborescence(conf, 0)
    assert arb.parent[c1] == bif_index
    assert arb.parent[c2] == bif_index
    assert bif_index in arb.branching_nodes()
    # no cross-branch arcs survive the confluence gate at the bifurcation
    stored = set(zip(arb.parent[[c1, c2]].tolist(), [c1, c2]))
    assert stored == {(bif_index, c1), (bif_index, c2)}


def test_zero_noise_reconstruction_quality():
    cfg = PipelineConfig()
    tol = MatchTolerance()
    for seed in range(3):
        gt = generate_tree(n_leaves=8, domain_size=100.0, seed=seed)
        cloud = sample_centerline(gt, SamplerConfig(spacing=1.0, seed=seed))
        root = resolve_root(cloud, root_at=gt.positions[gt.root])
        tree, stats, _ = reconstruct_cloud(cloud, cfg, root)
        recall, fallout = centerline_roc(gt, tree, tol)
        assert recall >= 0.99
        assert fallout <= 0.01
        assert math.degrees(median_angular_error(gt, tree)) <= 5.0
        assert stats["n_excluded"] == 0


def test_geodesic_mode_runs_end_to_end():
    gt = generate_tree(n_leaves=6, domain_size=100.0, seed=9)
    cloud = sample_centerline(gt, SamplerConfig(spacing=1.0, seed=9))
    cfg = PipelineConfig(mode="geodesic", k=20)
    root = resolve_root(cloud, root_at=gt.positions[gt.root])
    tree, stats, _ = reconstruct_cloud(cloud, cfg, root)
    tree.validate()
    recall, _ = centerline_roc(gt, tree)
    assert recall >= 0.95
    assert stats["mode"] == "geodesic"
    stages = [stats[key] for key in ("neighbors_s", "graph_s", "solve_s")]
    assert min(stages) >= 0.0
    assert sum(stages) == pytest.approx(stats["wall_time_s"])


def write_path_tree(path, start):
    """Hand-written ground truth: a three-node path with no bifurcation."""
    x, y, z = start
    rows = [f"0 -1 {x!r} {y!r} {z!r} 1.0",
            f"1 0 {x + 10.0!r} {y!r} {z!r} 1.0",
            f"2 1 {x + 20.0!r} {y + 5.0!r} {z!r} 1.0"]
    path.write_text("# domain_size 50.0\nroot 0\n" + "\n".join(rows) + "\n")


def test_evaluate_corpus_scores_gt_without_bifurcations(tmp_path):
    corpus, run, out = tmp_path / "corpus", tmp_path / "run", tmp_path / "ev"
    manifest = synth_corpus(corpus, n_trees=2, n_leaves=4, domain_size=50.0,
                            seed=3)
    reconstruct_corpus(corpus, run, PipelineConfig(k=40))
    path_item = manifest["items"][1]
    write_path_tree(corpus / path_item["tree"], path_item["root_position"])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = evaluate_corpus(corpus, run, out)
    by_id = {r["id"]: r for r in rows}
    assert by_id[1]["angular_errors"] == []
    assert math.isnan(by_id[1]["median_angular_error_rad"])
    assert math.isnan(by_id[1]["bifurcation_recall"])
    assert len(by_id[0]["angular_errors"]) > 0
    _, agg = read_csv(out / "aggregate.csv")
    assert float(agg[0][5]) == by_id[0]["bifurcation_recall"]
    assert float(agg[0][7]) == pytest.approx(
        float(np.median(by_id[0]["angular_errors"])))

    # with no bifurcation anywhere the pooled values are NaN, still quietly
    write_path_tree(corpus / manifest["items"][0]["tree"],
                    manifest["items"][0]["root_position"])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        evaluate_corpus(corpus, run, out)
    _, agg = read_csv(out / "aggregate.csv")
    assert math.isnan(float(agg[0][5])) and math.isnan(float(agg[0][7]))
    _, roc = read_csv(out / "roc_bifurcation.csv")
    assert all(math.isnan(float(row[3])) for row in roc)
