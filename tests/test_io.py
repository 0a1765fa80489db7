"""Round-trip tests for the text file formats."""

import math

import numpy as np
import pytest

from vesseltrees.geometry import SampleCloud
from vesseltrees.io import (
    read_csv,
    read_neighbor_pairs,
    read_point_cloud,
    read_tree,
    write_csv,
    write_neighbor_pairs,
    write_point_cloud,
    write_tree,
)
from vesseltrees.graphs import NeighborSystem, knn_neighbors, \
    build_confluent_graph
from vesseltrees.solvers import minimum_arborescence
from vesseltrees.synth import GroundTruthTree, SamplerConfig, generate_tree, \
    sample_centerline


def test_point_cloud_round_trip(tmp_path):
    tree = generate_tree(n_leaves=5, domain_size=100.0, seed=0)
    cloud = sample_centerline(tree, SamplerConfig(
        position_noise_std=0.37, tangent_noise_std_rad=0.21, seed=5))
    path = tmp_path / "cloud.txt"
    write_point_cloud(path, cloud)
    back = read_point_cloud(path)
    np.testing.assert_array_equal(back.positions, cloud.positions)
    np.testing.assert_array_equal(back.tangents, cloud.tangents)
    np.testing.assert_array_equal(back.radii, cloud.radii)


def test_point_cloud_without_radii(tmp_path):
    cloud = SampleCloud([[0, 0, 0], [1, 0, 0]],
                        [[1, 0, 0], [1, 0, 0]])
    path = tmp_path / "cloud.txt"
    write_point_cloud(path, cloud)
    back = read_point_cloud(path)
    assert back.radii is None
    np.testing.assert_array_equal(back.positions, cloud.positions)


def test_point_cloud_errors(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("# only a comment\n")
    with pytest.raises(ValueError):
        read_point_cloud(path)
    path.write_text("1 2 3\n")
    with pytest.raises(ValueError):
        read_point_cloud(path)


def test_ground_truth_tree_round_trip(tmp_path):
    tree = generate_tree(n_leaves=7, domain_size=100.0, seed=1)
    path = tmp_path / "tree.txt"
    write_tree(path, tree)
    back = read_tree(path)
    assert isinstance(back, GroundTruthTree)
    np.testing.assert_array_equal(back.positions, tree.positions)
    np.testing.assert_array_equal(back.radii, tree.radii)
    np.testing.assert_array_equal(back.parent, tree.parent)
    assert back.domain_size == tree.domain_size


def test_vessel_tree_round_trip_with_cloud(tmp_path):
    gt = generate_tree(n_leaves=6, domain_size=100.0, seed=2)
    cloud = sample_centerline(gt, SamplerConfig(seed=0))
    neighbors = knn_neighbors(cloud, k=min(40, len(cloud) - 1))
    graph = build_confluent_graph(cloud, neighbors, epsilon=math.pi / 2)
    tree = minimum_arborescence(graph, 0)
    path = tmp_path / "recon.txt"
    write_tree(path, tree)

    back = read_tree(path, cloud=cloud)
    assert back.root == tree.root
    np.testing.assert_array_equal(back.parent, tree.parent)
    ids = tree.node_ids()
    np.testing.assert_array_equal(back.positions[ids], tree.positions[ids])
    np.testing.assert_array_equal(back.edge_weight[ids],
                                  tree.edge_weight[ids])
    np.testing.assert_array_equal(back.edge_alpha[ids], tree.edge_alpha[ids])
    assert back.total_weight == pytest.approx(tree.total_weight, rel=1e-15)
    has_edge = tree.parent >= 0
    np.testing.assert_array_equal(back.edge_start_tangent[has_edge],
                                  tree.edge_start_tangent[has_edge])

    # without the cloud the parent map and stored values still round-trip
    bare = read_tree(path)
    np.testing.assert_array_equal(bare.parent[: len(tree.parent)],
                                  tree.parent)
    assert bare.edge_start_tangent is None


def test_tree_file_errors(tmp_path):
    path = tmp_path / "tree.txt"
    path.write_text("0 -1 0.0 0.0 0.0 1.0\n")
    with pytest.raises(ValueError, match="root"):
        read_tree(path)
    path.write_text("root 0\n")
    with pytest.raises(ValueError, match="no nodes"):
        read_tree(path)


def test_csv_round_trip(tmp_path):
    header = ["id", "value", "note"]
    rows = [(1, 0.1 + 0.2, "x"), (2, float("nan"), "y"),
            (3, 1.2345678901234567e-12, "z")]
    path = tmp_path / "table.csv"
    write_csv(path, header, rows)
    got_header, got_rows = read_csv(path)
    assert got_header == header
    assert int(got_rows[0][0]) == 1
    assert float(got_rows[0][1]) == 0.1 + 0.2
    assert math.isnan(float(got_rows[1][1]))
    assert float(got_rows[2][1]) == 1.2345678901234567e-12


def test_neighbor_pairs_round_trip(tmp_path):
    system = NeighborSystem(k=2, pairs=np.array([[0, 1], [1, 2], [0, 3]]))
    path = tmp_path / "pairs.csv"
    write_neighbor_pairs(path, system)
    back = read_neighbor_pairs(path)
    np.testing.assert_array_equal(back.pairs, system.pairs)


def test_neighbor_pairs_header_only_and_malformed(tmp_path, recwarn):
    path = tmp_path / "pairs.csv"
    path.write_text("u,v\n")
    back = read_neighbor_pairs(path)
    assert back.pairs.shape == (0, 2)
    assert back.pairs.dtype == np.int64
    assert len(recwarn) == 0
    for body in ("u,v\n0,1\n2,x\n", "u,v\n0,1,2\n", "u,v\n0\n",
                 "u,v\n0,1\n2\n"):
        path.write_text(body)
        with pytest.raises(ValueError):
            read_neighbor_pairs(path)


def test_nan_samples_rejected(tmp_path):
    path = tmp_path / "cloud.txt"
    path.write_text("0 0 0 1 0 0\n1 0 0 nan nan nan\n")
    with pytest.raises(ValueError, match="unit vectors"):
        read_point_cloud(path)
    path.write_text("0 0 0 1 0 0 1.0\n1 0 0 1 0 0 nan\n")
    with pytest.raises(ValueError, match="radii"):
        read_point_cloud(path)


@pytest.mark.parametrize("body, message", [
    # ground truth: a 2-node parent cycle, a parent out of range, no root
    ("root 0\n0 -1 0 0 0 1\n1 2 1 0 0 1\n2 1 2 0 0 1\n", "cycle detected"),
    ("root 0\n0 -1 0 0 0 1\n1 7 1 0 0 1\n", r"parent ids must lie in"),
    ("root 0\n0 1 0 0 0 1\n1 0 1 0 0 1\n", "root must map to no parent"),
    # reconstruction: root out of range, negative node id
    ("root 9\n0 -1 0 0 0 nan nan nan\n", "root must map to no parent"),
    ("root 0\n0 -1 0 0 0 nan nan nan\n-1 0 1 0 0 0 1 1\n", "node ids"),
], ids=["gt-cycle", "gt-parent-range", "gt-no-root", "root-range",
        "negative-node-id"])
def test_malformed_tree_files_fail_loudly(tmp_path, body, message):
    path = tmp_path / "tree.txt"
    path.write_text(body)
    with pytest.raises(ValueError, match=message) as info:
        read_tree(path)
    assert str(info.value).startswith(f"{path}: ")
