"""Round-trip tests for the text file formats."""

import itertools
import math
import re
import tracemalloc
from decimal import Decimal

import numpy as np
import pytest

from vesseltrees import io as vio
from vesseltrees.geometry import SampleCloud
from vesseltrees.io import (
    read_csv,
    read_neighbor_pairs,
    read_point_cloud,
    read_tree,
    write_csv,
    write_csv_columns,
    write_neighbor_pairs,
    write_point_cloud,
    write_tree,
)
from vesseltrees.graphs import NeighborSystem, knn_neighbors, \
    build_confluent_graph
from vesseltrees.solvers import minimum_arborescence
from vesseltrees.synth import GroundTruthTree, SamplerConfig, generate_tree, \
    sample_centerline
from vesseltrees.trees import EXCLUDED


def per_cell_text(header, ints, floats):
    """File text with every cell formatted on its own, ``str(int(x))`` or
    ``repr(float(x))``: the reference for the column-wise writers."""
    rows = [" ".join([*(str(int(column[i])) for column in ints),
                      *(repr(float(column[i])) for column in floats)])
            for i in range(len(floats[0]))]
    return "\n".join([*header, *rows]) + "\n"


def cloud_text(cloud):
    columns = [*cloud.positions.T, *cloud.tangents.T]
    header = "# x y z tx ty tz"
    if cloud.radii is not None:
        columns.append(cloud.radii)
        header += " r"
    return per_cell_text([header], [], columns)


def tree_text(tree):
    ids = tree.node_ids()
    if isinstance(tree, GroundTruthTree):
        header = [f"# domain_size {float(tree.domain_size)!r}",
                  f"root {tree.root}", "# node parent x y z radius"]
        data = [tree.radii]
    else:
        header = [f"root {tree.root}",
                  "# node parent x y z alpha length weight"]
        data = [tree.edge_alpha, tree.edge_length, tree.edge_weight]
    return per_cell_text(header, [ids, tree.parent[ids]],
                         [*tree.positions[ids].T,
                          *(column[ids] for column in data)])


def test_point_cloud_round_trip(tmp_path):
    tree = generate_tree(n_leaves=5, domain_size=100.0, seed=0)
    cloud = sample_centerline(tree, SamplerConfig(
        position_noise_std=0.37, tangent_noise_std_rad=0.21, seed=5))
    path = tmp_path / "cloud.txt"
    write_point_cloud(path, cloud)
    assert path.read_text() == cloud_text(cloud)
    back = read_point_cloud(path)
    np.testing.assert_array_equal(back.positions, cloud.positions)
    np.testing.assert_array_equal(back.tangents, cloud.tangents)
    np.testing.assert_array_equal(back.radii, cloud.radii)


def test_point_cloud_without_radii(tmp_path):
    cloud = SampleCloud([[0, 0, 0], [1, 0, 0]],
                        [[1, 0, 0], [1, 0, 0]])
    path = tmp_path / "cloud.txt"
    write_point_cloud(path, cloud)
    assert path.read_text() == cloud_text(cloud)
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
    assert path.read_text() == tree_text(tree)
    assert path.read_text().startswith(
        f"# domain_size {tree.domain_size!r}\n")
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
    assert path.read_text() == tree_text(tree)
    assert f"\n{tree.root} -1 " in path.read_text()    # the NaN root row

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

    # excluded leaves leave no row; an inf length is written as inf
    leaves = np.setdiff1d(tree.edge_children(), tree.parent)
    tree.parent[leaves[:2]] = EXCLUDED
    for column in (tree.edge_alpha, tree.edge_length, tree.edge_weight):
        column[leaves[:2]] = np.nan
    tree.edge_length[leaves[2]] = np.inf
    write_tree(path, tree)
    text = path.read_text()
    assert text == tree_text(tree) and " inf " in text
    assert len(text.splitlines()) == 2 + tree.n_nodes
    back = read_tree(path, cloud=cloud)
    for name in ("parent", "edge_alpha", "edge_length", "edge_weight"):
        assert getattr(back, name).tobytes() == getattr(tree, name).tobytes()


def test_tree_file_errors(tmp_path):
    path = tmp_path / "tree.txt"
    path.write_text("0 -1 0.0 0.0 0.0 1.0\n")
    with pytest.raises(ValueError, match="root"):
        read_tree(path)
    path.write_text("root 0\n")
    with pytest.raises(ValueError, match="no nodes"):
        read_tree(path)
    path.write_text("root 0\n0 -1 0 0 0 nan nan nan\n5 0 1 0 0 0 1 1\n")
    cloud = SampleCloud(np.arange(9.0).reshape(3, 3),
                        np.tile([1.0, 0.0, 0.0], (3, 1)))
    with pytest.raises(ValueError, match=re.escape(
            f"{path}: tree references node 5 but the cloud has 3 samples")):
        read_tree(path, cloud=cloud)


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


def test_csv_read_errors_name_the_file(tmp_path):
    # an empty file has no header; a row of another length names its line
    path = tmp_path / "table.csv"
    path.write_text("")
    with pytest.raises(ValueError, match=re.escape(f"{path}: no header")):
        read_csv(path)
    for body, line in (("a,b,c\n1,2,3\n\n4,5\n", 4), ("a,b\n1,2,3\n", 2)):
        path.write_text(body)
        with pytest.raises(ValueError, match=re.escape(
                f"{path}:{line}: expected")):
            read_csv(path)


def test_neighbor_pairs_round_trip(tmp_path, monkeypatch):
    system = NeighborSystem(k=2, pairs=np.array([[0, 1], [1, 2], [0, 3]]))
    path = tmp_path / "pairs.csv"
    write_neighbor_pairs(path, system)
    back = read_neighbor_pairs(path)
    np.testing.assert_array_equal(back.pairs, system.pairs)
    # the same bytes as a CSV of integer cells, in blocks of any size
    cloud = sample_centerline(generate_tree(n_leaves=3, domain_size=40.0,
                                            seed=4), SamplerConfig(seed=4))
    everything = knn_neighbors(cloud, len(cloud) - 1).pairs
    for pairs in (system.pairs, np.empty((0, 2), dtype=np.int64),
                  everything):
        write_csv(tmp_path / "cells.csv", ["u", "v"], pairs.tolist())
        for block in (1, 7, max(len(pairs), 1)):
            monkeypatch.setattr(vio, "_ROW_BLOCK", block)
            write_neighbor_pairs(path, NeighborSystem(k=2, pairs=pairs))
            assert path.read_bytes() == \
                (tmp_path / "cells.csv").read_bytes()
    assert read_neighbor_pairs(path, cloud=cloud).pairs.tobytes() == \
        everything.tobytes()


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


def test_neighbor_pairs_out_of_range_or_unordered(tmp_path):
    # -1 would index the last sample and a pair past the cloud would raise
    # a bare IndexError where the pairs are scored, so both are refused
    path = tmp_path / "pairs.csv"
    cloud = SampleCloud(np.arange(12.0).reshape(4, 3),
                        np.tile([1.0, 0.0, 0.0], (4, 1)))
    path.write_text("u,v\n0,3\n1,2\n")
    assert read_neighbor_pairs(path, cloud=cloud).pairs.tolist() == \
        [[0, 3], [1, 2]]
    for body, message in (("u,v\n-1,3\n", "pair ids must be >= 0"),
                          ("u,v\n2,2\n", "u < v"),
                          ("u,v\n0,1\n3,1\n", "u < v"),
                          ("u,v\n0,4\n", "references node 4 but the "
                                          "cloud has 4 samples")):
        path.write_text(body)
        with pytest.raises(ValueError, match=re.escape(str(path))) as err:
            read_neighbor_pairs(path, cloud=cloud)
        assert message in str(err.value)
    path.write_text("u,v\n0,4\n")      # without a cloud there is no bound
    assert read_neighbor_pairs(path).pairs.tolist() == [[0, 4]]


def test_row_blocks_give_the_bytes_of_cells(tmp_path, monkeypatch):
    gt = generate_tree(n_leaves=3, domain_size=40.0, seed=4)
    cloud = sample_centerline(gt, SamplerConfig(seed=4))
    tree = minimum_arborescence(build_confluent_graph(
        cloud, knn_neighbors(cloud, 8), epsilon=math.pi / 2), 0)
    ints = np.arange(len(cloud)) * 7
    # every block in numpy passes, then every block cell by cell
    for rows, block in itertools.product((1, math.inf), (1, 7, len(cloud))):
        monkeypatch.setattr(vio, "_VECTOR_ROWS", rows)
        monkeypatch.setattr(vio, "_ROW_BLOCK", block)
        write_point_cloud(tmp_path / "cloud.txt", cloud)
        assert (tmp_path / "cloud.txt").read_text() == cloud_text(cloud)
        write_tree(tmp_path / "tree.txt", tree)
        assert (tmp_path / "tree.txt").read_text() == tree_text(tree)
        write_csv_columns(tmp_path / "cols.csv", ["i", "x"],
                          [ints, cloud.radii])
        assert (tmp_path / "cols.csv").read_text() == per_cell_text(
            ["i,x"], [ints], [cloud.radii]).replace(" ", ",")
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["cloud.txt", "cols.csv", "tree.txt"]     # no temp file left


def test_nan_samples_rejected(tmp_path):
    path = tmp_path / "cloud.txt"
    path.write_text("0 0 0 1 0 0\n1 0 0 nan nan nan\n")
    with pytest.raises(ValueError, match="unit vectors"):
        read_point_cloud(path)
    path.write_text("0 0 0 1 0 0 1.0\n1 0 0 1 0 0 nan\n")
    with pytest.raises(ValueError, match="radii"):
        read_point_cloud(path)


@pytest.mark.parametrize("radius", [math.inf, math.nan, -1.0])
def test_in_memory_radii_are_refused_as_their_readers_refuse_them(tmp_path,
                                                                 radius):
    # what passes a cloud's or a tree's own checks reads back
    with pytest.raises(ValueError, match="radii must be finite and >= 0"):
        SampleCloud([[0, 0, 0], [1, 0, 0]], [[1, 0, 0]] * 2, [1.0, radius])
    tree = GroundTruthTree(positions=[[0, 0, 0], [1, 0, 0]],
                           radii=[1.0, radius], parent=[-1, 0],
                           domain_size=10.0)
    with pytest.raises(ValueError, match="radii must be finite and >= 0"):
        tree.validate()
    tree.radii[1] = 0.5
    tree.validate()
    write_tree(tmp_path / "tree.txt", tree)
    assert read_tree(tmp_path / "tree.txt").radii.tolist() == [1.0, 0.5]
    cloud = SampleCloud([[0, 0, 0], [1, 0, 0]], [[1, 0, 0]] * 2, [1.0, 0.0])
    write_point_cloud(tmp_path / "cloud.txt", cloud)
    assert read_point_cloud(tmp_path / "cloud.txt").radii.tolist() == \
        [1.0, 0.0]


@pytest.mark.parametrize("name, body, line, message", [
    ("tree", "1 0 0 0 0 nan", 5, "radii must be finite and >= 0"),
    ("tree", "1 0 0 0 0 -1.0", 5, "radii must be finite and >= 0"),
    ("tree", "1 0 0 0 0 inf", 5, "radii must be finite and >= 0"),
    ("tree", "1 0 nan 0 0 1", 5, "positions must be finite"),
    ("tree", "1 0 0 -inf 0 1", 5, "positions must be finite"),
    ("recon", "1 0 0 0 0 0 nan 1", 5, "alpha, length and weight must be"),
    ("recon", "1 0 0 0 0 0 1 -2", 5, "alpha, length and weight must be"),
    ("recon", "1 0 0 nan 0 0 1 1", 5, "positions must be finite"),
    ("cloud", "nan 0 0 1 0 0", 4, "positions must be finite"),
    ("cloud", "0 0 0 inf 0 0", 4, "tangents must be finite unit vectors"),
    ("cloud", "0 0 0 1 0 0 -1.0", 4, "radii must be finite and >= 0"),
    ("cloud", "0 0 0 1 0 0 inf", 4, "radii must be finite and >= 0"),
    ("tree", "1 -2 0 0 0 1", 5, "a ground-truth parent must be a node id"),
    ("tree", "1 -5 0 0 0 1", 5, "a ground-truth parent must be a node id"),
    ("cloud", "0 0 0 2 0 0", 4, "tangents must be finite unit vectors"),
    ("cloud", "0 0 0 0 0 0", 4, "tangents must be finite unit vectors"),
    ("cloud", "0 0 0 0.6 0.8 0.01", 4, "tangents must be finite unit vectors"),
    ("cloud", "0 0 0 1.000002 0 0", 4, "tangents must be finite unit vectors"),
    ("recon", "1 -2 1 0 0 0 1 1", 5, "a parent must be a node id, or -1 at"),
    ("recon", "1 -5 1 0 0 0 1 1", 5, "a parent must be a node id, or -1 at"),
], ids=["gt-radius-nan", "gt-radius-negative", "gt-radius-inf",
        "gt-x-nan", "gt-y-inf", "recon-length-nan", "recon-weight-negative",
        "recon-y-nan", "cloud-x-nan", "cloud-tangent-inf",
        "cloud-radius-negative", "cloud-radius-inf", "gt-parent-excluded",
        "gt-parent-below", "cloud-tangent-long", "cloud-tangent-zero",
        "cloud-tangent-off-unit", "cloud-tangent-just-off-unit",
        "recon-parent-excluded", "recon-parent-below"])
def test_values_a_table_cannot_hold_fail_naming_their_line(tmp_path, name,
                                                           body, line,
                                                           message):
    # The bad row follows a comment, a blank line and a good row, so the
    # line named is the file's, not the row's.
    path = tmp_path / f"{name}.txt"
    if name == "cloud":
        width = len(body.split())
        good = "1 0 0 1 0 0" + " 1.0" * (width == 7)
        text = f"# x y z tx ty tz\n\n{good}\n{body}\n{good}\n"
        read = read_point_cloud
    else:
        root = "0 -1 0 0 0 " + ("1" if name == "tree" else "nan nan nan")
        text = f"root 0\n# node parent\n\n{root}\n{body}\n"
        read = read_tree
    path.write_text(text)
    with pytest.raises(ValueError, match=re.escape(
            f"{path}:{line}: {message}")):
        read(path)


GT_CHAIN = "".join(f"{i} {i - 1} {i} 0 0 1\n" for i in range(8))


@pytest.mark.parametrize("header", ["root 3", "root 9", "root -1"])
def test_ground_truth_root_header_must_name_the_root(tmp_path, header):
    # an 8-node chain rooted at node 0; the header names another node
    path = tmp_path / "tree.txt"
    path.write_text(f"# node parent x y z radius\n{header}\n{GT_CHAIN}")
    with pytest.raises(ValueError, match=re.escape(
            f"{path}:2: {header} is not the node without a parent, 0")):
        read_tree(path)
    path.write_text(f"root 0\n{GT_CHAIN}")
    assert read_tree(path).root == 0


@pytest.mark.parametrize("header", ["root 9", "root 1", "root -1"],
                         ids=["root-range", "root-with-parent",
                              "root-negative"])
def test_reconstruction_root_line_must_name_a_node_without_a_parent(
        tmp_path, header):
    path = tmp_path / "tree.txt"
    path.write_text(f"# node parent x y z alpha length weight\n{header}\n"
                    "0 -1 0 0 0 nan nan nan\n1 0 1 0 0 0 1 1\n")
    with pytest.raises(ValueError, match=re.escape(
            f"{path}:2: {header} is not a node without a parent")):
        read_tree(path)


def test_unit_tangents_read_to_the_sample_cloud_tolerance(tmp_path):
    # 1e-6 off unit length is what a SampleCloud accepts, and so does the
    # reader
    path = tmp_path / "cloud.txt"
    path.write_text("0 0 0 1.0000009 0 0\n1 0 0 0 0.9999991 0\n"
                    "2 0 0 0.6 0.8 0\n")
    cloud = read_point_cloud(path)
    assert cloud.tangents[:, :2].tolist() == [[1.0000009, 0.0],
                                              [0.0, 0.9999991], [0.6, 0.8]]


@pytest.mark.parametrize("body, message", [
    # ground truth: a 2-node parent cycle, a parent out of range, no root
    ("root 0\n0 -1 0 0 0 1\n1 2 1 0 0 1\n2 1 2 0 0 1\n", "cycle detected"),
    ("root 0\n0 -1 0 0 0 1\n1 7 1 0 0 1\n", r"parent ids must lie in"),
    ("root 0\n0 1 0 0 0 1\n1 0 1 0 0 1\n", "root must map to no parent"),
    # reconstruction: negative node id
    ("root 0\n0 -1 0 0 0 nan nan nan\n-1 0 1 0 0 0 1 1\n", "node ids"),
    # header lines without their value, or with one that does not parse
    ("root\n0 -1 0 0 0 1\n", "line 1: bad header 'root'"),
    ("root 0\n0 -1 0 0 0 1\nroot x\n", "line 3: bad header 'root x'"),
    ("# domain_size\nroot 0\n0 -1 0 0 0 1\n", "line 1: bad header"),
], ids=["gt-cycle", "gt-parent-range", "gt-no-root", "negative-node-id",
        "bare-root", "root-not-int", "bare-domain-size"])
def test_malformed_tree_files_fail_loudly(tmp_path, body, message):
    path = tmp_path / "tree.txt"
    path.write_text(body)
    with pytest.raises(ValueError, match=message) as info:
        read_tree(path)
    assert str(info.value).startswith(f"{path}: ")


def test_text_read_errors_name_the_line(tmp_path):
    # One loadtxt reads a well-formed file; a malformed one is re-read line
    # by line for a message that names the offending line.
    path = tmp_path / "cloud.txt"
    path.write_text("# x y z tx ty tz\n0 0 0 1 0 0\n1 0 0 1 0\n")
    with pytest.raises(ValueError, match=r"cloud\.txt:3: expected 6 or 7"):
        read_point_cloud(path)
    path.write_text("0 0 0 1 0 0\n1 0 0 1 0 0 2.0\n")
    with pytest.raises(ValueError, match="inconsistent column counts"):
        read_point_cloud(path)
    path = tmp_path / "tree.txt"
    path.write_text("root 0\n# node parent x y z radius\n0 -1 0 0 0 1\n"
                    "1 0 1 0 0\n")
    with pytest.raises(ValueError, match=r"tree\.txt:4: expected 6 or 8"):
        read_tree(path)
    for ids in ("1.0 0", "1 0x1"):   # ids must be integers
        path.write_text(f"root 0\n0 -1 0 0 0 1\n{ids} 1 0 0 1\n")
        with pytest.raises(ValueError):
            read_tree(path)
    path.write_text("root 0\n0 -1 0 0 0 nan nan nan\n"
                    "1 0 1 0 0 0 1 1\n1 0 2 0 0 0 2 2\n")
    with pytest.raises(ValueError, match="node ids must be distinct"):
        read_tree(path)


def test_tree_read_in_any_line_layout(tmp_path):
    # Header lines among or after the rows, inline comments and a blank
    # line read to the same arrays as write_tree's layout.
    gt = generate_tree(n_leaves=4, domain_size=50.0, seed=4)
    cloud = sample_centerline(gt, SamplerConfig(seed=1))
    graph = build_confluent_graph(cloud, knn_neighbors(cloud, 20),
                                  epsilon=math.pi / 2)
    for tree in (gt, minimum_arborescence(graph, 0)):
        path = tmp_path / "tree.txt"
        write_tree(path, tree)
        lines = path.read_text().splitlines()
        header = [line for line in lines if not line[0].isdigit()
                  and not line.startswith("-")]
        rows = [line for line in lines if line not in header]
        shuffled = tmp_path / "shuffled.txt"
        shuffled.write_text("\n".join(
            rows[:3] + [header[-1]] + [rows[3] + "  # note", ""]
            + rows[4:] + header[:-1]) + "\n")
        kept, moved = read_tree(path), read_tree(shuffled)
        assert type(kept) is type(moved) and kept.root == moved.root
        for name in ("parent", "positions", "radii", "edge_weight",
                     "edge_alpha", "edge_length"):
            a, b = getattr(kept, name, None), getattr(moved, name, None)
            assert (a is None and b is None) or a.tobytes() == b.tobytes()
        assert getattr(kept, "domain_size", 0) == \
            getattr(moved, "domain_size", 0)


def test_csv_columns_give_the_bytes_of_rows(tmp_path):
    ints = np.array([3, 0, 12], dtype=np.int32)
    floats = np.array([0.1, np.nan, -np.inf])
    write_csv(tmp_path / "rows.csv", ["i", "x", "y"],
              [(int(i), float(x), float(y))
               for i, x, y in zip(ints, floats, floats * 3.0)])
    write_csv_columns(tmp_path / "cols.csv", ["i", "x", "y"],
                      [ints, floats, floats * 3.0])
    assert (tmp_path / "rows.csv").read_bytes() == \
        (tmp_path / "cols.csv").read_bytes()
    write_csv_columns(tmp_path / "empty.csv", ["u"], [np.empty(0, int)])
    assert (tmp_path / "empty.csv").read_text() == "u\n"


@pytest.mark.parametrize("sep", [",", " "])
def test_integer_tables_give_the_bytes_of_cells(tmp_path, monkeypatch, sep):
    # digit-count edges, signs and 0, in a 64-bit and a 32-bit column
    wide = np.array([0, 9, 10, 99, 100, -1, -9, -10, -99, -100, 10**18,
                     -10**18, 2**63 - 1, -2**63], dtype=np.int64)
    narrow = np.resize(np.array([7, -2**31, 2**31 - 1, 0, -5, 1000],
                                dtype=np.int32), wide.size)
    path = tmp_path / "ints.txt"
    for rows in (wide.size, 1, 0):
        columns = [wide[:rows], narrow[:rows], wide[::-1][:rows]]
        expected = "".join(
            f"{sep.join(str(int(column[i])) for column in columns)}\n"
            for i in range(rows))
        for vector_rows, block in itertools.product(
                (1, math.inf), (1, 7, max(rows, 1))):
            monkeypatch.setattr(vio, "_VECTOR_ROWS", vector_rows)
            monkeypatch.setattr(vio, "_ROW_BLOCK", block)
            vio._write_rows(path, ["# a b c"], columns, sep)
            assert path.read_bytes() == ("# a b c\n" + expected).encode()


def awkward_floats(rng, n):
    """Float64 cells of every kind ``_numeric_rows_text`` must write as
    ``str`` does, either sign: random magnitudes, decimals and bit
    patterns; the edges of its fast range and of ``repr``'s exponent form,
    each with its neighbours; every power of two with its neighbours;
    exact ties between two shortest decimals; zeros and non-finite
    values."""
    edges = np.array([5e-324, 2.2250738585072014e-308, 1e-5, 1e-4, 1e15,
                      1e16, 1.7976931348623157e308])
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    cells = np.concatenate([
        np.nextafter(edges, 0.0), edges, np.nextafter(edges[:-1], np.inf),
        np.nextafter(powers, 0.0), powers, np.nextafter(powers[:-1], np.inf),
        [0.0, -0.0, np.nan, np.inf, -np.inf, 0.1, 2.675, 700.0, 1 / 3],
        exact_ties(rng, 64),
        10.0 ** rng.uniform(-324.0, 300.0, n),   # 0.0 below 5e-324
        rng.normal(size=n), rng.uniform(-1e3, 1e3, n),
        rng.integers(0, 10 ** 6, n) / 10.0 ** rng.integers(0, 7, n),
        rng.integers(0, 2 ** 64, n, dtype=np.uint64).view(np.float64),
    ])
    sign = rng.integers(0, 2, cells.size, dtype=np.uint64) << np.uint64(63)
    return (cells.view(np.uint64) ^ sign).view(np.float64)  # NaN too


def exact_ties(rng, n):
    """Floats halfway between their two nearest 17-digit decimals, such
    as 3483597379286.6562 (= 3483597379286.65625), where every 16-digit
    decimal lies outside the interval that reads back as the float."""
    whole = rng.integers(2 ** 41, 2 ** 42, n).astype(float)
    return np.append(whole + (2 * rng.integers(0, 16, n) + 1) / 32,
                     3483597379286.6562)


def str_rows(columns, sep):
    """The reference rows: ``str`` of every cell that ``tolist`` gives."""
    return "".join(sep.join(map(str, row)) + "\n"
                   for row in zip(*(column.tolist() for column in columns)))


@pytest.mark.parametrize("sep", [",", " "])
def test_numpy_rows_give_the_bytes_of_str_cells(tmp_path, monkeypatch, sep):
    monkeypatch.setattr(vio, "_VECTOR_ROWS", 1)
    path = tmp_path / "cells.txt"
    ints = np.array([0, 1, -1, 9, 10, -10, 2 ** 31 - 1, -2 ** 31, 10 ** 18,
                     2 ** 63 - 1, -2 ** 63], dtype=np.int64)
    for seed in range(3):
        rng = np.random.default_rng(seed)
        wide = awkward_floats(rng, 2000)
        n = wide.size
        narrow = np.concatenate([
            rng.integers(0, 2 ** 32, n // 2, dtype=np.uint32)
            .view(np.float32), rng.normal(size=n - n // 2)
            .astype(np.float32)])
        columns = [rng.permutation(wide), np.resize(ints, n), narrow,
                   np.resize(ints.astype(np.int32, casting="unsafe"), n),
                   wide]
        for rows, block in ((n, n), (30, 1), (30, 7)):
            monkeypatch.setattr(vio, "_ROW_BLOCK", block)
            head = [column[:rows] for column in columns]
            vio._write_rows(path, [], head, sep)
            assert path.read_text() == str_rows(head, sep)


def is_tie(x):
    """Whether a second decimal as short as ``repr(x)`` reads back as ``x``
    and lies exactly as near it."""
    text = Decimal(repr(x)).normalize()
    step = Decimal(1).scaleb(text.as_tuple().exponent)
    other = text + step if Decimal(x) > text else text - step
    return float(other) == x and abs(Decimal(x) - text) == \
        abs(Decimal(x) - other)


def test_shortest_digits_prove_every_cell_in_range_but_ties():
    # ``str`` writes only the cells the exact path does not prove: out of
    # [1e-4, 1e15), or a tie, which is common only for large cells
    digits, count, decpt, ok = vio._shortest_digits(
        np.array([0.1, 2.675, 700.0, 1e-4, 999999999999999.9]))
    assert digits.tolist() == [1, 2675, 7, 1, 9999999999999999]
    assert count.tolist() == [1, 4, 1, 1, 16]
    assert decpt.tolist() == [0, 1, 3, -3, 15] and ok.all()
    rng = np.random.default_rng(0)
    cells = 10.0 ** rng.uniform(-4.0, 15.0, 20_000)
    cells[::2] *= -1.0
    ok = vio._shortest_digits(cells)[3]
    assert 0 < (~ok).sum() < 2000
    assert all(map(is_tie, cells[~ok].tolist()))
    assert not any(map(is_tie, cells[ok][:2000].tolist()))
    ties = exact_ties(rng, 64)
    assert not vio._shortest_digits(ties)[3].any()
    assert all(map(is_tie, ties.tolist()))


def test_neighbor_pairs_must_not_repeat(tmp_path):
    # connectivity_roc would score each copy of a repeated pair
    path = tmp_path / "pairs.csv"
    path.write_text("u,v\n2,3\n0,1\n1,2\n")      # any order is accepted
    assert read_neighbor_pairs(path).pairs.tolist() == [[2, 3], [0, 1],
                                                        [1, 2]]
    for body in ("u,v\n0,1\n0,1\n", "u,v\n0,1\n1,2\n2,3\n1,2\n",
                 "u,v\n1,2\n0,5\n1,2\n0,3\n"):
        path.write_text(body)
        with pytest.raises(ValueError, match=re.escape(str(path))) as err:
            read_neighbor_pairs(path)
        assert "is listed more than once" in str(err.value)


def test_read_errors_name_the_file(tmp_path):
    path = tmp_path / "pairs.csv"
    path.write_text("u,v\n0,1.5\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}: ")):
        read_neighbor_pairs(path)
    path = tmp_path / "manifest.json"
    path.write_text('{"items": [1,}')
    with pytest.raises(ValueError, match=re.escape(f"{path}: ")):
        vio.read_json(path)


def traced_peak(fn):
    """Bytes allocated at the peak of ``fn()`` beyond its start."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_row_writer_working_set_does_not_grow_with_rows(tmp_path):
    rng = np.random.default_rng(3)
    columns = [np.arange(40_000), rng.integers(-1, 40_000, 40_000),
               *rng.normal(scale=300.0, size=(6, 40_000))]
    peaks = [traced_peak(lambda: vio._write_rows(
        tmp_path / "rows.txt", ["# head"], [c[:rows] for c in columns], " "))
        for rows in (20_000, 40_000)]
    # about 130 bytes a cell of one block of rows, whatever the row count
    assert max(peaks) <= 200 * len(columns) * vio._ROW_BLOCK
    assert peaks[1] <= peaks[0] + 64 * 1024


def test_point_cloud_reader_working_set_is_a_few_times_its_text(tmp_path):
    tree = generate_tree(n_leaves=64, domain_size=400.0, seed=2)
    cloud = sample_centerline(tree, SamplerConfig(
        position_noise_std=0.3, tangent_noise_std_rad=0.1, seed=2))
    path = tmp_path / "cloud.txt"
    write_point_cloud(path, cloud)
    assert len(cloud) >= 4000
    assert traced_peak(lambda: read_point_cloud(path)) \
        <= 3 * path.stat().st_size
