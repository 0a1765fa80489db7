"""Text file formats: point clouds, tree files, manifests, CSV reports.

Point clouds are whitespace-separated ``x y z tx ty tz [r]`` rows; tree
files start with a ``root <index>`` header followed by per-node rows,
``node parent x y z radius`` for ground truth and ``node parent x y z
alpha length weight`` for reconstructions (the root row carries ``nan``
edge fields). ``#`` starts a comment in either format. Floats are written
with ``repr`` so every file round-trips bit-exactly. All writes go through
a temp file and an atomic rename.
"""

from __future__ import annotations

import csv
import json
import os
import tempfile
import warnings

import numpy as np

from .geometry import SampleCloud
from .graphs import NeighborSystem
from .solvers import VesselTree
from .synth import GroundTruthTree
from .trees import EXCLUDED


def _fmt(value) -> str:
    return repr(float(value))


def atomic_write_text(path, text: str):
    path = os.fspath(path)
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)),
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_point_cloud(path, cloud: SampleCloud):
    lines = ["# x y z tx ty tz" + (" r" if cloud.radii is not None else "")]
    for i in range(len(cloud)):
        cols = [*cloud.positions[i], *cloud.tangents[i]]
        if cloud.radii is not None:
            cols.append(cloud.radii[i])
        lines.append(" ".join(_fmt(c) for c in cols))
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_point_cloud(path) -> SampleCloud:
    rows = []
    with open(path) as fh:
        for line_no, line in enumerate(fh, 1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            cols = body.split()
            if len(cols) not in (6, 7):
                raise ValueError(f"{path}:{line_no}: expected 6 or 7 columns,"
                                 f" got {len(cols)}")
            rows.append([float(c) for c in cols])
    if not rows:
        raise ValueError(f"{path}: no samples found")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise ValueError(f"{path}: inconsistent column counts {widths}")
    data = np.array(rows)
    radii = data[:, 6] if data.shape[1] == 7 else None
    return SampleCloud(data[:, 0:3], data[:, 3:6], radii)


def write_tree(path, tree):
    """Serialize a VesselTree or GroundTruthTree, one row per node."""
    lines = []
    if isinstance(tree, GroundTruthTree):
        lines.append(f"# domain_size {_fmt(tree.domain_size)}")
        names, data = "radius", [tree.radii]
    else:
        names = "alpha length weight"
        data = [tree.edge_alpha, tree.edge_length, tree.edge_weight]
    lines += [f"root {tree.root}", f"# node parent x y z {names}"]
    for i in tree.node_ids():
        cols = [str(int(i)), str(int(tree.parent[i])),
                *(_fmt(c) for c in tree.positions[i]),
                *(_fmt(column[i]) for column in data)]
        lines.append(" ".join(cols))
    atomic_write_text(path, "\n".join(lines) + "\n")


def _parse_tree_rows(path):
    root = None
    domain_size = None
    rows = []
    with open(path) as fh:
        for line_no, line in enumerate(fh, 1):
            stripped = line.strip()
            if stripped.startswith("# domain_size"):
                domain_size = float(stripped.split()[2])
                continue
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            cols = body.split()
            if cols[0] == "root":
                root = int(cols[1])
                continue
            if len(cols) not in (6, 8):
                raise ValueError(f"{path}:{line_no}: expected 6 or 8 columns,"
                                 f" got {len(cols)}")
            rows.append((int(cols[0]), int(cols[1]),
                         [float(c) for c in cols[2:]]))
    if root is None:
        raise ValueError(f"{path}: missing 'root <index>' header")
    if not rows:
        raise ValueError(f"{path}: no nodes found")
    widths = {len(r[2]) for r in rows}
    if len(widths) != 1:
        raise ValueError(f"{path}: inconsistent column counts")
    return root, domain_size, rows, widths.pop()


def read_tree(path, cloud: SampleCloud | None = None):
    """Load a tree file; 6-column files parse as ground truth.

    For reconstructed trees a sample cloud may be supplied to recover the
    per-edge arc geometry (start tangents); without it edges resample as
    straight chords while keeping the stored alpha/length/weight values.
    A tree that fails ``validate()`` raises ValueError naming the file.
    """
    root, domain_size, rows, width = _parse_tree_rows(path)
    if width == 4:  # node parent + 4 floats: ground truth with radius
        n = len(rows)
        ids = sorted(r[0] for r in rows)
        if ids != list(range(n)):
            raise ValueError(f"{path}: ground-truth node ids must be "
                             "contiguous from 0")
        positions = np.zeros((n, 3))
        radii = np.zeros(n)
        parent = np.zeros(n, dtype=np.int64)
        for node, par, vals in rows:
            positions[node] = vals[0:3]
            radii[node] = vals[3]
            parent[node] = par
        tree = GroundTruthTree(positions=positions, radii=radii,
                               parent=parent,
                               domain_size=domain_size or 0.0)
    else:
        if min(r[0] for r in rows) < 0:
            raise ValueError(f"{path}: node ids must be >= 0")
        n = max(r[0] for r in rows) + 1
        if cloud is not None:
            if len(cloud) < n:
                raise ValueError(f"{path}: tree references node {n - 1} but "
                                 f"the cloud has {len(cloud)} samples")
            n = len(cloud)
        parent = np.full(n, EXCLUDED, dtype=np.int64)
        positions = np.full((n, 3), np.nan)
        edge_alpha = np.full(n, np.nan)
        edge_length = np.full(n, np.nan)
        edge_weight = np.full(n, np.nan)
        for node, par, vals in rows:
            parent[node] = par
            positions[node] = vals[0:3]
            edge_alpha[node] = vals[3]
            edge_length[node] = vals[4]
            edge_weight[node] = vals[5]
        total = float(np.sum(edge_weight[parent >= 0]))
        tree = VesselTree(root=root, parent=parent, positions=positions,
                          edge_weight=edge_weight, edge_alpha=edge_alpha,
                          edge_length=edge_length, total_weight=total)
    try:
        tree.validate()
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if cloud is not None and width != 4:   # arcs start at the parent sample
        positions[parent == EXCLUDED] = cloud.positions[parent == EXCLUDED]
        has_edge = parent >= 0
        tree.edge_start_tangent = np.full((n, 3), np.nan)
        tree.edge_start_tangent[has_edge] = cloud.tangents[parent[has_edge]]
    return tree


def write_json(path, payload: dict):
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True)
                      + "\n")


def read_json(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def write_csv(path, header, rows):
    """CSV with repr-formatted floats so numeric cells round-trip."""
    out = []
    for row in rows:
        out.append([_fmt(c) if isinstance(c, float) else str(c)
                    for c in row])
    text_rows = [",".join(header)] + [",".join(r) for r in out]
    atomic_write_text(path, "\n".join(text_rows) + "\n")


def read_csv(path):
    with open(path) as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [row for row in reader if row]
    return header, rows


def write_neighbor_pairs(path, system):
    rows = [(int(u), int(v)) for u, v in system.pairs.tolist()]
    write_csv(path, ["u", "v"], rows)


def read_neighbor_pairs(path):
    """Load a ``u,v`` pair CSV; a header-only file gives no pairs."""
    with warnings.catch_warnings():
        # loadtxt warns on a file with no data rows, a valid empty system
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        pairs = np.loadtxt(path, delimiter=",", skiprows=1, dtype=np.int64,
                           ndmin=2)
    if pairs.size == 0:
        pairs = pairs.reshape(0, 2)
    if pairs.shape[1] != 2:
        raise ValueError(f"{path}: expected 2 columns, got {pairs.shape[1]}")
    return NeighborSystem(k=0, pairs=pairs)
