"""Text file formats: point clouds, tree files, manifests, CSV reports.

Point clouds are whitespace-separated ``x y z tx ty tz [r]`` rows; tree
files have a ``root <index>`` header line and per-node rows, ``node parent
x y z radius`` for ground truth and ``node parent x y z alpha length
weight`` for reconstructions (the root row carries ``nan`` edge fields).
``#`` starts a comment in either format. The rows of both are read by one
``np.loadtxt`` (see ``_read_rows``); only a file it fails on is read again
line by line, for a message that names the first bad line.

Every table, the CSV reports included, is written column by column by
``_write_rows``. Floats are written with ``repr`` so every file round-trips
bit-exactly. A table whose columns are all integers, such as a
neighbour-pair CSV, is formatted in numpy passes with the same bytes as
``str`` of each cell; a table with a float column formats its cells one by
one, since ``repr`` of a float has no vectorised equal. All writes go
through a temp file and an atomic rename.
"""

from __future__ import annotations

import csv
import io
import json
import os
import tempfile
import warnings
from contextlib import contextmanager

import numpy as np

from .geometry import SampleCloud
from .graphs import NeighborSystem
from .solvers import VesselTree
from .synth import GroundTruthTree
from .trees import EXCLUDED


# Rows ``_write_rows`` formats at a time, so a file's cells are never all
# held as Python objects at once.
_ROW_BLOCK = 65_536

# 10 to 10**19, every power of ten below 2**64: a uint64 magnitude has one
# digit more than the number of them it reaches.
_POW10 = np.array([10 ** e for e in range(1, 20)], dtype=np.uint64)


def _fmt(value) -> str:
    return repr(float(value))


@contextmanager
def _atomic_open(path):
    """A text handle on a temp file that replaces ``path`` on success."""
    path = os.fspath(path)
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)),
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str):
    with _atomic_open(path) as fh:
        fh.write(text)


def _int_rows_text(columns, sep):
    """The rows of integer columns as ``_write_rows`` writes them, built in
    numpy passes. Each cell is one column of a byte table: a sign, its
    digits right-aligned to the widest cell, then ``sep`` or, after the
    last column, a newline. One mask keeps each cell's own bytes."""
    cells = np.stack(columns, axis=1).ravel().astype(np.int64)
    mag = np.abs(cells).view(np.uint64)   # |-2**63| wraps to 2**63
    digits = np.searchsorted(_POW10, mag, side="right") + 1
    width = int(digits.max())
    table = np.empty((width + 2, cells.size), dtype=np.uint8)
    for row in range(width, 0, -1):
        mag, table[row] = np.divmod(mag, 10)
    table[1:-1] += ord("0")
    table[0] = ord("-")
    table[-1] = ord(sep)
    table[-1, len(columns) - 1::len(columns)] = ord("\n")
    keep = np.ones(table.shape, dtype=bool)
    keep[0] = cells < 0
    keep[1:-1] = np.arange(width, 0, -1)[:, None] <= digits
    return table.T[keep.T].tobytes().decode("ascii")


def _write_rows(path, head, columns, sep):
    """Write the ``head`` lines, then the rows that 1-D arrays hold side by
    side, their cells joined by ``sep``, ``_ROW_BLOCK`` rows at a time.

    A cell is the ``str`` of the Python int or float that ``tolist`` of a
    column gives; for a float that is its ``repr``, the text of ``_fmt``.
    Where every column is a signed integer array, ``_int_rows_text``
    formats each block with the same bytes (for a ``sep`` of one ASCII
    character, as every caller passes).
    """
    columns = [np.asarray(column) for column in columns]
    as_ints = all(column.dtype.kind == "i" for column in columns)
    with _atomic_open(path) as fh:
        fh.write("".join(line + "\n" for line in head))
        for lo in range(0, columns[0].size, _ROW_BLOCK):
            block = [column[lo:lo + _ROW_BLOCK] for column in columns]
            if as_ints:
                fh.write(_int_rows_text(block, sep))
                continue
            cells = [map(str, column.tolist()) for column in block]
            fh.write("\n".join(map(sep.join, zip(*cells))) + "\n")


def write_point_cloud(path, cloud: SampleCloud):
    columns = [*cloud.positions.T, *cloud.tangents.T]
    header = "# x y z tx ty tz"
    if cloud.radii is not None:
        columns.append(cloud.radii)
        header += " r"
    _write_rows(path, [header], columns, " ")


def _loadtxt(source, ndmin=2, **kwargs):
    """``np.loadtxt``, quiet on a file without data rows.

    Raises ValueError wherever the source does not parse as one table.
    """
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        return np.loadtxt(source, ndmin=ndmin, **kwargs)


def _cells(line):
    """The whitespace-separated cells of ``line`` before any ``#``."""
    return line.split("#", 1)[0].split()


def _read_rows(path, text, widths, what, ids=False):
    """The rows of the whitespace table ``text``, read by one
    ``np.loadtxt``; ``#`` starts a comment.

    Every row has the same width, one of the two ``widths``. The rows come
    back as an (n, width) float array or, with ``ids``, as a structured
    array: the two leading columns as int64 ``ids``, which must parse as
    integers, and the rest as float ``vals``. A table without rows raises
    ValueError ``no <what> found``; one that does not load raises
    ValueError naming the file and its first bad line.
    """
    width = len(next(filter(None, map(_cells, io.StringIO(text))), ()))
    if not width:
        raise ValueError(f"{path}: no {what} found")
    error = None
    if width in widths:
        dtype = [("ids", np.int64, (2,)),
                 ("vals", float, (width - 2,))] if ids else float
        try:
            return _loadtxt(io.StringIO(text), ndmin=1 if ids else 2,
                            comments="#", dtype=dtype)
        except ValueError as exc:
            error = exc
    for line_no, line in enumerate(text.split("\n"), 1):
        cells = _cells(line)
        if not cells:
            continue
        where = f"{path}:{line_no}"
        if len(cells) not in widths:
            raise ValueError(f"{where}: expected {widths[0]} or {widths[1]}"
                             f" columns, got {len(cells)}")
        if len(cells) != width:
            raise ValueError(f"{where}: inconsistent column counts, "
                             f"{len(cells)} after {width}")
        try:
            for i, cell in enumerate(cells):
                (int if ids and i < 2 else float)(cell)
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
    raise ValueError(f"{path}: {error}")


def read_point_cloud(path) -> SampleCloud:
    """Load a point cloud of 6- or 7-column rows (see ``_read_rows``)."""
    with open(path) as fh:
        data = _read_rows(path, fh.read(), (6, 7), "samples")
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
    ids = tree.node_ids()
    lines += [f"root {tree.root}", f"# node parent x y z {names}"]
    _write_rows(path, lines, [ids, tree.parent[ids], *tree.positions[ids].T,
                              *(column[ids] for column in data)], " ")


def read_tree(path, cloud: SampleCloud | None = None):
    """Load a tree file; 6-column files parse as ground truth.

    For reconstructed trees a sample cloud may be supplied to recover the
    per-edge arc geometry (start tangents); without it edges resample as
    straight chords while keeping the stored alpha/length/weight values.
    The ``root <index>`` and ``# domain_size <value>`` lines may stand
    anywhere, the last of each counting; the node rows are read by
    ``_read_rows``. A malformed file, or a tree that fails ``validate()``,
    raises ValueError naming the file.
    """
    with open(path) as fh:
        lines = fh.read().split("\n")
    root = domain_size = None
    for line_no, line in enumerate(lines, 1):
        if "root" not in line and "# domain_size" not in line:
            continue
        cells = _cells(line)
        try:
            if cells[:1] == ["root"]:
                _, index = cells
                root = int(index)
                lines[line_no - 1] = ""   # a blank line keeps the numbering
            elif line.strip().startswith("# domain_size"):
                domain_size = float(line.split()[2])
        except (ValueError, IndexError):
            raise ValueError(f"{path}: line {line_no}: bad header "
                             f"{line.strip()!r}") from None
    if root is None:
        raise ValueError(f"{path}: missing 'root <index>' header")
    rows = _read_rows(path, "\n".join(lines), (6, 8), "nodes", ids=True)
    ids, vals = rows["ids"], rows["vals"]
    nodes = ids[:, 0]
    gt = vals.shape[1] == 4   # node parent + 4 floats: ground truth
    if gt:
        n = nodes.size
        if not np.array_equal(np.sort(nodes), np.arange(n)):
            raise ValueError(f"{path}: ground-truth node ids must be "
                             "contiguous from 0")
    else:
        if nodes.min() < 0:
            raise ValueError(f"{path}: node ids must be >= 0")
        if np.unique(nodes).size != nodes.size:
            raise ValueError(f"{path}: node ids must be distinct")
        n = int(nodes.max()) + 1 if cloud is None else len(cloud)
        if nodes.max() >= n:
            raise ValueError(f"{path}: tree references node {nodes.max()} "
                             f"but the cloud has {n} samples")
    parent = np.full(n, EXCLUDED, dtype=np.int64)
    table = np.full((n, vals.shape[1]), np.nan)
    parent[nodes] = ids[:, 1]
    table[nodes] = vals
    if gt:
        tree = GroundTruthTree(positions=table[:, :3], radii=table[:, 3],
                               parent=parent, domain_size=domain_size or 0.0)
    else:
        alpha, length, weight = table[:, 3:].T
        tree = VesselTree(root=root, parent=parent, positions=table[:, :3],
                          edge_weight=weight, edge_alpha=alpha,
                          edge_length=length,
                          total_weight=float(np.sum(weight[parent >= 0])))
    try:
        tree.validate()
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if cloud is not None and not gt:   # arcs start at the parent sample
        excluded = parent == EXCLUDED
        tree.positions[excluded] = cloud.positions[excluded]
        has_edge = parent >= 0
        tree.edge_start_tangent = np.full((n, 3), np.nan)
        tree.edge_start_tangent[has_edge] = cloud.tangents[parent[has_edge]]
    return tree


def write_json(path, payload: dict):
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True)
                      + "\n")


def read_json(path) -> dict:
    """Load a JSON file; malformed JSON raises ValueError naming the file."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


def write_csv(path, header, rows):
    """CSV of rows whose columns each hold one type: ``str`` cells, which
    for a float is its ``repr``, so numeric cells round-trip."""
    columns = [np.array(column) for column in zip(*rows)]
    _write_rows(path, [",".join(header)], columns or [np.empty(0)], ",")


def write_csv_columns(path, header, columns):
    """``write_csv`` of the rows that 1-D arrays hold side by side."""
    _write_rows(path, [",".join(header)], columns, ",")


def read_csv_lines(path):
    """``(header, [(line, row), ...])`` of a CSV, blank lines skipped; a
    file without a header, or a row of another length, raises ValueError
    naming the file and the row's line."""
    with open(path) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header:
            raise ValueError(f"{path}: no header row")
        rows = []
        for row in filter(None, reader):
            if len(row) != len(header):
                raise ValueError(f"{path}:{reader.line_num}: expected "
                                 f"{len(header)} cells, got {len(row)}")
            rows.append((reader.line_num, row))
    return header, rows


def read_csv(path):
    """``(header, rows)`` of ``read_csv_lines``, without the lines."""
    header, rows = read_csv_lines(path)
    return header, [row for _, row in rows]


def write_neighbor_pairs(path, system):
    """``u,v`` pair CSV, in the layout ``write_csv`` gives integer cells."""
    write_csv_columns(path, ["u", "v"], system.pairs.T)


def read_neighbor_pairs(path, cloud: SampleCloud | None = None):
    """Load a ``u,v`` pair CSV; a header-only file gives no pairs.

    Every pair must have ``0 <= u < v``, and ``v`` below the cloud's sample
    count when a cloud is given, and no pair may repeat; otherwise
    ValueError names the file. Pairs in the (u, v) order that
    ``write_neighbor_pairs`` gives are strictly increasing there, so only
    a file in another order is sorted to look for repeats.
    """
    # a file with no data rows is a valid empty system
    try:
        pairs = _loadtxt(path, delimiter=",", skiprows=1, dtype=np.int64)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if pairs.size == 0:
        pairs = pairs.reshape(0, 2)
    if pairs.shape[1] != 2:
        raise ValueError(f"{path}: expected 2 columns, got {pairs.shape[1]}")
    if np.any(pairs[:, 0] < 0):
        raise ValueError(f"{path}: pair ids must be >= 0")
    if np.any(pairs[:, 0] >= pairs[:, 1]):
        raise ValueError(f"{path}: each pair must have u < v")
    u, v = pairs.T
    if not np.all((u[1:] > u[:-1]) | ((u[1:] == u[:-1]) & (v[1:] > v[:-1]))):
        u, v = pairs[np.lexsort((v, u))].T
        repeat = np.flatnonzero((u[1:] == u[:-1]) & (v[1:] == v[:-1]))
        if repeat.size:
            raise ValueError(f"{path}: pair {u[repeat[0]]},{v[repeat[0]]} "
                             "is listed more than once")
    if cloud is not None and pairs.size and pairs[:, 1].max() >= len(cloud):
        raise ValueError(f"{path}: pair references node {pairs[:, 1].max()} "
                         f"but the cloud has {len(cloud)} samples")
    return NeighborSystem(k=0, pairs=pairs)
