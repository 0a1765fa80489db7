"""Text file formats: point clouds, tree files, manifests, CSV reports.

Point clouds are whitespace-separated ``x y z tx ty tz [r]`` rows; tree
files have a ``root <index>`` header line and per-node rows, ``node parent
x y z radius`` for ground truth and ``node parent x y z alpha length
weight`` for reconstructions (the root row carries ``nan`` edge fields).
``#`` starts a comment in either format. A file is read as a list of
lines, and one ``np.loadtxt`` parses the rows of either format from that
list (see ``_read_rows``); only a file it fails on is walked again line
by line, for a message that names the first bad line. Values that no
sample or tree can have (a non-finite position, tangent or radius, a
negative radius, a NaN or negative edge value) fail at read time the
same way, naming the first line that has one (see ``_refuse_rows``).

Every table, the CSV reports included, is written column by column by
``_write_rows``. Floats are written with ``repr`` so every file round-trips
bit-exactly. A block of ``_VECTOR_ROWS`` rows or more whose columns are all
signed integers or floats, such as a cloud, a tree or a neighbour-pair CSV,
is formatted in numpy passes with the same bytes as ``str`` of each cell:
the shortest round-trip digits of a float are found exactly in uint64
arithmetic (``_shortest_digits``), and the few floats that arithmetic does
not prove are written with ``str``. A smaller block, or one with a string
column, formats its cells one by one. All writes go through a temp file
and an atomic rename.
"""

from __future__ import annotations

import csv
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
# held at once: ``_numeric_rows_text`` needs about 130 bytes of temporaries
# a cell. Measured on a 2-core Intel Xeon (tracemalloc peak, and the least
# of 5 writes): the 173k-row tree and cloud of the paper-scale probe write
# in 288 and 309 ms at 4096 rows, 296 and 305 ms at 8192, 334 and 335 ms at
# 2048, 390 and 393 ms at 65,536 rows; the cloud's peak goes from 64 MB at
# 65,536 rows to 4 MB at 4096. The 1.08M-row tree and cloud write in 1.68
# and 1.80 s at 4096 rows against 2.38 and 2.32 s at 65,536 (least of 4).
_ROW_BLOCK = 4096

# A block of at least this many rows, all of its columns signed integers or
# floats, is formatted in numpy passes by ``_numeric_rows_text``; a smaller
# one costs less as ``str`` of each cell, since the passes make about 100
# numpy calls a block whatever its size. Measured on a 2-core Intel Xeon
# (median of 31, per-cell against numpy passes): the 8 columns of a tree
# file cross at 300-400 rows (300 rows: 2.8 against 3.3 ms, 500 rows: 4.6
# against 3.5 ms), the 7 of a cloud at 400-500 rows (300 rows: 2.4 against
# 3.2 ms, 600 rows: 6.1 against 4.2 ms), a 2-column pair CSV at 300-400.
_VECTOR_ROWS = 500

# 10**0 to 10**19, every power of ten below 2**64; a uint64 has as many
# digits as the powers it reaches.
_TENS = np.array([10 ** e for e in range(20)], dtype=np.uint64)

# 5**0 to 5**21: ``_shortest_digits`` scales a float in [1e-4, 1e15) to 17
# or 18 digits by 10**k = 5**k * 2**k, with 2 <= k <= 21.
_FIVES = np.array([5 ** e for e in range(22)], dtype=np.uint64)


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


def _digit_count(values):
    """The number of decimal digits of each uint64 in ``values``."""
    count = np.ones(values.size, np.int64)
    for ten in _TENS[1:_TENS.searchsorted(values.max(), side="right")]:
        count += values >= ten
    return count


def _shortest_digits(x):
    """``(digits, count, decpt, ok)``: ``repr`` of each float64 of ``x`` is
    ``0.<digits> * 10**decpt``, ``digits`` a uint64 of ``count`` digits,
    found exactly in uint64 arithmetic; ``ok`` is False where it is not
    proven.

    The digits are the shortest decimal that reads back as the float and,
    of those, the one nearest it (Steele and White; Gay, PLDI 1990), with
    fixed-width integers as in Adams's Ryu (PLDI 2018). Write
    |x| = m * 2**q and pick k with V = |x| * 10**k in [10**16, 10**18):
    V is 4m * 5**k shifted right by t = 2 - q - k. The neighbouring floats
    lie 4 * 5**k / 2**t away, or half that below a power of two, and a
    decimal reads back as x within half of either gap: in
    [V - 2 * 5**k / 2**t, V + 2 * 5**k / 2**t], the lower bound
    V - 5**k / 2**t when m is a power of two, and the bounds count only
    when m is even (reading rounds a tie to even). The largest j with a
    multiple of 10**j in that interval sets the digit count; the multiple
    nearest V is the digits.

    Not proven: NaN, the infinities, zero, |x| outside [1e-4, 1e15)
    (subnormals and every exponent-form ``repr`` among them), and a V
    exactly halfway between the two nearest multiples.
    """
    one = np.uint64(1)
    bits = x.view(np.uint64)
    magnitude = np.abs(x)
    ok = (magnitude >= 1e-4) & (magnitude < 1e15)     # NaN compares False
    exponent = ((bits >> np.uint64(52)) & np.uint64(0x7FF)).astype(np.int64)
    e2 = np.where(ok, exponent - 1023, 0)   # floor(log2 |x|); 0 keeps the
    # tables indexed in range where the cell is not proven
    k = 16 - ((e2 * 78913) >> 18)                    # 16 - floor(e2 log10 2)
    t = (54 - e2 - k).astype(np.uint64)              # 3 <= t <= 47
    fraction = bits & np.uint64((1 << 52) - 1)
    four_m = (fraction | np.uint64(1 << 52)) << np.uint64(2)
    # 4m * 5**k < 2**104 from products of 32-bit halves: high * 2**64 + low
    five = _FIVES[k]
    half, mask = np.uint64(32), np.uint64(0xFFFF_FFFF)
    a0, a1 = four_m & mask, four_m >> half
    b0, b1 = five & mask, five >> half
    lo = a0 * b0
    mid = a1 * b0 + a0 * b1
    low = lo + (mid << half)
    high = a1 * b1 + (mid >> half) + (low < lo)
    v = (high << (np.uint64(64) - t)) | (low >> t)   # floor(V)
    below = (one << t) - one
    r = low & below                                  # (V - floor(V)) * 2**t
    # the integers in the interval: lo_int to hi_int
    up = r + (five << one)
    down = r + (np.uint64(128) << t) - np.where(fraction.astype(bool),
                                                five << one, five)
    odd = (bits & one) == one
    lo_int = (v + (down >> t) - np.uint64(128)
              + (odd | (down & below).astype(bool)))
    hi_int = v + (up >> t) - (odd & ~(up & below).astype(bool))
    # a cell without a multiple of 10**e in its interval has none of any
    # higher power, so each pass runs over the cells the last one kept
    j = np.zeros(x.size, np.int64)
    cells, high, low = np.arange(x.size), hi_int, lo_int
    for e in range(1, _TENS.size):
        fits = high // _TENS[e] * _TENS[e] >= low
        cells, high, low = cells[fits], high[fits], low[fits]
        j[cells] = e
    ten = _TENS[j]
    a = v // ten * ten
    b = a + ten
    twice = ((v - a) << one) + (r >> (t - one))      # floor(2 (V - a))
    rest = (r & (below >> one)).astype(bool)
    tie = (twice == ten) & ~rest
    in_a, in_b = a >= lo_int, b <= hi_int
    ok &= ~(in_a & in_b & tie)
    nearer_b = (twice > ten) | (twice == ten) & rest
    pick = np.where(in_b & (nearer_b | ~in_a), b, a)
    # pick lies within 112 of V, so it has 16 to 19 digits
    count = (16 + (pick >= _TENS[16]) + (pick >= _TENS[17])
             + (pick >= _TENS[18]) - j)
    return pick // ten, count, count + j - k, ok


def _numeric_rows_text(columns, sep):
    """The rows of signed-integer and float columns as ``_write_rows``
    writes them, built in numpy passes: the bytes of ``str`` of each cell
    (for a ``sep`` of one ASCII character, as every caller passes).

    A cell is an optional ``-``, a field of ``width`` bytes that spells
    ``value`` zero-padded, then ``sep`` or, after the last column, a
    newline. An int's value is its magnitude. A float's is the digits
    ``_shortest_digits`` gives, padded with zeros as ``repr`` pads them and
    with a 0 where the point goes, ``after`` digits from the end, which the
    point then overwrites; a float it does not prove is ``str`` of the
    float, spliced in. The cells lie end to end in one byte buffer, at
    offsets from a cumulative sum of their lengths, and pass i writes digit
    place i of every cell that has one, the remainder of a division by a
    scalar 10.
    """
    shape = (columns[0].size, len(columns))
    value = np.zeros(shape, np.uint64)
    width = np.zeros(shape, np.int64)
    after = np.zeros(shape, np.int64)
    negative = np.zeros(shape, bool)
    spliced, texts = [], []
    for c, column in enumerate(columns):
        if column.dtype.kind == "i":
            cells = column.astype(np.int64)
            negative[:, c] = cells < 0
            value[:, c] = np.abs(cells).view(np.uint64)   # |-2**63| wraps
            width[:, c] = _digit_count(value[:, c])
            continue
        with np.errstate(invalid="ignore"):    # a signalling NaN is quieted
            cells = column.astype(np.float64)
        digits, count, decpt, ok = _shortest_digits(cells)
        tail = np.maximum(count - decpt, 1)      # digits after the point
        digits *= _TENS[np.maximum(decpt - count + 1, 0)]   # 7 for 700.0
        # a 0 goes where the point goes, and is written over by it; a
        # tail of 20 digits has no digits before the point
        scale = _TENS[np.minimum(tail, _TENS.size - 1)]
        digits += digits // scale * np.uint64(9) * scale
        negative[:, c] = ok & (cells < 0)
        value[:, c] = np.where(ok, digits, np.uint64(0))
        width[:, c] = np.where(ok, np.maximum(decpt, 1) + 1 + tail, 0)
        after[:, c] = np.where(ok, tail, 0)
        unproven = np.flatnonzero(~ok)
        spliced.append(unproven * shape[1] + c)
        texts += map(str, cells[unproven].tolist())
    value, width, after, negative = (
        array.ravel() for array in (value, width, after, negative))
    spliced = np.concatenate(spliced or [np.empty(0, np.int64)])
    sizes = np.fromiter(map(len, texts), np.int64, len(texts))
    length = negative + width + 1
    length[spliced] = sizes + 1
    end = np.cumsum(length) - 1                  # each cell's separator
    out = np.empty(end[-1] + 1, np.uint8)
    # widest cells first, so the cells with a digit in place i are a prefix;
    # a radix sort, which keeps each width's cells in file order
    order = np.argsort(~width.astype(np.uint8), kind="stable")
    value, last = value[order], (end - 1)[order]
    quotient, at = np.empty_like(value), np.empty_like(last)
    digit = np.empty(value.size, np.uint8)
    ten = np.uint64(10)
    for i, n in enumerate(value.size - np.cumsum(np.bincount(width))[:-1]):
        np.floor_divide(value[:n], ten, out=quotient[:n])
        np.subtract(value[:n], quotient[:n] * ten, out=digit[:n],
                    casting="unsafe")
        np.subtract(last[:n], i, out=at[:n])
        out[at[:n]] = digit[:n]
        value, quotient = quotient, value
    out += np.uint8(ord("0"))
    out[(end - 1 - after)[after > 0]] = ord(".")
    out[(end + 1 - length)[negative]] = ord("-")
    ends = np.full(shape, ord(sep), np.uint8)
    ends[:, -1] = ord("\n")
    out[end] = ends.ravel()
    if texts:
        blob = np.frombuffer("".join(texts).encode("ascii"), np.uint8)
        first = (end + 1 - length)[spliced]
        out[np.repeat(first - np.cumsum(sizes) + sizes, sizes)
            + np.arange(blob.size)] = blob
    return out.tobytes().decode("ascii")


def _write_rows(path, head, columns, sep):
    """Write the ``head`` lines, then the rows that 1-D arrays hold side by
    side, their cells joined by ``sep``, ``_ROW_BLOCK`` rows at a time.

    A cell is the ``str`` of the Python int or float that ``tolist`` of a
    column gives; for a float that is its ``repr``, the text of ``_fmt``.
    Where every column is a signed integer or a float array of at most 64
    bits, a block of ``_VECTOR_ROWS`` rows or more is formatted by
    ``_numeric_rows_text`` with the same bytes (for a ``sep`` of one ASCII
    character, as every caller passes).
    """
    columns = [np.asarray(column) for column in columns]
    numeric = all(column.dtype.kind == "i" or column.dtype.kind == "f"
                  and column.dtype.itemsize <= 8 for column in columns)
    with _atomic_open(path) as fh:
        fh.write("".join(line + "\n" for line in head))
        for lo in range(0, columns[0].size, _ROW_BLOCK):
            block = [column[lo:lo + _ROW_BLOCK] for column in columns]
            if numeric and block[0].size >= _VECTOR_ROWS:
                fh.write(_numeric_rows_text(block, sep))
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


def _read_rows(path, lines, widths, what, ids=False):
    """The rows of the whitespace table of the list of text ``lines``,
    read by one ``np.loadtxt``; ``#`` starts a comment.

    Every row has the same width, one of the two ``widths``. The rows come
    back as an (n, width) float array or, with ``ids``, as a structured
    array: the two leading columns as int64 ``ids``, which must parse as
    integers, and the rest as float ``vals``. A table without rows raises
    ValueError ``no <what> found``; one that does not load raises
    ValueError naming the file and its first bad line.
    """
    width = len(next(filter(None, map(_cells, lines)), ()))
    if not width:
        raise ValueError(f"{path}: no {what} found")
    error = None
    if width in widths:
        dtype = [("ids", np.int64, (2,)),
                 ("vals", float, (width - 2,))] if ids else float
        try:
            return _loadtxt(lines, ndmin=1 if ids else 2,
                            comments="#", dtype=dtype)
        except ValueError as exc:
            error = exc
    for line_no, line in enumerate(lines, 1):
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


def _refuse_rows(path, lines, bad, message):
    """Raise ValueError ``<path>:<line>: <message>`` for the first row that
    the mask ``bad`` marks, if any; its rows are the table rows that
    ``_read_rows`` read from ``lines``."""
    if bad.any():
        row = int(np.argmax(bad))
        line_no = [i for i, line in enumerate(lines, 1) if _cells(line)][row]
        raise ValueError(f"{path}:{line_no}: {message}")


def _refuse_bad_points(path, lines, positions, radii):
    """Refuse rows with non-finite positions or radii that are not finite
    and >= 0 (``radii`` may be None)."""
    _refuse_rows(path, lines, ~np.isfinite(positions).all(axis=1),
                 "positions must be finite")
    if radii is not None:
        _refuse_rows(path, lines, ~(np.isfinite(radii) & (radii >= 0)),
                     "radii must be finite and >= 0")


def read_point_cloud(path) -> SampleCloud:
    """Load a point cloud of 6- or 7-column rows (see ``_read_rows``).

    A row with a non-finite position or tangent, or a radius that is NaN,
    infinite or negative, raises ValueError naming its line.
    """
    with open(path) as fh:
        lines = fh.readlines()
    data = _read_rows(path, lines, (6, 7), "samples")
    radii = data[:, 6] if data.shape[1] == 7 else None
    _refuse_bad_points(path, lines, data[:, 0:3], radii)
    _refuse_rows(path, lines, ~np.isfinite(data[:, 3:6]).all(axis=1),
                 "tangents must be finite unit vectors")
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
    # a tree over every sample writes its columns as they are, not copies
    rows = slice(None) if ids.size == tree.parent.size else ids
    lines += [f"root {tree.root}", f"# node parent x y z {names}"]
    _write_rows(path, lines, [ids, tree.parent[rows], *tree.positions[rows].T,
                              *(column[rows] for column in data)], " ")


def read_tree(path, cloud: SampleCloud | None = None):
    """Load a tree file; 6-column files parse as ground truth.

    For reconstructed trees a sample cloud may be supplied to recover the
    per-edge arc geometry (start tangents); without it edges resample as
    straight chords while keeping the stored alpha/length/weight values.
    Edges that store alpha 0, as every edge of a geodesic tree does,
    resample as chords either way.
    The ``root <index>`` and ``# domain_size <value>`` lines may stand
    anywhere, the last of each counting; the node rows are read by
    ``_read_rows``. A malformed file, or a tree that fails ``validate()``,
    raises ValueError naming the file. A row with a non-finite position,
    a ground-truth radius that is NaN, infinite or negative, or an edge
    whose alpha, length or weight is NaN or negative raises ValueError
    naming its line; edge values may be +inf.
    """
    with open(path) as fh:
        lines = fh.readlines()
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
    rows = _read_rows(path, lines, (6, 8), "nodes", ids=True)
    ids, vals = rows["ids"], rows["vals"]
    nodes = ids[:, 0]
    gt = vals.shape[1] == 4   # node parent + 4 floats: ground truth
    _refuse_bad_points(path, lines, vals[:, :3], vals[:, 3] if gt else None)
    if not gt:   # written so that NaN fails it; the root row has no edge
        _refuse_rows(path, lines, (ids[:, 1] >= 0)
                     & ~(vals[:, 3:] >= 0).all(axis=1),
                     "alpha, length and weight must be >= 0")
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
