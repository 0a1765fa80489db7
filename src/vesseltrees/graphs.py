"""Neighbor systems and tubular graphs over oriented centerline samples.

Two graph flavors are produced from a symmetric k-nearest-neighbor system:

* directed "confluent" graphs whose arcs are flow-extrapolating circular
  arcs, weighted by arc length and gated by the confluence angle at the far
  end (non-admissible arcs are dropped, so stored weights are finite);
* undirected "geodesic" baseline graphs whose edge weight is the sum of
  the two shorter arc lengths, one per endpoint tangent line.

Everything here is vectorized and takes the samples as a ``SampleCloud``.
Both graph builders make one pass over cache-sized chunks of the neighbor
pairs, fitted one after another in the calling thread and joined in chunk
order, so the output does not depend on the chunk size. A confluent chunk
computes each pair's chord and unit direction once for both arc
directions, applies the confluence gate, and computes arc length and
weight only for the arcs that pass it. The certified neighbour count
keeps the systems small: the dense-k500 benchmark cloud (about 4.8k
samples, cap K=500) is solved from 20k pairs in one round, not the 1.4M
of the fixed K=500 system, and its whole benchmark run
(``perfbench/run.py --workload dense-k500 --seed 1 --trace 0``) peaks at
about 84 MB RSS on a 2-core Intel Xeon.

An isotropic system also keeps, per node v, its own neighbourhood size
K(v) and its kNN radius d_K(v), the distance of the farthest of the
samples v selected, or +inf where v selected every other sample and left
nothing out. A sample v did not select is at least d_K(v) from v,
so an arc into v that the graph leaves out costs at least d_K(v): it is
at least as long as its chord, and gated arcs cost infinity. A geodesic
edge the graph leaves out joins two samples that did not select each
other, so its chord is at least d_K at both ends; each of its two shorter
arcs is at least as long as the chord, so it weighs at least 2 d_K(v) at
either end v. Those are the bounds against which ``pipeline`` checks the
solver's potential P(v) to certify a tree built from small neighbourhoods
(see ``solvers``); ``widen_neighbors`` grows only the neighbourhoods that
fail the check.

scipy's k-d tree is imported by the functions that query it, on first
use, so importing this module loads numpy only.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .geometry import (
    COINCIDENT_TOL,
    SampleCloud,
    batch_arc_lengths,
    batch_confluence_angles,
    batch_shorter_arc_lengths,
)

# Neighbor pairs fitted per chunk, small enough that a chunk's temporaries
# stay in cache. On the fixed K=500 system of the dense-k500 cloud (1.4M
# pairs), measured before the certified neighbour count, 16k to 64k fit
# fastest, 256k about 25 % slower and all pairs at once about twice as slow.
# The certified systems (20k pairs on dense-k500, 57k on large-k100) take a
# few chunks in the calling thread: perfbench/run.py --seed 1 peaks at
# 84 MB on dense-k500, 91 MB on large-k100 and 78 MB on corpus-sweep
# (2-core Intel Xeon, medians of 6, 4 and 5 runs).
_PAIR_CHUNK = 16_384
_QUERY_CHUNK = 20_000
# A k-d tree query of fewer rows than this runs on one thread: starting the
# query threads costs more than they save. Measured on a 2-core Intel Xeon
# over a 19k-sample tree cloud, with 1 and with 9 neighbours per row,
# ``workers=-1`` lost up to 2000 rows (1000 rows, 1 neighbour: 1.00 ms
# against 0.78 ms on one thread) and won from 3000 (8000 rows, 1 neighbour:
# 3.6 ms against 5.9 ms). With 33 or more neighbours per row the threads
# win from about 500 rows; the widenings that ask that many neighbours
# re-query a few hundred rows at most on the benchmark workloads.
_THREADED_QUERY_ROWS = 2_500


@dataclass
class NeighborSystem:
    """Symmetric set of unordered sample-index pairs.

    ``pairs`` is an (M, 2) int array with ``pairs[:, 0] < pairs[:, 1]``,
    lexicographically sorted and duplicate-free. A pair is present as soon
    as either endpoint selected the other as a neighbor. ``k`` is the
    neighbourhood size asked for, and no node selected more than ``k``.

    Isotropic systems from ``knn_neighbors`` and ``widen_neighbors`` also
    carry, per node, ``node_k``, the number of nearest samples it selected,
    and ``kth_distance``, the distance to the farthest of them: every
    sample it did not select is at least that far away. Where ``node_k``
    is N - 1 nothing is left out, and ``kth_distance`` is +inf.
    """

    k: int
    pairs: np.ndarray
    node_k: np.ndarray | None = None
    kth_distance: np.ndarray | None = None

    def __post_init__(self):
        self.pairs = np.asarray(self.pairs, dtype=np.int64).reshape(-1, 2)

    @property
    def n_pairs(self) -> int:
        return self.pairs.shape[0]


def _clamp_k(k: int, n: int, label: str) -> int:
    if k < 1:
        raise ValueError(f"{label} must be >= 1, got {k}")
    if k >= n:
        warnings.warn(f"{label}={k} >= sample count {n}; clamping to {n - 1}")
        return n - 1
    return k


def _rowwise_sorted(dist, idx):
    """Re-sort each row of a kNN result by (distance, index).

    scipy returns rows sorted by distance but leaves equal-distance ties in
    an unspecified order; sorting on the index as a secondary key makes
    neighborhoods reproducible on gridded inputs. ``knn_neighbors`` needs
    this only for crowded rows, whose last column is dropped, and
    ``_smallest`` only for rows tied at their k-th distance.
    """
    rows, cols = dist.shape
    row_key = np.repeat(np.arange(rows), cols)
    order = np.lexsort((idx.ravel(), dist.ravel(), row_key))
    return (dist.ravel()[order].reshape(rows, cols),
            idx.ravel()[order].reshape(rows, cols))


def _smallest(dist, idx, k):
    """``idx`` of each row's k smallest ``dist``, ties broken by index.

    One partition finds each row's k-th smallest distance. Only rows with
    more entries at or below it than k, which have a tie there, are sorted
    by (distance, index) to pick the lowest indices among the tied.
    """
    sel = np.argpartition(dist, k - 1, axis=1)[:, :k]
    kth = np.take_along_axis(dist, sel, axis=1).max(axis=1, keepdims=True)
    nbr = np.take_along_axis(idx, sel, axis=1)
    tied = np.flatnonzero(np.count_nonzero(dist <= kth, axis=1) > k)
    if tied.size:
        nbr[tied] = _rowwise_sorted(dist[tied], idx[tied])[1][:, :k]
    return nbr


def _encode_pairs(a, b, n):
    lo = np.minimum(a, b).astype(np.int64)
    hi = np.maximum(a, b).astype(np.int64)
    return lo * n + hi


def _decode_pairs(codes, n):
    return np.stack([codes // n, codes % n], axis=1)


def _sorted_unique(codes):
    """``np.unique`` for a 1-D integer array: one sort and a mask."""
    codes = np.sort(codes)
    first = np.ones(codes.size, dtype=bool)
    first[1:] = codes[1:] != codes[:-1]
    return codes[first]


def _query_workers(rows: int) -> int:
    """The k-d tree's ``workers`` for a query of ``rows`` rows."""
    return -1 if rows >= _THREADED_QUERY_ROWS else 1


def _nearest_codes(tree, positions, rows, k, n):
    """Pair codes of each row's k nearest other samples, and each row's d_k.

    Rows are queried in chunks. A row that holds its own index keeps all k
    other neighbors of the k + 1 queried. Only a crowded row, where more
    than k + 1 coincident samples push the query point out of its own
    result, needs a tie-break: it keeps the k smallest of its row by
    (distance, index). Either way the last queried distance bounds every
    sample the row did not keep; at k = N - 1 there is none, and the bound
    is +inf.
    """
    codes, kth = [], np.empty(rows.size)
    for lo in range(0, rows.size, _QUERY_CHUNK):
        part = rows[lo:lo + _QUERY_CHUNK]
        dist, idx = tree.query(positions[part], k=k + 1,
                               workers=_query_workers(part.size))
        keep = idx != part[:, None]
        crowded = np.flatnonzero(keep.all(axis=1))
        if crowded.size:
            _, idx[crowded] = _rowwise_sorted(dist[crowded], idx[crowded])
            keep[crowded, -1] = False
        codes.append(_encode_pairs(np.repeat(part, k), idx[keep], n))
        kth[lo:lo + part.size] = np.inf if k == n - 1 else dist[:, -1]
    return np.concatenate(codes), kth


def knn_neighbors(samples: SampleCloud, k: int) -> NeighborSystem:
    """Symmetrized Euclidean k-nearest-neighbor pairs of a ``SampleCloud``.

    Uses a k-d tree, so the construction is O(K |V| log |V|); see
    ``_nearest_codes`` for the rows crowded by coincident samples. Which of
    several samples tied at the last queried distance enter a row is the
    k-d tree's choice, not the lowest index. ``k`` is clamped to |V| - 1
    with a warning when too large. At k = |V| - 1 every sample selects
    every other, so the system is all pairs and every radius is +inf.
    """
    from scipy.spatial import cKDTree

    n = len(samples)
    if n < 2:
        raise ValueError("need at least 2 samples to build a neighbor system")
    k = _clamp_k(k, n, "k")
    codes, kth = _nearest_codes(cKDTree(samples.positions), samples.positions,
                                np.arange(n), k, n)
    pairs = _decode_pairs(_sorted_unique(codes), n)
    return NeighborSystem(k=k, pairs=pairs, node_k=np.full(n, k),
                          kth_distance=kth)


def widen_neighbors(samples: SampleCloud, neighbors: NeighborSystem,
                    nodes, k) -> tuple[NeighborSystem, np.ndarray]:
    """``neighbors`` with only the listed nodes re-queried at a larger size,
    and the pairs that this adds.

    ``nodes`` are distinct sample indices and ``k`` their new sizes (one
    int for all, or one per node), each at least the node's current
    ``node_k`` and at most |V| - 1. ``neighbors`` is an isotropic system
    of ``knn_neighbors`` or of an earlier widening over the same
    ``SampleCloud``; the listed nodes' new pairs join its pairs, and their
    ``node_k`` and ``kth_distance`` are updated (+inf at |V| - 1). The
    system's ``k`` becomes the largest size now in use if that exceeds it.
    The added pairs, those of the new system that ``neighbors`` lacks,
    come back as an (A, 2) array in the system's pair order.
    """
    from scipy.spatial import cKDTree

    n = len(samples)
    nodes = np.asarray(nodes, dtype=np.int64)
    sizes = np.broadcast_to(np.asarray(k, dtype=np.int64), nodes.shape)
    if nodes.size and not (np.all(sizes >= neighbors.node_k[nodes])
                           and sizes.max() < n):
        raise ValueError("new sizes must lie in [node_k, |V| - 1]")
    node_k = neighbors.node_k.copy()
    kth = neighbors.kth_distance.copy()
    tree = cKDTree(samples.positions)
    queried = [np.empty(0, dtype=np.int64)]
    for size in np.unique(sizes):
        rows = nodes[sizes == size]
        node_k[rows] = size
        size_codes, kth[rows] = _nearest_codes(tree, samples.positions, rows,
                                               int(size), n)
        queried.append(size_codes)
    # The old codes are sorted, so the queried ones they lack are found and
    # merged in by binary search, without sorting the union.
    old = _encode_pairs(neighbors.pairs[:, 0], neighbors.pairs[:, 1], n)
    new = _sorted_unique(np.concatenate(queried))
    at = np.searchsorted(old, new)
    fresh = np.ones(new.size, dtype=bool)
    if old.size:
        fresh = old[np.minimum(at, old.size - 1)] != new
    added = new[fresh]
    pairs = _decode_pairs(np.insert(old, at[fresh], added), n)
    return NeighborSystem(k=max(neighbors.k, int(node_k.max())), pairs=pairs,
                          node_k=node_k, kth_distance=kth), \
        _decode_pairs(added, n)


def anisotropic_knn(samples: SampleCloud, k_final: int, k_candidate: int,
                    aspect_ratio_sq: float) -> NeighborSystem:
    """Tangent-aligned Mahalanobis nearest neighbors of a ``SampleCloud``.

    Per node, ``k_candidate`` Euclidean candidates are re-scored with
    ``d^2 = d_par^2 / aspect_ratio_sq + d_perp^2`` where ``d_par`` is the
    displacement component along the node's tangent; the ``k_final`` best
    are kept and the union symmetrized. This stretches neighborhoods along
    the vessel so sparse stretches bridge without linking across branches.

    Trees solved on these systems are not certified. A pair across the
    tangent can be left out although it is shorter than the pairs kept, so
    no radius bounds the arcs the system drops, and it carries no
    ``node_k`` or ``kth_distance``.
    """
    from scipy.spatial import cKDTree

    n = len(samples)
    if n < 2:
        raise ValueError("need at least 2 samples to build a neighbor system")
    if not 1.0 <= aspect_ratio_sq < math.inf:   # NaN fails it
        raise ValueError(f"aspect_ratio_sq must be finite and >= 1, "
                         f"got {aspect_ratio_sq}")
    k_candidate = _clamp_k(k_candidate, n, "k_candidate")
    k_final = min(_clamp_k(k_final, n, "k_final"), k_candidate)
    pos = samples.positions
    tree = cKDTree(pos)
    chunk = max(1, _QUERY_CHUNK // 4)
    codes = []
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        dist, idx = tree.query(pos[lo:hi], k=k_candidate + 1, workers=-1)
        rows = np.arange(lo, hi)
        disp = pos[idx] - pos[lo:hi, None, :]
        d_par = np.einsum("rkj,rj->rk", disp, samples.tangents[lo:hi])
        maha = dist * dist - d_par * d_par * (1.0 - 1.0 / aspect_ratio_sq)
        maha[idx == rows[:, None]] = np.inf  # exclude self
        codes.append(_encode_pairs(np.repeat(rows, k_final),
                                   _smallest(maha, idx, k_final).ravel(), n))
    pairs = _decode_pairs(_sorted_unique(np.concatenate(codes)), n)
    return NeighborSystem(k=k_final, pairs=pairs)


def _map_pair_chunks(fit, pairs):
    """Apply ``fit`` to consecutive ``_PAIR_CHUNK``-row slices of ``pairs``.

    ``fit`` returns a tuple of 1-D arrays; each is concatenated over the
    slices in slice order. The slices run one after another in the calling
    thread. There is always at least one slice, possibly empty.
    """
    parts = [fit(pairs[lo:lo + _PAIR_CHUNK])
             for lo in range(0, max(pairs.shape[0], 1), _PAIR_CHUNK)]
    return tuple(np.concatenate(column) for column in zip(*parts))


def _distinct_pairs(pos, chunk):
    """``(u, v, chord, |chord|)`` of the pairs whose endpoints differ."""
    u, v = chunk[:, 0], chunk[:, 1]
    chord = pos[v] - pos[u]
    d = np.linalg.norm(chord, axis=1)
    ok = d > COINCIDENT_TOL
    return u[ok], v[ok], chord[ok], d[ok]


class TubularGraph:
    """Weighted graph whose nodes are oriented centerline samples.

    ``mode == "confluent"``: ``tails -> heads`` are directed arcs with
    finite admissible weights, sorted by (tail, head). ``mode ==
    "geodesic"``: rows are undirected edges with ``tails < heads`` and
    symmetric length-based weights.
    """

    def __init__(self, samples: SampleCloud, tails, heads, weights, mode):
        self.samples = samples
        self.tails = np.asarray(tails, dtype=np.int32)
        self.heads = np.asarray(heads, dtype=np.int32)
        self.weights = np.asarray(weights, dtype=float)
        self.mode = mode

    @property
    def n_nodes(self) -> int:
        return len(self.samples)

    @property
    def n_arcs(self) -> int:
        return self.tails.shape[0]


def build_confluent_graph(samples: SampleCloud, neighbors: NeighborSystem,
                          epsilon: float,
                          elastic_lambda: float = 0.0) -> TubularGraph:
    """Directed graph of admissible flow-extrapolating arcs in a
    ``SampleCloud``.

    Both directions of every neighbor pair are fitted; arcs whose
    confluence angle exceeds ``epsilon`` (or that are degenerate, or whose
    endpoints coincide) get infinite cost and are not stored.
    """
    if not 0.0 < epsilon <= math.pi:
        raise ValueError(f"epsilon must be in (0, pi], got {epsilon}")
    if not 0.0 <= elastic_lambda < math.inf:   # NaN fails it
        raise ValueError(f"elastic_lambda must be finite and >= 0, "
                         f"got {elastic_lambda}")
    pos, tan = samples.positions, samples.tangents

    def fit(chunk):
        u, v, chord, d = _distinct_pairs(pos, chunk)
        e = chord / d[:, None]
        t_u, t_v = tan[u], tan[v]
        tails, heads, weights = [], [], []
        # Negating the chord negates its unit direction exactly, so the
        # reverse arcs share the forward norm and direction bit for bit.
        for a, b, t_a, t_b, e_ab in ((u, v, t_u, t_v, e),
                                     (v, u, t_v, t_u, -e)):
            cos_a = np.clip(np.einsum("ij,ij->i", t_a, e_ab), -1.0, 1.0)
            end_tan = 2.0 * cos_a[:, None] * e_ab - t_a
            gate = np.flatnonzero(batch_confluence_angles(end_tan, t_b)
                                  <= epsilon)
            # length and weight as batch_arc_geometry and batch_arc_weights
            # give them, for the arcs that pass the gate only
            alpha = np.arccos(cos_a[gate])
            w = (batch_arc_lengths(d[gate], alpha)
                 + elastic_lambda * 2.0 * alpha)
            finite = np.isfinite(w)
            tails.append(a[gate[finite]])
            heads.append(b[gate[finite]])
            weights.append(w[finite])
        return (np.concatenate(tails).astype(np.int32),
                np.concatenate(heads).astype(np.int32),
                np.concatenate(weights))

    tails, heads, weights = _map_pair_chunks(fit, neighbors.pairs)
    # (tail, head) pairs are unique, so sorting this one int64 key gives
    # the (tail, head) lexsort order whatever the chunking
    order = np.argsort(tails.astype(np.int64) * len(samples) + heads)
    return TubularGraph(samples, tails[order], heads[order], weights[order],
                        mode="confluent")


def merge_graphs(graph: TubularGraph, more: TubularGraph) -> TubularGraph:
    """One graph of the arcs of two graphs of one mode over the same
    samples, which share no (tail, head).

    Both builders give their arcs in the order of the key tail * N + head
    (sorted in confluent mode, the pair order in geodesic mode), and the
    merged arcs keep it, so a graph built from two disjoint neighbour
    systems and merged is the graph of their union, array for array.
    """
    n = graph.n_nodes
    key = graph.tails.astype(np.int64)
    key *= n
    key += graph.heads
    at = np.searchsorted(key, more.tails.astype(np.int64) * n + more.heads)
    del key
    # np.insert places values at one index in the order given
    return TubularGraph(
        graph.samples, np.insert(graph.tails, at, more.tails),
        np.insert(graph.heads, at, more.heads),
        np.insert(graph.weights, at, more.weights), mode=graph.mode)


def build_geodesic_graph(samples: SampleCloud,
                         neighbors: NeighborSystem) -> TubularGraph:
    """Undirected baseline graph of a ``SampleCloud``, weighted by summed
    shorter arc lengths.

    Each endpoint contributes the shorter of the two arcs compatible with
    its tangent line (tangent orientation does not matter), so the weight
    is symmetric by construction. Degenerate fits fall back to the chord.
    """
    pos, tan = samples.positions, samples.tangents

    def fit(chunk):
        u, v, _, _ = _distinct_pairs(pos, chunk)
        w = (batch_shorter_arc_lengths(pos[u], tan[u], pos[v])
             + batch_shorter_arc_lengths(pos[v], tan[v], pos[u]))
        return u.astype(np.int32), v.astype(np.int32), w

    tails, heads, weights = _map_pair_chunks(fit, neighbors.pairs)
    return TubularGraph(samples, tails, heads, weights, mode="geodesic")
