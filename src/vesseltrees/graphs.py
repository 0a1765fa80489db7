"""Neighbor systems and tubular graphs over oriented centerline samples.

Two graph flavors are produced from a symmetric k-nearest-neighbor system:

* directed "confluent" graphs whose arcs are flow-extrapolating circular
  arcs, weighted by arc length and gated by the confluence angle at the far
  end (non-admissible arcs are dropped, so stored weights are finite);
* undirected "geodesic" baseline graphs whose edge weight is the sum of
  the two shorter arc lengths, one per endpoint tangent line.

Everything here is vectorized and chunked so that building a graph over
1e5 samples with K=500 neighborhoods stays within desktop memory.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .geometry import (
    COINCIDENT_TOL,
    SampleCloud,
    batch_arc_geometry,
    batch_confluence_angles,
    batch_arc_weights,
    batch_shorter_arc_lengths,
)

_PAIR_CHUNK = 2_000_000
_QUERY_CHUNK = 20_000


def as_cloud(samples) -> SampleCloud:
    if isinstance(samples, SampleCloud):
        return samples
    return SampleCloud.from_samples(samples)


@dataclass
class NeighborSystem:
    """Symmetric set of unordered sample-index pairs.

    ``pairs`` is an (M, 2) int array with ``pairs[:, 0] < pairs[:, 1]``,
    lexicographically sorted and duplicate-free. A pair is present as soon
    as either endpoint selected the other as a neighbor.
    """

    k: int
    pairs: np.ndarray
    flavor: str = "isotropic"
    aspect_ratio_sq: float | None = None

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
    this only for crowded rows, whose last column is dropped;
    ``anisotropic_knn`` re-ranks every row by its rescored distance.
    """
    rows, cols = dist.shape
    row_key = np.repeat(np.arange(rows), cols)
    order = np.lexsort((idx.ravel(), dist.ravel(), row_key))
    return (dist.ravel()[order].reshape(rows, cols),
            idx.ravel()[order].reshape(rows, cols))


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


def knn_neighbors(samples, k: int) -> NeighborSystem:
    """Symmetrized k-nearest-neighbor pairs under Euclidean distance.

    Uses a k-d tree, so the construction is O(K |V| log |V|). A row that
    holds its own index keeps all k other neighbors of the k + 1 queried.
    Only a crowded row, where more than k + 1 coincident samples push the
    query point out of its own result, needs a tie-break: it keeps the k
    smallest of its row by (distance, index). Which of several samples tied
    at the last queried distance enter a row is the k-d tree's choice, not
    the lowest index. ``k`` is clamped to |V| - 1 with a warning when too
    large.
    """
    cloud = as_cloud(samples)
    n = len(cloud)
    if n < 2:
        raise ValueError("need at least 2 samples to build a neighbor system")
    k = _clamp_k(k, n, "k")
    tree = cKDTree(cloud.positions)
    codes = []
    for lo in range(0, n, _QUERY_CHUNK):
        hi = min(lo + _QUERY_CHUNK, n)
        dist, idx = tree.query(cloud.positions[lo:hi], k=k + 1, workers=-1)
        rows = np.arange(lo, hi)
        keep = idx != rows[:, None]
        crowded = np.flatnonzero(keep.all(axis=1))
        if crowded.size:
            _, idx[crowded] = _rowwise_sorted(dist[crowded], idx[crowded])
            keep[crowded, -1] = False
        codes.append(_encode_pairs(np.repeat(rows, k), idx[keep], n))
    pairs = _decode_pairs(_sorted_unique(np.concatenate(codes)), n)
    return NeighborSystem(k=k, pairs=pairs, flavor="isotropic")


def anisotropic_knn(samples, k_final: int = 4, k_candidate: int = 500,
                    aspect_ratio_sq: float = 10.0) -> NeighborSystem:
    """Nearest neighbors under a tangent-aligned Mahalanobis distance.

    Per node, ``k_candidate`` Euclidean candidates are re-scored with
    ``d^2 = d_par^2 / aspect_ratio_sq + d_perp^2`` where ``d_par`` is the
    displacement component along the node's tangent; the ``k_final`` best
    are kept and the union symmetrized. This stretches neighborhoods along
    the vessel so sparse stretches bridge without linking across branches.
    """
    cloud = as_cloud(samples)
    n = len(cloud)
    if n < 2:
        raise ValueError("need at least 2 samples to build a neighbor system")
    if aspect_ratio_sq < 1.0:
        raise ValueError("aspect_ratio_sq must be >= 1")
    k_candidate = _clamp_k(k_candidate, n, "k_candidate")
    k_final = min(_clamp_k(k_final, n, "k_final"), k_candidate)
    tree = cKDTree(cloud.positions)
    chunk = max(1, _QUERY_CHUNK // 4)
    codes = []
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        dist, idx = tree.query(cloud.positions[lo:hi], k=k_candidate + 1,
                               workers=-1)
        rows = np.arange(lo, hi)
        disp = cloud.positions[idx] - cloud.positions[lo:hi, None, :]
        d_par = np.einsum("rkj,rj->rk", disp, cloud.tangents[lo:hi])
        maha = dist * dist - d_par * d_par * (1.0 - 1.0 / aspect_ratio_sq)
        maha[idx == rows[:, None]] = np.inf  # exclude self
        maha, idx = _rowwise_sorted(maha, idx)
        nbr = idx[:, :k_final]
        codes.append(_encode_pairs(np.repeat(rows, k_final), nbr.ravel(), n))
    pairs = _decode_pairs(_sorted_unique(np.concatenate(codes)), n)
    return NeighborSystem(k=k_final, pairs=pairs, flavor="anisotropic",
                          aspect_ratio_sq=aspect_ratio_sq)


class TubularGraph:
    """Weighted graph whose nodes are oriented centerline samples.

    ``mode == "confluent"``: ``tails -> heads`` are directed arcs with
    finite admissible weights, sorted by (tail, head). ``mode ==
    "geodesic"``: rows are undirected edges with ``tails < heads`` and
    symmetric length-based weights.
    """

    def __init__(self, samples: SampleCloud, tails, heads, weights, mode,
                 epsilon: float | None = None, elastic_lambda: float = 0.0):
        self.samples = samples
        self.tails = np.asarray(tails, dtype=np.int32)
        self.heads = np.asarray(heads, dtype=np.int32)
        self.weights = np.asarray(weights, dtype=float)
        self.mode = mode
        self.epsilon = epsilon
        self.elastic_lambda = elastic_lambda

    @property
    def n_nodes(self) -> int:
        return len(self.samples)

    @property
    def n_arcs(self) -> int:
        return self.tails.shape[0]

    def arc_geometry(self, tails, heads):
        """(alpha, length, end_tangent) for arcs tail -> head, recomputed.

        Same vectorized kernel as construction, so values match the stored
        weights bit for bit.
        """
        tails = np.asarray(tails)
        heads = np.asarray(heads)
        _, alpha, length, end_tan = batch_arc_geometry(
            self.samples.positions[tails], self.samples.tangents[tails],
            self.samples.positions[heads])
        return alpha, length, end_tan


def build_confluent_graph(samples, neighbors: NeighborSystem, epsilon: float,
                          elastic_lambda: float = 0.0) -> TubularGraph:
    """Directed graph of admissible flow-extrapolating arcs.

    Both directions of every neighbor pair are fitted; arcs whose
    confluence angle exceeds ``epsilon`` (or that are degenerate, or whose
    endpoints coincide) get infinite cost and are not stored.
    """
    if not 0.0 < epsilon <= math.pi:
        raise ValueError(f"epsilon must be in (0, pi], got {epsilon}")
    if elastic_lambda < 0.0:
        raise ValueError("elastic_lambda must be >= 0")
    cloud = as_cloud(samples)
    pos, tan = cloud.positions, cloud.tangents
    out_t, out_h, out_w = [], [], []
    pairs = neighbors.pairs
    for lo in range(0, pairs.shape[0], _PAIR_CHUNK):
        chunk = pairs[lo:lo + _PAIR_CHUNK]
        u, v = chunk[:, 0], chunk[:, 1]
        ok = np.linalg.norm(pos[v] - pos[u], axis=1) > COINCIDENT_TOL
        u, v = u[ok], v[ok]
        for a, b in ((u, v), (v, u)):
            _, alpha, length, end_tan = batch_arc_geometry(pos[a], tan[a],
                                                           pos[b])
            conf = batch_confluence_angles(end_tan, tan[b])
            w = batch_arc_weights(alpha, length, conf, epsilon,
                                  elastic_lambda)
            keep = np.isfinite(w)
            out_t.append(a[keep].astype(np.int32))
            out_h.append(b[keep].astype(np.int32))
            out_w.append(w[keep])
    tails = np.concatenate(out_t) if out_t else np.empty(0, np.int32)
    heads = np.concatenate(out_h) if out_h else np.empty(0, np.int32)
    weights = np.concatenate(out_w) if out_w else np.empty(0, float)
    # (tail, head) pairs are unique, so sorting this one int64 key gives
    # the (tail, head) lexsort order
    order = np.argsort(tails.astype(np.int64) * len(cloud) + heads)
    return TubularGraph(cloud, tails[order], heads[order], weights[order],
                        mode="confluent", epsilon=epsilon,
                        elastic_lambda=elastic_lambda)


def build_geodesic_graph(samples, neighbors: NeighborSystem) -> TubularGraph:
    """Undirected baseline graph weighted by summed shorter arc lengths.

    Each endpoint contributes the shorter of the two arcs compatible with
    its tangent line (tangent orientation does not matter), so the weight
    is symmetric by construction. Degenerate fits fall back to the chord.
    """
    cloud = as_cloud(samples)
    pos, tan = cloud.positions, cloud.tangents
    pairs = neighbors.pairs
    out_u, out_v, out_w = [], [], []
    for lo in range(0, pairs.shape[0], _PAIR_CHUNK):
        chunk = pairs[lo:lo + _PAIR_CHUNK]
        u, v = chunk[:, 0], chunk[:, 1]
        ok = np.linalg.norm(pos[v] - pos[u], axis=1) > COINCIDENT_TOL
        u, v = u[ok], v[ok]
        w = (batch_shorter_arc_lengths(pos[u], tan[u], pos[v])
             + batch_shorter_arc_lengths(pos[v], tan[v], pos[u]))
        out_u.append(u.astype(np.int32))
        out_v.append(v.astype(np.int32))
        out_w.append(w)
    tails = np.concatenate(out_u) if out_u else np.empty(0, np.int32)
    heads = np.concatenate(out_v) if out_v else np.empty(0, np.int32)
    weights = np.concatenate(out_w) if out_w else np.empty(0, float)
    return TubularGraph(cloud, tails, heads, weights, mode="geodesic")
