"""Reconstruction quality metrics against ground-truth trees.

Point-matching metrics (centerline and bifurcation recall/fall-out) resample
both trees uniformly and match points within ``max(radius, zeta)`` where
zeta defaults to half a voxel diagonal. One evaluation call resamples
each tree once, fitting each arc once and evaluating the points in blocks
of a bounded size, and one nearest-point query in each direction serves
every tolerance scale of a sweep: the distances do not depend on the
tolerance, so each scale is only a threshold on them. Bifurcation
angular error matches every ground-truth branching to the closest
reconstructed branching point with no distance cutoff and reports the
median absolute angle difference.
Connectivity recall/fall-out scores a neighbor system by whether its edges
follow ancestor/descendant lines of the ground-truth tree, in array passes
over all pairs: ancestry is a comparison of preorder entry/exit times, the
whole edges between a pair's ends are counted by a +1/-1 difference array
summed over subtrees, and the spans on each edge are merged by one sort.
The system ``reconstruct --dump-neighbors`` writes is the one each tree was
solved from, which each mode grows for its own tree, so the score depends
on the mode as well as on the cloud and the cap k.

Bifurcation angles are measured between the two child branch directions.
Each direction is the unit chord of the first voxel of the child branch's
node polyline starting at the child node (chord from the branching node
for leaf children). Starting at the child node makes the measure exact on
clean data even when the solver smooths a wide branching by attaching the
branch one sample upstream. The same rule is applied to ground truth and
reconstructions.

scipy's k-d tree is imported on the first nearest-point query, so
importing this module loads numpy only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import SampleCloud, arc_frame_points, arc_frames
from .graphs import NeighborSystem, _query_workers
from .synth import GroundTruthTree

DEFAULT_STEP = 0.25
DEFAULT_ZETA = math.sqrt(2.0) / 2.0
BRANCH_PROBE_LENGTH = 1.0
_SNAP_FRAC = 1e-9
# Output points ``resample_tree`` evaluates at a time. A ground-truth edge
# is a long polyline (255 edges give 56k points on the large-k100
# benchmark tree), so the blocks run over points, not edges.
_RESAMPLE_BLOCK = 4096
# Points ``project_to_tree`` scores against all ground-truth edges at once.
_PROJECT_BLOCK = 4096


@dataclass
class MatchTolerance:
    """Matching distance: ``max(radius, zeta)`` or plain ``zeta``."""

    zeta: float = DEFAULT_ZETA
    uses_radius: bool = True

    def __post_init__(self):
        if not 0 < self.zeta < math.inf:  # written so that NaN fails it
            raise ValueError(f"zeta must be finite and > 0, got {self.zeta}")

    def for_radii(self, radii) -> np.ndarray:
        if self.uses_radius and radii is not None:
            return np.maximum(np.asarray(radii, dtype=float), self.zeta)
        size = 1 if radii is None else len(radii)
        return np.full(size, self.zeta)

    def scaled(self, factor: float) -> "MatchTolerance":
        """``zeta`` times ``factor``, so ``max(radius, factor * zeta)``:
        the radius is not scaled."""
        return MatchTolerance(zeta=self.zeta * factor,
                              uses_radius=self.uses_radius)


@dataclass
class RocPoint:
    threshold: float
    recall: float
    fallout: float

    def __post_init__(self):
        for name in ("recall", "fallout"):
            v = getattr(self, name)
            if not (math.isnan(v) or 0.0 <= v <= 1.0):
                raise ValueError(f"{name} must be in [0, 1], got {v}")


def resample_tree(tree, step: float = DEFAULT_STEP):
    """Uniformly resample every edge; returns (points, radii-or-None).

    Points are spaced at most ``step`` apart in arc length with both edge
    endpoints always included, edge by edge in ascending child order.
    An edge with a start tangent and a stored alpha other than 0 is
    resampled along its arc, every other edge along its chord: ground
    truth polylines, and geodesic trees, whose edges store alpha 0.
    Radii are interpolated for trees that carry them. Each arc is fitted
    once (``geometry.arc_frames``), and the points are evaluated
    ``_RESAMPLE_BLOCK`` at a time into the output arrays, so the
    temporaries stay a few arrays of one block's rows, plus a few per edge.
    """
    if not 0 < step < math.inf:  # written so that NaN fails it
        raise ValueError(f"step must be finite and > 0, got {step}")
    radii = tree.radii
    childs = tree.edge_children()
    if childs.size == 0:
        pts = tree.positions[tree.root][None, :]
        return (pts, radii[[tree.root]].copy() if radii is not None else None)
    counts = np.maximum(
        1, np.ceil(tree.edge_lengths() / step).astype(np.int64))
    first = np.cumsum(counts + 1) - (counts + 1)
    size = int(first[-1] + counts[-1] + 1)
    par = tree.parent[childs]
    tangents, on_arc = tree.edge_start_tangent, np.zeros(childs.size, bool)
    if tangents is not None:
        tangents = tangents[childs]
        on_arc = (np.all(np.isfinite(tangents), axis=1)
                  & (tree.edge_alpha[childs] != 0))
    frames = arc_frames(tree.positions[par], tangents,
                        tree.positions[childs], on_arc)
    points = np.empty((size, 3))
    out_radii = None if radii is None else np.empty(size)
    for lo in range(0, size, _RESAMPLE_BLOCK):
        # the edge each point lies on and its arc fraction
        at = np.arange(lo, min(lo + _RESAMPLE_BLOCK, size))
        edge = np.searchsorted(first, at, side="right") - 1
        fracs = (at - first[edge]) / counts[edge]
        arc_frame_points(frames, edge, fracs, out=points[lo:lo + at.size])
        if radii is not None:
            out_radii[lo:lo + at.size] = ((1 - fracs) * radii[par[edge]]
                                          + fracs * radii[childs[edge]])
    return points, out_radii


def _nearest(gt_pts, rec_pts):
    """One nearest-point pass each way: (d_gt, d_rec, nearest GT index)."""
    from scipy.spatial import cKDTree

    d_gt, _ = cKDTree(rec_pts).query(
        gt_pts, workers=_query_workers(gt_pts.shape[0]))
    d_rec, nearest = cKDTree(gt_pts).query(
        rec_pts, workers=_query_workers(rec_pts.shape[0]))
    return d_gt, d_rec, nearest


def _rates(d_gt, d_rec, nearest, limits):
    """(recall, fallout) for one tolerance, given per-GT-point limits."""
    recall = float(np.mean(d_gt <= limits))
    fallout = float(np.mean(d_rec > limits[nearest]))
    return recall, fallout


def _roc_rates(gt, recon, tolerances, kind, step):
    """(recall, fallout) per tolerance from one resample and one query.

    ``kind`` "bifurcation" matches branching points; anything else matches
    resampled centerlines.
    """
    if kind == "bifurcation":
        gt_bifs = gt.branching_nodes()
        rec_pts = recon.positions[recon.branching_nodes()]
        gt_pts, gt_radii = gt.positions[gt_bifs], gt.radii[gt_bifs]
    else:
        if recon.n_edges == 0:
            return [(0.0, 0.0)] * len(tolerances)
        gt_pts, gt_radii = resample_tree(gt, step)
        rec_pts, _ = resample_tree(recon, step)
    if rec_pts.shape[0] == 0:
        return [(0.0, 0.0)] * len(tolerances)
    if gt_pts.shape[0] == 0:
        return [(math.nan, 1.0)] * len(tolerances)
    if gt_radii is None:
        gt_radii = np.zeros(gt_pts.shape[0])
    d_gt, d_rec, nearest = _nearest(gt_pts, rec_pts)
    return [_rates(d_gt, d_rec, nearest, tol.for_radii(gt_radii))
            for tol in tolerances]


def centerline_roc(gt: GroundTruthTree, recon, tol: MatchTolerance = None,
                   step: float = DEFAULT_STEP):
    """Centerline recall/fall-out between resampled GT and reconstruction."""
    return _roc_rates(gt, recon, [tol or MatchTolerance()], "centerline",
                      step)[0]


def bifurcation_roc(gt: GroundTruthTree, recon, tol: MatchTolerance = None,
                    step: float = DEFAULT_STEP):
    """Recall/fall-out restricted to branching points.

    Recall is NaN (not applicable) when the ground truth has no
    bifurcations.
    """
    return _roc_rates(gt, recon, [tol or MatchTolerance()], "bifurcation",
                      step)[0]


def _point_along_branch(tree, node, child, distance, children):
    """Point ``distance`` along the node polyline entered through child."""
    pos = tree.positions
    cur_point = pos[int(node)]
    cur_node = int(child)
    remaining = float(distance)
    while True:
        seg = pos[cur_node] - cur_point
        seg_len = float(np.linalg.norm(seg))
        kids = children[cur_node]
        if seg_len >= remaining or kids.size == 0:
            if seg_len <= 1e-12:
                return pos[cur_node]
            return cur_point + min(1.0, remaining / seg_len) * seg
        remaining -= seg_len
        cur_point = pos[cur_node]
        cur_node = int(kids[0])


def _branch_direction(tree, node, child, children):
    """Unit direction of the branch through ``child``, measured at ``child``.

    The chord of the first ``BRANCH_PROBE_LENGTH`` voxels of the child's
    subtree polyline; for leaf children the chord from the branching node.
    """
    pos = tree.positions
    kids = children[int(child)]
    if kids.size:
        vec = _point_along_branch(tree, child, kids[0], BRANCH_PROBE_LENGTH,
                                  children) - pos[int(child)]
    else:
        vec = pos[int(child)] - pos[int(node)]
    norm = float(np.linalg.norm(vec))
    return vec / norm if norm > 1e-12 else None


def bifurcation_angle(tree, node, children=None) -> float:
    """Angle between the two child branch directions at a branching node.

    With three or more children the widest pair is reported, which keeps
    the value deterministic for non-binary reconstructions. ``children``
    is the tree's children index, built here when not given.
    """
    children = children if children is not None else tree.children()
    kids = children[int(node)]
    if len(kids) < 2:
        raise ValueError(f"node {node} has fewer than two children")
    dirs = []
    for child in kids:
        d = _branch_direction(tree, node, child, children)
        if d is not None:
            dirs.append(d)
    if len(dirs) < 2:
        raise ValueError(f"node {node} has degenerate child directions")
    best = 0.0
    for i in range(len(dirs)):
        for j in range(i + 1, len(dirs)):
            dot = min(1.0, max(-1.0, float(np.dot(dirs[i], dirs[j]))))
            best = max(best, math.acos(dot))
    return best


def angular_errors(gt: GroundTruthTree, recon):
    """Per-GT-bifurcation |angle difference| in radians.

    Every GT bifurcation is matched to the closest reconstructed branching
    point regardless of distance. Returns [inf] * n_bifurcations when the
    reconstruction has no branching points at all.
    """
    gt_bifs = gt.branching_nodes()
    if gt_bifs.size == 0:
        raise ValueError("ground truth has no bifurcations")
    rec_nodes = recon.branching_nodes()
    if rec_nodes.size == 0:
        return [math.inf] * int(gt_bifs.size)
    gt_children = gt.children()
    rec_children = recon.children()
    rec_pts = recon.positions[rec_nodes]
    errors = []
    for b in gt_bifs:
        d = np.linalg.norm(rec_pts - gt.positions[int(b)], axis=1)
        match = rec_nodes[int(np.argmin(d))]
        a_gt = bifurcation_angle(gt, b, gt_children)
        a_rec = bifurcation_angle(recon, match, rec_children)
        errors.append(abs(a_gt - a_rec))
    return errors


def median_angular_error(gt: GroundTruthTree, recon) -> float:
    """Median of ``angular_errors``; +inf when nothing branches."""
    return float(np.median(angular_errors(gt, recon)))


def roc_sweep(gt: GroundTruthTree, recon, scales, kind: str = "bifurcation",
              tol: MatchTolerance = None, step: float = DEFAULT_STEP):
    """ROC curve by sweeping the matching tolerance scale factor.

    A scale s multiplies zeta only (max(radius, s * zeta)), so where most
    radii exceed zeta, scales at and below 1 read almost the same. Both
    trees are resampled and queried once; every scale, in ascending
    order, is a threshold on the same nearest-point distances.
    """
    tol = tol or MatchTolerance()
    scales = sorted(scales)
    rates = _roc_rates(gt, recon, [tol.scaled(s) for s in scales], kind, step)
    return [RocPoint(threshold=float(scale), recall=recall, fallout=fallout)
            for scale, (recall, fallout) in zip(scales, rates)]


# ---------------------------------------------------------------------------
# Connectivity quality of neighbor systems
# ---------------------------------------------------------------------------

def project_to_tree(gt: GroundTruthTree, points):
    """Project points onto the tree: (edge_child, frac, distance) arrays."""
    childs = gt.edge_children()
    a = gt.positions[gt.parent[childs]]
    b = gt.positions[childs]
    d = b - a
    len_sq = np.einsum("ij,ij->i", d, d)
    len_sq = np.where(len_sq <= 0, 1.0, len_sq)
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    n = points.shape[0]
    out_edge = np.empty(n, dtype=np.int64)
    out_frac = np.empty(n)
    out_dist = np.empty(n)
    for lo in range(0, n, _PROJECT_BLOCK):
        pts = points[lo:lo + _PROJECT_BLOCK]
        frac = np.einsum("pj,ej->pe", pts, d) - np.einsum("ej,ej->e", a, d)
        frac = np.clip(frac / len_sq, 0.0, 1.0)
        foot = a[None, :, :] + frac[:, :, None] * d[None, :, :]
        dist = np.linalg.norm(pts[:, None, :] - foot, axis=2)
        best = np.argmin(dist, axis=1)
        rows = np.arange(pts.shape[0])
        out_edge[lo:lo + _PROJECT_BLOCK] = childs[best]
        out_frac[lo:lo + _PROJECT_BLOCK] = frac[rows, best]
        out_dist[lo:lo + _PROJECT_BLOCK] = dist[rows, best]
    return out_edge, out_frac, out_dist


def connectivity_roc(gt: GroundTruthTree, neighbors: NeighborSystem,
                     samples: SampleCloud):
    """Score the neighbor system of a ``SampleCloud`` by the tree's ancestry.

    An edge is correct iff its endpoint projections onto the tree lie on
    one root-to-leaf line. Recall is the fraction of total tree length
    covered by correct edges' projected spans; fall-out is the fraction of
    incorrect edges.
    """
    edge, frac, _ = project_to_tree(gt, samples.positions)
    parent = gt.parent
    # A projection within _SNAP_FRAC of an edge end is on that node;
    # low/high is the tree node at or just below/above each projection.
    at_child = frac >= 1.0 - _SNAP_FRAC
    at_parent = ~at_child & (frac <= _SNAP_FRAC)
    on_edge = ~(at_child | at_parent)
    low = np.where(at_parent, parent[edge], edge)
    high = np.where(at_child, edge, parent[edge])

    u, v = neighbors.pairs[:, 0], neighbors.pairs[:, 1]
    same_edge = on_edge[u] & on_edge[v] & (edge[u] == edge[v])
    order = gt.preorder()
    u_over = order.is_ancestor_or_self(low[u], high[v])
    v_over = order.is_ancestor_or_self(low[v], high[u])
    related = u_over | v_over
    top = np.where(u_over, u, v)[related]
    bot = np.where(u_over, v, u)[related]

    # The whole edges of a pair enter the nodes from high[bot] up to, not
    # including, low[top]: +1 at one and -1 at the other, summed over each
    # node's subtree (a preorder range), is > 0 exactly on them.
    n = parent.size
    delta = (np.bincount(order.enter[high[bot]], minlength=n + 1)
             - np.bincount(order.enter[low[top]], minlength=n + 1))
    prefix = np.concatenate([[0], np.cumsum(delta)])
    whole = np.flatnonzero((prefix[order.leave] > prefix[order.enter])
                           & (parent >= 0))
    t_edge = top[on_edge[top]]
    b_edge = bot[on_edge[bot]]
    s_u, s_v = u[same_edge], v[same_edge]
    child = np.concatenate([edge[s_u], edge[t_edge], edge[b_edge], whole])
    lo = np.concatenate([np.minimum(frac[s_u], frac[s_v]), frac[t_edge],
                         np.zeros(b_edge.size + whole.size)])
    hi = np.concatenate([np.maximum(frac[s_u], frac[s_v]),
                         np.ones(t_edge.size), frac[b_edge],
                         np.ones(whole.size)])

    # Union of the spans on each edge: a gap between consecutive span ends,
    # sorted by (edge, fraction), is covered while depth > 0.
    ends = np.concatenate([lo, hi])
    ends_on = np.concatenate([child, child])
    rank = np.lexsort((ends, ends_on))
    ends, ends_on = ends[rank], ends_on[rank]
    depth = np.cumsum(np.repeat([1, -1], lo.size)[rank])
    length = np.zeros(n)
    length[gt.edge_children()] = gt.edge_lengths()
    covered = float(np.sum(np.where(depth[:-1] > 0, np.diff(ends), 0.0)
                           * length[ends_on[:-1]]))
    total = gt.total_length()
    # covered and total length are summed in different orders, so full
    # coverage can round to just above 1
    recall = min(covered / total, 1.0) if total > 0 else 0.0
    n_pairs = neighbors.n_pairs
    incorrect = n_pairs - int(np.count_nonzero(same_edge | related))
    fallout = incorrect / n_pairs if n_pairs else 0.0
    return float(recall), float(fallout)
