"""Tests for the evaluation metrics."""

import math

import numpy as np
import pytest

from vesseltrees.graphs import NeighborSystem, knn_neighbors, build_confluent_graph
from vesseltrees.geometry import SampleCloud, arc_points
from vesseltrees.metrics import (
    MatchTolerance,
    RocPoint,
    bifurcation_angle,
    bifurcation_roc,
    centerline_roc,
    connectivity_roc,
    median_angular_error,
    project_to_tree,
    resample_tree,
    roc_sweep,
)
from vesseltrees.solvers import NO_PARENT, VesselTree, minimum_arborescence
from vesseltrees.synth import GroundTruthTree, SamplerConfig, generate_tree, \
    sample_centerline


def straight_tree(gt: GroundTruthTree) -> VesselTree:
    """Ground truth rendered as a reconstruction with chord edges."""
    n = gt.n_nodes
    edge_weight = np.full(n, np.nan)
    edge_alpha = np.full(n, np.nan)
    edge_length = np.full(n, np.nan)
    childs = gt.edge_children()
    chord = np.linalg.norm(gt.positions[childs]
                           - gt.positions[gt.parent[childs]], axis=1)
    edge_weight[childs] = chord
    edge_alpha[childs] = 0.0
    edge_length[childs] = chord
    return VesselTree(root=gt.root, parent=gt.parent.copy(),
                      positions=gt.positions.copy(), edge_weight=edge_weight,
                      edge_alpha=edge_alpha, edge_length=edge_length,
                      total_weight=float(np.sum(chord)))


def single_edge_gt(length=1.0):
    return GroundTruthTree(positions=[[0, 0, 0], [length, 0, 0]],
                           radii=[1.0, 1.0], parent=[-1, 0],
                           domain_size=10.0)


def test_resample_counts():
    gt = single_edge_gt(1.0)
    pts, radii = resample_tree(gt, step=0.5)
    assert pts.shape[0] == 3
    assert radii.shape[0] == 3
    pts, _ = resample_tree(gt, step=5.0)
    assert pts.shape[0] == 2
    np.testing.assert_allclose(pts, [[0, 0, 0], [1, 0, 0]])


def test_resample_count_bookkeeping():
    gt = generate_tree(n_leaves=6, domain_size=100.0, seed=0)
    step = 0.25
    pts, _ = resample_tree(gt, step)
    expected = sum(int(math.ceil(le / step)) + 1 for le in gt.edge_lengths())
    assert pts.shape[0] == expected


def test_centerline_roc_identity():
    gt = generate_tree(n_leaves=8, domain_size=100.0, seed=1)
    recall, fallout = centerline_roc(gt, straight_tree(gt))
    assert recall == 1.0
    assert fallout == 0.0


def test_centerline_roc_shifted_copy():
    gt = single_edge_gt(10.0)
    zeta = MatchTolerance(uses_radius=False)
    shifted = straight_tree(gt)
    shifted.positions = shifted.positions + np.array([0, 10 * zeta.zeta, 0])
    recall, fallout = centerline_roc(gt, shifted, zeta)
    assert recall == 0.0
    assert fallout == 1.0


def test_centerline_roc_empty_recon():
    gt = single_edge_gt()
    empty = VesselTree(root=0, parent=np.array([NO_PARENT, -2]),
                       positions=gt.positions.copy(),
                       edge_weight=np.full(2, np.nan),
                       edge_alpha=np.full(2, np.nan),
                       edge_length=np.full(2, np.nan), total_weight=0.0)
    assert centerline_roc(gt, empty) == (0.0, 0.0)


def bif_tree():
    # root -> a -> {b, c}: one bifurcation at a with a 90 degree angle
    positions = [[0, 0, 0], [5, 0, 0], [10, 0, 0], [5, 5, 0]]
    return GroundTruthTree(positions=positions, radii=[1, 1, 1, 1],
                           parent=[-1, 0, 1, 1], domain_size=20.0)


def test_bifurcation_roc_identity_and_path():
    gt = bif_tree()
    recall, fallout = bifurcation_roc(gt, straight_tree(gt))
    assert (recall, fallout) == (1.0, 0.0)

    # single path: no branching points at all
    path = GroundTruthTree(positions=[[0, 0, 0], [5, 0, 0], [10, 0, 0]],
                           radii=[1, 1, 1], parent=[-1, 0, 1],
                           domain_size=20.0)
    recall, fallout = bifurcation_roc(gt, straight_tree(path))
    assert recall == 0.0 and fallout == 0.0


def test_bifurcation_roc_no_gt_bifurcations():
    path = GroundTruthTree(positions=[[0, 0, 0], [5, 0, 0], [10, 0, 0]],
                           radii=[1, 1, 1], parent=[-1, 0, 1],
                           domain_size=20.0)
    gt_with_bif = bif_tree()
    recall, fallout = bifurcation_roc(path, straight_tree(gt_with_bif))
    assert math.isnan(recall)
    assert fallout == 1.0


def test_bifurcation_angle_value_and_relabel_invariance():
    gt = bif_tree()
    angle = bifurcation_angle(gt, 1)
    assert angle == pytest.approx(math.pi / 2)
    # same tree with the two child rows swapped
    swapped = GroundTruthTree(
        positions=[[0, 0, 0], [5, 0, 0], [5, 5, 0], [10, 0, 0]],
        radii=[1, 1, 1, 1], parent=[-1, 0, 1, 1], domain_size=20.0)
    assert bifurcation_angle(swapped, 1) == pytest.approx(angle)


def test_median_angular_error_identity_and_offset():
    gt = bif_tree()
    assert median_angular_error(gt, straight_tree(gt)) == 0.0

    # rotate the side branch by a known angle around the bifurcation
    offset = math.radians(20.0)
    recon = straight_tree(gt)
    recon.positions = recon.positions.copy()
    # child 3 sits 5 voxels above node 1; swing it by `offset` further
    angle = math.pi / 2 + offset
    recon.positions[3] = recon.positions[1] + 5.0 * np.array(
        [math.cos(angle), math.sin(angle), 0.0])
    err = median_angular_error(gt, recon)
    assert err == pytest.approx(offset, abs=1e-9)


def test_median_angular_error_no_branching_is_inf():
    gt = bif_tree()
    path = GroundTruthTree(positions=[[0, 0, 0], [5, 0, 0], [10, 0, 0]],
                           radii=[1, 1, 1], parent=[-1, 0, 1],
                           domain_size=20.0)
    assert median_angular_error(gt, straight_tree(path)) == math.inf
    with pytest.raises(ValueError):
        median_angular_error(path, straight_tree(gt))


def test_roc_sweep_monotone_in_tolerance():
    gt = generate_tree(n_leaves=10, domain_size=100.0, seed=3)
    cloud = sample_centerline(tree=gt, cfg=SamplerConfig(
        spacing=1.0, position_noise_std=0.4, tangent_noise_std_rad=0.25,
        dropout_prob=0.1, orientation_flip_prob=0.02, seed=1))
    neighbors = knn_neighbors(cloud, k=min(500, len(cloud) - 1))
    graph = build_confluent_graph(cloud, neighbors, epsilon=math.pi / 2)
    root = int(np.argmin(np.linalg.norm(
        cloud.positions - gt.positions[gt.root], axis=1)))
    recon = minimum_arborescence(graph, root)
    scales = [0.5, 1.0, 2.0, 4.0]
    for kind in ("centerline", "bifurcation"):
        curve = roc_sweep(gt, recon, scales, kind=kind)
        assert len(curve) == len(scales)
        recalls = [p.recall for p in curve]
        fallouts = [p.fallout for p in curve]
        assert all(b >= a - 1e-12 for a, b in zip(recalls, recalls[1:]))
        assert all(b <= a + 1e-12 for a, b in zip(fallouts, fallouts[1:]))
        assert [p.threshold for p in curve] == sorted(scales)


def arc_recon(n_leaves=8, seed=2):
    """GT plus a confluent reconstruction whose edges are arcs."""
    gt = generate_tree(n_leaves=n_leaves, domain_size=80.0, seed=seed)
    cloud = sample_centerline(tree=gt, cfg=SamplerConfig(
        position_noise_std=0.3, tangent_noise_std_rad=0.2, seed=seed))
    neighbors = knn_neighbors(cloud, k=min(40, len(cloud) - 1))
    graph = build_confluent_graph(cloud, neighbors, epsilon=math.pi / 2)
    root = int(np.argmin(np.linalg.norm(
        cloud.positions - gt.positions[gt.root], axis=1)))
    return gt, minimum_arborescence(graph, root)


def reference_resample(tree, step):
    """Edge-by-edge resampling with the scalar arc kernel."""
    stored = getattr(tree, "edge_length", None)
    tangents = getattr(tree, "edge_start_tangent", None)
    radii = getattr(tree, "radii", None)
    pts, rads = [], []
    for child in np.flatnonzero(tree.parent >= 0):
        a = int(tree.parent[child])
        p, q = tree.positions[a], tree.positions[child]
        length = float(np.linalg.norm(q - p))
        if stored is not None and math.isfinite(stored[child]):
            length = float(stored[child])
        n = max(1, math.ceil(length / step))
        fracs = np.arange(n + 1) / n
        if tangents is not None and np.all(np.isfinite(tangents[child])):
            pts.append(arc_points(p, tangents[child], q, fracs))
        else:
            pts.append(p + fracs[:, None] * (q - p))
        if radii is not None:
            rads.append((1 - fracs) * radii[a] + fracs * radii[child])
    return (np.concatenate(pts),
            np.concatenate(rads) if radii is not None else None)


def test_resample_tree_matches_per_edge_reference():
    gt, recon = arc_recon()
    assert recon.edge_start_tangent is not None
    for tree in (gt, recon, straight_tree(gt)):
        for step in (0.25, 0.9):
            pts, radii = resample_tree(tree, step)
            ref_pts, ref_radii = reference_resample(tree, step)
            assert pts.shape == ref_pts.shape
            np.testing.assert_allclose(pts, ref_pts, rtol=0, atol=1e-9)
            if ref_radii is None:
                assert radii is None
            else:
                np.testing.assert_array_equal(radii, ref_radii)


def same_rates(got, want):
    """Exact equality of (recall, fallout) pairs, NaN equal to NaN."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        for x, y in zip(a, b):
            assert x == y or (math.isnan(x) and math.isnan(y)), (got, want)


def test_roc_sweep_equals_single_scale_calls():
    gt, recon = arc_recon()
    empty = VesselTree(root=recon.root, parent=np.where(
        np.arange(recon.parent.size) == recon.root, NO_PARENT, -2),
        positions=recon.positions, edge_weight=recon.edge_weight,
        edge_alpha=recon.edge_alpha, edge_length=recon.edge_length,
        total_weight=0.0)
    path = GroundTruthTree(positions=[[0, 0, 0], [5, 0, 0], [10, 0, 0]],
                           radii=[1, 1, 1], parent=[-1, 0, 1],
                           domain_size=20.0)
    cases = [(gt, recon), (gt, empty), (path, recon),
             (path, straight_tree(path))]
    tol = MatchTolerance(zeta=0.6)
    scales = [2.0, 0.5, 1.0, 0.5, 4.0, 1.0]
    for g, r in cases:
        for kind, single in (("centerline", centerline_roc),
                             ("bifurcation", bifurcation_roc)):
            curve = roc_sweep(g, r, scales, kind=kind, tol=tol, step=0.3)
            assert [p.threshold for p in curve] == sorted(scales)
            want = [single(g, r, tol.scaled(s), 0.3) for s in sorted(scales)]
            same_rates([(p.recall, p.fallout) for p in curve], want)


def test_rocpoint_range_validation():
    with pytest.raises(ValueError):
        RocPoint(threshold=1.0, recall=1.5, fallout=0.0)


def test_connectivity_roc_parent_pairs():
    gt = generate_tree(n_leaves=6, domain_size=100.0, seed=4)
    cloud = SampleCloud(
        gt.positions,
        np.tile([1.0, 0.0, 0.0], (gt.n_nodes, 1)))
    childs = gt.edge_children()
    pairs = np.stack([np.minimum(gt.parent[childs], childs),
                      np.maximum(gt.parent[childs], childs)], axis=1)
    pairs = pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]
    system = NeighborSystem(k=1, pairs=pairs)
    recall, fallout = connectivity_roc(gt, system, cloud)
    assert recall == pytest.approx(1.0)
    assert fallout == 0.0


def test_connectivity_roc_sibling_bridges():
    gt = bif_tree()
    cloud = SampleCloud(gt.positions, np.tile([1.0, 0, 0], (4, 1)))
    system = NeighborSystem(k=1, pairs=np.array([[2, 3]]))
    recall, fallout = connectivity_roc(gt, system, cloud)
    assert fallout == 1.0
    assert recall == 0.0


def test_project_to_tree_basics():
    gt = single_edge_gt(10.0)
    pts = np.array([[5.0, 1.0, 0.0], [-3.0, 0.0, 0.0]])
    edge, frac, dist = project_to_tree(gt, pts)
    assert edge.tolist() == [1, 1]
    assert frac[0] == pytest.approx(0.5)
    assert dist[0] == pytest.approx(1.0)
    assert frac[1] == 0.0
    assert dist[1] == pytest.approx(3.0)


# Reference connectivity: the per-pair ancestor walk that connectivity_roc
# replaced, kept as the oracle for its array passes.

def _ancestors_plus(gt):
    anc = {}
    for v in range(gt.n_nodes):
        chain = set()
        x = v
        while x >= 0:
            chain.add(int(x))
            x = int(gt.parent[x])
        anc[v] = chain
    return anc


def _canonical_projection(gt, edge_child, frac):
    """Snap edge projections landing on a node to that node."""
    if frac >= 1.0 - 1e-9:
        return ("node", int(edge_child))
    if frac <= 1e-9:
        return ("node", int(gt.parent[edge_child]))
    return ("edge", int(edge_child), float(frac))


def _relation_spans(gt, proj_u, proj_v, anc):
    """None if unrelated, else the covered (edge_child, lo, hi) spans."""
    if proj_u[0] == proj_v[0] == "edge" and proj_u[1] == proj_v[1]:
        return [(proj_u[1], min(proj_u[2], proj_v[2]),
                 max(proj_u[2], proj_v[2]))]

    def is_above(p_top, p_bot):
        below = p_bot[1] if p_bot[0] == "node" else int(gt.parent[p_bot[1]])
        return p_top[1] in anc[below]

    for top, bot in ((proj_u, proj_v), (proj_v, proj_u)):
        if not is_above(top, bot):
            continue
        spans = []
        if top[0] == "edge":
            spans.append((top[1], top[2], 1.0))
        join = top[1]
        if bot[0] == "edge":
            spans.append((bot[1], 0.0, bot[2]))
            x = int(gt.parent[bot[1]])
        else:
            x = bot[1]
        while x != join:
            spans.append((x, 0.0, 1.0))
            x = int(gt.parent[x])
        return spans
    return None


def reference_connectivity(gt, neighbors, cloud):
    """(recall, fallout, projections, spans per pair) by walking each pair."""
    edge_idx, frac, _ = project_to_tree(gt, cloud.positions)
    anc = _ancestors_plus(gt)
    projections = [_canonical_projection(gt, e, f)
                   for e, f in zip(edge_idx, frac)]
    lengths = {int(c): float(np.linalg.norm(
        gt.positions[c] - gt.positions[gt.parent[c]]))
        for c in gt.edge_children()}
    intervals = {}
    per_pair = []
    for u, v in neighbors.pairs.tolist():
        spans = _relation_spans(gt, projections[u], projections[v], anc)
        per_pair.append(spans)
        for child, lo, hi in spans or ():
            if hi > lo:
                intervals.setdefault(child, []).append((lo, hi))
    covered = 0.0
    for child, spans in intervals.items():
        spans.sort()
        cur_lo, cur_hi = spans[0]
        for lo, hi in spans[1:]:
            if lo > cur_hi:
                covered += (cur_hi - cur_lo) * lengths[child]
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        covered += (cur_hi - cur_lo) * lengths[child]
    incorrect = sum(spans is None for spans in per_pair)
    return (covered / gt.total_length(), incorrect / len(per_pair),
            projections, per_pair)


def test_connectivity_roc_matches_pair_walk_reference():
    seen = {"same_edge": 0, "unrelated": 0, "snapped": 0, "whole_edge": 0}
    for seed in range(36):
        gt = generate_tree(n_leaves=3 + seed % 4, domain_size=25.0,
                           seed=seed)
        noisy = seed % 3 == 2
        cloud = sample_centerline(gt, SamplerConfig(
            position_noise_std=0.4 if noisy else 0.0,
            tangent_noise_std_rad=0.2 if noisy else 0.0, seed=seed))
        if seed % 3 == 0:   # samples on every tree node snap to it
            cloud = SampleCloud(
                np.concatenate([cloud.positions, gt.positions]),
                np.concatenate([cloud.tangents,
                                np.tile([1.0, 0, 0], (gt.n_nodes, 1))]))
        n = len(cloud)
        if seed % 2:
            system = knn_neighbors(cloud, k=min(20, n - 1))
        else:
            u, v = np.triu_indices(n, 1)
            system = NeighborSystem(k=n - 1, pairs=np.stack([u, v], axis=1))
        recall, fallout = connectivity_roc(gt, system, cloud)
        want_recall, want_fallout, proj, per_pair = reference_connectivity(
            gt, system, cloud)
        assert fallout == want_fallout
        assert recall == pytest.approx(want_recall, rel=1e-12, abs=0)
        for (u, v), spans in zip(system.pairs.tolist(), per_pair):
            if spans is None:
                seen["unrelated"] += 1
                continue
            kinds = (proj[u][0], proj[v][0])
            seen["same_edge"] += kinds == ("edge", "edge") and len(spans) == 1
            seen["snapped"] += "node" in kinds
            seen["whole_edge"] += any(lo == 0.0 and hi == 1.0
                                      for _, lo, hi in spans)
    assert min(seen.values()) > 0, seen
