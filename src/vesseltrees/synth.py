"""Synthetic ground-truth vessel trees and noisy oriented sampling.

Trees grow inside a cubic domain by repeatedly connecting a random target
point to the nearest point of the existing tree, splitting the host segment
there. Optionally each new branching point is relocated half way toward a
randomly chosen end of its host segment, which widens the branching-angle
distribution; without relocation almost every branch leaves perpendicular
to its host.

The sampler turns a tree into an oriented point cloud emulating detector
output: points along every edge at a mean arc-length spacing, flow tangents
equal to the parent-to-child direction, plus controlled corruption
(position jitter, tangent rotation, orientation flips, dropout).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import SampleCloud
from .trees import NO_PARENT, ParentTree

ROOT_RADIUS = 2.0
CHILD_RADIUS_FACTOR = 2.0 ** (-1.0 / 3.0)
_MIN_TARGET_CLEARANCE = 1.0   # voxels between a new target and the tree
_INTERIOR_MARGIN = 0.05       # fraction of host segment kept clear of ends


@dataclass
class GroundTruthTree(ParentTree):
    """Polyline tree with per-node radii inside a cubic domain."""

    positions: np.ndarray
    radii: np.ndarray
    parent: np.ndarray
    domain_size: float

    edge_length = edge_weight = edge_start_tangent = None

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=float).reshape(-1, 3)
        self.radii = np.asarray(self.radii, dtype=float).reshape(-1)
        self.parent = np.asarray(self.parent, dtype=np.int64).reshape(-1)

    @property
    def root(self) -> int:
        """First node without a parent (0 if none, which validate rejects)."""
        return int(np.argmax(self.parent == NO_PARENT))


def _nearest_on_segments(point, seg_a, seg_b):
    """Nearest point over segments: returns (seg_idx, frac, foot, dist)."""
    d = seg_b - seg_a
    seg_len_sq = np.einsum("ij,ij->i", d, d)
    seg_len_sq = np.where(seg_len_sq <= 0, 1.0, seg_len_sq)
    frac = np.clip(np.einsum("ij,ij->i", point - seg_a, d) / seg_len_sq, 0, 1)
    foot = seg_a + frac[:, None] * d
    dist = np.linalg.norm(point - foot, axis=1)
    best = int(np.argmin(dist))
    return best, float(frac[best]), foot[best], float(dist[best])


def generate_tree(n_leaves: int, domain_size: float = 100.0, seed: int = 0,
                  relocate_bifurcations: bool = True) -> GroundTruthTree:
    """Grow a random binary tree with ``n_leaves`` leaves.

    Each growth step samples a target point, projects it onto the nearest
    existing segment, splits that segment at the projection (optionally
    relocated half way toward a random segment end) and hangs the target
    off the new branching node. Targets are re-drawn until the projection
    is interior to its host segment and clear of the existing tree, which
    keeps the tree strictly binary.

    Radii start at 2 voxels at the root and shrink by 2^(-1/3) per new
    branch, with linear interpolation at split points, so they are
    non-increasing from parent to child.
    """
    if n_leaves < 2:
        raise ValueError("n_leaves must be >= 2")
    size = float(domain_size)
    if not 0 < size < np.inf:  # written so that NaN fails it
        raise ValueError(f"domain_size must be finite and > 0, got {size}")
    rng = np.random.default_rng(seed)

    # Every split adds two nodes, so the tree ends with 2 n_leaves nodes.
    # Only node 0, the root, has no parent: the segments are always the
    # edges into nodes 1 .. n - 1.
    n_nodes = 2 * n_leaves
    positions = np.empty((n_nodes, 3))
    radii = np.empty(n_nodes)
    parent = np.empty(n_nodes, dtype=np.int64)
    positions[0] = rng.uniform(0, size, 3)
    first = rng.uniform(0, size, 3)
    while np.linalg.norm(first - positions[0]) < 0.25 * size:
        first = rng.uniform(0, size, 3)
    positions[1] = first
    radii[:2] = ROOT_RADIUS
    parent[:2] = (-1, 0)

    for n in range(2, n_nodes, 2):
        seg_a = positions[parent[1:n]]
        seg_b = positions[1:n]
        target = host = frac = foot = None
        for _attempt in range(1000):
            cand = rng.uniform(0, size, 3)
            idx, f, ft, dist = _nearest_on_segments(cand, seg_a, seg_b)
            if dist < _MIN_TARGET_CLEARANCE:
                continue
            if not _INTERIOR_MARGIN <= f <= 1.0 - _INTERIOR_MARGIN:
                continue
            target, host, frac, foot = cand, idx + 1, f, ft
            break
        if target is None:
            raise RuntimeError("could not place a new branch; "
                               "domain too crowded for n_leaves")

        host_parent = parent[host]
        a = positions[host_parent]
        b = positions[host]
        if relocate_bifurcations:
            # halve the distance to a uniformly chosen end of the host
            end = a if rng.integers(2) == 0 else b
            foot = 0.5 * (foot + end)
            frac = float(np.linalg.norm(foot - a) / np.linalg.norm(b - a))
        split_radius = (1.0 - frac) * radii[host_parent] + frac * radii[host]

        positions[n] = foot
        radii[n] = split_radius
        parent[n] = host_parent
        parent[host] = n

        positions[n + 1] = target
        radii[n + 1] = split_radius * CHILD_RADIUS_FACTOR
        parent[n + 1] = n

    return GroundTruthTree(positions=positions, radii=radii, parent=parent,
                           domain_size=size)


@dataclass
class SamplerConfig:
    """Controls centerline sampling density and corruption."""

    spacing: float = 1.0
    position_noise_std: float = 0.0
    tangent_noise_std_rad: float = 0.0
    orientation_flip_prob: float = 0.0
    dropout_prob: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.spacing < np.inf:  # NaN fails each check
            raise ValueError(f"spacing must be finite and > 0, "
                             f"got {self.spacing}")
        for name in ("position_noise_std", "tangent_noise_std_rad"):
            if not 0 <= getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and >= 0, "
                                 f"got {getattr(self, name)}")
        for name in ("orientation_flip_prob", "dropout_prob"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")


def _perpendicular_frame(tangents):
    """Two unit fields orthogonal to each tangent (and to each other)."""
    helper = np.where(np.abs(tangents[:, :1]) < 0.9,
                      np.array([[1.0, 0.0, 0.0]]),
                      np.array([[0.0, 1.0, 0.0]]))
    u = np.cross(tangents, helper)
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    w = np.cross(tangents, u)
    return u, w


def sample_centerline(tree: GroundTruthTree, cfg: SamplerConfig) -> SampleCloud:
    """Sample a tree into an oriented, optionally corrupted point cloud.

    Points are placed along every edge at ``cfg.spacing`` voxels of arc
    length, with the root and the leaf tips always emitted. Interior tree
    nodes are not sampled specially, so branch points fall between samples
    the way weak junction responses do in real detections. Radii are
    interpolated between node radii. Corruption order is fixed (position
    jitter, tangent rotation, flips, dropout) so a seed fully determines
    the output.
    """
    children = tree.children()
    is_leaf = children.degree == 0
    first_child = children[tree.root][0]
    root_dir = tree.positions[first_child] - tree.positions[tree.root]
    root_dir = root_dir / np.linalg.norm(root_dir)

    pts = [tree.positions[tree.root][None]]
    tans = [root_dir[None]]
    radii = [tree.radii[tree.root:tree.root + 1]]
    for child in tree.edge_children():
        a = int(tree.parent[child])
        vec = tree.positions[child] - tree.positions[a]
        length = float(np.linalg.norm(vec))
        direction = vec / length
        # grid leaves a gap of [h/2, 3h/2) before the far node: junctions sit
        # between samples, as they do in detections where tubularity fades
        m = int(np.floor(length / cfg.spacing - 0.5))
        s = cfg.spacing * np.arange(1, m + 1)    # empty if m < 1
        f = s / length
        pts.append(tree.positions[a] + s[:, None] * direction)
        radii.append((1 - f) * tree.radii[a] + f * tree.radii[child])
        if is_leaf[child]:  # leaf tips are always detected
            pts.append(tree.positions[child][None])
            radii.append(tree.radii[child:child + 1])
        tans.append(np.broadcast_to(direction, (s.size + is_leaf[child], 3)))

    pos = np.concatenate(pts)
    tan = np.concatenate(tans)
    rad = np.concatenate(radii)
    n = pos.shape[0]

    rng = np.random.default_rng(cfg.seed)
    pos = pos + rng.normal(0.0, 1.0, (n, 3)) * cfg.position_noise_std
    theta = rng.normal(0.0, 1.0, n) * cfg.tangent_noise_std_rad
    phi = rng.uniform(0.0, 2.0 * np.pi, n)
    u, w = _perpendicular_frame(tan)
    axis = np.cos(phi)[:, None] * u + np.sin(phi)[:, None] * w
    tan = np.cos(theta)[:, None] * tan + np.sin(theta)[:, None] * axis
    flip = rng.random(n) < cfg.orientation_flip_prob
    tan[flip] *= -1.0
    keep = rng.random(n) >= cfg.dropout_prob
    tan /= np.linalg.norm(tan, axis=1, keepdims=True)
    return SampleCloud(pos[keep], tan[keep], rad[keep])
