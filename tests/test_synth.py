"""Tests for the ground-truth generator and the centerline sampler."""

import numpy as np
import pytest

from vesseltrees import synth
from vesseltrees.metrics import bifurcation_angle, project_to_tree
from vesseltrees.synth import (
    CHILD_RADIUS_FACTOR,
    GroundTruthTree,
    SamplerConfig,
    generate_tree,
    sample_centerline,
)


def test_two_leaves_single_bifurcation():
    tree = generate_tree(n_leaves=2, domain_size=100.0, seed=1)
    assert tree.branching_nodes().size == 1
    children = tree.children()
    assert len(children[int(tree.branching_nodes()[0])]) == 2


def test_generator_deterministic():
    a = generate_tree(n_leaves=8, domain_size=100.0, seed=5)
    b = generate_tree(n_leaves=8, domain_size=100.0, seed=5)
    np.testing.assert_array_equal(a.positions, b.positions)
    np.testing.assert_array_equal(a.parent, b.parent)
    np.testing.assert_array_equal(a.radii, b.radii)
    c = generate_tree(n_leaves=8, domain_size=100.0, seed=6)
    assert not np.array_equal(a.positions, c.positions)


def test_tree_stays_binary_and_in_domain():
    for seed in range(5):
        tree = generate_tree(n_leaves=10, domain_size=100.0, seed=seed)
        assert np.all(tree.positions >= 0)
        assert np.all(tree.positions <= tree.domain_size)
        children = tree.children()
        for node, kids in enumerate(children.degree):
            if node == tree.root:
                assert kids == 1
            else:
                assert kids in (0, 1, 2)
        assert tree.branching_nodes().size == 9  # n_leaves - 1 splits


def test_radii_non_increasing():
    tree = generate_tree(n_leaves=12, domain_size=100.0, seed=3)
    for child in tree.edge_children():
        assert tree.radii[child] <= tree.radii[tree.parent[child]] + 1e-12
    leaf_radii = [tree.radii[i]
                  for i, kids in enumerate(tree.children().degree) if not kids]
    assert min(leaf_radii) < 2.0 * CHILD_RADIUS_FACTOR + 1e-12


def test_relocation_widens_angle_distribution():
    def angle_std(relocate):
        angles = []
        for seed in range(15):
            tree = generate_tree(n_leaves=10, domain_size=100.0, seed=seed,
                                 relocate_bifurcations=relocate)
            children = tree.children()
            angles += [bifurcation_angle(tree, b, children)
                       for b in tree.branching_nodes()]
        return float(np.std(angles))

    assert angle_std(True) > angle_std(False)


def test_zero_noise_samples_on_tree():
    tree = generate_tree(n_leaves=6, domain_size=100.0, seed=2)
    cloud = sample_centerline(tree, SamplerConfig(spacing=1.0, seed=0))
    _, frac, dist = project_to_tree(tree, cloud.positions)
    assert float(np.max(dist)) <= 1e-9
    # interior samples carry the exact edge direction
    childs = tree.edge_children()
    edge_idx, frac, _ = project_to_tree(tree, cloud.positions)
    for i in range(len(cloud)):
        if not 0.01 < frac[i] < 0.99:
            continue
        child = int(edge_idx[i])
        vec = tree.positions[child] - tree.positions[tree.parent[child]]
        vec = vec / np.linalg.norm(vec)
        assert float(np.dot(vec, cloud.tangents[i])) == pytest.approx(1.0)
    assert cloud.radii is not None
    assert np.all(cloud.radii > 0)


def test_flip_probability_one_negates_tangents():
    tree = generate_tree(n_leaves=4, domain_size=100.0, seed=4)
    base = sample_centerline(tree, SamplerConfig(seed=9))
    flipped = sample_centerline(
        tree, SamplerConfig(orientation_flip_prob=1.0, seed=9))
    np.testing.assert_array_equal(base.positions, flipped.positions)
    np.testing.assert_allclose(flipped.tangents, -base.tangents, atol=1e-12)


def test_sampler_deterministic():
    tree = generate_tree(n_leaves=6, domain_size=100.0, seed=8)
    cfg = SamplerConfig(spacing=1.0, position_noise_std=0.3,
                        tangent_noise_std_rad=0.2,
                        orientation_flip_prob=0.05, dropout_prob=0.1, seed=3)
    a = sample_centerline(tree, cfg)
    b = sample_centerline(tree, cfg)
    np.testing.assert_array_equal(a.positions, b.positions)
    np.testing.assert_array_equal(a.tangents, b.tangents)


def test_sample_count_tracks_length_over_spacing():
    tree = generate_tree(n_leaves=10, domain_size=100.0, seed=11)
    spacing = 1.0
    cloud = sample_centerline(tree, SamplerConfig(spacing=spacing, seed=0))
    expected = tree.total_length() / spacing
    assert abs(len(cloud) - expected) <= 3.0 * np.sqrt(len(cloud))


def test_dropout_rate_over_seeds():
    tree = generate_tree(n_leaves=8, domain_size=100.0, seed=12)
    full = len(sample_centerline(tree, SamplerConfig(seed=0)))
    rate = 0.3
    counts = [len(sample_centerline(
        tree, SamplerConfig(dropout_prob=rate, seed=s))) for s in range(100)]
    mean_kept = float(np.mean(counts))
    sigma = np.sqrt(full * rate * (1 - rate) / 100)
    assert abs(mean_kept - (1 - rate) * full) <= 4 * sigma


def test_huge_spacing_still_emits_root_and_leaves():
    tree = generate_tree(n_leaves=4, domain_size=100.0, seed=13)
    cloud = sample_centerline(tree, SamplerConfig(spacing=1e6, seed=0))
    children = tree.children()
    keep = [tree.root] + [i for i, kids in enumerate(children.degree)
                          if not kids]
    assert len(cloud) == len(keep)
    got = {tuple(np.round(p, 9)) for p in cloud.positions}
    want = {tuple(np.round(tree.positions[i], 9)) for i in keep}
    assert got == want


def test_sampler_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(spacing=0.0)
    with pytest.raises(ValueError):
        SamplerConfig(dropout_prob=1.5)
    with pytest.raises(ValueError):
        SamplerConfig(tangent_noise_std_rad=-0.1)


def test_tangent_noise_std_matches_knob():
    tree = generate_tree(n_leaves=8, domain_size=100.0, seed=14)
    clean = sample_centerline(tree, SamplerConfig(seed=21))
    noisy = sample_centerline(
        tree, SamplerConfig(tangent_noise_std_rad=0.2, seed=21))
    dots = np.clip(np.einsum("ij,ij->i", clean.tangents, noisy.tangents),
                   -1, 1)
    angles = np.arccos(dots)
    # rotation angle is |N(0, 0.2)|; its RMS is the std knob
    rms = float(np.sqrt(np.mean(angles ** 2)))
    assert rms == pytest.approx(0.2, rel=0.15)


def reference_generate_tree(n_leaves, domain_size, seed, relocate):
    """``generate_tree`` as a list-growing loop: (positions, radii, parent),
    with the segment arrays rebuilt from the parent list at every step."""
    rng = np.random.default_rng(seed)
    size = float(domain_size)
    root = rng.uniform(0, size, 3)
    first = rng.uniform(0, size, 3)
    while np.linalg.norm(first - root) < 0.25 * size:
        first = rng.uniform(0, size, 3)
    positions, radii, parent = [root, first], [2.0, 2.0], [-1, 0]
    for _ in range(n_leaves - 1):
        childs = [i for i in range(len(parent)) if parent[i] >= 0]
        seg_a = np.array([positions[parent[c]] for c in childs])
        seg_b = np.array([positions[c] for c in childs])
        for _attempt in range(1000):
            cand = rng.uniform(0, size, 3)
            idx, f, foot, dist = synth._nearest_on_segments(cand, seg_a,
                                                            seg_b)
            if dist >= 1.0 and 0.05 <= f <= 0.95:
                target, host, frac = cand, childs[idx], f
                break
        host_parent = parent[host]
        a, b = positions[host_parent], positions[host]
        if relocate:
            end = a if rng.integers(2) == 0 else b
            foot = 0.5 * (foot + end)
            frac = float(np.linalg.norm(foot - a) / np.linalg.norm(b - a))
        split_radius = (1.0 - frac) * radii[host_parent] + frac * radii[host]
        split = len(positions)
        positions.append(foot)
        radii.append(split_radius)
        parent.append(host_parent)
        parent[host] = split
        positions.append(target)
        radii.append(split_radius * CHILD_RADIUS_FACTOR)
        parent.append(split)
    return np.array(positions), np.array(radii), np.array(parent)


def reference_sample_centerline(tree, cfg):
    """``sample_centerline`` emitting one sample per Python iteration."""
    children = tree.children()
    is_leaf = children.degree == 0
    first_child = children[tree.root][0]
    root_dir = tree.positions[first_child] - tree.positions[tree.root]
    root_dir = root_dir / np.linalg.norm(root_dir)
    pts, tans = [tree.positions[tree.root]], [root_dir]
    radii = [tree.radii[tree.root]]
    for child in tree.edge_children():
        a = int(tree.parent[child])
        vec = tree.positions[child] - tree.positions[a]
        length = float(np.linalg.norm(vec))
        direction = vec / length
        m = int(np.floor(length / cfg.spacing - 0.5))
        offsets = cfg.spacing * np.arange(1, m + 1) if m >= 1 else []
        for s in offsets:
            f = s / length
            pts.append(tree.positions[a] + s * direction)
            tans.append(direction)
            radii.append((1 - f) * tree.radii[a] + f * tree.radii[child])
        if is_leaf[child]:
            pts.append(tree.positions[child])
            tans.append(direction)
            radii.append(tree.radii[child])
    pos, tan, rad = np.array(pts), np.array(tans), np.array(radii)
    n = pos.shape[0]
    rng = np.random.default_rng(cfg.seed)
    pos = pos + rng.normal(0.0, 1.0, (n, 3)) * cfg.position_noise_std
    theta = rng.normal(0.0, 1.0, n) * cfg.tangent_noise_std_rad
    phi = rng.uniform(0.0, 2.0 * np.pi, n)
    u, w = synth._perpendicular_frame(tan)
    axis = np.cos(phi)[:, None] * u + np.sin(phi)[:, None] * w
    tan = np.cos(theta)[:, None] * tan + np.sin(theta)[:, None] * axis
    flip = rng.random(n) < cfg.orientation_flip_prob
    tan[flip] *= -1.0
    keep = rng.random(n) >= cfg.dropout_prob
    tan /= np.linalg.norm(tan, axis=1, keepdims=True)
    return pos[keep], tan[keep], rad[keep]


@pytest.mark.parametrize("n_leaves,domain,seed,relocate", [
    (2, 100.0, 0, True), (8, 100.0, 5, True), (8, 100.0, 5, False),
    (33, 60.0, 3, True), (64, 400.0, 1, False)])
def test_generate_tree_is_the_list_loop_bit_for_bit(n_leaves, domain, seed,
                                                    relocate):
    tree = generate_tree(n_leaves, domain, seed, relocate)
    positions, radii, parent = reference_generate_tree(n_leaves, domain,
                                                       seed, relocate)
    for got, want in ((tree.positions, positions), (tree.radii, radii),
                      (tree.parent, parent)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("spacing,flip,dropout", [
    (1.0, 0.0, 0.0), (0.7, 0.1, 0.2), (2.5, 0.0, 0.0), (6.0, 0.5, 0.3)])
def test_sample_centerline_is_the_per_sample_loop_bit_for_bit(
        spacing, flip, dropout):
    # Edges under 1.5 spacings get no interior sample; the 12-leaf tree has
    # one of 1.25 voxels, which is also under half a spacing at 6.
    trees = [generate_tree(n, 100.0, seed) for n, seed in ((2, 1), (12, 4))]
    short = 0
    for tree in trees:
        short += int(np.sum(tree.edge_lengths() < 1.5 * spacing))
        for noise in (0.0, 0.3):
            cfg = SamplerConfig(spacing=spacing, position_noise_std=noise,
                                tangent_noise_std_rad=noise,
                                orientation_flip_prob=flip,
                                dropout_prob=dropout, seed=7)
            cloud = sample_centerline(tree, cfg)
            for got, want in zip((cloud.positions, cloud.tangents,
                                  cloud.radii),
                                 reference_sample_centerline(tree, cfg)):
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()
    assert short > 0 or spacing < 1.0
