"""Tests for the ground-truth generator and the centerline sampler."""

import numpy as np
import pytest

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
