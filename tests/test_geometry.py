"""Tests for the circular-arc geometry primitives."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from vesseltrees.geometry import (
    ALPHA_DEGENERATE,
    DegenerateInputError,
    OrientedSample,
    arc_end_tangent,
    arc_points,
    arc_weight,
    batch_arc_geometry,
    batch_arc_points,
    batch_confluence_angles,
    batch_shorter_arc_lengths,
    confluence_angle,
    fit_arc,
)


def random_units(rng, n):
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def quadrature_length(p, t, q, rel=1e-9):
    """Arc length by adaptive quadrature of finite-difference speeds."""
    h = 1e-7

    def speed(s):
        lo, hi = arc_points(p, t, q, [s - h, s + h])
        return float(np.linalg.norm(hi - lo)) / (2 * h)

    value, _ = quad(speed, 0.0, 1.0, epsabs=0.0, epsrel=rel, limit=200)
    return value


def test_straight_segment_limit():
    p = OrientedSample([0, 0, 0], [1, 0, 0])
    arc = fit_arc(p, [2, 0, 0])
    assert arc.alpha == pytest.approx(0.0, abs=1e-12)
    assert arc.length == pytest.approx(2.0, abs=1e-12)
    assert arc.chord_len == pytest.approx(2.0)
    np.testing.assert_allclose(arc.end_tangent, [1, 0, 0], atol=1e-12)


def test_semicircle():
    p = OrientedSample([0, 0, 0], [0, 1, 0])
    arc = fit_arc(p, [2, 0, 0])
    assert arc.alpha == pytest.approx(math.pi / 2)
    assert arc.length == pytest.approx(math.pi)
    np.testing.assert_allclose(arc.end_tangent, [0, -1, 0], atol=1e-12)


def test_coincident_points_rejected():
    p = OrientedSample([1, 2, 3], [0, 0, 1])
    with pytest.raises(DegenerateInputError):
        fit_arc(p, [1, 2, 3])


def test_antiparallel_tangent_degenerate():
    p = OrientedSample([0, 0, 0], [-1, 0, 0])
    arc = fit_arc(p, [2, 0, 0])
    assert arc.degenerate
    assert arc.length == math.inf
    assert arc_weight(arc, [1, 0, 0], epsilon=math.pi / 2) == math.inf


def test_length_matches_quadrature_random():
    rng = np.random.default_rng(7)
    for _ in range(200):
        p = rng.uniform(-5, 5, 3)
        q = rng.uniform(-5, 5, 3)
        t = random_units(rng, 1)[0]
        arc = fit_arc(OrientedSample(p, t), q)
        if arc.degenerate:
            continue
        expected = quadrature_length(p, t, q)
        assert arc.length == pytest.approx(expected, rel=1e-6)


def test_end_tangent_reflection_identities():
    e = np.array([1.0, 0.0, 0.0])
    np.testing.assert_allclose(arc_end_tangent(e, e), e, atol=1e-12)
    t_perp = np.array([0.0, 0.0, 1.0])
    np.testing.assert_allclose(arc_end_tangent(t_perp, e), -t_perp, atol=1e-12)


def test_end_tangent_requires_unit_inputs():
    with pytest.raises(ValueError):
        arc_end_tangent([1, 1, 0], [1, 0, 0])
    with pytest.raises(ValueError):
        arc_end_tangent([1, 0, 0], [0, 0.5, 0])


def test_end_tangent_matches_finite_difference():
    rng = np.random.default_rng(21)
    h = 1e-6
    for _ in range(300):
        p = rng.uniform(-3, 3, 3)
        q = rng.uniform(-3, 3, 3)
        t = random_units(rng, 1)[0]
        arc = fit_arc(OrientedSample(p, t), q)
        if arc.degenerate:
            continue
        lo, hi = arc_points(p, t, q, [1 - h, 1 + h])
        fd = (hi - lo) / (2 * h)
        fd /= np.linalg.norm(fd)
        np.testing.assert_allclose(arc.end_tangent, fd, atol=1e-6)


def test_confluence_angle_trivial_cases():
    p = OrientedSample([0, 0, 0], [0, 1, 0])
    arc = fit_arc(p, [2, 0, 0])  # end tangent (0, -1, 0)
    assert confluence_angle(arc, [0, -1, 0]) == pytest.approx(0.0, abs=1e-12)
    assert confluence_angle(arc, [0, 1, 0]) == pytest.approx(math.pi)


def test_forward_reverse_angle_identity():
    # The confluence angle of the arc p->q against q's flow equals that of
    # the reverse arc q->p against p's flow, for any tangent pair.
    rng = np.random.default_rng(3)
    for _ in range(500):
        p_pos = rng.uniform(-4, 4, 3)
        q_pos = rng.uniform(-4, 4, 3)
        if np.linalg.norm(q_pos - p_pos) < 1e-6:
            continue
        t_p, t_q = random_units(rng, 2)
        p = OrientedSample(p_pos, t_p)
        q = OrientedSample(q_pos, t_q)
        fwd = confluence_angle(fit_arc(p, q_pos), t_q)
        rev = confluence_angle(fit_arc(q, p_pos), t_p)
        assert abs(fwd - rev) <= 1e-9


def test_confluence_symmetry_with_threshold():
    rng = np.random.default_rng(11)
    eps = math.pi / 2
    for _ in range(2000):
        p_pos = rng.uniform(-4, 4, 3)
        q_pos = rng.uniform(-4, 4, 3)
        if np.linalg.norm(q_pos - p_pos) < 1e-6:
            continue
        t_p, t_q = random_units(rng, 2)
        fwd = confluence_angle(fit_arc(OrientedSample(p_pos, t_p), q_pos), t_q)
        rev = confluence_angle(fit_arc(OrientedSample(q_pos, t_q), p_pos), t_p)
        assert (fwd <= eps) == (rev <= eps)


def test_weight_uses_length_when_confluent():
    p = OrientedSample([0, 0, 0], [1, 0, 0])
    arc = fit_arc(p, [2, 0, 0])
    w = arc_weight(arc, [1, 0, 0], epsilon=math.pi / 2)
    assert w == pytest.approx(arc.length)


def test_weight_infinite_when_non_confluent():
    p = OrientedSample([0, 0, 0], [0, 1, 0])
    arc = fit_arc(p, [2, 0, 0])
    assert arc_weight(arc, [0, 1, 0], epsilon=math.pi / 2) == math.inf


def test_elastic_weight_adds_turning_angle():
    # Semicircle of diameter 2: length pi, total turning angle pi.
    p = OrientedSample([0, 0, 0], [0, 1, 0])
    arc = fit_arc(p, [2, 0, 0])
    w = arc_weight(arc, [0, -1, 0], epsilon=math.pi / 2, elastic_lambda=1.0)
    assert w == pytest.approx(2 * math.pi)


def test_turning_angle_matches_curvature_integral():
    # Independent check: integral of curvature 1/R over the arc length.
    rng = np.random.default_rng(5)
    for _ in range(100):
        p_pos = rng.uniform(-4, 4, 3)
        q_pos = rng.uniform(-4, 4, 3)
        t = random_units(rng, 1)[0]
        arc = fit_arc(OrientedSample(p_pos, t), q_pos)
        if arc.degenerate or arc.alpha < 1e-6:
            continue
        radius = arc.chord_len / (2 * math.sin(arc.alpha))
        assert arc.length / radius == pytest.approx(2 * arc.alpha, rel=1e-9)


def test_weight_parameter_validation():
    p = OrientedSample([0, 0, 0], [1, 0, 0])
    arc = fit_arc(p, [1, 0, 0])
    with pytest.raises(ValueError):
        arc_weight(arc, [1, 0, 0], epsilon=0.0)
    for value in (-0.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="elastic_lambda must be finite"):
            arc_weight(arc, [1, 0, 0], epsilon=1.0, elastic_lambda=value)


def test_asymmetric_lengths_both_confluent():
    # Non-symmetric tangent pair: both directions admissible, different costs.
    p = OrientedSample([0, 0, 0], [math.cos(math.pi / 6), math.sin(math.pi / 6), 0])
    q = OrientedSample([1, 0, 0], [math.cos(math.pi / 3), -math.sin(math.pi / 3), 0])
    fwd = fit_arc(p, q.position)
    rev = fit_arc(q, p.position)
    eps = math.pi / 2
    w_fwd = arc_weight(fwd, q.tangent, eps)
    w_rev = arc_weight(rev, p.tangent, eps)
    assert math.isfinite(w_fwd) and math.isfinite(w_rev)
    assert w_fwd != pytest.approx(w_rev)


def test_flipped_witness_breaks_converse():
    # Semicircle pair that is confluent, then a tangent flip at p: the
    # tangent lines are unchanged, but no direction is confluent any more.
    eps = math.pi / 2
    p_pos, q_pos = np.zeros(3), np.array([2.0, 0.0, 0.0])
    t_q = np.array([0.0, -1.0, 0.0])
    confluent_t_p = np.array([0.0, 1.0, 0.0])
    arc = fit_arc(OrientedSample(p_pos, confluent_t_p), q_pos)
    assert confluence_angle(arc, t_q) <= eps

    flipped_t_p = -confluent_t_p
    p = OrientedSample(p_pos, flipped_t_p)
    q = OrientedSample(q_pos, t_q)
    fwd = confluence_angle(fit_arc(p, q_pos), t_q)
    rev = confluence_angle(fit_arc(q, p_pos), flipped_t_p)
    assert fwd > eps and rev > eps


def test_arc_points_endpoints_and_planarity():
    rng = np.random.default_rng(29)
    s = np.linspace(0, 1, 33)
    for _ in range(100):
        p = rng.uniform(-4, 4, 3)
        q = rng.uniform(-4, 4, 3)
        t = random_units(rng, 1)[0]
        arc = fit_arc(OrientedSample(p, t), q)
        if arc.degenerate:
            continue
        pts = arc_points(p, t, q, s)
        np.testing.assert_allclose(pts[0], p, atol=1e-9)
        np.testing.assert_allclose(pts[-1], q, atol=1e-9)
        normal = np.cross(q - p, t)
        nn = np.linalg.norm(normal)
        if nn < 1e-9:
            continue  # collinear: the arc is the chord, trivially planar
        normal /= nn
        offsets = (pts - p) @ normal
        assert np.max(np.abs(offsets)) <= 1e-9


def test_batch_kernels_match_scalar_path():
    rng = np.random.default_rng(31)
    n = 500
    p_pos = rng.uniform(-4, 4, (n, 3))
    q_pos = rng.uniform(-4, 4, (n, 3))
    p_tan = random_units(rng, n)
    q_tan = random_units(rng, n)
    d, alpha, length, end_tan = batch_arc_geometry(p_pos, p_tan, q_pos)
    conf = batch_confluence_angles(end_tan, q_tan)
    short = batch_shorter_arc_lengths(p_pos, p_tan, q_pos)
    for i in range(n):
        arc = fit_arc(OrientedSample(p_pos[i], p_tan[i]), q_pos[i])
        assert d[i] == pytest.approx(arc.chord_len)
        assert alpha[i] == pytest.approx(arc.alpha)
        if arc.degenerate:
            assert length[i] == math.inf
        else:
            assert length[i] == pytest.approx(arc.length)
            assert conf[i] == pytest.approx(confluence_angle(arc, q_tan[i]))
        np.testing.assert_allclose(end_tan[i], arc.end_tangent, atol=1e-12)
        a_short = min(arc.alpha, math.pi - arc.alpha)
        if math.sin(arc.alpha) >= 1e-9:
            expect = arc.chord_len * a_short / math.sin(arc.alpha)
        else:
            expect = arc.chord_len
        assert short[i] == pytest.approx(expect)


def tangent_at_alpha(rng, chord_dir, alpha):
    """Unit tangent at angle ``alpha`` from ``chord_dir``, random plane."""
    n = random_units(rng, 1)[0]
    n -= np.dot(n, chord_dir) * chord_dir
    n /= np.linalg.norm(n)
    t = math.cos(alpha) * chord_dir + math.sin(alpha) * n
    return t / np.linalg.norm(t)


def assert_rows_match_scalar(p_pos, p_tan, q_pos, s, rel):
    got = batch_arc_points(p_pos, p_tan, q_pos, s)
    assert got.shape == (len(s), 3)
    for i in range(len(s)):
        ref = arc_points(p_pos[i], p_tan[i], q_pos[i], s[i])[0]
        scale = max(1.0, float(np.max(np.abs(ref))))
        np.testing.assert_allclose(got[i], ref, rtol=0, atol=rel * scale)


def test_batch_arc_points_match_scalar_oracle():
    rng = np.random.default_rng(47)
    n = 400
    p_pos = rng.uniform(-4, 4, (n, 3))
    q_pos = rng.uniform(-4, 4, (n, 3))
    chord_dir = (q_pos - p_pos) / np.linalg.norm(q_pos - p_pos, axis=1,
                                                 keepdims=True)
    p_tan = random_units(rng, n)
    # exactly along the chord (straight limit) and 1e-3 rad below the
    # degenerate limit
    p_tan[:40] = chord_dir[:40]
    for i in range(40, 80):
        p_tan[i] = tangent_at_alpha(rng, chord_dir[i],
                                    ALPHA_DEGENERATE - 1e-3)
    s = rng.uniform(0, 1, n)
    s[::3] = 0.0
    s[1::3] = 1.0
    assert_rows_match_scalar(p_pos, p_tan, q_pos, s, rel=1e-9)
    got = batch_arc_points(p_pos, p_tan, q_pos, s)
    np.testing.assert_allclose(got[s == 0.0], p_pos[s == 0.0], atol=1e-9)
    np.testing.assert_allclose(got[s == 1.0], q_pos[s == 1.0], atol=1e-9)


def test_batch_arc_points_ill_conditioned_limits():
    # Both kernels take alpha = acos(cos_a). Closer to the degenerate limit
    # the radius d / (2 sin alpha) amplifies its rounding by about
    # eps / (pi - alpha)^2; they agree to that shared conditioning.
    rng = np.random.default_rng(53)
    eps = np.finfo(float).eps
    for gap in (1e-4, 1e-5, 1e-7):
        n = 30
        p_pos = rng.uniform(-4, 4, (n, 3))
        q_pos = rng.uniform(-4, 4, (n, 3))
        e = (q_pos - p_pos) / np.linalg.norm(q_pos - p_pos, axis=1,
                                             keepdims=True)
        p_tan = np.array([tangent_at_alpha(rng, e[i], ALPHA_DEGENERATE - gap)
                          for i in range(n)])
        s = rng.uniform(0, 1, n)
        rel = 10 * eps / (math.pi - ALPHA_DEGENERATE + gap) ** 2
        assert_rows_match_scalar(p_pos, p_tan, q_pos, s, rel=rel)
    # 1e-10 rad off the chord, cos_a rounds to 1 or to a few ulps below,
    # so alpha is 0 (the chord) or about sqrt(eps): an arc whose sagitta,
    # and whose cancellation error in the radius-1/alpha formula, are each
    # below sqrt(eps) chord lengths. The points agree to that size.
    n = 60
    p_pos = rng.uniform(-4, 4, (n, 3))
    q_pos = rng.uniform(-4, 4, (n, 3))
    e = (q_pos - p_pos) / np.linalg.norm(q_pos - p_pos, axis=1,
                                         keepdims=True)
    p_tan = np.array([tangent_at_alpha(rng, e[i], 1e-10) for i in range(n)])
    s = rng.uniform(0, 1, n)
    got = batch_arc_points(p_pos, p_tan, q_pos, s)
    assert np.all(np.isfinite(got))
    for i in range(n):
        ref = arc_points(p_pos[i], p_tan[i], q_pos[i], s[i])[0]
        size = 2 * math.sqrt(eps) * np.linalg.norm(q_pos[i] - p_pos[i])
        np.testing.assert_allclose(got[i], ref, rtol=0, atol=size)


def test_batch_arc_points_degenerate_rows_raise():
    p_pos = np.array([[0.0, 0, 0], [1.0, 2, 3]])
    q_pos = np.array([[1.0, 0, 0], [1.0, 2, 3]])
    p_tan = np.array([[1.0, 0, 0], [0.0, 1, 0]])
    with pytest.raises(DegenerateInputError):
        arc_points(p_pos[1], p_tan[1], q_pos[1], 0.5)
    with pytest.raises(DegenerateInputError):
        batch_arc_points(p_pos, p_tan, q_pos, [0.5, 0.5])
    # second row anti-parallel: the tangent points straight away from q
    q_pos[1] = [3.0, 2, 3]
    p_tan[1] = [-1.0, 0, 0]
    with pytest.raises(DegenerateInputError):
        arc_points(p_pos[1], p_tan[1], q_pos[1], 0.5)
    with pytest.raises(DegenerateInputError):
        batch_arc_points(p_pos, p_tan, q_pos, [0.5, 0.5])


def test_oriented_sample_validation():
    with pytest.raises(ValueError):
        OrientedSample([0, 0, 0], [1, 1, 0])
    with pytest.raises(ValueError):
        OrientedSample([0, 0, math.nan], [1, 0, 0])
    with pytest.raises(ValueError):
        OrientedSample([0, 0, 0], [1, 0, 0], radius=-1.0)
    with pytest.raises(ValueError):
        OrientedSample([0, 0, 0], [1, 0, 0], radius=math.nan)
