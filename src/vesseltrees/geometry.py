"""Flow-extrapolating circular arcs between oriented centerline samples.

An oriented sample couples a 3D position (voxel units) with a unit tangent
giving the local flow direction. The arc from sample p to point q is the
unique circular arc that leaves p along p's flow tangent and ends at q; it
models how flow observed at p extrapolates toward q. Directed graph edges
carry these arcs, weighted by arc length and gated by how well the
extrapolated flow agrees with the flow estimate at the far end.

Scalar functions here are the reference implementations used by tests and
small-scale callers; the ``batch_*`` kernels are the vectorized versions the
graph builder runs on large row arrays, and ``arc_frames`` fits arcs once
for the tree resampler, which evaluates them in blocks of points. The two
are kept independent so one can cross-check the other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

UNIT_TOL = 1e-9
COINCIDENT_TOL = 1e-12
# Anti-parallel start tangent: the circle radius diverges and so does the arc
# length. Arcs this close to the limit are flagged degenerate (infinite cost).
ALPHA_DEGENERATE = math.pi - 1e-6


class DegenerateInputError(ValueError):
    """Raised for inputs with no defined arc (e.g. coincident endpoints)."""


def _vec3(v, name: str) -> np.ndarray:
    arr = np.asarray(v, dtype=float).reshape(3)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must have finite coordinates, got {arr}")
    return arr


def unit_rows(vectors) -> np.ndarray:
    """Mask of the unit-length rows, to within 1e-6; NaN and inf rows fail."""
    return np.abs(np.linalg.norm(vectors, axis=1) - 1.0) <= 1e-6


def _unit3(v, name: str) -> np.ndarray:
    arr = _vec3(v, name)
    if abs(float(np.linalg.norm(arr)) - 1.0) > UNIT_TOL:
        raise ValueError(f"{name} must be a unit vector, |{name}| = "
                         f"{float(np.linalg.norm(arr)):.12g}")
    return arr


@dataclass
class OrientedSample:
    """A centerline point with its unit flow tangent and optional radius."""

    position: np.ndarray
    tangent: np.ndarray
    radius: float | None = None

    def __post_init__(self):
        self.position = _vec3(self.position, "position")
        self.tangent = _unit3(self.tangent, "tangent")
        if self.radius is not None:
            self.radius = float(self.radius)
            if not self.radius >= 0:  # written so that NaN fails it
                raise ValueError(f"radius must be >= 0, got {self.radius}")


class SampleCloud:
    """Column-wise storage for a set of oriented samples.

    Positions and tangents are (N, 3) float arrays; radii are optional.
    This is the form the graph builder, sampler, and file I/O work with.
    """

    def __init__(self, positions, tangents, radii=None):
        self.positions = np.asarray(positions, dtype=float).reshape(-1, 3)
        self.tangents = np.asarray(tangents, dtype=float).reshape(-1, 3)
        if self.positions.shape != self.tangents.shape:
            raise ValueError("positions and tangents must have matching shapes")
        if not np.all(np.isfinite(self.positions)):
            raise ValueError("positions must be finite")
        if not unit_rows(self.tangents).all():
            raise ValueError("tangents must be unit vectors")
        if radii is not None:
            radii = np.asarray(radii, dtype=float).reshape(-1)
            if radii.shape[0] != self.positions.shape[0]:
                raise ValueError("radii length must match sample count")
            if not np.all(np.isfinite(radii) & (radii >= 0)):
                raise ValueError("radii must be finite and >= 0")
        self.radii = radii

    def __len__(self) -> int:
        return self.positions.shape[0]

    def sample(self, i: int) -> OrientedSample:
        r = None if self.radii is None else float(self.radii[i])
        return OrientedSample(self.positions[i], self.tangents[i], r)


@dataclass
class FlowArc:
    """A directed circular arc with its cached geometry.

    ``alpha`` is the angle between the start tangent and the chord; the arc
    turns by ``2 * alpha`` in total, so ``length = chord_len * alpha /
    sin(alpha)`` (chord length in the straight limit).
    """

    chord_len: float
    alpha: float
    length: float
    end_tangent: np.ndarray

    @property
    def degenerate(self) -> bool:
        return not math.isfinite(self.length)


def arc_end_tangent(start_tangent, chord_dir) -> np.ndarray:
    """Unit tangent at the far endpoint of the fitted arc.

    Sliding the start tangent along the circle to the far endpoint reflects
    it about the chord direction: ``2 (t . e) e - t``. Both inputs must be
    unit vectors.
    """
    t = _unit3(start_tangent, "start_tangent")
    e = _unit3(chord_dir, "chord_dir")
    return 2.0 * float(np.dot(t, e)) * e - t


def fit_arc(p: OrientedSample, q) -> FlowArc:
    """Fit the arc that starts at ``p`` along its tangent and ends at ``q``.

    The arc lies in the plane spanned by the chord and the start tangent.
    Arcs whose start tangent points (nearly) straight away from ``q`` have
    unbounded length and are returned degenerate (``length = inf``).

    Raises
    ------
    DegenerateInputError
        If ``q`` coincides with ``p``.
    """
    q = _vec3(q, "q")
    chord = q - p.position
    d = float(np.linalg.norm(chord))
    if d <= COINCIDENT_TOL:
        raise DegenerateInputError("arc endpoints coincide")
    e = chord / d
    cos_a = min(1.0, max(-1.0, float(np.dot(p.tangent, e))))
    alpha = math.acos(cos_a)
    if alpha >= ALPHA_DEGENERATE:
        length = math.inf
    elif alpha == 0.0:
        length = d
    else:
        length = d * alpha / math.sin(alpha)
    end_tan = 2.0 * cos_a * e - p.tangent
    return FlowArc(chord_len=d, alpha=alpha, length=length,
                   end_tangent=end_tan)


def confluence_angle(arc: FlowArc, tangent_at_end) -> float:
    """Angle between the arc's extrapolated end tangent and the flow at q.

    Zero means the arc lands exactly aligned with the local flow estimate;
    pi means it lands head-on against it.
    """
    if arc.degenerate:
        raise DegenerateInputError("confluence angle of a degenerate arc")
    t_q = _unit3(tangent_at_end, "tangent_at_end")
    dot = min(1.0, max(-1.0, float(np.dot(arc.end_tangent, t_q))))
    return math.acos(dot)


def arc_weight(arc: FlowArc, tangent_at_end, epsilon: float,
               elastic_lambda: float = 0.0) -> float:
    """Directed cost of an arc: length if it lands flow-aligned, else inf.

    An arc is admissible when its confluence angle is at most ``epsilon``;
    its cost is then the arc length plus ``elastic_lambda`` times the total
    turning angle ``2 * alpha``. Inadmissible or degenerate arcs cost inf.
    """
    if not 0.0 < epsilon <= math.pi:
        raise ValueError(f"epsilon must be in (0, pi], got {epsilon}")
    if not 0.0 <= elastic_lambda < math.inf:   # NaN fails it
        raise ValueError(f"elastic_lambda must be finite and >= 0, "
                         f"got {elastic_lambda}")
    if arc.degenerate:
        return math.inf
    angle = confluence_angle(arc, tangent_at_end)
    if angle <= epsilon:
        return arc.length + elastic_lambda * 2.0 * arc.alpha
    return math.inf


def arc_points(p_pos, p_tangent, q_pos, s) -> np.ndarray:
    """Evaluate the arc parameterization c(s), s in [0, 1], vectorized in s.

    c(0) is p, c(1) is q, and the curve leaves p along ``p_tangent``. The
    geometric ground truth in oracle tests (length by quadrature, end
    tangent by finite differences) and the reference for
    ``batch_arc_points``.
    """
    p = _vec3(p_pos, "p_pos")
    t = _unit3(p_tangent, "p_tangent")
    q = _vec3(q_pos, "q_pos")
    s = np.atleast_1d(np.asarray(s, dtype=float))
    chord = q - p
    d = float(np.linalg.norm(chord))
    if d <= COINCIDENT_TOL:
        raise DegenerateInputError("arc endpoints coincide")
    e = chord / d
    cos_a = min(1.0, max(-1.0, float(np.dot(t, e))))
    alpha = math.acos(cos_a)
    if alpha >= ALPHA_DEGENERATE:
        raise DegenerateInputError("degenerate arc has no parameterization")
    # In-plane unit normal to t on the chord side; undefined in the straight
    # limit where the arc is the chord itself. A tangent within ~1e-8 rad of
    # the chord rounds cos_a to 1 and alpha to 0, which leaves no finite
    # radius either; the chord is then within 1e-8 chord lengths of the arc.
    b_raw = e - cos_a * t
    b_norm = float(np.linalg.norm(b_raw))
    if b_norm < 1e-12 or alpha == 0.0:
        return p + s[:, None] * chord
    b = b_raw / b_norm
    radius = d / (2.0 * math.sin(alpha))
    center = p + radius * b
    theta = 2.0 * alpha * s
    return (center
            + np.cos(theta)[:, None] * (p - center)
            + np.sin(theta)[:, None] * (radius * t))


# ---------------------------------------------------------------------------
# Vectorized kernels (graph construction and tree resampling hot paths)
# ---------------------------------------------------------------------------

def batch_arc_lengths(chord_len, alpha) -> np.ndarray:
    """Arc lengths ``chord_len * alpha / sin(alpha)``, row by row: the
    chord itself in the straight limit alpha = 0, and inf for degenerate
    rows, alpha >= ``ALPHA_DEGENERATE``."""
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = alpha / np.sin(alpha)
    ratio = np.where(alpha == 0.0, 1.0, ratio)
    return np.where(alpha >= ALPHA_DEGENERATE, np.inf, chord_len * ratio)


def batch_arc_geometry(p_pos, p_tan, q_pos):
    """Fit arcs for M (p, q) rows at once.

    Returns ``(chord_len, alpha, length, end_tangent)`` arrays; degenerate
    rows get ``length = inf``. Callers must guarantee distinct endpoints.
    """
    chord = np.asarray(q_pos, float) - np.asarray(p_pos, float)
    d = np.linalg.norm(chord, axis=1)
    e = chord / d[:, None]
    cos_a = np.clip(np.einsum("ij,ij->i", p_tan, e), -1.0, 1.0)
    alpha = np.arccos(cos_a)
    length = batch_arc_lengths(d, alpha)
    end_tan = 2.0 * cos_a[:, None] * e - np.asarray(p_tan, float)
    return d, alpha, length, end_tan


class ArcFrames(NamedTuple):
    """The constants of ``arc_points`` on each of M arcs, from
    ``arc_frames``: c(s) = ``start + s chord`` on a ``straight`` row, else
    ``centre + cos(turn s) radial + sin(turn s) tangential``.

    ``radial`` is p - centre, ``tangential`` the circle radius times the
    start tangent, ``turn`` 2 alpha; the three and ``centre`` are NaN on
    straight rows.
    """

    start: np.ndarray
    chord: np.ndarray
    centre: np.ndarray
    radial: np.ndarray
    tangential: np.ndarray
    turn: np.ndarray
    straight: np.ndarray


def arc_frames(p_pos, p_tan, q_pos, on_arc=None) -> ArcFrames:
    """Fit the arc p[i] -> q[i] of each row of ``on_arc``, every row by
    default, once for all the points later evaluated on it.

    The other rows, and the rows whose start tangent lies along the chord,
    are straight: the chord itself. ``p_tan`` is read only on the rows of
    ``on_arc``. Raises ``DegenerateInputError`` if one of those has
    coincident endpoints or an anti-parallel start tangent, like
    ``arc_points``.
    """
    p = np.asarray(p_pos, float).reshape(-1, 3)
    chord = np.asarray(q_pos, float).reshape(-1, 3) - p
    centre, radial, tangential = (np.full_like(p, np.nan) for _ in range(3))
    turn = np.full(p.shape[0], np.nan)
    straight = np.ones(p.shape[0], bool)
    rows = (np.arange(p.shape[0]) if on_arc is None
            else np.flatnonzero(on_arc))
    if rows.size:
        t = np.asarray(p_tan, float).reshape(-1, 3)[rows]
        d = np.linalg.norm(chord[rows], axis=1)
        if np.any(d <= COINCIDENT_TOL):
            raise DegenerateInputError("arc endpoints coincide")
        e = chord[rows] / d[:, None]
        cos_a = np.clip(np.einsum("ij,ij->i", t, e), -1.0, 1.0)
        alpha = np.arccos(cos_a)
        if np.any(alpha >= ALPHA_DEGENERATE):
            raise DegenerateInputError("degenerate arc has no "
                                       "parameterization")
        b_raw = e - cos_a[:, None] * t
        b_norm = np.linalg.norm(b_raw, axis=1)
        # a circle needs a normal to t on the chord side and a finite radius
        bent = ~((b_norm < 1e-12) | (alpha == 0.0))
        rows = rows[bent]
        b = b_raw[bent] / b_norm[bent, None]
        radius = d[bent] / (2.0 * np.sin(alpha[bent]))
        centre[rows] = p[rows] + radius[:, None] * b
        radial[rows] = p[rows] - centre[rows]
        tangential[rows] = radius[:, None] * t[bent]
        turn[rows] = 2.0 * alpha[bent]
        straight[rows] = False
    return ArcFrames(p, chord, centre, radial, tangential, turn, straight)


def arc_frame_points(frames: ArcFrames, rows, s, out=None) -> np.ndarray:
    """c(s[i]) on arc ``rows[i]`` of ``frames``, written to ``out`` (an
    (M, 3) float array) if given."""
    s = np.asarray(s, float).reshape(-1)
    out = np.add(frames.start[rows], s[:, None] * frames.chord[rows],
                 out=out)
    on = np.flatnonzero(~frames.straight[rows])
    if on.size:
        arc, s = rows[on], s[on]
        theta = frames.turn[arc] * s
        out[on] = (frames.centre[arc]
                   + np.cos(theta)[:, None] * frames.radial[arc]
                   + np.sin(theta)[:, None] * frames.tangential[arc])
    return out


def batch_arc_points(p_pos, p_tan, q_pos, s) -> np.ndarray:
    """Row-wise ``arc_points``: row i is c(s[i]) on the arc p[i] -> q[i].

    Straight rows (start tangent along the chord) fall back to the chord.
    Raises ``DegenerateInputError`` if any row has coincident endpoints or
    an anti-parallel start tangent, like the scalar version.
    """
    frames = arc_frames(p_pos, p_tan, q_pos)
    return arc_frame_points(frames, np.arange(frames.start.shape[0]), s)


def batch_confluence_angles(end_tangents, q_tan) -> np.ndarray:
    dots = np.clip(np.einsum("ij,ij->i", end_tangents, q_tan), -1.0, 1.0)
    return np.arccos(dots)


def batch_arc_weights(alpha, length, conf_angle, epsilon: float,
                      elastic_lambda: float = 0.0) -> np.ndarray:
    """Eq.-style directed costs: length (+ turning penalty) or inf."""
    ok = (conf_angle <= epsilon) & np.isfinite(length)
    cost = length + elastic_lambda * 2.0 * alpha
    return np.where(ok, cost, np.inf)


def batch_shorter_arc_lengths(p_pos, p_tan, q_pos) -> np.ndarray:
    """Length of the shorter of the two arcs through p's tangent *line*.

    Flipping the tangent swaps alpha for pi - alpha; the shorter arc takes
    the smaller of the two, which makes the result orientation-free and
    bounded by pi/2 times the chord. In the anti-parallel limit the value
    tends to the chord length, which doubles as the degenerate fallback.
    """
    chord = np.asarray(q_pos, float) - np.asarray(p_pos, float)
    d = np.linalg.norm(chord, axis=1)
    e = chord / d[:, None]
    cos_a = np.clip(np.einsum("ij,ij->i", p_tan, e), -1.0, 1.0)
    alpha = np.arccos(cos_a)
    a_short = np.minimum(alpha, math.pi - alpha)
    sin_a = np.sin(alpha)
    with np.errstate(invalid="ignore", divide="ignore"):
        length = d * a_short / sin_a
    return np.where(sin_a < 1e-9, d, length)
