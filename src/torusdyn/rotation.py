"""Rotation set estimation for lifts isotopic to the identity.

The estimator samples the displacement vectors (F^n(x) - x) / n over a
uniform grid and returns their convex hull.  For a lift of a torus
homeomorphism isotopic to the identity these hulls converge to the
rotation set in the Hausdorff metric as n grows, so hull shape plus
convergence diagnostics give the evidence that the classifier consumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from numbers import Real

import numpy as np

from .errors import InapplicableError, InputError, UnsupportedMapError
from .maps import (
    LiftedMap,
    _apply_chain,
    _check_divergence,
    _egcd,
    _integer,
    conjugate,
    isotopy_class,
    iterate_points,
)

COLLINEAR_TOL = 1e-12


@dataclass(frozen=True)
class ShapeThresholds:
    """Decision thresholds for the hull shape classifier."""

    eps_point: float = 1e-3
    eps_width: float = 5e-3
    eps_area: float = 1e-4
    rational_q_max: int = 1000
    rational_tol: float = 1e-9

    def __post_init__(self):
        for name, value in self.to_json_dict().items():
            if isinstance(value, bool) or not isinstance(value, Real):
                raise InputError(
                    f"threshold {name!r} must be a number, not {value!r}")
            if name != "rational_q_max" and not 0 <= value < math.inf:
                raise InputError(
                    f"threshold {name!r} must be finite and >= 0, "
                    f"not {value!r}")
        object.__setattr__(self, "rational_q_max", _integer(
            self.rational_q_max, "threshold 'rational_q_max'", 1))

    def to_json_dict(self):
        return {
            "eps_point": self.eps_point,
            "eps_width": self.eps_width,
            "eps_area": self.eps_area,
            "rational_q_max": self.rational_q_max,
            "rational_tol": self.rational_tol,
        }


DEFAULT_THRESHOLDS = ShapeThresholds()


@dataclass(frozen=True)
class ConvexRegion:
    """Convex hull given by its extreme points in counterclockwise
    order, starting at the lexicographically least vertex.  Degenerate
    hulls keep one (point) or two (segment) vertices."""

    vertices: tuple

    def __post_init__(self):
        if len(self.vertices) == 0:
            raise InputError("convex region needs at least one vertex")

    def area(self) -> float:
        v = self.vertices
        if len(v) < 3:
            return 0.0
        s = 0.0
        for i in range(len(v)):
            x0, y0 = v[i]
            x1, y1 = v[(i + 1) % len(v)]
            s += x0 * y1 - x1 * y0
        return 0.5 * s

    def farthest_pair(self) -> tuple:
        """(distance, p, q) for the first vertex pair at the diameter."""
        v = self.vertices
        best = (0.0, v[0], v[0])
        for i in range(len(v)):
            for j in range(i + 1, len(v)):
                d = math.dist(v[i], v[j])
                if d > best[0]:
                    best = (d, v[i], v[j])
        return best

    def diameter(self) -> float:
        return self.farthest_pair()[0]

    def min_width(self) -> float:
        """Smallest distance between parallel supporting lines."""
        v = self.vertices
        if len(v) < 3:
            return 0.0
        best = math.inf
        for i in range(len(v)):
            x0, y0 = v[i]
            x1, y1 = v[(i + 1) % len(v)]
            ex, ey = x1 - x0, y1 - y0
            norm = math.hypot(ex, ey)
            reach = max(
                abs((px - x0) * ey - (py - y0) * ex) / norm for px, py in v
            )
            best = min(best, reach)
        return best

    def centroid(self) -> tuple:
        xs = [p[0] for p in self.vertices]
        ys = [p[1] for p in self.vertices]
        return (sum(xs) / len(xs), sum(ys) / len(ys))

    def to_json_dict(self):
        return {"vertices": [[p[0], p[1]] for p in self.vertices]}


def convex_hull(points) -> ConvexRegion:
    """Monotone chain hull with near-collinear vertex collapse."""
    P = np.asarray(points, dtype=float)
    if P.ndim != 2 or P.shape[1] != 2 or len(P) == 0:
        raise InputError("hull input must be a nonempty (n, 2) array")
    if not np.all(np.isfinite(P)):
        raise InputError("hull input must be finite")
    pts = sorted({(float(x), float(y)) for x, y in P})
    if len(pts) == 1:
        return ConvexRegion((pts[0],))

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def build(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and cross(out[-2], out[-1], p) <= COLLINEAR_TOL:
                out.pop()
            out.append(p)
        return out

    lower = build(pts)
    upper = build(reversed(pts))
    verts = lower[:-1] + upper[:-1]
    if len(verts) == 2 and verts[0] == verts[1]:
        verts = verts[:1]
    return ConvexRegion(tuple(verts))


def _segment_distance(p, a, b) -> float:
    ax, ay = a
    bx, by = b
    dx, dy = bx - ax, by - ay
    L2 = dx * dx + dy * dy
    if L2 == 0.0:
        return math.dist(p, a)
    t = ((p[0] - ax) * dx + (p[1] - ay) * dy) / L2
    t = min(1.0, max(0.0, t))
    return math.dist(p, (ax + t * dx, ay + t * dy))


def point_region_distance(point, region: ConvexRegion) -> float:
    v = region.vertices
    if len(v) == 1:
        return math.dist(point, v[0])
    if len(v) == 2:
        return _segment_distance(point, v[0], v[1])
    inside = True
    for i in range(len(v)):
        x0, y0 = v[i]
        x1, y1 = v[(i + 1) % len(v)]
        if (x1 - x0) * (point[1] - y0) - (y1 - y0) * (point[0] - x0) < 0.0:
            inside = False
            break
    if inside:
        return 0.0
    return min(
        _segment_distance(point, v[i], v[(i + 1) % len(v)])
        for i in range(len(v))
    )


def hausdorff(A: ConvexRegion, B: ConvexRegion) -> float:
    """Hausdorff distance between two convex regions.  For convex sets
    each directed distance is attained at a vertex of the source."""
    d_ab = max(point_region_distance(p, B) for p in A.vertices)
    d_ba = max(point_region_distance(p, A) for p in B.vertices)
    return max(d_ab, d_ba)


def best_rational(x: float, q_max: int):
    """Best rational approximation with denominator at most q_max,
    via the continued fraction convergents."""
    f = Fraction(x).limit_denominator(q_max)
    return f.numerator, f.denominator


@dataclass(frozen=True)
class Shape:
    """Shape verdict for a hull: 'point', 'segment', 'interior' or
    'undetermined' for the near-threshold band between a segment and a
    region with substantive area."""

    kind: str
    diameter: float
    min_width: float
    area: float
    representative: tuple = None
    endpoints: tuple = None
    direction: tuple = None
    slope_label: dict = None

    def to_json_dict(self):
        out = {
            "kind": self.kind,
            "diameter": self.diameter,
            "min_width": self.min_width,
            "area": self.area,
        }
        if self.representative is not None:
            out["representative"] = list(self.representative)
        if self.endpoints is not None:
            out["endpoints"] = [list(e) for e in self.endpoints]
        if self.direction is not None:
            out["direction"] = list(self.direction)
        if self.slope_label is not None:
            out["slope_label"] = self.slope_label
        return out


def _segment_label(e0, e1, thresholds: ShapeThresholds):
    dx, dy = e1[0] - e0[0], e1[1] - e0[1]
    norm = math.hypot(dx, dy)
    direction = (dx / norm, dy / norm)
    if abs(dx) <= 1e-9 * abs(dy):
        label = {"label": "rational", "p": 0, "q": 1, "slope": None}
        return direction, label
    slope = dy / dx
    p, q = best_rational(slope, thresholds.rational_q_max)
    if abs(slope - p / q) <= thresholds.rational_tol:
        label = {"label": "rational", "p": p, "q": q, "slope": slope}
    else:
        label = {"label": "irrational", "slope": slope}
    return direction, label


def classify_shape(region: ConvexRegion, thresholds=None) -> Shape:
    thresholds = thresholds or DEFAULT_THRESHOLDS
    diam, p, q = region.farthest_pair()
    width = region.min_width()
    area = region.area()
    if diam <= thresholds.eps_point:
        return Shape("point", diam, width, area, representative=region.centroid())
    if width <= thresholds.eps_width:
        e0, e1 = sorted([p, q])
        direction, label = _segment_label(e0, e1, thresholds)
        return Shape(
            "segment", diam, width, area,
            endpoints=(e0, e1), direction=direction, slope_label=label,
        )
    if area >= thresholds.eps_area:
        return Shape("interior", diam, width, area)
    return Shape("undetermined", diam, width, area)


def grid_points(grid: int) -> np.ndarray:
    """Cell centers of the uniform grid on the fundamental domain."""
    grid = _integer(grid, "grid resolution", 1)
    side = (np.arange(grid, dtype=float) + 0.5) / grid
    X, Y = np.meshgrid(side, side, indexing="ij")
    return np.column_stack([X.ravel(), Y.ravel()])


def _require_identity_isotopic(F: LiftedMap):
    cls = isotopy_class(F)
    if cls.kind != "identity":
        raise InapplicableError(
            "rotation set estimation needs a map isotopic to the identity; "
            f"this map is of type {cls.kind!r}"
        )


@dataclass(frozen=True)
class RotSetEstimate:
    """Sampled rotation set estimate: displacement hull plus shape,
    and the displacement cloud it was built from (not serialized)."""

    hull: ConvexRegion
    shape: Shape
    n: int
    grid: int
    thresholds: ShapeThresholds
    cloud: np.ndarray = field(default=None, repr=False, compare=False)

    def to_json_dict(self):
        return {
            "hull": self.hull.to_json_dict(),
            "shape": self.shape.to_json_dict(),
            "n": self.n,
            "grid": self.grid,
            "thresholds": self.thresholds.to_json_dict(),
        }


def displacement_vectors(F: LiftedMap, n: int, grid: int) -> np.ndarray:
    P0 = grid_points(grid)
    Pn = iterate_points(F, P0, n)
    return (Pn - P0) / float(n)


def mz_estimate(
    F: LiftedMap, n: int, grid: int, thresholds: ShapeThresholds = None
) -> RotSetEstimate:
    """Displacement-hull rotation set estimate at time n."""
    n = _integer(n, "estimation time n", 1)
    _require_identity_isotopic(F)
    thresholds = thresholds or DEFAULT_THRESHOLDS
    cloud = displacement_vectors(F, n, grid)
    hull = convex_hull(cloud)
    return RotSetEstimate(hull, classify_shape(hull, thresholds), n,
                          int(grid), thresholds, cloud)


@dataclass(frozen=True)
class DiagnosticsEntry:
    n: int
    hull: ConvexRegion
    diameter: float
    hausdorff_to_final: float

    def to_json_dict(self):
        return {
            "n": self.n,
            "hull": self.hull.to_json_dict(),
            "diameter": self.diameter,
            "hausdorff_to_final": self.hausdorff_to_final,
        }


def convergence_diagnostics(F: LiftedMap, schedule, grid: int) -> list:
    """Hulls along an increasing n schedule, advancing one orbit set
    incrementally, with Hausdorff distances to the final hull."""
    schedule = [_integer(n, "schedule entry", 1) for n in schedule]
    if not schedule:
        raise InputError("schedule must list positive integers")
    if any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise InputError("schedule must be strictly increasing")
    _require_identity_isotopic(F)
    P0 = grid_points(grid)
    P = P0.copy()
    done = 0
    hulls = []
    for n in schedule:
        P = iterate_points(F, P, n - done)
        done = n
        hulls.append((n, convex_hull((P - P0) / float(n))))
    final = hulls[-1][1]
    return [
        DiagnosticsEntry(n, h, h.diameter(), hausdorff(h, final))
        for n, h in hulls
    ]


@dataclass(frozen=True)
class RotInterval:
    """Vertical rotation interval of a twist-power map, measured in the
    cyclic cover where the invariant class is horizontal."""

    low: float
    high: float

    @property
    def length(self) -> float:
        return self.high - self.low


def twist_rotation_interval(F: LiftedMap, n: int, samples: int) -> RotInterval:
    """Sampled vertical rotation interval of a twist-power or identity
    isotopic map, on the cyclic cover R/Z x R of its invariant class
    (of (1, 0) for the identity class).

    Conjugating by M in SL(2, Z) with M (p, q) = (1, 0) makes the class
    horizontal.  The conjugated lift commutes with horizontal integer
    translation, so reducing x mod 1 after every step gives the action
    on the cover, while y tracks the vertical displacement exactly.
    Samples the lattice (i/s, j/s) so exact low-period fibers are hit
    exactly.
    """
    n = _integer(n, "n", 1)
    s = _integer(samples, "samples", 1)
    cls = isotopy_class(F)
    if cls.kind == "twist_power":
        p, q = cls.curve_class
    elif cls.kind == "identity":
        p, q = 1, 0
    else:
        raise UnsupportedMapError(
            "twist rotation interval needs a twist-power or "
            "identity-isotopic map")
    _, x, y = _egcd(p, q)
    G = conjugate(F, ((x, y), (-q, p)))
    side = np.arange(s, dtype=float) / s
    X, Y = np.meshgrid(side, side, indexing="ij")
    P0 = np.column_stack([X.ravel(), Y.ravel()])
    P = P0.copy()
    for _ in range(n):
        P = _apply_chain(G, P)
        P[:, 0] -= np.floor(P[:, 0])
        _check_divergence(P)
    disp = (P[:, 1] - P0[:, 1]) / float(n)
    return RotInterval(float(disp.min()), float(disp.max()))
