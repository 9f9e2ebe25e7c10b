"""Exact PL curves on the torus.

A curve is stored as one period of a lift: a chain of rational vertices
v_0 ... v_{k-1} in R^2 plus the integer closing displacement w, so the
chain continues with v_0 + w.  The displacement is the homology class.
A curve builds its integer view once, on first use: each segment's ends
over the segment's common denominator, with padded float bounding
boxes.  All predicates (simplicity, intersection, crossing numbers) are
decided exactly over integer deck translates on that view, with a
Fraction built only for a contact point; the float boxes only prune,
never decide.  Every predicate runs on one enumeration of segment
contacts, and intersection records carry the cyclic parameter of the
point on both curves.  Affine images are exact integer computations on
the vertices over their common denominator.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

import numpy as np

from .errors import (
    InapplicableError,
    InputError,
    MalformedCurveError,
    NonGenericError,
    ResolutionError,
)
from .maps import (
    LiftedMap,
    Linear,
    Translation,
    _integer,
    _mat_apply,
    _vector,
    iterate_points,
    linear_part,
)

BBOX_PAD = 1e-9
PAIR_CHUNK = 256  # segments of a per vectorised bounding-box test
SNAP_DENOMINATOR = 10**9


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    try:
        return Fraction(x)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError) as exc:
        raise MalformedCurveError(
            f"cannot coerce {x!r} to a rational") from exc


@dataclass(frozen=True)
class PLCurve:
    """One period of a lifted closed PL curve on the torus."""

    verts: tuple
    w: tuple

    def __post_init__(self):
        verts = tuple(
            (_frac(v[0]), _frac(v[1])) for v in self.verts
        )
        if not verts:
            raise MalformedCurveError("curve needs at least one vertex")
        w = self.w
        if len(w) != 2 or any(int(v) != v for v in w):
            raise MalformedCurveError("closing displacement must be integral")
        w = (int(w[0]), int(w[1]))
        k = len(verts)
        closing = (verts[0][0] + w[0], verts[0][1] + w[1])
        for i in range(k):
            nxt = verts[i + 1] if i + 1 < k else closing
            if verts[i] == nxt:
                raise MalformedCurveError("zero-length edge in curve chain")
        object.__setattr__(self, "verts", verts)
        object.__setattr__(self, "w", w)

    @classmethod
    def _trusted(cls, verts, w) -> "PLCurve":
        """A curve from a tuple of Fraction vertex pairs and an int class
        that are known to form a valid curve, without the coercion and
        the zero-length-edge scan: for images of valid curves under
        injective maps only."""
        c = object.__new__(cls)
        object.__setattr__(c, "verts", verts)
        object.__setattr__(c, "w", w)
        return c

    @cached_property
    def _ends(self):
        """The integer view of the segments, _integer_ends(segments),
        built once on first use."""
        return _integer_ends(self.segments)

    @property
    def segments(self) -> tuple:
        v = self.verts
        closing = (v[0][0] + self.w[0], v[0][1] + self.w[1])
        return tuple(
            (v[i], v[i + 1] if i + 1 < len(v) else closing)
            for i in range(len(v))
        )

    def translated(self, dx, dy) -> "PLCurve":
        dx, dy = _frac(dx), _frac(dy)
        return PLCurve(
            tuple((x + dx, y + dy) for x, y in self.verts), self.w
        )


def is_essential_class(w) -> bool:
    return w != (0, 0) and math.gcd(abs(w[0]), abs(w[1])) == 1


def straight_curve(w, base=(0, 0)) -> PLCurve:
    """The straight curve of class w through the base point."""
    w = _vector(w, "straight curve class")
    if not is_essential_class(w):
        raise InputError("straight curve class must be primitive")
    return PLCurve(((_frac(base[0]), _frac(base[1])),), w)


def horizontal_circle(y) -> PLCurve:
    return straight_curve((1, 0), (Fraction(0), _frac(y)))


def vertical_circle(x) -> PLCurve:
    return straight_curve((0, 1), (_frac(x), Fraction(0)))


# ---------------------------------------------------------------------------
# exact segment predicates


def _cross2(u, v):
    return u[0] * v[1] - u[1] * v[0]


def _seg_contact(a, b, z):
    """Contact of the closed segment a with the closed segment b + z.

    a and b are integer ends over each segment's common denominator, as
    built by _integer_ends.  Returns ('none', None), ('point', pt) or
    ('overlap', None); the overlap case means a common subsegment of
    positive length.  Every sign is decided on integers, and the
    Fractions of pt are the only ones built: a crossing point, or the
    end of a at a collinear touch.
    """
    ax1, ay1, ax2, ay2, da = a
    bx1, by1, bx2, by2, db = b
    ux, uy = ax2 - ax1, ay2 - ay1
    vx, vy = bx2 - bx1, by2 - by1
    # the first end of b + z less the first end of a, over da * db
    wx = (bx1 + z[0] * db) * da - ax1 * db
    wy = (by1 + z[1] * db) * da - ay1 * db
    # orientations of the ends of b + z against a, and of the ends of a
    # against b + z, each pair scaled by one positive factor
    c = ux * vy - uy * vx
    d1 = ux * wy - uy * wx
    d2 = d1 + da * c
    if d1 == 0 and c == 0:
        if abs(ux) >= abs(uy):
            s, t0, t1 = ux * db, wx, wx + vx * da
        else:
            s, t0, t1 = uy * db, wy, wy + vy * da
        lo = max(min(0, s), min(t0, t1))
        hi = min(max(0, s), max(t0, t1))
        if lo > hi:
            return ("none", None)
        if lo < hi:
            return ("overlap", None)
        if lo == 0:
            return ("point", (Fraction(ax1, da), Fraction(ay1, da)))
        return ("point", (Fraction(ax2, da), Fraction(ay2, da)))
    if (d1 > 0 and d2 > 0) or (d1 < 0 and d2 < 0):
        return ("none", None)
    d3 = wx * vy - wy * vx
    d4 = d3 - db * c
    if (d3 > 0 and d4 > 0) or (d3 < 0 and d4 < 0):
        return ("none", None)
    den = d3 - d4
    return ("point", (Fraction(ax1 * den + d3 * ux, da * den),
                      Fraction(ay1 * den + d3 * uy, da * den)))


# ---------------------------------------------------------------------------
# candidate generation: float bounding boxes over integer translates


def _integer_ends(segments):
    """Each segment's ends over the lcm d of their four denominators,
    (px, py, qx, qy, d), and the float bounding boxes (lo, hi) of the
    segments.  int / int rounds correctly, as float() of a Fraction
    does, so the boxes are those of the rational ends.  A curve builds
    this view once, as PLCurve._ends."""
    ends, box = [], []
    for (p0, p1), (q0, q1) in segments:
        d = math.lcm(p0.denominator, p1.denominator,
                     q0.denominator, q1.denominator)
        px = p0.numerator * (d // p0.denominator)
        py = p1.numerator * (d // p1.denominator)
        qx = q0.numerator * (d // q0.denominator)
        qy = q1.numerator * (d // q1.denominator)
        ends.append((px, py, qx, qy, d))
        fpx, fpy, fqx, fqy = px / d, py / d, qx / d, qy / d
        box.append((min(fpx, fqx), min(fpy, fqy),
                    max(fpx, fqx), max(fpy, fqy)))
    box = np.array(box)
    return ends, (box[:, :2] - BBOX_PAD, box[:, 2:] + BBOX_PAD)


def _pair_candidates(box_a, box_b):
    """Yield (i, j, z) with box_a[i] meeting box_b[j] + z for an integer
    vector z, the boxes as built by _integer_ends.  Complete over all
    contacts; may yield false positives."""
    lo_a, hi_a = box_a
    lo_b, hi_b = box_b
    for start in range(0, len(lo_a), PAIR_CHUNK):
        sl = slice(start, min(start + PAIR_CHUNK, len(lo_a)))
        zx_lo = np.ceil(lo_a[sl, 0][:, None] - hi_b[:, 0][None, :])
        zx_hi = np.floor(hi_a[sl, 0][:, None] - lo_b[:, 0][None, :])
        zy_lo = np.ceil(lo_a[sl, 1][:, None] - hi_b[:, 1][None, :])
        zy_hi = np.floor(hi_a[sl, 1][:, None] - lo_b[:, 1][None, :])
        mask = (zx_lo <= zx_hi) & (zy_lo <= zy_hi)
        for ii, jj in np.argwhere(mask):
            i = start + int(ii)
            j = int(jj)
            for zx in range(int(zx_lo[ii, jj]), int(zx_hi[ii, jj]) + 1):
                for zy in range(int(zy_lo[ii, jj]), int(zy_hi[ii, jj]) + 1):
                    yield i, j, (zx, zy)


def _contacts(view_a, view_b=None):
    """Yield (i, j, z, kind, pt) for every non-empty contact of segment
    i of view_a with segment j of view_b translated by z, kind and pt
    as in _seg_contact.  A view is (ends, boxes) as built by
    _integer_ends: a curve's _ends.

    Without view_b, the self-contacts of view_a: (i, j, z) and
    (j, i, -z) describe the same segment pair, so only i < j, or i == j
    with z > (0, 0), is tested."""
    own = view_b is None
    ends_a, box_a = view_a
    ends_b, box_b = view_a if own else view_b
    for i, j, z in _pair_candidates(box_a, box_b):
        if own and (i > j or (i == j and z <= (0, 0))):
            continue
        kind, pt = _seg_contact(ends_a[i], ends_b[j], z)
        if kind != "none":
            yield i, j, z, kind, pt


# ---------------------------------------------------------------------------
# simplicity


def _is_end(pt, e, last):
    """Whether the rational point pt is the first or the last end of the
    integer segment e (as built by _integer_ends)."""
    x, y = (e[2], e[3]) if last else (e[0], e[1])
    return (pt[0].numerator * e[4] == x * pt[0].denominator
            and pt[1].numerator * e[4] == y * pt[1].denominator)


def is_simple(c: PLCurve) -> bool:
    """Exact embeddedness check of the closed curve on the torus."""
    ends = c._ends[0]
    k = len(ends)
    w = c.w
    for i, j, z, kind, pt in _contacts(c._ends):
        if kind == "overlap":
            return False
        allowed = False
        if j == i + 1 and z == (0, 0):
            allowed = _is_end(pt, ends[i], True)
        elif i == 0 and j == k - 1 and z == (-w[0], -w[1]):
            allowed = _is_end(pt, ends[0], False)
        elif k == 1:
            allowed = (z == w and _is_end(pt, ends[0], True)) or (
                z == (-w[0], -w[1]) and _is_end(pt, ends[0], False)
            )
        if not allowed:
            return False
    return True


# ---------------------------------------------------------------------------
# torus intersections with transversality


def _canonical_point(pt):
    x, y = pt
    return (x - math.floor(x), y - math.floor(y))


def _param(ends, i, pt):
    """Cyclic parameter (in [0, k)) of the rational point pt of the
    integer segment ends[i]: integer part the segment index, fractional
    part the position.  The end of a segment is parameter 0 of the next
    one."""
    px, py, qx, qy, d = ends[i]
    if abs(qx - px) >= abs(qy - py):
        p, u, x = px, qx - px, pt[0]
    else:
        p, u, x = py, qy - py, pt[1]
    # (x - p / d) / (u / d)
    t = Fraction(x.numerator * d - p * x.denominator, u * x.denominator)
    if t == 1:
        return Fraction((i + 1) % len(ends))
    return i + t


def _rays(ends, param):
    """Directions (d_in, d_out) of the curve through the point at the
    cyclic parameter; at a vertex they are the directions of the
    previous and the current segment.  Each is the integer difference
    of its segment's ends, the true direction times a positive scale,
    which keeps the signs of their cross products."""
    idx = math.floor(param)
    px, py, qx, qy, _ = ends[idx]
    d_out = (qx - px, qy - py)
    if param != idx:
        return d_out, d_out
    px, py, qx, qy, _ = ends[idx - 1]
    return (qx - px, qy - py), d_out


def _in_left_sector(a_plus, a_minus, u) -> bool:
    """Whether ray u lies strictly in the sector counterclockwise from
    a_plus to a_minus (the left side of the oriented corner)."""
    if _cross2(a_plus, u) == 0 or _cross2(u, a_minus) == 0:
        raise NonGenericError("ray collinear with curve corner")
    c = _cross2(a_plus, a_minus)
    if c > 0:
        return _cross2(a_plus, u) > 0 and _cross2(u, a_minus) > 0
    if c < 0:
        return _cross2(a_plus, u) > 0 or _cross2(u, a_minus) > 0
    return _cross2(a_plus, u) > 0


@dataclass(frozen=True)
class Intersection:
    """A torus intersection point with its cyclic parameter on each of
    the two curves (see _param)."""

    point: tuple
    transverse: bool
    param_a: Fraction
    param_b: Fraction


def intersections(a: PLCurve, b: PLCurve) -> list:
    """All torus intersection points of two simple curves, each flagged
    transverse or touching.  Overlapping subsegments, and a point that
    either curve passes through twice, raise NonGenericError."""
    return _records(a._ends[0], b._ends[0], _contacts(a._ends, b._ends))


def _records(ends_a, ends_b, contacts) -> list:
    """The intersection records of the contacts of the integer segments
    ends_a with ends_b (as yielded by _contacts), one per torus
    point."""
    params = {}  # canonical point -> (parameters on a, parameters on b)
    for i, j, z, kind, pt in contacts:
        if kind == "overlap":
            raise NonGenericError("curves share a subsegment")
        on_a, on_b = params.setdefault(_canonical_point(pt), (set(), set()))
        on_a.add(_param(ends_a, i, pt))
        on_b.add(_param(ends_b, j, (pt[0] - z[0], pt[1] - z[1])))
    out = []
    for pt in sorted(params):
        for on in params[pt]:
            if len(on) != 1:
                raise NonGenericError(
                    f"expected one curve branch through {pt}, found {len(on)}"
                )
        (param_a,), (param_b,) = params[pt]
        a_in, a_out = _rays(ends_a, param_a)
        b_in, b_out = _rays(ends_b, param_b)
        a_plus = a_out
        a_minus = (-a_in[0], -a_in[1])
        r1 = (-b_in[0], -b_in[1])
        r2 = b_out
        transverse = _in_left_sector(a_plus, a_minus, r1) != _in_left_sector(
            a_plus, a_minus, r2
        )
        out.append(Intersection(pt, transverse, param_a, param_b))
    return out


def intersection_count(a: PLCurve, b: PLCurve) -> int:
    """Number of torus intersection points; fast exact path for a pair
    of straight curves."""
    return CurvePair(a, b).intersection_count()


def _is_straight(c: PLCurve) -> bool:
    v0 = c.verts[0]
    w = c.w
    return all(
        (v[0] - v0[0]) * w[1] - (v[1] - v0[1]) * w[0] == 0
        for v in c.verts[1:]
    )


# ---------------------------------------------------------------------------
# crossing number


def crossing_number(a: PLCurve, b: PLCurve) -> int:
    """Number of distinct elevations of a met by one period of a lift
    of b in the plane.

    Elevations of a are indexed by deck translates modulo the cyclic
    group generated by the class of a.  Requires transverse crossings;
    touching contacts raise NonGenericError.
    """
    return CurvePair(a, b).crossing_number()


class CurvePair:
    """Intersection count and crossing number of two curves.

    A pair of straight curves of essential classes is decided once, on
    construction: det counts its crossings, all transverse, and `same`
    says whether the two curves are one subset of the torus.  Such a
    pair enumerates nothing.  Any other pair, asked both counts,
    enumerates its contacts once."""

    def __init__(self, a: PLCurve, b: PLCurve):
        self.a, self.b = a, b
        self.straight = (is_essential_class(a.w) and is_essential_class(b.w)
                         and _is_straight(a) and _is_straight(b))
        self.det = _cross2(a.w, b.w)
        # elevations of a are the parallel lines h(x) = r for the integer
        # height h(x) = det(w_a, x - v_a); b sits at height h0
        self.same = (self.straight and self.det == 0
                     and self._h0().denominator == 1)
        self._contact_list = None
        self._record_list = None

    def _h0(self):
        va, vb = self.a.verts[0], self.b.verts[0]
        return _cross2(self.a.w, (vb[0] - va[0], vb[1] - va[1]))

    def contacts(self) -> list:
        if self._contact_list is None:
            self._contact_list = list(_contacts(self.a._ends, self.b._ends))
        return self._contact_list

    def records(self) -> list:
        """intersections(a, b), from the pair's one enumeration."""
        if self._record_list is None:
            self._record_list = _records(
                self.a._ends[0], self.b._ends[0], self.contacts())
        return self._record_list

    def transverse(self) -> bool:
        """Whether the curves meet transversally or not at all.  Two
        distinct straight curves always do."""
        if self.straight:
            return not self.same
        try:
            return all(i.transverse for i in self.records())
        except NonGenericError:
            return False

    def intersection_count(self) -> int:
        if self.straight and not self.same:
            return abs(self.det)
        return len(self.records())

    def crossing_number(self) -> int:
        w = self.a.w
        if not is_essential_class(w):
            raise InapplicableError(
                "crossing number needs an essential base curve")
        if self.straight:
            if self.same:
                raise NonGenericError("parallel straight curves overlap")
            # one period of b sweeps h from h0 to h0 + det(w_a, w_b)
            h0 = self._h0()
            lo, hi = sorted((h0, h0 + self.det))
            return max(0, math.floor(hi) - math.ceil(lo) + 1)
        for isec in self.records():
            if not isec.transverse:
                raise NonGenericError(
                    f"touching contact at {isec.point}; crossing number "
                    "needs transverse intersections"
                )
        # segs_a[i] meets segs_b[j] + z exactly when the elevation of a
        # through segs_a[i] - z meets segs_b[j]; records() has already
        # ruled out overlaps
        return len({w[1] * z[0] - w[0] * z[1] for _, _, z, _, _ in self.contacts()})


# ---------------------------------------------------------------------------
# finite covers


def lift_to_cover(c: PLCurve, n: int, offset=(0, 0)) -> PLCurve:
    """A connected lift of the curve to the degree n^2 characteristic
    cover, rescaled back to the unit torus.

    The lift concatenates n periods of the chain; offset picks the
    elevation (offsets differing by the lattice generated by the class
    and n Z^2 give the same component)."""
    n = _integer(n, "cover degree", 1)
    if not is_essential_class(c.w):
        raise InapplicableError("cover lift needs an essential curve")
    ox, oy = _vector(offset, "elevation offset")
    verts = []
    for m in range(n):
        for x, y in c.verts:
            verts.append(
                (
                    Fraction(x + m * c.w[0] + ox, n),
                    Fraction(y + m * c.w[1] + oy, n),
                )
            )
    return PLCurve(tuple(verts), c.w)


# ---------------------------------------------------------------------------
# image curves


def _drop_repeats(points) -> list:
    """The points, each run of equal neighbours cut to its first."""
    out = []
    for p in points:
        if not out or p != out[-1]:
            out.append(p)
    return out


class CurveOrbit:
    """Images of one curve under the iterates of a map.  The orbit
    keeps the image of the last iterate asked for and advances it by
    the gap, so iterates must not decrease and a schedule costs one
    orbit.  Chains of Linear and Translation primitives image the curve
    exactly (affine_image_curve); other maps sample it once, res points
    per edge.  Where a map's n-step path is not n single steps (Denjoy
    maps in torus coordinates, whose transport bisects on every call)
    the walked samples may sit a few ulps off a fresh orbit."""

    def __init__(self, F: LiftedMap, c: PLCurve, res: int = 16):
        res = _integer(res, "resolution", 1)
        self.F, self.n, self.w = F, 0, c.w
        self._exact = None
        if all(isinstance(p, (Linear, Translation)) for p in F.primitives):
            self._exact = c
            return
        # (segment, sample, coordinate): P (1 - t) + Q t, t = s / res
        ends = np.array([[[float(v) for v in pt] for pt in seg]
                         for seg in c.segments])[:, None]
        t = (np.arange(res) / res)[:, None]
        self._samples = (ends[:, :, 0] * (1.0 - t)
                         + ends[:, :, 1] * t).reshape(-1, 2)

    def image(self, n: int) -> PLCurve:
        """The image under the n-th iterate: exact for an affine map,
        otherwise the mapped samples snapped to rationals and closed
        with the exact image class A^n w.  A sampled image that is not
        simple raises ResolutionError."""
        n = _integer(n, "iterate count", 1)
        if n < self.n:
            raise InputError(
                f"orbit is at iterate {self.n}; iterates must not decrease")
        steps = n - self.n
        self.n = n
        if self._exact is not None:
            for _ in range(steps):
                self._exact = affine_image_curve(self.F, self._exact)
            return self._exact
        self._samples = iterate_points(self.F, self._samples, steps)
        A1 = linear_part(self.F)
        for _ in range(steps):
            self.w = _mat_apply(A1, self.w)
        w = self.w
        # snap collisions leave consecutive duplicates
        verts = _drop_repeats(
            (Fraction(float(x)).limit_denominator(SNAP_DENOMINATOR),
             Fraction(float(y)).limit_denominator(SNAP_DENOMINATOR))
            for x, y in self._samples)
        closing = (verts[0][0] + w[0], verts[0][1] + w[1])
        while len(verts) > 1 and verts[-1] == closing:
            verts.pop()
        img = PLCurve(tuple(verts), w)
        if not is_simple(img):
            raise ResolutionError(
                "image sampling is not simple; raise the resolution")
        return img

    def pair(self, n: int, reference: PLCurve) -> CurvePair:
        """CurvePair(reference, image) of the n-th image, or of the image
        moved once by (1e-9, 0.5e-9) when the image itself does not
        meet the reference transversally.  An exact image that is the straight reference itself
        is an answer and stays put.  The accepted pair has decided its
        transversality once."""
        img = self.image(n)
        pair = CurvePair(reference, img)
        if pair.transverse() or (self._exact is not None and pair.same):
            return pair
        pair = CurvePair(reference, img.translated(
            Fraction(1, 10**9), Fraction(1, 2 * 10**9)))
        if pair.transverse():
            return pair
        raise ResolutionError(
            "could not place the image curve transverse to the reference"
        )


def image_curve(
    F: LiftedMap,
    c: PLCurve,
    res: int = 16,
    reference: PLCurve = None,
    n: int = 1,
) -> PLCurve:
    """The n-th image of the curve, CurveOrbit(F, c, res).image(n), or
    with a reference curve CurveOrbit(F, c, res).pair(n, reference).b.
    Affine maps give exact images, res applies to sampled maps only,
    and an exact image that is the straight reference itself is
    returned unmoved.  Several iterates of one curve walk one
    CurveOrbit instead."""
    orbit = CurveOrbit(F, c, res)
    if reference is None:
        return orbit.image(n)
    return orbit.pair(n, reference).b


def affine_image_curve(F: LiftedMap, c: PLCurve) -> PLCurve:
    """Exact image of a curve under a chain of linear and translation
    primitives.  Raises InapplicableError for other primitives.

    The vertices are integer numerators over one common denominator: a
    matrix maps the numerators, a (dyadic) translation raises the
    denominator to a common multiple, and one Fraction is built per
    output coordinate.  The map is affine with det +-1, so injective,
    and the image of a valid curve is valid: it is not re-validated."""
    den = math.lcm(*(v.denominator for pt in c.verts for v in pt))
    pts = [(x.numerator * (den // x.denominator),
            y.numerator * (den // y.denominator)) for x, y in c.verts]
    for prim in F.primitives:
        if isinstance(prim, Linear):
            (a, b), (d, e) = prim.matrix
            pts = [(a * x + b * y, d * x + e * y) for x, y in pts]
        elif isinstance(prim, Translation):
            tx, ty = Fraction(prim.v[0]), Fraction(prim.v[1])
            new = math.lcm(den, tx.denominator, ty.denominator)
            s = new // den
            sx = tx.numerator * (new // tx.denominator)
            sy = ty.numerator * (new // ty.denominator)
            pts = [(x * s + sx, y * s + sy) for x, y in pts]
            den = new
        else:
            raise InapplicableError("exact images need an affine chain")
    ox, oy = F.deck_offset[0] * den, F.deck_offset[1] * den
    verts = tuple((Fraction(x + ox, den), Fraction(y + oy, den))
                  for x, y in pts)
    return PLCurve._trusted(verts, _mat_apply(linear_part(F), c.w))


# ---------------------------------------------------------------------------
# file format


_CLASS_RE = re.compile(r"^#\s*class\s+(-?\d+)\s+(-?\d+)\s*$")


def parse_curve(text: str) -> PLCurve:
    """Parse the curve file format: one '# class a b' line and one
    vertex 'x y' per line with rational coordinates."""
    w = None
    verts = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        m = _CLASS_RE.match(line)
        if m:
            if w is not None:
                raise InputError("duplicate class line in curve file")
            w = (int(m.group(1)), int(m.group(2)))
            continue
        if line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise InputError(f"bad curve vertex line: {line!r}")
        try:
            verts.append((Fraction(parts[0]), Fraction(parts[1])))
        except (ValueError, ZeroDivisionError):
            raise InputError(f"bad rational in curve file: {line!r}")
    if w is None:
        raise InputError("curve file is missing the '# class a b' line")
    if not verts:
        raise InputError("curve file has no vertices")
    return PLCurve(tuple(verts), w)


def format_curve(c: PLCurve) -> str:
    lines = [f"# class {c.w[0]} {c.w[1]}"]
    for x, y in c.verts:
        lines.append(f"{x} {y}")
    return "\n".join(lines) + "\n"


def write_curve(path, c: PLCurve) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_curve(c))
