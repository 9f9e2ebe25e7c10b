"""Exact PL curves on the torus.

A curve is stored as one period of a lift: a chain of rational vertices
v_0 ... v_{k-1} in R^2 plus the integer closing displacement w, so the
chain continues with v_0 + w.  The displacement is the homology class.
All predicates (simplicity, intersection, crossing numbers) are decided
in exact rational arithmetic over integer deck translates, with a float
bounding box prefilter that only prunes, never decides.  Every predicate
runs on one enumeration of segment contacts, and intersection records
carry the cyclic parameter of the point on both curves.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    InapplicableError,
    InputError,
    MalformedCurveError,
    NonGenericError,
    ResolutionError,
)
from .maps import LiftedMap, Linear, Translation, _mat_apply, iterate_points, linear_part

BBOX_PAD = 1e-9
PAIR_CHUNK = 256  # segments of a per vectorised bounding-box test
SNAP_DENOMINATOR = 10**9
IMAGE_RETRIES = 8


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
    w = (int(w[0]), int(w[1]))
    if not is_essential_class(w):
        raise InputError("straight curve class must be primitive")
    return PLCurve(((_frac(base[0]), _frac(base[1])),), w)


def horizontal_circle(y) -> PLCurve:
    return straight_curve((1, 0), (Fraction(0), _frac(y)))


def vertical_circle(x) -> PLCurve:
    return straight_curve((0, 1), (_frac(x), Fraction(0)))


# ---------------------------------------------------------------------------
# exact segment predicates


def _cross3(o, a, b) -> Fraction:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _cross2(u, v):
    return u[0] * v[1] - u[1] * v[0]


def _seg_contact(p1, p2, q1, q2):
    """Contact of two closed rational segments.

    Returns ('none', None), ('point', pt) or ('overlap', None); the
    overlap case means a common subsegment of positive length.
    """
    d1 = _cross3(p1, p2, q1)
    d2 = _cross3(p1, p2, q2)
    d3 = _cross3(q1, q2, p1)
    d4 = _cross3(q1, q2, p2)
    if d1 == 0 and d2 == 0:
        axis = 0 if abs(p2[0] - p1[0]) >= abs(p2[1] - p1[1]) else 1
        a0, a1 = sorted((p1[axis], p2[axis]))
        b0, b1 = sorted((q1[axis], q2[axis]))
        lo, hi = max(a0, b0), min(a1, b1)
        if lo > hi:
            return ("none", None)
        if lo < hi:
            return ("overlap", None)
        pt = p1 if p1[axis] == lo else p2
        return ("point", pt)
    if (d1 > 0 and d2 > 0) or (d1 < 0 and d2 < 0):
        return ("none", None)
    if (d3 > 0 and d4 > 0) or (d3 < 0 and d4 < 0):
        return ("none", None)
    t = d3 / (d3 - d4)
    pt = (p1[0] + t * (p2[0] - p1[0]), p1[1] + t * (p2[1] - p1[1]))
    return ("point", pt)


# ---------------------------------------------------------------------------
# candidate generation: float bounding boxes over integer translates


def _bbox_arrays(segments):
    lo = np.empty((len(segments), 2))
    hi = np.empty((len(segments), 2))
    for i, (p, q) in enumerate(segments):
        px, py = float(p[0]), float(p[1])
        qx, qy = float(q[0]), float(q[1])
        lo[i, 0], hi[i, 0] = min(px, qx), max(px, qx)
        lo[i, 1], hi[i, 1] = min(py, qy), max(py, qy)
    return lo - BBOX_PAD, hi + BBOX_PAD


def _pair_candidates(segs_a, segs_b):
    """Yield (i, j, z) with bbox(segs_a[i]) meeting bbox(segs_b[j]) + z
    for an integer vector z.  Complete over all contacts; may yield
    false positives."""
    lo_a, hi_a = _bbox_arrays(segs_a)
    lo_b, hi_b = _bbox_arrays(segs_b)
    for start in range(0, len(segs_a), PAIR_CHUNK):
        sl = slice(start, min(start + PAIR_CHUNK, len(segs_a)))
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


def _translate_seg(seg, z):
    (p, q) = seg
    return (
        (p[0] + z[0], p[1] + z[1]),
        (q[0] + z[0], q[1] + z[1]),
    )


def _contacts(segs_a, segs_b=None):
    """Yield (i, j, z, kind, pt) for every non-empty contact of
    segs_a[i] with segs_b[j] + z, kind and pt as in _seg_contact.

    Without segs_b, the self-contacts of segs_a: (i, j, z) and
    (j, i, -z) describe the same segment pair, so only i < j, or i == j
    with z > (0, 0), is tested."""
    own = segs_b is None
    if own:
        segs_b = segs_a
    for i, j, z in _pair_candidates(segs_a, segs_b):
        if own and (i > j or (i == j and z <= (0, 0))):
            continue
        kind, pt = _seg_contact(*segs_a[i], *_translate_seg(segs_b[j], z))
        if kind != "none":
            yield i, j, z, kind, pt


# ---------------------------------------------------------------------------
# simplicity


def is_simple(c: PLCurve) -> bool:
    """Exact embeddedness check of the closed curve on the torus."""
    segs = c.segments
    k = len(segs)
    w = c.w
    for i, j, z, kind, pt in _contacts(segs):
        if kind == "overlap":
            return False
        allowed = False
        if j == i + 1 and z == (0, 0):
            allowed = pt == segs[i][1]
        elif i == 0 and j == k - 1 and z == (-w[0], -w[1]):
            allowed = pt == segs[0][0]
        elif k == 1:
            allowed = (z == w and pt == segs[0][1]) or (
                z == (-w[0], -w[1]) and pt == segs[0][0]
            )
        if not allowed:
            return False
    return True


# ---------------------------------------------------------------------------
# torus intersections with transversality


def _canonical_point(pt):
    x, y = pt
    return (x - math.floor(x), y - math.floor(y))


def _param(segs, i, pt):
    """Cyclic parameter (in [0, k)) of the point pt of segs[i]: integer
    part the segment index, fractional part the position.  The end of a
    segment is parameter 0 of the next one."""
    P, Q = segs[i]
    axis = 0 if abs(Q[0] - P[0]) >= abs(Q[1] - P[1]) else 1
    t = (pt[axis] - P[axis]) / (Q[axis] - P[axis])
    if t == 1:
        return Fraction((i + 1) % len(segs))
    return i + t


def _rays(segs, param):
    """Directions (d_in, d_out) of the curve through the point at the
    cyclic parameter; at a vertex they are the directions of the
    previous and the current segment."""
    idx = math.floor(param)
    P, Q = segs[idx]
    d_out = (Q[0] - P[0], Q[1] - P[1])
    if param != idx:
        return d_out, d_out
    P, Q = segs[idx - 1]
    return (Q[0] - P[0], Q[1] - P[1]), d_out


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
    segs_a, segs_b = a.segments, b.segments
    return _records(segs_a, segs_b, _contacts(segs_a, segs_b))


def _records(segs_a, segs_b, contacts) -> list:
    """The intersection records of the contacts of segs_a with segs_b
    (as yielded by _contacts), one per torus point."""
    params = {}  # canonical point -> (parameters on a, parameters on b)
    for i, j, z, kind, pt in contacts:
        if kind == "overlap":
            raise NonGenericError("curves share a subsegment")
        on_a, on_b = params.setdefault(_canonical_point(pt), (set(), set()))
        on_a.add(_param(segs_a, i, pt))
        on_b.add(_param(segs_b, j, (pt[0] - z[0], pt[1] - z[1])))
    out = []
    for pt in sorted(params):
        for on in params[pt]:
            if len(on) != 1:
                raise NonGenericError(
                    f"expected one curve branch through {pt}, found {len(on)}"
                )
        (param_a,), (param_b,) = params[pt]
        a_in, a_out = _rays(segs_a, param_a)
        b_in, b_out = _rays(segs_b, param_b)
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
        (v[0] - v0[0]) * w[1] - (v[1] - v0[1]) * w[0] == 0 for v in c.verts
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
            self._contact_list = list(
                _contacts(self.a.segments, self.b.segments))
        return self._contact_list

    def records(self) -> list:
        """intersections(a, b), from the pair's one enumeration."""
        if self._record_list is None:
            self._record_list = _records(
                self.a.segments, self.b.segments, self.contacts())
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
    if n < 1 or int(n) != n:
        raise InputError("cover degree must be a positive integer")
    if not is_essential_class(c.w):
        raise InapplicableError("cover lift needs an essential curve")
    if any(int(v) != v for v in offset):
        raise InputError("elevation offset must be integral")
    n = int(n)
    ox, oy = int(offset[0]), int(offset[1])
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
        if res < 1 or int(res) != res:
            raise InputError("resolution must be a positive integer")
        self.F, self.n, self.w = F, 0, c.w
        self._exact = None
        if all(isinstance(p, (Linear, Translation)) for p in F.primitives):
            self._exact = c
            return
        # (segment, sample, coordinate): P (1 - t) + Q t, t = s / res
        ends = np.array([[[float(v) for v in pt] for pt in seg]
                         for seg in c.segments])[:, None]
        t = (np.arange(int(res)) / res)[:, None]
        self._samples = (ends[:, :, 0] * (1.0 - t)
                         + ends[:, :, 1] * t).reshape(-1, 2)

    def image(self, n: int) -> PLCurve:
        """The image under the n-th iterate: exact for an affine map,
        otherwise a simple PL approximation, the mapped samples snapped
        to rationals and closed with the exact image class A^n w."""
        if n < 1 or int(n) != n:
            raise InputError("iterate count must be a positive integer")
        if n < self.n:
            raise InputError(
                f"orbit is at iterate {self.n}; iterates must not decrease")
        steps = int(n) - self.n
        self.n = int(n)
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
        base = PLCurve(tuple(verts), w)
        if is_simple(base):
            return base
        # maps with flat stretches can snap distinct image arcs onto
        # exactly overlapping segments; a deterministic microscopic
        # vertex jitter separates them without moving the curve beyond
        # snapping precision
        for k in range(1, IMAGE_RETRIES + 1):
            jittered = tuple(
                (
                    x + Fraction(k * ((37 * i) % 101 - 50), 10**12),
                    y + Fraction(k * ((53 * i) % 101 - 50), 10**12),
                )
                for i, (x, y) in enumerate(verts)
            )
            cand = PLCurve(jittered, w)
            if is_simple(cand):
                return cand
        raise ResolutionError(
            "image sampling is not simple; raise the resolution")

    def pair(self, n: int, reference: PLCurve) -> CurvePair:
        """CurvePair(reference, image) of the n-th image, translated by
        a deterministic schedule until it meets the reference
        transversally or not at all.  An exact image that is the
        straight reference itself is an answer and stays put.  The
        accepted pair has decided its transversality once."""
        base = self.image(n)
        shift = (Fraction(1, 10**9), Fraction(1, 2 * 10**9))
        for attempt in range(IMAGE_RETRIES + 1):
            cand = base if attempt == 0 else base.translated(
                attempt * shift[0], attempt * shift[1]
            )
            pair = CurvePair(reference, cand)
            if pair.transverse() or (
                    attempt == 0 and self._exact is not None and pair.same):
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
    primitives.  Raises InapplicableError for other primitives."""
    verts = list(c.verts)
    for prim in F.primitives:
        if isinstance(prim, Linear):
            (a, b), (d, e) = prim.matrix
            verts = [(a * x + b * y, d * x + e * y) for x, y in verts]
        elif isinstance(prim, Translation):
            tx, ty = Fraction(prim.v[0]), Fraction(prim.v[1])
            verts = [(x + tx, y + ty) for x, y in verts]
        else:
            raise InapplicableError("exact images need an affine chain")
    ox, oy = F.deck_offset
    verts = [(x + ox, y + oy) for x, y in verts]
    return PLCurve(tuple(verts), _mat_apply(linear_part(F), c.w))


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


def read_curve(path) -> PLCurve:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_curve(fh.read())


def write_curve(path, c: PLCurve) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_curve(c))
