"""Distances in the fine curve graph of the torus.

Vertices are actual essential simple closed curves; two curves span an
edge when they are disjoint or cross exactly once.  Distances are never
claimed exactly: the module produces verifiable upper bounds (explicit
adjacency paths built by curve surgery, or crossing number bounds) and
lower bounds (the coarsely Lipschitz projection to the Farey graph of
homology classes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .curves import (
    CurveOrbit,
    CurvePair,
    PLCurve,
    _drop_repeats,
    intersections,
    is_essential_class,
    is_simple,
)
from .errors import (
    DivergenceError,
    InapplicableError,
    InputError,
    MalformedCurveError,
    NonGenericError,
    ResolutionError,
)
from .maps import (
    _egcd,
    _field,
    _iteration_count,
    isotopy_class,
    iterate_points,
    map_from_json,
)

MAX_DELTA_HALVINGS = 12


# ---------------------------------------------------------------------------
# adjacency


def adjacent(a: PLCurve, b: PLCurve) -> bool:
    """Edge relation of the fine curve graph: disjoint curves or a
    single transverse crossing.  A single tangential contact is not
    decidable as an edge and raises NonGenericError."""
    for c in (a, b):
        if not is_essential_class(c.w):
            raise InapplicableError("fine graph vertices must be essential")
    pair = CurvePair(a, b)
    count = pair.intersection_count()
    if count == 1 and not pair.transverse():
        raise NonGenericError(
            "single tangential contact; perturb before testing adjacency"
        )
    return count <= 1


# ---------------------------------------------------------------------------
# points along a curve, by cyclic parameter


def _point_at(c: PLCurve, param: Fraction):
    """Lifted point at a cyclic parameter, following the canonical lift
    across period wraps (param may exceed k)."""
    v, w = c.verts, c.w
    k = len(v)
    wrap, local = divmod(param, k)
    idx = int(math.floor(local))
    t = local - idx
    P = v[idx]
    if t:
        Q = v[idx + 1] if idx + 1 < k else (v[0][0] + w[0], v[0][1] + w[1])
        P = (P[0] + t * (Q[0] - P[0]), P[1] + t * (Q[1] - P[1]))
    return (P[0] + wrap * w[0], P[1] + wrap * w[1])


def _arc_chain(c: PLCurve, s: Fraction, e: Fraction):
    """Vertex chain of the lifted arc from parameter s to e > s."""
    if not e > s:
        raise InputError("arc needs increasing parameters")
    pts = [_point_at(c, s)]
    j = math.floor(s) + 1
    while j < e:
        pts.append(_point_at(c, Fraction(j)))
        j += 1
    pts.append(_point_at(c, e))
    # drop repeats when s or e sits exactly on a vertex
    return _drop_repeats(pts)


# ---------------------------------------------------------------------------
# rational push-off of a PL closed curve


def _offset_curve(c: PLCurve, delta: Fraction, side: int) -> PLCurve:
    """Push the curve off itself by delta to the left (side 1) or the
    right (side -1) of its direction of travel.

    Each edge line moves along its normal by the vector of max-norm
    delta, so by a distance between delta and delta * sqrt(2), which
    keeps all coordinates rational.  Vertex i becomes the meet of the
    offset lines of edges i - 1 and i, or, where those edges are
    parallel, moves with the line of edge i.  Each new vertex is
    computed in integers from the curve's integer segment ends, over
    one denominator, with one Fraction per coordinate.  The chain, each
    run of equal neighbours cut to its first, is validated as a curve:
    it need not be simple, and a zero-length closing edge raises
    MalformedCurveError.
    """
    ends = c._ends[0]
    n, q = side * delta.numerator, delta.denominator
    dirs = [(qx - px, qy - py) for px, py, qx, qy, _ in ends]
    norms = [max(abs(ux), abs(uy)) for ux, uy in dirs]
    verts = []
    for i, (px, py, _, _, d) in enumerate(ends):
        # edge i has direction u_i = (ux, uy), max-norm m_i, and offset
        # o_i = (n / q) (-uy, ux) / m_i; the line of edge i - 1 (for
        # i = 0 edge k - 1 shifted back one period) passes through
        # vertex i = (px, py) / d
        ux, uy = dirs[i]
        vx, vy = dirs[i - 1]
        mi, mj = norms[i], norms[i - 1]
        cross = vx * uy - vy * ux
        if cross == 0:
            den = d * q * mi
            verts.append((Fraction(px * q * mi - d * n * uy, den),
                          Fraction(py * q * mi + d * n * ux, den)))
            continue
        # vertex i + o_{i-1} + s u_{i-1}, where
        # s = cross(o_i - o_{i-1}, u_i) / cross(u_{i-1}, u_i)
        #   = (n / q) g / (m_i m_{i-1} cross)
        g = mi * (ux * vx + uy * vy) - mj * (ux * ux + uy * uy)
        den = d * q * mi * mj * cross
        verts.append(
            (Fraction(px * q * mi * mj * cross
                      + d * n * (g * vx - vy * mi * cross), den),
             Fraction(py * q * mi * mj * cross
                      + d * n * (g * vy + vx * mi * cross), den)))
    return PLCurve(tuple(_drop_repeats(verts)), c.w)


# ---------------------------------------------------------------------------
# curve surgery


@dataclass(frozen=True)
class SurgeryStep:
    """One surgery: the middle curve adjacent to both the replaced and
    the new curve, the new curve with fewer crossings of the target, and
    the intersection records of the target with the new curve."""

    middle: PLCurve
    result: PLCurve
    points: list


def _surgery_candidates(a: PLCurve, b: PLCurve, pts):
    """Candidate surgered closed chains: an innermost subarc of a
    joined with one of the two complementary arcs of b, for the
    intersection records pts of a and b."""
    along_a = sorted((p.param_a, p.param_b) for p in pts)
    ka, kb = len(a.verts), len(b.verts)
    for i in range(len(along_a)):
        s_par, p_b = along_a[i]
        e_par, q_b = along_a[(i + 1) % len(along_a)]
        if (i + 1) % len(along_a) == 0 or e_par <= s_par:
            e_par = e_par + ka
        a_chain = _arc_chain(a, s_par, e_par)
        fwd_pq = q_b if q_b > p_b else q_b + kb
        fwd_qp = p_b if p_b > q_b else p_b + kb
        arcs = [
            list(reversed(_arc_chain(b, p_b, fwd_pq))),  # q -> p backwards
            _arc_chain(b, q_b, fwd_qp),  # q -> p forwards
        ]
        for b_chain in arcs:
            # translate the b arc so it starts at the lifted q of the
            # a subarc
            q_lift = a_chain[-1]
            dz = (q_lift[0] - b_chain[0][0], q_lift[1] - b_chain[0][1])
            if int(dz[0]) != dz[0] or int(dz[1]) != dz[1]:
                raise NonGenericError("arc endpoints disagree off-lattice")
            moved = [(x + dz[0], y + dz[1]) for x, y in b_chain]
            chain = a_chain + moved[1:]
            w = (chain[-1][0] - chain[0][0], chain[-1][1] - chain[0][1])
            if int(w[0]) != w[0] or int(w[1]) != w[1]:
                continue
            w = (int(w[0]), int(w[1]))
            if not is_essential_class(w):
                continue
            try:
                gamma = PLCurve(tuple(_drop_repeats(chain[:-1])), w)
            except MalformedCurveError:
                continue
            if not is_simple(gamma):
                continue
            yield gamma


def surgery_step(a: PLCurve, b: PLCurve, pts) -> SurgeryStep:
    """Replace b by a pushed-off surgered curve crossing a strictly
    fewer times, together with a middle curve adjacent to both; pts is
    intersections(a, b)."""
    if any(not p.transverse for p in pts):
        raise NonGenericError("surgery needs transverse intersections")
    n0 = len(pts)
    if n0 < 2:
        raise InapplicableError("surgery needs at least two crossings")
    max_den = max(
        [v.denominator for c in (a, b) for pt in c.verts for v in pt]
    )
    delta0 = Fraction(1, 4 * max_den)
    for gamma in _surgery_candidates(a, b, pts):
        delta = delta0
        for _ in range(MAX_DELTA_HALVINGS):
            for side in (1, -1):
                try:
                    new = _offset_curve(gamma, delta, side)
                    mid = _offset_curve(gamma, delta / 2, side)
                    if not (is_simple(new) and is_simple(mid)):
                        continue
                    new_pts = intersections(a, new)
                    if len(new_pts) >= n0:
                        continue
                    if not adjacent(b, mid):
                        continue
                    if not adjacent(mid, new):
                        continue
                    return SurgeryStep(mid, new, new_pts)
                except NonGenericError:
                    continue
            delta = delta / 2
    raise NonGenericError("no valid surgery push-off found")


@dataclass(frozen=True)
class CertifiedPath:
    """Explicit edge path in the fine curve graph from start to end.

    The path length certifies the distance upper bound; verify()
    re-checks the JSON certificate with verify_certificate."""

    curves: tuple
    intersection_count: int

    @property
    def length(self) -> int:
        return len(self.curves) - 1

    def verify(self) -> bool:
        return verify_certificate(self.to_json_dict())["valid"]

    def to_json_dict(self):
        return {
            "type": "fine_path",
            "length": self.length,
            "intersection_count": self.intersection_count,
            "curves": [curve_to_json(c) for c in self.curves],
        }


def curve_to_json(c: PLCurve) -> dict:
    return {
        "class": list(c.w),
        "verts": [[str(x), str(y)] for x, y in c.verts],
    }


def curve_from_json(d: dict) -> PLCurve:
    return PLCurve(
        tuple((Fraction(x), Fraction(y)) for x, y in d["verts"]),
        tuple(d["class"]),
    )


def upper_bound_by_intersection(a: PLCurve, b: PLCurve) -> CertifiedPath:
    """Constructive distance bound d(a, b) <= 2 i(a, b) + 2 via
    repeated surgery; the returned path starts at b and ends at a."""
    for c in (a, b):
        if not is_essential_class(c.w):
            raise InapplicableError("curves must be essential")
    pts = intersections(a, b)
    if any(not p.transverse for p in pts):
        raise NonGenericError("distance bound needs transverse crossings")
    i0 = len(pts)
    path = [b]
    cur = b
    budget = 2 * i0 + 2
    while len(pts) > 1:
        step = surgery_step(a, cur, pts)
        path.extend([step.middle, step.result])
        cur, pts = step.result, step.points
        if len(path) - 1 > budget:
            raise NonGenericError("surgery exceeded the certified budget")
    if cur.verts != a.verts or cur.w != a.w:
        path.append(a)
    cp = CertifiedPath(tuple(path), i0)
    if cp.length > budget:
        raise NonGenericError("surgery exceeded the certified budget")
    return cp


# ---------------------------------------------------------------------------
# Farey graph of homology classes


def farey_class(w) -> tuple:
    """Canonical representative of +-(p, q) primitive."""
    p, q = int(w[0]), int(w[1])
    if (p, q) != (w[0], w[1]) or not is_essential_class((p, q)):
        raise InputError("Farey vertices are primitive nonzero classes")
    if q < 0 or (q == 0 and p < 0):
        p, q = -p, -q
    return (p, q)


def farey_adjacent(u, v) -> bool:
    u, v = farey_class(u), farey_class(v)
    return abs(u[0] * v[1] - u[1] * v[0]) == 1


def farey_distance(u, v) -> int:
    """Graph distance in the Farey graph, exactly, by the ladder dynamic
    program of geodesic continued fractions (Beardon, Hockman and
    Short, "Geodesic continued fractions", Michigan Math. J. 61, 2012).

    The SL(2, Z) matrix ((x, y), (-u1, u0)) sends u to 1/0 and v to p/q
    with q > 0.  The convergents c[k] of p/q = [a0; a1, ..., an] form a
    ladder from c[-1] = 1/0, at distance 0, and c[0] = a0, at distance 1.
    The fan of triangles on c[k] runs from c[k-1] to c[k+1] in a[k+1]
    edges, and a geodesic reaches c[k+1] from c[k] or along that fan, so
    d[k+1] = min(d[k] + 1, d[k-1] + a[k+1]) and the answer is d[n]."""
    u, v = farey_class(u), farey_class(v)
    if u == v:
        return 0
    _, x, y = _egcd(*u)
    p, q = x * v[0] + y * v[1], u[0] * v[1] - u[1] * v[0]
    if q < 0:
        p, q = -p, -q
    d_prev, d = 0, 1
    p, q = q, p % q
    while q:
        a, r = divmod(p, q)
        d_prev, d = d, min(d + 1, d_prev + a)
        p, q = q, r
    return d


def farey_lower_bound(a: PLCurve, b: PLCurve) -> int:
    """Fine graph distance is bounded below by the Farey distance of
    the homology classes (the class projection is 1-Lipschitz on
    curves in distinct classes)."""
    return farey_distance(a.w, b.w)


# ---------------------------------------------------------------------------
# orbit walks and translation length bounds


@dataclass
class OrbitEntry:
    """What the n-th image of a probe a measures against a: the Farey
    distance, the intersection count and, if the image keeps the class
    of a, the crossing number.  same marks an exact image that is a
    itself; exc is the error of a failed image, placement or orbit."""

    n: int
    intersections: int = None
    crossing: int = None
    farey: int = None
    same: bool = False
    exc: Exception = None

    def to_json_dict(self):
        out = {"n": self.n, "intersections": self.intersections,
               "crossing": self.crossing, "farey": self.farey,
               "error": None if self.exc is None else str(self.exc)}
        return {key: val for key, val in out.items() if val is not None}


def orbit_entries(F, a: PLCurve, ns, res: int):
    """Walk one CurveOrbit of a, res samples per edge, and yield an
    OrbitEntry per n of the non-decreasing ns.  A failed iterate is
    recorded and the walk goes on."""
    orbit = CurveOrbit(F, a, res)
    for n in ns:
        try:
            pair = orbit.pair(n, a)
        except (ResolutionError, DivergenceError, NonGenericError,
                InapplicableError) as exc:
            # the traceback would pin the orbit and its samples
            yield OrbitEntry(n, exc=exc.with_traceback(None))
            continue
        farey = farey_distance(a.w, pair.b.w)
        if pair.same:
            # an exact image on the probe reads as a placed push-off
            yield OrbitEntry(n, 0, 0, farey, same=True)
        else:
            crossing = pair.crossing_number() if pair.b.w == a.w else None
            yield OrbitEntry(n, pair.intersection_count(), crossing, farey)


@dataclass(frozen=True)
class LengthBoundEntry:
    n: int
    upper_numerator: int
    lower_numerator: int


@dataclass(frozen=True)
class TranslationLengthBounds:
    """Measured bounds on the asymptotic translation length of the map
    on the fine curve graph along the orbit of one curve.

    upper is min over n of the distance bound divided by n, valid by
    subadditivity of orbit distances.  lower is the largest observed
    Farey(w, A^n w) / n, not a lower bound: on anosov with a straight
    (2, 5) probe and n_max 6 it reads 4.0, while the translation length
    and the Farey translation length are both 1."""

    lower: float
    upper: float
    entries: tuple
    route: str


def translation_length_bounds(
    F, a: PLCurve, n_max: int, res: int = 32
) -> TranslationLengthBounds:
    """Bounds from the orbit_entries of a for n = 1, ..., n_max.

    The distance bound of the n-th image f^n a is 0 when it is a
    itself, crossing number + 1 on the identity route when it keeps the
    class of a, and 2 i + 2 otherwise, i the intersection count
    (upper_bound_by_intersection).  The crossing + 1 rule has no
    citation yet (ROADMAP item 5).  The first failed iterate raises its
    error."""
    n_max = _iteration_count(n_max)
    if n_max < 1:
        raise InputError("n_max must be positive")
    route = isotopy_class(F).kind
    entries = []
    for e in orbit_entries(F, a, range(1, n_max + 1), res):
        if e.exc is not None:
            raise e.exc
        if e.same:
            up = 0
        elif route == "identity" and e.crossing is not None:
            up = e.crossing + 1
        else:
            up = 2 * e.intersections + 2
        entries.append(LengthBoundEntry(e.n, up, e.farey))
    return TranslationLengthBounds(
        max(e.lower_numerator / e.n for e in entries),
        min(e.upper_numerator / e.n for e in entries), tuple(entries), route)


# ---------------------------------------------------------------------------
# annulus trap certificates


@dataclass(frozen=True)
class AnnulusCertificate:
    """Numerical invariant-annulus certificate: the power N image of
    the horizontal annulus lo <= y <= hi lands strictly inside with the
    stated margin, sampled on the stated grid."""

    lo: Fraction
    hi: Fraction
    power: int
    samples: int
    margin: float
    map_json: dict

    def to_json_dict(self):
        return {
            "type": "annulus_trap",
            "lo": str(self.lo),
            "hi": str(self.hi),
            "power": self.power,
            "samples": self.samples,
            "margin": self.margin,
            "map": self.map_json,
        }


def _annulus_margin(F, lo, hi, power: int, samples: int):
    """Clearance inside lo <= y <= hi of F^power of its boundary circles,
    samples points each; None outside the identity and twist classes."""
    if not lo < hi < lo + 1:
        raise InputError("annulus needs lo < hi < lo + 1")
    if power < 1 or samples < 1:
        raise InputError("annulus trap needs 'power' >= 1 and 'samples' >= 1")
    if isotopy_class(F).kind not in ("identity", "twist_power"):
        return None
    xs = (np.arange(samples, dtype=float) + 0.5) / samples
    flo, fhi = float(lo), float(hi)
    boundary = np.concatenate(
        [
            np.column_stack([xs, np.full(samples, flo)]),
            np.column_stack([xs, np.full(samples, fhi)]),
        ]
    )
    ys = iterate_points(F, boundary, power)[:, 1]
    return float(min(ys.min() - flo, fhi - ys.max()))


# the largest iterate tried per annulus and the boundary sample count
# per annulus check
ANNULUS_POWER = 3
ANNULUS_SAMPLES = 512


def annulus_trap_certificate(
    F, lo, hi, max_power: int = ANNULUS_POWER, samples: int = ANNULUS_SAMPLES
):
    """Search for N <= max_power with F^N(annulus) strictly inside the
    horizontal annulus, by _annulus_margin.  Returns the first
    certificate found or None."""
    max_power = _iteration_count(max_power)
    if max_power < 1:
        raise InputError("annulus trap needs 'max_power' >= 1")
    samples = _iteration_count(samples)
    lo, hi = Fraction(lo), Fraction(hi)
    for N in range(1, max_power + 1):
        margin = _annulus_margin(F, lo, hi, N, samples)
        if margin is None:
            return None
        if margin > 0.0:
            return AnnulusCertificate(
                lo, hi, N, samples, margin, F.to_json()
            )
    return None


def _count_field(cert: dict, key: str) -> int:
    """cert[key] as an int; an InputError naming the field unless it is
    a non-negative integral number, so 1.5 or true is not truncated."""
    value = _field(cert, key, lambda v: v)
    try:
        return _iteration_count(value)
    except InputError as exc:
        raise InputError(f"bad field {key!r}: {exc}") from exc


def verify_certificate(cert: dict) -> dict:
    """Re-check a serialized certificate from its data alone, calling no
    producer; the report gives 'valid' and the recomputed figures.  A
    fine_path must claim its length and the crossing count of its ends,
    which must cross transversally.  An annulus_trap is resampled at its
    stated power, a numerical check until the margin has an error bound."""
    if not isinstance(cert, dict) or "type" not in cert:
        raise InputError("certificate must be a dict with a 'type' field")
    if cert["type"] == "fine_path":
        curves = _field(
            cert, "curves", lambda ds: tuple(curve_from_json(d) for d in ds))
        claimed = (_count_field(cert, "intersection_count"),
                   _count_field(cert, "length"))
        length = len(curves) - 1
        out = {"type": "fine_path", "valid": False, "length": length,
               "budget": None}
        if not curves:
            return dict(out, failed_step=0)
        for k, c in enumerate(curves):
            if not (is_essential_class(c.w) and is_simple(c)):
                return dict(out, failed_step=k)
        for k, (u, v) in enumerate(zip(curves, curves[1:])):
            try:
                if not adjacent(u, v):
                    return dict(out, failed_step=k)
            except NonGenericError:
                return dict(out, failed_step=k)
        ends = CurvePair(curves[-1], curves[0])
        if ends.transverse():
            i = ends.intersection_count()
            out["budget"] = 2 * i + 2
            out["valid"] = claimed == (i, length) and length <= 2 * i + 2
        return out
    if cert["type"] == "annulus_trap":
        margin = _annulus_margin(
            _field(cert, "map", map_from_json),
            _field(cert, "lo", Fraction),
            _field(cert, "hi", Fraction),
            _count_field(cert, "power"),
            _count_field(cert, "samples"),
        )
        return {
            "type": "annulus_trap",
            "valid": margin is not None and margin > 0.0,
            "margin": margin,
        }
    raise InputError(f"unknown certificate type: {cert['type']!r}")
