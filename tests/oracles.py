"""Independent reference implementations used to cross validate the
library.  Everything here is deliberately naive: direct enumeration and
dense sampling, no shared code paths with the package internals."""

from __future__ import annotations

import math
from fractions import Fraction


# ---------------------------------------------------------------------------
# exact segment intersection over Fractions (textbook formulation)


def _orient(p, q, r):
    return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])


def _on_segment(p, q, r):
    """r collinear with pq: does r lie on the closed segment pq?"""
    return (min(p[0], q[0]) <= r[0] <= max(p[0], q[0])
            and min(p[1], q[1]) <= r[1] <= max(p[1], q[1]))


def segments_touch(a0, a1, b0, b1) -> bool:
    """Closed segments share at least one point (exact)."""
    if (max(a0[0], a1[0]) < min(b0[0], b1[0])
            or max(b0[0], b1[0]) < min(a0[0], a1[0])
            or max(a0[1], a1[1]) < min(b0[1], b1[1])
            or max(b0[1], b1[1]) < min(a0[1], a1[1])):
        return False  # disjoint bounding boxes
    d1 = _orient(a0, a1, b0)
    d2 = _orient(a0, a1, b1)
    d3 = _orient(b0, b1, a0)
    d4 = _orient(b0, b1, a1)
    if ((d1 > 0) != (d2 > 0) and d1 != 0 and d2 != 0
            and (d3 > 0) != (d4 > 0) and d3 != 0 and d4 != 0):
        return True
    if d1 == 0 and _on_segment(a0, a1, b0):
        return True
    if d2 == 0 and _on_segment(a0, a1, b1):
        return True
    if d3 == 0 and _on_segment(b0, b1, a0):
        return True
    if d4 == 0 and _on_segment(b0, b1, a1):
        return True
    return False


def _lift_segments(verts, w, periods):
    """Closed-up vertex chain over the given number of periods."""
    pts = []
    for k in range(periods + 1):
        for x, y in verts:
            pts.append((x + k * w[0], y + k * w[1]))
    pts.append((verts[0][0] + (periods + 1) * w[0],
                verts[0][1] + (periods + 1) * w[1]))
    return list(zip(pts, pts[1:]))


def brute_crossing_number(a, b, window: int = None) -> int:
    """Crossing number by direct enumeration: which elevations of a
    (indexed by the coset det(w_a, z) of the integer translate z) meet
    a one period lift of b.

    window controls the search range of integer translates; it is
    derived from the bounding boxes when omitted.
    """
    b_segs = _lift_segments(list(b.verts), b.w, 0)
    bx = [p[0] for s in b_segs for p in s]
    by = [p[1] for s in b_segs for p in s]
    ax = [p[0] for p in a.verts] + [a.verts[0][0] + a.w[0]]
    ay = [p[1] for p in a.verts] + [a.verts[0][1] + a.w[1]]
    if window is None:
        wx = int(math.ceil(float(max(bx) - min(ax)
                                 + abs(a.w[0]) + abs(b.w[0])))) + 2
        wy = int(math.ceil(float(max(by) - min(ay)
                                 + abs(a.w[1]) + abs(b.w[1])))) + 2
        window = max(wx, wy,
                     int(math.ceil(float(max(ax) - min(bx)))) + 2,
                     int(math.ceil(float(max(ay) - min(by)))) + 2)
    # one elevation of a must be long enough to cover b's lift
    reps = 2 * window + 2
    met = set()
    for zx in range(-window, window + 1):
        for zy in range(-window, window + 1):
            coset = a.w[0] * zy - a.w[1] * zx
            if coset in met:
                continue
            shifted = [
                (x + zx - reps // 2 * a.w[0], y + zy - reps // 2 * a.w[1])
                for x, y in a.verts
            ]
            a_segs = _lift_segments(shifted, a.w, reps)
            hit = False
            for s0, s1 in a_segs:
                for t0, t1 in b_segs:
                    if segments_touch(s0, s1, t0, t1):
                        hit = True
                        break
                if hit:
                    break
            if hit:
                met.add(coset)
    return len(met)


# ---------------------------------------------------------------------------
# Farey graph by plain breadth first search over bounded classes


def _farey_canon(w):
    p, q = w
    if q < 0 or (q == 0 and p < 0):
        p, q = -p, -q
    return (p, q)


def _farey_neighbours(w, cap):
    """Every neighbour of w with entries bounded by cap.  The solution
    set of |p s - q r| = 1 is the two families (r0, s0) + k (p, q) and
    -(r0, s0) + k (p, q); both collapse to one family up to sign."""
    p, q = w
    # extended gcd for one particular solution of p s - q r = 1
    a, b = abs(p), abs(q)
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        t = a // b
        a, b = b, a - t * b
        x0, x1 = x1, x0 - t * x1
        y0, y1 = y1, y0 - t * y1
    # a == gcd == 1; x0 * |p| + y0 * |q| = 1
    sp = 1 if p >= 0 else -1
    sq = 1 if q >= 0 else -1
    r0, s0 = -y0 * sq, x0 * sp
    assert p * s0 - q * r0 == 1
    out = set()
    k = 0
    while True:
        hit = False
        for sign in (1, -1):
            for base in ((r0, s0), (-r0, -s0)):
                r = base[0] + sign * k * p
                s = base[1] + sign * k * q
                if abs(r) <= cap and abs(s) <= cap:
                    out.add(_farey_canon((r, s)))
                    hit = True
        if not hit and k > 0:
            break
        k += 1
    return out


def farey_oracle_all_distances(u, cap: int = 150) -> dict:
    """Plain BFS from u over the Farey graph restricted to classes
    with entries bounded by cap; returns all distances found."""
    u = _farey_canon(u)
    dist = {u: 0}
    frontier = [u]
    while frontier:
        nxt = []
        for node in frontier:
            for nb in _farey_neighbours(node, cap):
                if nb not in dist:
                    dist[nb] = dist[node] + 1
                    nxt.append(nb)
        frontier = nxt
    return dist


def farey_oracle_distance(u, v, cap: int = 150) -> int:
    return farey_oracle_all_distances(u, cap).get(_farey_canon(v))


def primitive_classes(bound: int):
    """All canonical primitive classes with |entries| <= bound."""
    out = []
    for p in range(-bound, bound + 1):
        for q in range(0, bound + 1):
            if q == 0 and p <= 0:
                continue
            if math.gcd(abs(p), abs(q)) == 1:
                out.append((p, q))
    return out


# ---------------------------------------------------------------------------
# Hausdorff distance by dense boundary sampling


def _poly_boundary_points(verts, per_edge: int = 200):
    pts = []
    m = len(verts)
    if m == 1:
        return [verts[0]]
    for i in range(m if m > 2 else 1):
        p = verts[i]
        q = verts[(i + 1) % m]
        for s in range(per_edge):
            t = s / per_edge
            pts.append((p[0] + t * (q[0] - p[0]),
                        p[1] + t * (q[1] - p[1])))
    pts.append(verts[-1])
    return pts


def _point_to_poly(pt, verts):
    """Distance from a point to a convex polygon (as a filled set)."""
    m = len(verts)
    if m == 1:
        return math.dist(pt, verts[0])
    inside = m > 2
    best = math.inf
    for i in range(m if m > 2 else 1):
        p = verts[i]
        q = verts[(i + 1) % m]
        dx, dy = q[0] - p[0], q[1] - p[1]
        den = dx * dx + dy * dy
        t = 0.0 if den == 0 else max(
            0.0, min(1.0, ((pt[0] - p[0]) * dx + (pt[1] - p[1]) * dy) / den))
        best = min(best, math.dist(pt, (p[0] + t * dx, p[1] + t * dy)))
        if inside and _orient(p, q, pt) < 0:
            inside = False
    return 0.0 if inside else best


def hausdorff_oracle(verts_a, verts_b, per_edge: int = 200) -> float:
    """Hausdorff distance between two convex polygons by sampling."""
    d = 0.0
    for pt in _poly_boundary_points(verts_a, per_edge):
        d = max(d, _point_to_poly(pt, verts_b))
    for pt in _poly_boundary_points(verts_b, per_edge):
        d = max(d, _point_to_poly(pt, verts_a))
    return d


# ---------------------------------------------------------------------------
# low denominator rational points near a segment, by enumeration


def segment_rational_point_oracle(a, b, tol: float, max_q: int):
    """(x, y, d) for the candidate nearest to the segment ab within tol,
    or None.  The candidates are every distinct (round(p q)/q) over
    q <= max_q and points p sampled along ab, in the order first met;
    the first one wins a tie.  A zero length segment has one candidate,
    the best approximations of its coordinates."""
    (x0, y0), (x1, y1) = a, b
    dx, dy = x1 - x0, y1 - y0
    length = math.hypot(dx, dy)
    if length == 0:
        cands = [(Fraction(x0).limit_denominator(max_q),
                  Fraction(y0).limit_denominator(max_q))]
    else:
        cands = {}  # insertion ordered: a repeat keeps its first place
        for q in range(1, max_q + 1):
            steps = max(2, int(length * q) + 2)
            for s in range(steps + 1):
                t = s / steps
                cands.setdefault((Fraction(round((x0 + t * dx) * q), q),
                                  Fraction(round((y0 + t * dy) * q), q)))
    best = None
    for fx, fy in cands:
        d = _point_to_poly((float(fx), float(fy)), (a, b))
        if d <= tol and (best is None or d < best[2]):
            best = (fx, fy, d)
    return best


# ---------------------------------------------------------------------------
# random simple rational curves for the exactness suites


def random_simple_curve(rng, is_simple, PLCurve, max_class: int = 2,
                        max_den: int = 8, zigzag: float = 0.25):
    """Random essential simple PL curve: a jittered straight curve of a
    random primitive class, filtered through the simplicity predicate.
    Deterministic given the rng."""
    while True:
        p = rng.randint(-max_class, max_class)
        q = rng.randint(-max_class, max_class)
        if (p, q) == (0, 0) or math.gcd(abs(p), abs(q)) != 1:
            continue
        base_x = Fraction(rng.randint(0, max_den - 1), max_den)
        base_y = Fraction(rng.randint(0, max_den - 1), max_den)
        k = rng.randint(1, 4)
        amp = Fraction(rng.randint(0, int(zigzag * max_den)), max_den)
        nx, ny = -q, p
        verts = []
        for i in range(k):
            t = Fraction(i, k)
            off = amp if i % 2 else -amp
            if k == 1:
                off = 0
            verts.append((base_x + t * p + off * nx,
                          base_y + t * q + off * ny))
        dedup = []
        for v in verts:
            if not dedup or dedup[-1] != v:
                dedup.append(v)
        try:
            c = PLCurve(tuple(dedup), (p, q))
        except Exception:
            continue
        if is_simple(c):
            return c


# ---------------------------------------------------------------------------
# rational push-off of a closed PL chain, in Fraction arithmetic


def offset_chain_oracle(verts, w, delta, side):
    """Vertices of the push-off of the closed chain verts (closing
    displacement w) by delta to one side, each run of equal neighbours
    cut to its first.

    Each edge line moves along its left normal (side 1) or right normal
    (side -1), scaled so that its max-norm is delta; a new vertex is the
    meet of the offset lines of the two edges at it, or the old vertex
    moved with its outgoing edge where those edges are parallel.  Every
    step is a Fraction operation on the rational vertices."""
    verts = [(Fraction(x), Fraction(y)) for x, y in verts]
    k = len(verts)
    closing = (verts[0][0] + w[0], verts[0][1] + w[1])
    segs = [(verts[i], verts[i + 1] if i + 1 < k else closing)
            for i in range(k)]
    dirs, offs = [], []
    for P, Q in segs:
        d = (Q[0] - P[0], Q[1] - P[1])
        m = max(abs(d[0]), abs(d[1]))
        dirs.append(d)
        offs.append((-d[1] * side * delta / m, d[0] * side * delta / m))
    out = []
    for i in range(k):
        j = (i - 1) % k
        shift = (-w[0], -w[1]) if i == 0 else (0, 0)
        Pj = (segs[j][0][0] + offs[j][0] + shift[0],
              segs[j][0][1] + offs[j][1] + shift[1])
        Pi = (segs[i][0][0] + offs[i][0], segs[i][0][1] + offs[i][1])
        dj, di = dirs[j], dirs[i]
        den = dj[0] * di[1] - dj[1] * di[0]
        if den == 0:
            v = Pi
        else:
            t = ((Pi[0] - Pj[0]) * di[1] - (Pi[1] - Pj[1]) * di[0]) / den
            v = (Pj[0] + t * dj[0], Pj[1] + t * dj[1])
        if not out or v != out[-1]:
            out.append(v)
    return out
