import hashlib
import json
import math
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
from oracles import (  # noqa: E402
    farey_oracle_distance,
    offset_chain_oracle,
    random_simple_curve,
)

from torusdyn import curves, fine_graph  # noqa: E402
from torusdyn.classifier import cross_check  # noqa: E402
from torusdyn.curves import (  # noqa: E402
    PLCurve,
    horizontal_circle,
    intersections,
    is_simple,
    straight_curve,
    vertical_circle,
)
from torusdyn.errors import (  # noqa: E402
    InputError,
    MalformedCurveError,
    NonGenericError,
    ResolutionError,
)
from torusdyn.fine_graph import (  # noqa: E402
    adjacent,
    annulus_trap_certificate,
    curve_from_json,
    curve_to_json,
    farey_adjacent,
    farey_class,
    farey_distance,
    farey_lower_bound,
    surgery_step,
    translation_length_bounds,
    upper_bound_by_intersection,
    verify_certificate,
)
from torusdyn.gallery import build_map  # noqa: E402
from torusdyn.maps import Linear, LiftedMap, Translation, _egcd  # noqa: E402

F12 = Fraction(1, 2)
F14 = Fraction(1, 4)


def test_adjacent_disjoint_and_once():
    assert adjacent(horizontal_circle(F14), horizontal_circle(F12))
    assert adjacent(horizontal_circle(F12), vertical_circle(F14))


def test_adjacent_twice_crossing():
    a = horizontal_circle(F12)
    b = straight_curve((1, 2), (Fraction(1, 7), Fraction(0)))
    assert not adjacent(a, b)


def test_straight_adjacency_enumerates_no_contacts(monkeypatch):
    """Two straight curves of distinct classes cross |det| times, so
    their adjacency needs no contact enumeration, however long they
    are."""
    calls = []
    enumerate_contacts = curves._contacts

    def counted(*args):
        if len(args) == 2:
            calls.append(args)
        return enumerate_contacts(*args)

    monkeypatch.setattr(curves, "_contacts", counted)
    a, b = straight_curve((233, 144)), straight_curve((89, 55), (F12, 0))
    assert 233 * 55 - 144 * 89 == -1
    assert adjacent(a, b)
    assert not adjacent(a, straight_curve((1, 0)))
    assert adjacent(a, straight_curve((233, 144), (0, F12)))
    assert calls == []


def test_adjacent_tangency_non_generic():
    a = horizontal_circle(F12)
    bent = PLCurve(
        (
            (Fraction(0), Fraction(1, 4)),
            (Fraction(1, 2), Fraction(1, 2)),  # touches a at one point
        ),
        (1, 0),
    )
    with pytest.raises(NonGenericError):
        adjacent(a, bent)


def test_surgery_step_reduces_intersections():
    a = straight_curve((0, 1), (Fraction(1, 3), Fraction(0)))
    b = straight_curve((2, 1), (Fraction(1, 7), Fraction(1, 11)))
    n0 = len(intersections(a, b))
    step = surgery_step(a, b, intersections(a, b))
    assert len(intersections(a, step.result)) < n0
    assert step.points == intersections(a, step.result)
    assert adjacent(step.middle, b)
    assert adjacent(step.middle, step.result)


def test_surgery_rounds_enumerate_each_pair_once(monkeypatch):
    """Each surgery round hands its intersection list to the next, so
    no pair of curves has its intersections computed twice."""
    a = straight_curve((0, 1), (Fraction(1, 3), Fraction(0)))
    b = straight_curve((3, 2), (Fraction(1, 7), Fraction(1, 11)))
    pairs = []  # holds the curves, so their ids stay distinct
    compute = fine_graph.intersections

    def counted(x, y):
        pairs.append((x, y))
        return compute(x, y)

    monkeypatch.setattr(fine_graph, "intersections", counted)
    path = upper_bound_by_intersection(a, b)
    assert path.length > 3  # more than one surgery round
    ids = [(id(x), id(y)) for x, y in pairs]
    assert len(ids) == len(set(ids))


def test_certified_path_random_pairs():
    rng = random.Random(13)
    done = 0
    while done < 15:
        a = random_simple_curve(rng, is_simple, PLCurve)
        b = random_simple_curve(rng, is_simple, PLCurve)
        pts = intersections(a, b)
        if not all(p.transverse for p in pts) or len(pts) > 12:
            continue
        path = upper_bound_by_intersection(a, b)
        assert path.verify()
        assert path.length <= 2 * len(pts) + 2
        assert path.curves[0].verts == b.verts
        assert path.curves[-1].verts == a.verts
        done += 1


def _bench_style_curve(rng, k):
    """A simple curve with k vertices of denominator <= 64 in a band over
    the straight line of a class with |p|, |q| <= 2, drawn as the
    curve-certify benchmark draws its curves."""
    classes = [(p, q) for p in range(-2, 3) for q in range(-2, 3)
               if math.gcd(abs(p), abs(q)) == 1]
    while True:
        p, q = rng.choice(classes)
        norm = math.hypot(p, q)
        bx, by = rng.random(), rng.random()
        verts = []
        for t in sorted(rng.random() for _ in range(k)):
            off = rng.uniform(-0.3, 0.3) / norm
            d = rng.randint(32, 64)
            x = bx + t * p - off * q / norm
            y = by + t * q + off * p / norm
            verts.append((Fraction(round(x * d), d),
                          Fraction(round(y * d), d)))
        along = [x * p + y * q for x, y in verts]
        if all(s < t for s, t in zip(along, along[1:])) and (
                along[-1] < along[0] + p * p + q * q):
            return PLCurve(tuple(verts), (p, q))


def test_big_denominator_certificate_bytes_are_pinned():
    """A surgery path whose push-offs reach vertex denominators above
    10^34 gives the same certificate bytes as the Fraction predicates
    that decided every contact before the integer ones."""
    rng = random.Random(16 * 1_000_003 + 187)
    a, b = _bench_style_curve(rng, 16), _bench_style_curve(rng, 16)
    path = upper_bound_by_intersection(a, b)
    assert max(v.denominator for c in path.curves
               for pt in c.verts for v in pt) > 10**34
    text = json.dumps(path.to_json_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "0157c766a03acec7309718f85552018b5db7c29383ee3c8efec892ee7b3ac2c5")


def test_certificate_and_record_bytes_are_pinned():
    """The intersection records and the surgery certificate of 24
    seeded curve pairs, as bytes, under one sha256: any change of route
    that moves a vertex, a parameter or a count moves the hash."""
    h = hashlib.sha256()
    for n in range(24):
        k = 8 if n % 3 else 16
        rng = random.Random(k * 1_000_003 + 500 + n)
        a, b = _bench_style_curve(rng, k), _bench_style_curve(rng, k)
        lines = [f"{p.point[0]} {p.point[1]} {int(p.transverse)} "
                 f"{p.param_a} {p.param_b}" for p in intersections(a, b)]
        path = upper_bound_by_intersection(a, b)
        h.update(("\n".join([str(n)] + lines) + "\n").encode())
        for c in path.curves:
            h.update(json.dumps(curve_to_json(c), sort_keys=True).encode())
    assert h.hexdigest() == (
        "36a1b08724ec6e72d565bf46dcbce7e975df2022ca3f85095aad08028f81fc81")


def _random_chain(rng):
    """A closed rational chain of 1 to 7 vertices with denominators up
    to 64 and a class in [-2, 2]^2; about one in four has a vertex added
    on the line of an edge, inside it or behind its start."""
    while True:
        k = rng.randint(1, 7)
        verts = [(Fraction(rng.randint(-80, 80), rng.randint(1, 64)),
                  Fraction(rng.randint(-80, 80), rng.randint(1, 64)))
                 for _ in range(k)]
        w = (rng.randint(-2, 2), rng.randint(-2, 2))
        if rng.random() < 0.25:
            i = rng.randrange(k)
            P = verts[i]
            Q = verts[i + 1] if i + 1 < k else (verts[0][0] + w[0],
                                                 verts[0][1] + w[1])
            # t < 0 puts the new vertex behind P, so the chain runs
            # back along its own edge line
            t = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), 10)
            verts.insert(i + 1, (P[0] + t * (Q[0] - P[0]),
                                 P[1] + t * (Q[1] - P[1])))
        try:
            return PLCurve(tuple(verts), w)
        except MalformedCurveError:
            continue


def test_offset_curve_matches_the_fraction_oracle():
    """The push-off equals the Fraction formula of the oracle, vertex
    for vertex, on 240 random rational chains, both sides and three
    distances delta = 1 / (4 D 2^h), D the largest vertex denominator."""
    rng = random.Random(26)
    parallel = 0
    for _ in range(240):
        c = _random_chain(rng)
        D = max(v.denominator for pt in c.verts for v in pt)
        segs = c.segments
        parallel += any(
            (segs[i - 1][1][0] - segs[i - 1][0][0])
            * (segs[i][1][1] - segs[i][0][1])
            == (segs[i - 1][1][1] - segs[i - 1][0][1])
            * (segs[i][1][0] - segs[i][0][0])
            for i in range(len(segs)))
        for h in (0, 3, 9):
            delta = Fraction(1, 4 * D * 2**h)
            for side in (1, -1):
                want = offset_chain_oracle(c.verts, c.w, delta, side)
                got = fine_graph._offset_curve(c, delta, side)
                assert got.verts == tuple(want) and got.w == c.w
    assert parallel >= 40, parallel


def test_each_curve_builds_its_integer_view_once(monkeypatch):
    """Intersections, crossing number, the surgery certificate and its
    verification from JSON, as one curve-certify item runs them, build
    the integer ends of each curve once, through its cached view."""
    built = []
    integer_ends = curves._integer_ends

    def counted(segments):
        # the caller is PLCurve._ends; the list keeps each curve alive,
        # so no id is reused
        built.append(sys._getframe(1).f_locals["self"])
        return integer_ends(segments)

    monkeypatch.setattr(curves, "_integer_ends", counted)
    rng = random.Random(16 * 1_000_003 + 187)
    a, b = _bench_style_curve(rng, 16), _bench_style_curve(rng, 16)
    assert len(intersections(a, b)) > 2
    curves.crossing_number(a, b)
    path = upper_bound_by_intersection(a, b)
    cert = json.loads(json.dumps(path.to_json_dict(), sort_keys=True))
    assert verify_certificate(cert)["valid"]
    assert all(isinstance(c, PLCurve) for c in built)
    assert len({id(c) for c in built}) == len(built) > 10


def test_certificate_json_round_trip_and_tamper():
    a = straight_curve((0, 1), (Fraction(1, 3), Fraction(0)))
    b = straight_curve((2, 1), (Fraction(1, 7), Fraction(1, 11)))
    path = upper_bound_by_intersection(a, b)
    cert = path.to_json_dict()
    cert = json.loads(json.dumps(cert))
    rep = verify_certificate(cert)
    assert rep["valid"]
    # break one middle curve badly enough to lose adjacency
    cert["curves"][1]["verts"][0][1] = "1/16"
    rep2 = verify_certificate(cert)
    assert not rep2["valid"]
    assert "failed_step" in rep2


def test_farey_class_and_adjacency():
    assert farey_class((-1, 0)) == (1, 0)
    assert farey_class((2, -3)) == (-2, 3)
    assert farey_adjacent((1, 0), (0, 1))
    assert farey_adjacent((1, 2), (1, 3))
    assert not farey_adjacent((1, 0), (1, 2))
    with pytest.raises(InputError):
        farey_class((2, 4))


def test_farey_class_rejects_a_non_integral_class():
    """A class is an integer vector: (1.5, 1) is no Farey vertex, not
    the class (1, 1) that truncation would make of it."""
    for w in ((1.5, 1), (0, Fraction(1, 2)), (1.0, 0.5)):
        with pytest.raises(InputError):
            farey_class(w)
    with pytest.raises(InputError):
        farey_distance((1.5, 1), (0, 1))
    assert farey_class((2.0, Fraction(-1))) == (-2, 1)


def test_farey_distance_small_cases():
    assert farey_distance((1, 0), (1, 0)) == 0
    assert farey_distance((1, 0), (0, 1)) == 1
    assert farey_distance((1, 0), (1, 2)) == 2


def test_farey_distance_against_oracle_samples():
    rng = random.Random(2)
    import math

    done = 0
    while done < 25:
        u = (rng.randint(-30, 30), rng.randint(-30, 30))
        v = (rng.randint(-30, 30), rng.randint(-30, 30))
        if (0, 0) in (u, v):
            continue
        if math.gcd(abs(u[0]), abs(u[1])) != 1 or math.gcd(abs(v[0]), abs(v[1])) != 1:
            continue
        assert farey_distance(u, v) == farey_oracle_distance(u, v, cap=120)
        done += 1


SL2Z_GENERATORS = (((1, 1), (0, 1)), ((1, 0), (1, 1)), ((0, -1), (1, 0)))


def _primitive_class(rng, bound=30):
    while True:
        w = (rng.randint(-bound, bound), rng.randint(-bound, bound))
        if math.gcd(*w) == 1:
            return w


def _apply(M, w):
    return (M[0][0] * w[0] + M[0][1] * w[1], M[1][0] * w[0] + M[1][1] * w[1])


def test_farey_distance_sl2z_invariant_and_symmetric():
    rng = random.Random(7)
    for _ in range(300):
        u, v = _primitive_class(rng), _primitive_class(rng)
        d = farey_distance(u, v)
        assert farey_distance(v, u) == d
        for M in rng.choices(SL2Z_GENERATORS, k=rng.randint(1, 12)):
            u, v = _apply(M, u), _apply(M, v)
        assert farey_distance(u, v) == d


def test_farey_distance_triangle_inequality():
    rng = random.Random(8)
    for _ in range(300):
        u, v, w = (_primitive_class(rng) for _ in range(3))
        assert farey_distance(u, w) <= farey_distance(u, v) + farey_distance(v, w)


def test_farey_distance_moves_by_one_along_an_edge():
    rng = random.Random(9)
    for _ in range(300):
        u, v = _primitive_class(rng), _primitive_class(rng)
        _, x, y = _egcd(*u)
        k = rng.randint(-5, 5)
        nb = (-y + k * u[0], x + k * u[1])
        assert farey_adjacent(u, nb)
        assert abs(farey_distance(nb, v) - farey_distance(u, v)) <= 1


def test_farey_distance_anosov_orbit():
    # the cat map moves (1, 0) one Farey step further per iterate; the
    # distances stay exact far beyond any bounded search
    start = time.perf_counter()
    w = (1, 0)
    for n in range(1, 201):
        w = _apply(((2, 1), (1, 1)), w)
        assert farey_distance((1, 0), w) == n
    assert time.perf_counter() - start < 1.0


def test_farey_lower_bound_matches_classes():
    a = horizontal_circle(F12)
    b = straight_curve((1, 2), (Fraction(1, 7), Fraction(0)))
    assert farey_lower_bound(a, b) == farey_distance((1, 0), (1, 2))


def test_translation_length_bounds_anosov():
    F = LiftedMap((Linear(((2, 1), (1, 1))),))
    a = straight_curve((1, 0), (Fraction(0), Fraction(1, 3)))
    tb = translation_length_bounds(F, a, 6)
    assert tb.lower > 0.0
    assert tb.upper >= tb.lower


def test_translation_length_bounds_translation_zero():
    F = LiftedMap((Translation((0.3, 0.7)),))
    a = horizontal_circle(F12)
    tb = translation_length_bounds(F, a, 4)
    assert tb.lower == 0.0
    assert tb.upper <= 1.0


def test_translation_length_bounds_of_an_invariant_curve_are_zero():
    """The model twist fixes the horizontal circle pointwise, so every
    image is the probe itself and bounds the distance by 0."""
    tb = translation_length_bounds(
        build_map("twist_model").map, straight_curve((1, 0)), 3)
    assert [(e.n, e.upper_numerator, e.lower_numerator)
            for e in tb.entries] == [(1, 0, 0), (2, 0, 0), (3, 0, 0)]
    assert tb.upper == 0.0


@pytest.mark.parametrize("caller,segments", [
    pytest.param("translation_length_bounds", 1, id="1"),
    pytest.param("translation_length_bounds", 2, id="2"),
    pytest.param("cross_check", 1, id="cross_check-1"),
    pytest.param("cross_check", 2, id="cross_check-2"),
])
def test_translation_length_bounds_walks_one_orbit(monkeypatch, caller,
                                                   segments):
    """Both readers of orbit_entries advance the image samples one step
    per n on a non-affine map: res x segments x n_max point steps, not
    res x segments x (1 + ... + n_max)."""
    steps = []
    iterate = curves.iterate_points

    def counted(F, points, n):
        steps.append(len(points) * n)
        return iterate(F, points, n)

    monkeypatch.setattr(curves, "iterate_points", counted)
    G = build_map("denjoy_parabolic", k_max=2000, coords="suspension").map
    if segments == 1:
        a = straight_curve((1, 0))
    else:
        a = PLCurve(((Fraction(0), F14), (F12, Fraction(1, 3))), (1, 0))
    res, n_max = 8, 5

    def walk(F, n):
        if caller == "cross_check":
            return cross_check(F, a, range(1, n + 1), res=res).entries
        return translation_length_bounds(F, a, n, res=res).entries

    assert len(walk(G, n_max)) == n_max
    assert sum(steps) == res * segments * n_max
    # affine images are exact and sample nothing
    steps.clear()
    walk(build_map("anosov").map, 3)
    assert steps == []


def test_translation_length_bounds_of_a_bent_curve_under_a_unit_shift():
    """The shift maps the bent curve onto itself.  Its exact image is
    placed off the probe, as a sampled image is, so the bound is a
    crossing number, not a shared-subsegment error."""
    F = LiftedMap((Translation((1.0, 0.0)),))
    a = PLCurve(((Fraction(0), F14), (F12, Fraction(1, 3))), (1, 0))
    tb = translation_length_bounds(F, a, 2)
    assert [(e.n, e.upper_numerator, e.lower_numerator)
            for e in tb.entries] == [(1, 1, 0), (2, 1, 0)]


def test_translation_length_bounds_rejects_an_inessential_curve():
    square = PLCurve(((F14, F14), (F12, F14), (F12, F12), (F14, F12)), (0, 0))
    with pytest.raises(InputError):
        translation_length_bounds(build_map("anosov").map, square, 2)
    # on the identity route too: the Farey distance is taken before the
    # crossing number, as cross_check takes it
    with pytest.raises(InputError):
        translation_length_bounds(build_map("translation").map, square, 2)


@pytest.mark.parametrize("n_max", [0, -1, 2.5, "3", None])
def test_translation_length_bounds_rejects_bad_iterate_counts(n_max):
    with pytest.raises(InputError):
        translation_length_bounds(
            build_map("anosov").map, straight_curve((1, 0)), n_max)


def test_a_failed_image_is_recorded_by_cross_check_and_raised_by_bounds():
    """On mz_interior the res-64 image of the horizontal probe stops
    being simple at n = 2: cross_check records the failure per iterate
    and goes on, translation_length_bounds raises it."""
    F = build_map("mz_interior").map
    a = straight_curve((1, 0))
    entries = cross_check(F, a, [1, 2, 3]).entries
    assert entries[0].to_json_dict() == {
        "n": 1, "intersections": 2, "crossing": 1, "farey": 0}
    for e in entries[1:]:
        assert isinstance(e.exc, ResolutionError)
        # the record does not pin the orbit's frames and samples
        assert e.exc.__traceback__ is None
        assert e.to_json_dict() == {
            "n": e.n,
            "error": "image sampling is not simple; raise the resolution"}
    with pytest.raises(ResolutionError, match="^image sampling is not "
                       "simple; raise the resolution$"):
        translation_length_bounds(F, a, 3, res=64)


def test_a_sampled_image_that_is_not_simple_fails_at_once(monkeypatch):
    """The failed image above is one candidate and one simplicity test:
    no perturbed copy is tried before ResolutionError."""
    orbit = curves.CurveOrbit(
        build_map("mz_interior").map, straight_curve((1, 0)), 64)
    orbit.image(1)
    tested = []

    def counted(c):
        tested.append(c)
        return is_simple(c)

    monkeypatch.setattr(curves, "is_simple", counted)
    with pytest.raises(ResolutionError):
        orbit.image(2)
    assert len(tested) == 1


def test_annulus_trap_positive_and_negative():
    F = build_map("annulus_attractor").map
    cert = annulus_trap_certificate(F, Fraction(1, 4), Fraction(3, 4), max_power=1)
    assert cert is not None
    assert cert.power == 1 and cert.margin > 0.0
    rep = verify_certificate(cert.to_json_dict())
    assert rep["valid"]
    # no power is no search, not a search that found no trap
    # counts are integers, never truncated
    for max_power, samples in ((0, 512), (2.5, 512), (1, 2.5), (1, 0)):
        with pytest.raises(InputError):
            annulus_trap_certificate(F, Fraction(1, 4), Fraction(3, 4),
                                     max_power=max_power, samples=samples)
    # a translation pushes every annulus off itself
    none = annulus_trap_certificate(
        LiftedMap((Translation((0.0, 0.5)),)), Fraction(1, 4), Fraction(3, 4)
    )
    assert none is None


PRODUCERS = ("surgery_step", "upper_bound_by_intersection",
             "annulus_trap_certificate", "_surgery_candidates",
             "_offset_curve", "CurveOrbit")


def test_verifier_calls_no_producer(monkeypatch):
    a = straight_curve((0, 1), (Fraction(1, 3), Fraction(0)))
    b = straight_curve((2, 1), (Fraction(1, 7), Fraction(1, 11)))
    path = json.loads(json.dumps(upper_bound_by_intersection(a, b)
                                 .to_json_dict()))
    trap = annulus_trap_certificate(
        build_map("annulus_attractor").map, F14, 3 * F14).to_json_dict()

    def producer(*args, **kwargs):
        raise AssertionError("the verifier called a producer")

    for name in PRODUCERS:
        monkeypatch.setattr(fine_graph, name, producer)
    assert verify_certificate(path)["valid"]
    assert verify_certificate(trap)["valid"]


def test_annulus_verifier_samples_the_stated_power_once(monkeypatch):
    """A trap that holds from power 1 on, claimed at power 3, is
    resampled at power 3 only: no search over smaller powers."""
    cert = annulus_trap_certificate(
        build_map("annulus_attractor").map, F14, 3 * F14).to_json_dict()
    cert["power"] = 3
    steps = []
    iterate = fine_graph.iterate_points

    def counted(F, points, n):
        steps.append(n)
        return iterate(F, points, n)

    monkeypatch.setattr(fine_graph, "iterate_points", counted)
    report = verify_certificate(cert)
    assert steps == [3]
    assert report["valid"] and report["margin"] > 0.0


def test_annulus_verifier_reports_the_recomputed_margin():
    """Outside the trap the report gives the negative margin it
    resampled; a map outside the identity and twist classes gives
    none."""
    cert = annulus_trap_certificate(
        build_map("annulus_attractor").map, F14, 3 * F14).to_json_dict()
    cert["map"] = LiftedMap((Translation((0.0, 0.5)),)).to_json()
    report = verify_certificate(cert)
    assert not report["valid"] and report["margin"] == pytest.approx(-0.5)
    cert["map"] = build_map("anosov").map.to_json()
    assert verify_certificate(cert) == {
        "type": "annulus_trap", "valid": False, "margin": None}


def test_curve_json_round_trip():
    c = straight_curve((2, 1), (Fraction(1, 5), Fraction(2, 7)))
    assert curve_from_json(curve_to_json(c)) == c
