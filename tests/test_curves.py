import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))
from oracles import (  # noqa: E402
    _on_segment,
    _orient,
    brute_crossing_number,
    random_simple_curve,
    segments_touch,
)

from torusdyn import curves  # noqa: E402
from torusdyn.classifier import cross_check  # noqa: E402
from torusdyn.cli import main as cli_main  # noqa: E402
from torusdyn.errors import (  # noqa: E402
    InputError,
    MalformedCurveError,
    NonGenericError,
    ResolutionError,
)
from torusdyn.gallery import build_map  # noqa: E402
from torusdyn.maps import (  # noqa: E402
    Linear,
    LiftedMap,
    ShearX,
    Translation,
    conjugate,
)
from torusdyn.profiles import Sin2  # noqa: E402
from torusdyn.curves import (  # noqa: E402
    CurveOrbit,
    CurvePair,
    PLCurve,
    affine_image_curve,
    crossing_number,
    format_curve,
    horizontal_circle,
    image_curve,
    intersection_count,
    intersections,
    is_essential_class,
    is_simple,
    lift_to_cover,
    parse_curve,
    straight_curve,
    vertical_circle,
    write_curve,
)
from torusdyn.fine_graph import _point_at, curve_from_json  # noqa: E402

F12 = Fraction(1, 2)
F14 = Fraction(1, 4)


def test_curve_validation():
    with pytest.raises(MalformedCurveError):
        PLCurve((), (1, 0))
    with pytest.raises(MalformedCurveError):
        PLCurve(((Fraction(0), Fraction(0)), (Fraction(0), Fraction(0))), (1, 0))
    with pytest.raises(MalformedCurveError):
        PLCurve(((Fraction(0), Fraction(0)),), (Fraction(1, 2), 0))


@pytest.mark.parametrize(
    "bad", [float("nan"), float("inf"), "abc", "1/0", None])
def test_a_coordinate_that_is_no_rational_is_a_malformed_curve(bad):
    with pytest.raises(MalformedCurveError):
        PLCurve(((bad, 0),), (1, 0))
    half = Fraction(1, 2)
    assert curves._frac(half) is half


def test_homology_and_essential():
    assert horizontal_circle(F12).w == (1, 0)
    assert vertical_circle(F14).w == (0, 1)
    assert is_essential_class((2, 3))
    assert not is_essential_class((0, 0))
    assert not is_essential_class((2, 4))


def test_straight_curve_classes():
    c = straight_curve((3, 2), (F14, F12))
    assert c.w == (3, 2)
    assert is_simple(c)


def test_is_simple_zigzag():
    ok = PLCurve(
        (
            (Fraction(0), Fraction(1, 2)),
            (Fraction(1, 3), Fraction(5, 8)),
            (Fraction(2, 3), Fraction(3, 8)),
        ),
        (1, 0),
    )
    assert is_simple(ok)
    # a backtracking chain whose first and last edges cross
    bad = PLCurve(
        (
            (Fraction(0), Fraction(0)),
            (Fraction(3, 4), Fraction(1, 2)),
            (Fraction(1, 4), Fraction(1, 4)),
        ),
        (1, 0),
    )
    assert not is_simple(bad)


def test_transverse_intersections_count():
    a = horizontal_circle(F12)
    b = vertical_circle(F14)
    pts = intersections(a, b)
    assert len(pts) == 1
    assert pts[0].transverse


def test_straight_straight_intersections_det():
    a = straight_curve((1, 0), (Fraction(0), Fraction(1, 3)))
    b = straight_curve((1, 2), (Fraction(1, 7), Fraction(0)))
    assert intersection_count(a, b) == 2
    assert crossing_number(a, b) == 2


def test_crossing_number_known_example():
    """Horizontal curve against a (1, 3) straight curve: three
    elevations are met."""
    a = horizontal_circle(F12)
    b = straight_curve((1, 3), (Fraction(1, 7), Fraction(0)))
    assert crossing_number(a, b) == 3
    assert crossing_number(a, b) == brute_crossing_number(a, b)


def test_crossing_parallel_overlap_non_generic():
    a = horizontal_circle(F12)
    b = horizontal_circle(F12)
    with pytest.raises(NonGenericError):
        crossing_number(a, b)
    assert CurvePair(a, b).same


def test_crossing_number_of_a_null_homotopic_curve():
    """A curve of class (0, 0) is straight along no class, so it takes
    the enumerated route: the square meets one elevation of a."""
    q = Fraction(1, 4)
    square = PLCurve(((q, q), (2 * q, q), (2 * q, 3 * q), (q, 3 * q)), (0, 0))
    a = horizontal_circle(F12)
    assert crossing_number(a, square) == brute_crossing_number(a, square) == 1


def test_crossing_parallel_disjoint():
    a = horizontal_circle(F12)
    b = horizontal_circle(F14)
    assert crossing_number(a, b) == 0


def _segment_case(rng):
    """A segment a, a segment b and a translate z that puts b + z in a
    chosen position against a: anywhere, at an end or an inner point
    of a, on the line of a, or parallel to it."""
    den = rng.choice([8, 10**6, 10**20, 10**60])

    def rational(lo, hi):
        d = rng.randint(1, den)
        return Fraction(rng.randint(lo * d, hi * d), d)

    def point():
        return (rational(-2, 2), rational(-2, 2))

    def near(p):
        q = (p[0] + rational(-1, 1), p[1] + rational(-1, 1))
        return q if q != p else near(p)

    a0 = point()
    a1 = near(a0)
    z = (rng.randint(-2, 2), rng.randint(-2, 2))
    u = (a1[0] - a0[0], a1[1] - a0[1])

    def on_line(t, off=(0, 0)):
        return (a0[0] + t * u[0] - z[0] + off[0],
                a0[1] + t * u[1] - z[1] + off[1])

    kind = rng.choice(["random", "end", "inner", "line", "parallel"])
    if kind in ("line", "parallel"):
        # on the line, ends at 0 or 1 give collinear touches and others
        # overlaps or gaps; a tiny offset makes the pair parallel
        t0 = rng.choice([Fraction(0), Fraction(1), rational(-1, 2)])
        t1 = rng.choice([Fraction(0), Fraction(1), rational(-1, 2)])
        while t1 == t0:
            t1 = rational(-1, 2)
        off = (0, 0)
        if kind == "parallel":
            off = (rational(-1, 1) / den, rational(-1, 1) / den)
        b0, b1 = on_line(t0, off), on_line(t1, off)
    else:
        if kind == "random":
            b0 = point()
        elif kind == "end":
            b0 = on_line(rng.choice([0, 1]))
        else:
            b0 = on_line(rational(0, 1))
        b1 = near(b0)
    if rng.random() < 0.5:
        b0, b1 = b1, b0
    return (a0, a1), (b0, b1)


def test_segment_contacts_match_the_oracle():
    """Every integer translate of b meets a exactly when the oracle's
    Fraction predicate says the closed segments touch; each contact
    point lies on both segments, and an overlap shares two points."""
    rng = random.Random(2025)
    seen = {"none": 0, "point": 0, "overlap": 0, "collinear touch": 0}
    for _ in range(1500):
        (a0, a1), (b0, b1) = _segment_case(rng)
        found = {z: (kind, pt) for _, _, z, kind, pt
                 in curves._contacts(curves._integer_ends([(a0, a1)]),
                                     curves._integer_ends([(b0, b1)]))}
        xs, ys = (a0[0], a1[0]), (a0[1], a1[1])
        bxs, bys = (b0[0], b1[0]), (b0[1], b1[1])
        # every translate whose boxes meet
        window = [
            (zx, zy)
            for zx in range(math.ceil(min(xs) - max(bxs)),
                            math.floor(max(xs) - min(bxs)) + 1)
            for zy in range(math.ceil(min(ys) - max(bys)),
                            math.floor(max(ys) - min(bys)) + 1)
        ]
        assert set(found) <= set(window)
        for z in window:
            c0 = (b0[0] + z[0], b0[1] + z[1])
            c1 = (b1[0] + z[0], b1[1] + z[1])
            touch = segments_touch(a0, a1, c0, c1)
            assert (z in found) == touch, (a0, a1, c0, c1)
            if not touch:
                seen["none"] += 1
                continue
            kind, pt = found[z]
            collinear = _orient(a0, a1, c0) == 0 == _orient(a0, a1, c1)
            shared = {p for p in (a0, a1) if _on_segment(c0, c1, p)} | {
                p for p in (c0, c1) if _on_segment(a0, a1, p)}
            if kind == "overlap":
                assert collinear and len(shared) >= 2
            else:
                assert kind == "point"
                for p, q in ((a0, a1), (c0, c1)):
                    assert _orient(p, q, pt) == 0 and _on_segment(p, q, pt)
                if collinear:
                    assert shared == {pt}
                    kind = "collinear touch"
            seen[kind] += 1
    assert min(seen.values()) >= 20, seen


def test_crossing_number_enumerates_contacts_once(monkeypatch):
    """The transversality check and the coset count share one contact
    enumeration."""
    a = PLCurve(((Fraction(0), F14), (F12, Fraction(1, 3))), (1, 0))
    b = straight_curve((1, 3), (Fraction(1, 7), Fraction(0)))
    calls = []
    enumerate_contacts = curves._contacts

    def counted(*args):
        calls.append(args)
        return enumerate_contacts(*args)

    monkeypatch.setattr(curves, "_contacts", counted)
    assert crossing_number(a, b) == brute_crossing_number(a, b) == 3
    assert len(calls) == 1


@pytest.mark.parametrize("caller", ["cross_check", "cmd_crossing"])
def test_both_counts_share_one_contact_enumeration(monkeypatch, tmp_path,
                                                   caller):
    """cross_check and `torusdyn crossing` take the intersection count
    and the crossing number of the probe a against b from one contact
    enumeration of the pair."""
    a = PLCurve(((Fraction(0), F14), (F12, Fraction(1, 3))), (1, 0))
    calls = []
    enumerate_contacts = curves._contacts

    def counted(*args):
        calls.append(args)
        return enumerate_contacts(*args)

    monkeypatch.setattr(curves, "_contacts", counted)
    if caller == "cross_check":
        # the image of a moved by a quarter period crosses a twice
        F = LiftedMap((Translation((0.25, 0.0)),))
        entry = cross_check(F, a, [1], res=4).entries[0]
        assert (entry.intersections, entry.crossing) == (2, 1)
    else:
        b = straight_curve((1, 3), (Fraction(1, 7), Fraction(0)))
        fa, fb = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
        write_curve(fa, a)
        write_curve(fb, b)
        out = tmp_path / "o"
        assert cli_main(["crossing", "--curve-a", fa, "--curve-b", fb,
                         "--out", str(out)]) == 0
        data = json.loads((out / "crossing.json").read_text())
        assert (data["intersection_count"], data["crossing_number"]) == (3, 3)
    # every two-curve enumeration: the accepted placement's
    # transversality check is the one both counts read
    assert sum(1 for args in calls if len(args) == 2) == 1


def test_crossing_oracle_random_pairs():
    rng = random.Random(5)
    done = 0
    while done < 12:
        a = random_simple_curve(rng, is_simple, PLCurve)
        b = random_simple_curve(rng, is_simple, PLCurve)
        try:
            lib = crossing_number(a, b)
        except NonGenericError:
            continue
        assert lib == brute_crossing_number(a, b)
        done += 1


def test_curve_file_round_trip():
    c = PLCurve(
        (
            (Fraction(0), Fraction(1, 2)),
            (Fraction(1, 3), Fraction(5, 8)),
        ),
        (1, 0),
    )
    assert parse_curve(format_curve(c)) == c


def test_parse_curve_errors():
    with pytest.raises(InputError):
        parse_curve("0 1/2\n")  # missing class line
    with pytest.raises(InputError):
        parse_curve("# class 1 0\nnot a vertex\n")


def test_lift_to_cover_class_and_simplicity():
    a = horizontal_circle(F12)
    for n in (2, 3):
        for off in ((0, 0), (1, 0), (0, 1)):
            c = lift_to_cover(a, n, off)
            assert is_simple(c)
            assert is_essential_class(c.w)


def test_affine_image_curve_exact():
    a = straight_curve((1, 0), (Fraction(0), Fraction(1, 3)))
    F = LiftedMap((Linear(((2, 1), (1, 1))),))
    b = affine_image_curve(F, a)
    assert b.w == (2, 1)
    assert b.verts[0] == (Fraction(1, 3), Fraction(1, 3))


def _fraction_image(F, c):
    """The image of c under an affine chain, in Fraction arithmetic,
    through the validating constructor."""
    verts, w = list(c.verts), c.w
    for prim in F.primitives:
        if isinstance(prim, Linear):
            (a, b), (d, e) = prim.matrix
            verts = [(a * x + b * y, d * x + e * y) for x, y in verts]
            w = (a * w[0] + b * w[1], d * w[0] + e * w[1])
        else:
            tx, ty = Fraction(prim.v[0]), Fraction(prim.v[1])
            verts = [(x + tx, y + ty) for x, y in verts]
    ox, oy = F.deck_offset
    return PLCurve(tuple((x + ox, y + oy) for x, y in verts), w)


def test_affine_image_is_the_validated_fraction_image():
    """The integer image of a bent and a straight curve, under chains
    with a det -1 matrix, a dyadic translation and a deck offset, is
    the curve the validating constructor builds from the Fraction
    image, and its integer view is the one its segments give."""
    bent = PLCurve(((Fraction(1, 3), Fraction(-2, 7)),
                    (Fraction(1, 2), Fraction(1, 9)),
                    (Fraction(3, 5), Fraction(3, 4)),
                    (Fraction(13, 12), Fraction(13, 10))), (1, 2))
    straight = straight_curve((2, 1), (Fraction(1, 5), Fraction(2, 7)))
    swap = Linear(((0, 1), (1, 0)))  # det -1
    step = Translation((0.25, -0.125))
    chains = [
        LiftedMap((swap,)),
        LiftedMap((step,), (2, -1)),
        LiftedMap((Linear(((2, 1), (1, 1))), step, swap), (-1, 3)),
        LiftedMap((step, Linear(((1, 0), (3, -1))), step), (0, 1)),
    ]
    for c in (bent, straight):
        assert is_simple(c)
        for F in chains:
            image, want = affine_image_curve(F, c), _fraction_image(F, c)
            assert image == want
            assert all(type(v) is Fraction for pt in image.verts for v in pt)
            assert all(type(v) is int for v in image.w)
            ends, (lo, hi) = image._ends
            want_ends, (want_lo, want_hi) = curves._integer_ends(
                want.segments)
            assert ends == want_ends
            assert np.array_equal(lo, want_lo)
            assert np.array_equal(hi, want_hi)
            assert is_simple(image)


def test_readers_reject_a_zero_length_edge():
    """The curve file and JSON readers validate every curve: a repeated
    vertex, or a closing edge of length zero, is malformed."""
    for text in ("# class 1 0\n0 1/2\n0 1/2\n", "# class 0 0\n1/3 1/4\n"):
        with pytest.raises(MalformedCurveError):
            parse_curve(text)
    for d in ({"class": [1, 0], "verts": [["0", "1/2"], ["0", "1/2"]]},
              {"class": [0, 0], "verts": [["1/3", "1/4"]]}):
        with pytest.raises(MalformedCurveError):
            curve_from_json(d)


def test_image_curve_matches_affine_for_translation():
    a = horizontal_circle(F12)
    F = LiftedMap((Translation((0.25, 0.25)),))
    b = image_curve(F, a, res=8)
    assert b.w == (1, 0)
    assert all(y == Fraction(3, 4) for _, y in b.verts)


def test_image_curve_transversality_retry():
    """A horizontal shear maps the horizontal circle onto itself; with
    the same circle as reference the result must be nudged off it."""
    a = horizontal_circle(F12)
    F = build_map("shear_segment").map
    b = image_curve(F, a, res=16, reference=a)
    assert all(i.transverse for i in intersections(b, a))


def test_pair_tries_the_image_and_one_shift(monkeypatch):
    """A shear conjugated to class (2, 1) maps every line of that class
    to itself, and the sampled image of the (2, 1) line is that line:
    the image and its one shift both run along the reference, so pair
    raises after exactly two transversality tests."""
    F = conjugate(LiftedMap((ShearX(Sin2(), 1.0),)), ((2, 1), (1, 1)))
    a = straight_curve((2, 1))
    tests = []
    transverse = CurvePair.transverse

    def counted(self):
        tests.append(self)
        return transverse(self)

    monkeypatch.setattr(CurvePair, "transverse", counted)
    with pytest.raises(ResolutionError,
                       match="could not place the image curve"):
        CurveOrbit(F, a, 16).pair(1, a)
    assert len(tests) == 2


BENT = PLCurve(((Fraction(0), F14), (F12, Fraction(1, 3))), (1, 0))


@pytest.mark.parametrize("name", ["shear_segment", "twist_model"])
def test_curve_orbit_matches_fresh_images(name):
    """On maps iterated one chain step at a time, walking one orbit over
    a schedule gives, byte for byte, the images that image_curve builds
    from scratch at each iterate."""
    F = build_map(name).map
    for a in (straight_curve((1, 0)), BENT):
        plain, placed = CurveOrbit(F, a, 16), CurveOrbit(F, a, 16)
        for n in (1, 2, 5, 9):
            assert format_curve(plain.image(n)) == format_curve(
                image_curve(F, a, res=16, n=n))
            assert format_curve(placed.pair(n, a).b) == format_curve(
                image_curve(F, a, res=16, reference=a, n=n))


def test_curve_orbit_on_the_suspension_denjoy_map():
    """The suspension Denjoy map iterates its heights step by step, so
    an orbit walked in gaps gives, byte for byte, the fresh images."""
    F = build_map("denjoy_parabolic", k_max=2000, coords="suspension").map
    for a in (straight_curve((1, 0)), BENT):
        orbit = CurveOrbit(F, a, 16)
        for n in (10, 30, 100):
            walked = orbit.pair(n, a)
            fresh = curves.CurvePair(
                a, image_curve(F, a, res=16, reference=a, n=n))
            assert format_curve(walked.b) == format_curve(fresh.b)
            assert walked.intersection_count() == fresh.intersection_count()
            assert walked.crossing_number() == fresh.crossing_number()


def _count_sampling_and_contacts(monkeypatch):
    """Lists that record the calls to curves.iterate_points and the
    two-curve calls to curves._contacts."""
    sampled, contacts = [], []
    iterate, enumerate_contacts = curves.iterate_points, curves._contacts

    def counted_iterate(*args):
        sampled.append(args)
        return iterate(*args)

    def counted_contacts(*args):
        if len(args) == 2:
            contacts.append(args)
        return enumerate_contacts(*args)

    monkeypatch.setattr(curves, "iterate_points", counted_iterate)
    monkeypatch.setattr(curves, "_contacts", counted_contacts)
    return sampled, contacts


def test_cross_check_on_an_affine_map_is_exact(monkeypatch):
    """Affine images are exact and straight, so each count is a
    determinant: no sampling and no contact enumeration, at any n."""
    sampled, contacts = _count_sampling_and_contacts(monkeypatch)
    F = build_map("anosov").map
    report = cross_check(F, straight_curve((1, 0)), [1, 2, 4, 8, 40])
    assert [(e.n, e.intersections, e.farey, e.exc)
            for e in report.entries] == [
        (1, 1, 1, None), (2, 3, 2, None), (4, 21, 4, None),
        (8, 987, 8, None), (40, 23416728348467685, 40, None)]
    assert sampled == [] and contacts == []


def test_cross_check_of_an_exact_image_on_the_probe():
    """The twist maps the horizontal probe onto itself.  The exact image
    reads as the parallel push-off that placement gives a sampled one."""
    F = build_map("twist_model").map
    report = cross_check(F, straight_curve((1, 0)), [1, 2])
    assert [(e.n, e.intersections, e.crossing, e.farey, e.same, e.exc)
            for e in report.entries] == [(1, 0, 0, 0, True, None),
                                         (2, 0, 0, 0, True, None)]


def test_curve_orbit_iterates_must_not_decrease():
    F = build_map("shear_segment").map
    orbit = CurveOrbit(F, straight_curve((1, 0)), 8)
    # counts are integers, never truncated or coerced
    for bad in (0, 2.5, "4", True):
        with pytest.raises(InputError):
            orbit.image(bad)
    orbit.image(3)
    assert orbit.image(3) == image_curve(F, straight_curve((1, 0)), 8, n=3)
    with pytest.raises(InputError):
        orbit.image(2)
    for res in (0, 2.5, "8"):
        with pytest.raises(InputError):
            CurveOrbit(F, straight_curve((1, 0)), res)


def _reduced(pt):
    return (pt[0] - math.floor(pt[0]), pt[1] - math.floor(pt[1]))


def test_intersection_params_locate_the_point():
    rng = random.Random(202)
    checked = 0
    while checked < 40:
        a = random_simple_curve(rng, is_simple, PLCurve)
        b = random_simple_curve(rng, is_simple, PLCurve)
        try:
            pts = intersections(a, b)
        except NonGenericError:
            continue
        for p in pts:
            assert _reduced(_point_at(a, p.param_a)) == p.point
            assert _reduced(_point_at(b, p.param_b)) == p.point
            assert 0 <= p.param_a < len(a.verts)
            assert 0 <= p.param_b < len(b.verts)
        checked += 1


# a horizontal zigzag with its peak at (1/2, 1/4), and a vertical zigzag
# through that peak; each is listed from two different first vertices
F34 = Fraction(3, 4)
PEAK = (F12, F14)
ZIGZAG_PEAK_SECOND = PLCurve(((0, 0), PEAK), (1, 0))
ZIGZAG_PEAK_FIRST = PLCurve((PEAK, (1, 0)), (1, 0))
VERTICAL_PEAK_SECOND = PLCurve(((F34, -F14), PEAK), (0, 1))
VERTICAL_PEAK_FIRST = PLCurve((PEAK, (F34, F34)), (0, 1))


@pytest.mark.parametrize("a, b, param", [
    (ZIGZAG_PEAK_SECOND, VERTICAL_PEAK_SECOND, 1),
    # the peak is the closing vertex v_0 + w of both curves
    (ZIGZAG_PEAK_FIRST, VERTICAL_PEAK_FIRST, 0),
], ids=["inner_vertex", "closing_vertex"])
def test_intersection_params_at_vertices(a, b, param):
    (p,) = intersections(a, b)
    assert p.point == PEAK
    assert p.transverse
    assert (p.param_a, p.param_b) == (param, param)
    assert _reduced(_point_at(a, p.param_a)) == PEAK
    assert _reduced(_point_at(b, p.param_b)) == PEAK


# a class (1, 0) chain whose first and last edges cross at (1/3, 2/9)
SELF_CROSSING = PLCurve(((0, 0), (F34, F12), (F14, F14)), (1, 0))


def test_self_crossing_curve_rejected():
    v = vertical_circle(Fraction(1, 3))
    for a, b in ((SELF_CROSSING, v), (v, SELF_CROSSING)):
        with pytest.raises(NonGenericError, match="one curve branch"):
            intersections(a, b)
        with pytest.raises(NonGenericError, match="one curve branch"):
            crossing_number(a, b)


def test_self_crossing_curve_cli_exit_code(tmp_path, capsys):
    fa = str(tmp_path / "a.txt")
    fb = str(tmp_path / "b.txt")
    write_curve(fa, SELF_CROSSING)
    write_curve(fb, vertical_circle(Fraction(1, 3)))
    for x, y in ((fa, fb), (fb, fa)):
        code = cli_main(["crossing", "--curve-a", x, "--curve-b", y,
                         "--out", str(tmp_path / "o")])
        assert code == 4
        assert "one curve branch" in capsys.readouterr().err
