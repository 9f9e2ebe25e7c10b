"""Tests for the isometry type classifier and the cross check report."""

import math
import random
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))
from oracles import segment_rational_point_oracle  # noqa: E402

from torusdyn.classifier import (  # noqa: E402
    MAX_Q,
    ClassifyParams,
    _segment_rational_point,
    area_budget,
    classify,
    cross_check,
)
from torusdyn.curves import PLCurve, straight_curve
from torusdyn.errors import InputError
from torusdyn.gallery import build_map, gallery_names
from torusdyn.maps import LiftedMap, Linear, ShearX, Translation, conjugate
from torusdyn.profiles import Sin2
from torusdyn.rotation import ShapeThresholds

PARAMS = ClassifyParams(n=400, grid=32)

# name, kwargs, allowed verdicts, expected route
GALLERY_TABLE = [
    ("anosov", {}, {"Hyperbolic"}, "AnosovTrace"),
    ("twist_model", {}, {"EllipticConsistent"}, "TwistInterval"),
    ("dehn_twist_annular", {}, {"EllipticConsistent"}, "TwistInterval"),
    ("twist_with_interval", {}, {"Hyperbolic"}, "TwistInterval"),
    ("mz_interior", {}, {"Hyperbolic"}, "IdentityIsotopicRotSet"),
    ("shear_segment", {}, {"EllipticConsistent"},
     "IdentityIsotopicRotSet"),
    ("translation", {}, {"Undetermined"}, "IdentityIsotopicRotSet"),
    ("denjoy_irrational_flow", {"k_max": 2000}, {"ParabolicConsistent"},
     "IdentityIsotopicRotSet"),
    # the truncation scale moves the measured shape between a thin
    # irrational segment and an unresolved blob; both are acceptable
    ("denjoy_parabolic", {"k_max": 2000},
     {"ParabolicConsistent", "Undetermined"}, "IdentityIsotopicRotSet"),
    ("annulus_attractor", {}, {"EllipticCertified"},
     "IdentityIsotopicRotSet"),
]


@pytest.mark.parametrize(
    "name,kwargs,verdicts,route",
    GALLERY_TABLE,
    ids=[row[0] for row in GALLERY_TABLE],
)
def test_gallery_verdicts(name, kwargs, verdicts, route):
    entry = build_map(name, **kwargs)
    result = classify(entry.map, PARAMS)
    assert result.verdict in verdicts
    assert result.route == route
    assert result.params is PARAMS
    out = result.to_json_dict()
    assert out["verdict"] == result.verdict
    assert out["params"]["n"] == 400
    # every threshold the classifier applies is echoed
    assert out["params"].items() >= PARAMS.thresholds.to_json_dict().items()


def test_gallery_table_is_complete():
    assert sorted(row[0] for row in GALLERY_TABLE) == gallery_names()


def test_certified_verdict_carries_certificate():
    entry = build_map("annulus_attractor")
    result = classify(entry.map, PARAMS)
    assert result.certificate is not None
    assert result.certificate.margin > 0
    assert "certificate" in result.to_json_dict()


def test_area_budget_reference_values():
    assert area_budget(math.sqrt(3.0) / 8.0) == pytest.approx(1.0)
    assert area_budget(math.sqrt(3.0) / 2.0) == pytest.approx(2.0)
    assert area_budget(0.0) == 0.0
    with pytest.raises(InputError):
        area_budget(-1e-9)


def test_hyperbolic_interior_reports_budget():
    entry = build_map("mz_interior")
    result = classify(entry.map, PARAMS)
    ev = result.evidence
    assert ev["area"] > 0.5
    assert ev["area_budget"] == pytest.approx(area_budget(ev["area"]))


def _random_segment(rng):
    """Endpoints on or near a 1/8 lattice point, along a low denominator
    slope or any direction; one segment in four has zero length."""
    def coord():
        return rng.randrange(-8, 17) / 8 + rng.choice([0.0, 1e-3, 0.02]) * (
            rng.random() - 0.5)

    a = (coord(), coord())
    if rng.random() < 0.25:
        return a, a
    if rng.random() < 0.5:
        ux, uy = rng.choice([(1, 0), (0, 1), (1, 1), (1, -2), (3, 1)])
    else:
        ux, uy = rng.uniform(-1, 1), rng.uniform(-1, 1)
    r = rng.uniform(0.0, 0.4) / math.hypot(ux, uy)
    return a, (a[0] + r * ux, a[1] + r * uy)


def test_segment_rational_point_matches_the_oracle():
    rng = random.Random(24)
    found = 0
    for k in range(1500):
        a, b = _random_segment(rng)
        tol = rng.choice([1e-4, 1e-3, 1e-2, 0.05])
        max_q = MAX_Q if k % 100 == 0 else rng.randint(1, 30)
        got = _segment_rational_point(
            SimpleNamespace(endpoints=(a, b)), tol, max_q)
        assert got == segment_rational_point_oracle(a, b, tol, max_q), (
            a, b, tol, max_q)
        found += got is not None
    assert 300 < found < 1400


@pytest.mark.parametrize("seed", range(4))
def test_translations_never_hyperbolic(seed):
    rng = np.random.default_rng(seed)
    v = rng.uniform(-1.0, 1.0, size=2)
    F = LiftedMap([Translation((float(v[0]), float(v[1])))])
    result = classify(F, ClassifyParams(n=200, grid=16))
    assert result.verdict != "Hyperbolic"


def test_finite_order_class_is_classified_through_its_power():
    """A quarter turn has linear part of order 4; its fourth power is
    the identity, whose rotation set is a point."""
    result = classify(LiftedMap((Linear(((0, -1), (1, 0))),)),
                      ClassifyParams(n=200, grid=16))
    assert result.verdict == "Undetermined"
    assert result.route == "IdentityIsotopicRotSet"
    assert result.notes[0].startswith("linear part has finite order 4;")


def _drifted_twist(drift):
    return LiftedMap((Linear(((1, 1), (0, 1))), Translation((0.0, drift))))


def test_a_twist_drifting_by_an_irrational_is_undetermined():
    """The model twist drifted by the golden mean has a short interval
    about (sqrt 5 - 1)/2; no rational of denominator at most MAX_Q lies
    in it, though 55/89 lies within EPS_LEN of it."""
    result = classify(_drifted_twist((math.sqrt(5.0) - 1.0) / 2.0), PARAMS)
    assert result.route == "TwistInterval"
    assert result.verdict == "Undetermined"
    assert "rational_value" not in result.evidence
    assert result.notes == [
        "twist rotation interval is short but not resolved against "
        "rational values; no verdict"]


def test_a_twist_drifting_by_a_rational_is_elliptic_consistent():
    result = classify(_drifted_twist(0.3), PARAMS)
    assert result.verdict == "EllipticConsistent"
    assert result.evidence["rational_value"] == "3/10"


def test_a_rational_slope_segment_off_every_rational_point():
    """A slow shear drifted by 0.002 along x has the horizontal rotation
    segment from about (0.002, 0) to (0.008, 0).  Its nearest point of
    denominator at most MAX_Q is (0, 0), about 0.002 away: within twice
    the default eps_width, but not within twice 1e-4."""
    F = LiftedMap((ShearX(Sin2(), 0.006), Translation((0.002, 0.0))))
    narrow = ClassifyParams(n=400, grid=32,
                            thresholds=ShapeThresholds(eps_width=1e-4))
    result = classify(F, narrow)
    assert result.verdict == "Undetermined"
    assert result.evidence["shape"]["kind"] == "segment"
    assert result.notes == [
        "segment of rational slope with no nearby low denominator "
        "rational point; no verdict"]
    result = classify(F, PARAMS)
    assert result.verdict == "EllipticConsistent"
    assert result.evidence["rational_point"] == ["0", "0"]


@pytest.mark.parametrize("name", ["anosov", "mz_interior"])
def test_verdict_stable_under_conjugation(name):
    A = [[1, 1], [0, 1]]
    entry = build_map(name)
    base = classify(entry.map, PARAMS)
    conj = classify(conjugate(entry.map, A), PARAMS)
    assert conj.verdict == base.verdict


def test_cross_check_translation_probe():
    # translated images of the probe stay parallel, so Farey distances
    # and crossing numbers both stay at zero
    F = build_map("translation").map
    a = straight_curve((1, 0))
    report = cross_check(F, a, [1, 2, 4, 8], verdict="EllipticConsistent")
    assert report.curve_class == (1, 0)
    assert [e.n for e in report.entries] == [1, 2, 4, 8]
    for e in report.entries:
        assert e.exc is None
        assert e.farey == 0
        assert e.crossing == 0
    assert report.violations == []
    assert report.fit_exponent is None


def test_cross_check_flags_missing_farey_growth():
    F = build_map("translation").map
    a = straight_curve((1, 0))
    report = cross_check(F, a, [1, 2, 4], verdict="Hyperbolic")
    assert len(report.violations) == 1
    assert "Farey" in report.violations[0]


def test_cross_check_anosov_farey_growth():
    F = build_map("anosov").map
    a = straight_curve((1, 0))
    report = cross_check(F, a, [1, 2, 3, 4], verdict="Hyperbolic")
    fareys = [e.farey for e in report.entries]
    assert all(f is not None and f > 0 for f in fareys)
    assert fareys == sorted(fareys)
    assert report.violations == []


def test_cross_check_elliptic_cap_violation():
    G = build_map("denjoy_parabolic", k_max=2000, coords="suspension").map
    b = straight_curve((1, 0))
    report = cross_check(G, b, [100, 1000], res=2048,
                         verdict="EllipticConsistent", crossing_cap=2)
    crossings = [e.crossing for e in report.entries if e.crossing]
    assert any(c > 2 for c in crossings)
    assert report.violations
    assert report.to_json_dict()["violations"] == report.violations


def test_cross_check_rejects_bad_iterates():
    F = build_map("translation").map
    a = straight_curve((1, 0))
    with pytest.raises(InputError):
        cross_check(F, a, [])
    with pytest.raises(InputError):
        cross_check(F, a, [0, 1])
    # iterate counts are integers: none is truncated to one
    for ns in ([1.9, 2], [2.5], ["3"], [None]):
        with pytest.raises(InputError):
            cross_check(F, a, ns)
    for res in ("8", 2.5, 0):
        with pytest.raises(InputError):
            cross_check(F, a, [1], res=res)
    assert [e.n for e in cross_check(F, a, [2.0, 1]).entries] == [1, 2]


def test_cross_check_rejects_an_inessential_probe():
    # a null-homotopic probe is no Farey vertex, so it has no Farey distance
    q = Fraction(1, 4)
    square = PLCurve(((q, q), (2 * q, q), (2 * q, 2 * q), (q, 2 * q)), (0, 0))
    with pytest.raises(InputError):
        cross_check(build_map("anosov").map, square, [1])
