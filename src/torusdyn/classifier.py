"""Isometry-type classification of torus homeomorphism lifts acting
on the fine curve graph.

The classifier routes on the isotopy class of the map.  Maps isotopic
to an Anosov linear model are hyperbolic outright.  Twist power maps
are judged through the rotation interval on the associated cyclic
cover.  Maps isotopic to the identity are judged through the shape of
the rotation set estimate: interior forces hyperbolic, a segment of
irrational slope is consistent with parabolic, a segment through low
denominator rational points is consistent with elliptic, and a point
shape stays undetermined unless a trapped annulus certificate upgrades
it to a certified elliptic verdict.

Verdicts carry the word "consistent" whenever they rest on sampled
numerics rather than an exact certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import (
    DivergenceError,
    InapplicableError,
    InputError,
    ResolutionError,
)
from .fine_graph import (
    ANNULUS_POWER,
    ANNULUS_SAMPLES,
    AnnulusCertificate,
    annulus_trap_certificate,
    orbit_entries,
)
from .maps import LiftedMap, _iteration_count, isotopy_class, power
from .rotation import (
    DEFAULT_THRESHOLDS,
    ShapeThresholds,
    _segment_distance,
    mz_estimate,
    twist_rotation_interval,
)

HYPERBOLIC = "Hyperbolic"
PARABOLIC_CONSISTENT = "ParabolicConsistent"
ELLIPTIC_CONSISTENT = "EllipticConsistent"
ELLIPTIC_CERTIFIED = "EllipticCertified"
UNDETERMINED = "Undetermined"

# twist interval length above which the action is declared hyperbolic
EPS_LEN = 0.05
# largest denominator accepted when matching rational slopes, points
# and interval values
MAX_Q = 100
# horizontal annuli probed for trap certificates, each at the
# ANNULUS_POWER and ANNULUS_SAMPLES of annulus_trap_certificate
ANNULI = ((Fraction(1, 4), Fraction(3, 4)),
          (Fraction(1, 8), Fraction(7, 8)),
          (Fraction(3, 8), Fraction(5, 8)),
          (Fraction(0), Fraction(1, 2)),
          (Fraction(1, 2), Fraction(1)))


@dataclass(frozen=True)
class ClassifyParams:
    """Tunable knobs for the classifier.

    n            iterate count for rotation set estimates
    grid         grid resolution per axis for rotation set estimates
    samples      lattice resolution for twist rotation intervals
    thresholds   shape classification tolerances
    """

    n: int = 1000
    grid: int = 64
    samples: int = 24
    thresholds: ShapeThresholds = DEFAULT_THRESHOLDS

    def to_json_dict(self):
        return {
            "n": self.n,
            "grid": self.grid,
            "samples": self.samples,
            "eps_len": EPS_LEN,
            "max_q": MAX_Q,
            "eps_point": self.thresholds.eps_point,
            "eps_width": self.thresholds.eps_width,
            "eps_area": self.thresholds.eps_area,
            "annuli": [[str(lo), str(hi)] for lo, hi in ANNULI],
            "annulus_power": ANNULUS_POWER,
            "annulus_samples": ANNULUS_SAMPLES,
        }


@dataclass
class Classification:
    """Outcome of the classifier.

    verdict      one of Hyperbolic, ParabolicConsistent,
                 EllipticConsistent, EllipticCertified, Undetermined
    route        which decision path produced the verdict
    evidence     route specific numeric evidence
    certificate  trapped annulus certificate when one was found
    notes        human readable remarks accumulated along the way
    params       echo of the parameters used
    """

    verdict: str
    route: str
    evidence: dict
    certificate: AnnulusCertificate = None
    notes: list = field(default_factory=list)
    params: ClassifyParams = None

    def to_json_dict(self):
        out = {
            "verdict": self.verdict,
            "route": self.route,
            "evidence": self.evidence,
            "notes": list(self.notes),
        }
        if self.certificate is not None:
            out["certificate"] = self.certificate.to_json_dict()
        if self.params is not None:
            out["params"] = self.params.to_json_dict()
        return out


def area_budget(area: float) -> float:
    """Upper bound sqrt(8 area / sqrt 3) on the asymptotic translation
    length compatible with a rotation set of the given area."""
    if area < 0:
        raise InputError("area must be nonnegative")
    return math.sqrt(8.0 * area / math.sqrt(3.0))


def _segment_rational_point(shape, tol: float, max_q: int):
    """Search the classified segment for a rational point with both
    denominators bounded by max_q within tol of the segment: the nearest
    (round(x q), round(y q)) / q over q <= max_q and points (x, y)
    sampled along it, the first met on a tie.  A zero length segment
    takes the best approximations of its coordinates."""
    (x0, y0), (x1, y1) = shape.endpoints
    dx, dy = x1 - x0, y1 - y0
    length = math.hypot(dx, dy)
    if length == 0:
        fx = Fraction(x0).limit_denominator(max_q)
        fy = Fraction(y0).limit_denominator(max_q)
        d = _segment_distance((float(fx), float(fy)), (x0, y0), (x1, y1))
        return (fx, fy, d) if d <= tol else None
    best = None
    for q in range(1, max_q + 1):
        steps = max(2, int(length * q) + 2)
        for s in range(steps + 1):
            t = s / steps
            mx = round((x0 + t * dx) * q)
            my = round((y0 + t * dy) * q)
            # mx / q is the correctly rounded float of the fraction
            d = _segment_distance((mx / q, my / q), (x0, y0), (x1, y1))
            if d <= tol and (best is None or d < best[2]):
                best = (Fraction(mx, q), Fraction(my, q), d)
    return best


def _try_annulus_certificates(F: LiftedMap):
    """Probe the ANNULI for a trap certificate."""
    for lo, hi in ANNULI:
        try:
            cert = annulus_trap_certificate(F, lo, hi)
        except (InapplicableError, ResolutionError, DivergenceError):
            continue
        if cert is not None:
            return cert
    return None


def _anosov_route(F: LiftedMap, cls, params: ClassifyParams, notes: list):
    tr = cls.matrix[0][0] + cls.matrix[1][1]
    evidence = {"matrix": [list(r) for r in cls.matrix], "trace": tr}
    notes.append(
        "isotopic to a linear map with |trace| > 2; the action is "
        "hyperbolic")
    return HYPERBOLIC, evidence, None


def _twist_route(F: LiftedMap, cls, params: ClassifyParams, notes: list):
    interval = twist_rotation_interval(F, params.n, params.samples)
    evidence = {
        "curve_class": list(cls.curve_class),
        "power": cls.power,
        "interval": [interval.low, interval.high],
        "interval_length": interval.length,
        "n": params.n,
        "samples": params.samples,
    }
    if interval.length > EPS_LEN:
        notes.append(
            "twist rotation interval has positive length; the action is "
            "hyperbolic")
        return HYPERBOLIC, evidence, None
    mid = 0.5 * (interval.low + interval.high)
    frac = Fraction(mid).limit_denominator(MAX_Q)
    if abs(float(frac) - mid) <= EPS_LEN:
        evidence["rational_value"] = str(frac)
        notes.append(
            "twist rotation interval is short and sits near a low "
            "denominator rational; consistent with an elliptic action")
        return ELLIPTIC_CONSISTENT, evidence, None
    notes.append(
        "twist rotation interval is short but not resolved against "
        "rational values; no verdict")
    return UNDETERMINED, evidence, None


def _rotset_route(F: LiftedMap, cls, params: ClassifyParams, notes: list):
    if cls.kind == "finite_order":
        notes.append(
            f"linear part has finite order {cls.order}; classifying the "
            "corresponding power, which is isotopic to the identity")
        F = power(F, cls.order)
    shape = mz_estimate(F, params.n, params.grid,
                        thresholds=params.thresholds).shape
    evidence = {"shape": shape.to_json_dict(), "n": params.n,
                "grid": params.grid}
    if shape.kind == "interior":
        evidence["area"] = shape.area
        evidence["area_budget"] = area_budget(shape.area)
        notes.append(
            "rotation set estimate has nonempty interior; the action "
            "is hyperbolic with positive translation length")
        return HYPERBOLIC, evidence, None
    if shape.kind == "segment":
        if shape.slope_label["label"] != "rational":
            notes.append(
                "segment of irrational slope; consistent with a "
                "parabolic action")
            return PARABOLIC_CONSISTENT, evidence, None
        hit = _segment_rational_point(
            shape, 2.0 * params.thresholds.eps_width, MAX_Q)
        if hit is None:
            notes.append(
                "segment of rational slope with no nearby low "
                "denominator rational point; no verdict")
            return UNDETERMINED, evidence, None
        fx, fy, d = hit
        evidence["rational_point"] = [str(fx), str(fy)]
        evidence["rational_point_distance"] = d
        notes.append(
            "segment of rational slope passing near a low denominator "
            "rational point; consistent with an elliptic action")
        verdict, trapped = (ELLIPTIC_CONSISTENT,
                            "upgrading to a certified elliptic verdict")
    else:
        # a point or unresolved rotation set is compatible with every
        # isometry type, so only an exact trapped annulus settles it
        verdict, trapped = (
            UNDETERMINED,
            "the orbit of its core curve stays at bounded distance")
    cert = _try_annulus_certificates(F)
    if cert is not None:
        notes.append("trapped horizontal annulus found; " + trapped)
        return ELLIPTIC_CERTIFIED, evidence, cert
    if verdict == UNDETERMINED:
        notes.append(
            "rotation set estimate is a point or unresolved and no "
            "trapped annulus was found; run cross checks for crossing "
            "number trends")
    return verdict, evidence, None


# isotopy class kind -> (route name, route); each route returns
# (verdict, evidence, certificate or None) and appends its notes
_ROUTES = {
    "anosov": ("AnosovTrace", _anosov_route),
    "twist_power": ("TwistInterval", _twist_route),
    "identity": ("IdentityIsotopicRotSet", _rotset_route),
    "finite_order": ("IdentityIsotopicRotSet", _rotset_route),
}


def classify(F: LiftedMap, params: ClassifyParams = None) -> Classification:
    """Classify the action of the lifted map on the fine curve graph.

    Returns a Classification whose verdict is Hyperbolic,
    ParabolicConsistent, EllipticConsistent, EllipticCertified or
    Undetermined.  Hyperbolic verdicts from the Anosov and interior
    routes are backed by theory given the measured input; verdicts
    suffixed Consistent rest on sampled estimates.
    """
    if params is None:
        params = ClassifyParams()
    cls = isotopy_class(F)
    route, decide = _ROUTES[cls.kind]
    notes = []
    verdict, evidence, cert = decide(F, cls, params, notes)
    return Classification(verdict, route, evidence, cert, notes, params)


@dataclass
class CrossCheckReport:
    """Crossing number and Farey distance trends for iterated images
    of a probe curve, together with consistency flags against a
    verdict.  Violations are recorded, never raised."""

    curve_class: tuple
    entries: list
    verdict: str = None
    violations: list = field(default_factory=list)
    fit_exponent: float = None

    def to_json_dict(self):
        out = {
            "curve_class": list(self.curve_class),
            "entries": [e.to_json_dict() for e in self.entries],
            "verdict": self.verdict,
            "violations": list(self.violations),
        }
        if self.fit_exponent is not None:
            out["fit_exponent"] = self.fit_exponent
        return out


def cross_check(F: LiftedMap, a, ns, res: int = 64,
                verdict: str = None,
                crossing_cap: int = None) -> CrossCheckReport:
    """Measure crossing numbers, intersection counts and Farey
    distances of the iterated images of the probe curve a against a.

    ns is an iterable of iterate counts; the entries are the
    orbit_entries of a, whose per iterate failures (non simple
    samplings, divergence) are recorded rather than raised.  When a
    verdict is supplied the report lists the measurements that sit
    poorly with it; an elliptic verdict with crossing numbers above
    crossing_cap (default 2 max(ns) + 2) is flagged, a hyperbolic
    verdict with zero Farey growth is flagged.
    """
    ns = sorted(set(_iteration_count(n) for n in ns))
    if not ns or ns[0] < 1:
        raise InputError("iterate counts must be positive")
    if crossing_cap is None:
        crossing_cap = 2 * ns[-1] + 2
    entries = list(orbit_entries(F, a, ns, res))

    report = CrossCheckReport(tuple(a.w), entries, verdict=verdict)
    # Log-log least squares slope of the crossing counts: an exponent
    # below one records a sublinear (parabolic style) growth trend.
    pts = [(math.log(e.n), math.log(e.crossing)) for e in entries
           if e.crossing is not None and e.crossing > 0 and e.n > 1]
    if len(pts) >= 2:
        mx = sum(p[0] for p in pts) / len(pts)
        my = sum(p[1] for p in pts) / len(pts)
        den = sum((p[0] - mx) ** 2 for p in pts)
        if den > 0:
            report.fit_exponent = (
                sum((p[0] - mx) * (p[1] - my) for p in pts) / den)
    if verdict in (ELLIPTIC_CONSISTENT, ELLIPTIC_CERTIFIED):
        for e in entries:
            if e.crossing is not None and e.crossing > crossing_cap:
                report.violations.append(
                    f"crossing number {e.crossing} at n={e.n} exceeds "
                    f"the elliptic cap {crossing_cap}")
    if verdict == HYPERBOLIC:
        grew = any(e.farey and e.farey > 0 for e in entries)
        if not grew and len(entries) > 1:
            report.violations.append(
                "no Farey distance growth observed for a hyperbolic "
                "verdict")
    return report
