"""Acceptance suite: one test per criterion, each printing a single
pass/fail line on the terminal.

Derived quantities are checked against the independent oracles in
oracles.py (brute force crossing enumeration, Farey BFS); tolerances
are stated inline with each criterion.
"""

import json
import math
import os
import random
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))
from oracles import (  # noqa: E402
    brute_crossing_number,
    farey_oracle_all_distances,
    primitive_classes,
    random_simple_curve,
)

from torusdyn.classifier import (  # noqa: E402
    ClassifyParams,
    area_budget,
    classify,
    cross_check,
)
from torusdyn.cli import main as cli_main  # noqa: E402
from torusdyn.curves import (  # noqa: E402
    PLCurve,
    crossing_number,
    intersections,
    is_simple,
    lift_to_cover,
    straight_curve,
    write_curve,
)
from torusdyn.errors import (  # noqa: E402
    DivergenceError,
    InapplicableError,
    NonGenericError,
)
from torusdyn.fine_graph import (  # noqa: E402
    adjacent,
    annulus_trap_certificate,
    farey_adjacent,
    farey_distance,
    upper_bound_by_intersection,
    verify_certificate,
)
from torusdyn.gallery import build_map  # noqa: E402
from torusdyn.maps import (  # noqa: E402
    conjugate,
    deck_adjust,
    iterate_points,
    power,
)
from torusdyn.rotation import (  # noqa: E402
    convergence_diagnostics,
    convex_hull,
    displacement_vectors,
    grid_points,
    hausdorff,
    mz_estimate,
)

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

IDENTITY_GALLERY = [
    ("translation", {}),
    ("shear_segment", {}),
    ("mz_interior", {}),
    ("annulus_attractor", {}),
    ("denjoy_parabolic", {"k_max": 2000}),
    ("denjoy_irrational_flow", {"k_max": 2000}),
]


def announce(capsys, num, label, ok, detail=""):
    with capsys.disabled():
        status = "PASS" if ok else "FAIL"
        line = f"[acceptance] criterion {num:02d} {status}: {label}"
        if detail:
            line += f" ({detail})"
        print(line)
    assert ok, f"criterion {num} failed: {label} {detail}"


def test_criterion_01_translation_exactness(capsys):
    F = build_map("translation").map
    est = mz_estimate(F, 100, 16)
    verts = est.hull.vertices
    err = (
        max(abs(verts[0][0] - 0.3), abs(verts[0][1] - 0.7))
        if len(verts) == 1
        else math.inf
    )
    announce(capsys, 1, "translation rotation set is the point (0.3, 0.7)",
             len(verts) == 1 and err <= 1e-9, f"error {err:.2e}")


def test_criterion_02_mz_property_suite(capsys):
    n, grid = 500, 64
    worst_deck = worst_power = worst_conj = 0.0
    for name, kwargs in IDENTITY_GALLERY:
        F = build_map(name, **kwargs).map
        d0 = displacement_vectors(F, n, grid)
        # deck equivariance: hull(F + p) = hull(F) + p; compared as
        # hulls since chaotic orbits amplify the last-bit difference of
        # shifted inputs pointwise
        p = (1, 2)
        d_deck = displacement_vectors(deck_adjust(F, p), n, grid)
        worst_deck = max(
            worst_deck,
            hausdorff(
                convex_hull(d_deck),
                convex_hull(d0 + np.array(p, dtype=float)),
            ),
        )
        # power law: displacements of F^2 at n/2 double those of F at n
        d_pow = displacement_vectors(power(F, 2), n // 2, grid // 2)
        d_base = displacement_vectors(F, n, grid // 2)
        worst_power = max(
            worst_power, float(np.abs(d_pow - 2.0 * d_base).max())
        )
        # conjugation equivariance: hull(A F A^-1) = A hull(F)
        h0 = mz_estimate(F, n, grid).hull
        for A in ([[1, 1], [0, 1]], [[0, -1], [1, 0]]):
            hc = mz_estimate(conjugate(F, A), n, grid).hull
            Av = [
                (A[0][0] * x + A[0][1] * y, A[1][0] * x + A[1][1] * y)
                for x, y in h0.vertices
            ]
            worst_conj = max(worst_conj, hausdorff(hc, convex_hull(Av)))
    anosov = build_map("anosov").map
    with pytest.raises(DivergenceError):
        iterate_points(anosov, grid_points(16), n)
    with pytest.raises(InapplicableError):
        mz_estimate(anosov, n, grid)
    ok = (
        worst_deck <= n * 1e-12
        and worst_power <= 1e-9
        and worst_conj <= 0.05
    )
    announce(
        capsys, 2, "MZ deck/power/conjugation properties and anosov guards",
        ok,
        f"deck {worst_deck:.1e}, power {worst_power:.1e}, "
        f"conj {worst_conj:.1e}",
    )


def test_criterion_03_shear_segment(capsys):
    F = build_map("shear_segment").map
    est = mz_estimate(F, 500, 64)
    target = convex_hull([(0.0, 0.0), (1.0, 0.0)])
    h = hausdorff(est.hull, target)
    verdict = classify(F, ClassifyParams(n=500, grid=64)).verdict
    a = straight_curve((1, 0))
    report = cross_check(F, a, [1, 10, 50, 100, 200])
    crossings = [e.crossing for e in report.entries]
    ok = (
        h <= 0.02
        and verdict == "EllipticConsistent"
        and all(e.exc is None for e in report.entries)
        and all(c is not None and c <= 2 for c in crossings)
    )
    announce(capsys, 3, "shear segment hull, verdict and bounded crossings",
             ok, f"hausdorff {h:.1e}, verdict {verdict}, "
             f"max crossing {max(crossings)}")


def test_criterion_04_hyperbolic_route_budget(capsys):
    F = build_map("mz_interior").map
    result = classify(F, ClassifyParams(n=500, grid=64))
    area = result.evidence.get("area", 0.0)
    budget = area_budget(area) if area > 0 else 0.0
    # crossing based translation length upper estimate along the orbit
    # of the horizontal curve: its image meets one elevation per
    # integer level in its vertical span, so (levels + 1) / n bounds
    # the distance growth
    res = 4096
    xs = np.arange(res, dtype=float) / res
    P = np.column_stack([xs, np.zeros(res)])
    upper = math.inf
    for n in range(1, 7):
        P = iterate_points(F, P, 1)
        levels = (
            math.floor(float(P[:, 1].max()))
            - math.ceil(float(P[:, 1].min()))
            + 1
        )
        upper = min(upper, (levels + 1) / n)
    ok = (
        result.verdict == "Hyperbolic"
        and area > 0.05
        and budget >= upper - 0.05
    )
    announce(capsys, 4, "interior route verdict and area budget",
             ok, f"area {area:.3f}, budget {budget:.3f}, upper {upper:.3f}")


def test_criterion_05_anosov_route(capsys):
    F = build_map("anosov").map
    verdict = classify(F).verdict
    M = ((2, 1), (1, 1))
    w = (1, 0)
    worst = math.inf
    for n in range(1, 21):
        w = (M[0][0] * w[0] + M[0][1] * w[1],
             M[1][0] * w[0] + M[1][1] * w[1])
        worst = min(worst, farey_distance((1, 0), w) / n)
    ok = verdict == "Hyperbolic" and worst >= 0.4
    announce(capsys, 5, "anosov verdict and Farey lower bound growth",
             ok, f"verdict {verdict}, min d/n {worst:.2f}")


def test_criterion_06_crossing_number_oracle(capsys):
    rng = random.Random(101)
    done = mismatches = 0
    while done < 100:
        a = random_simple_curve(rng, is_simple, PLCurve)
        b = random_simple_curve(rng, is_simple, PLCurve)
        try:
            lib = crossing_number(a, b)
        except NonGenericError:
            continue
        if lib != brute_crossing_number(a, b):
            mismatches += 1
        done += 1
    announce(capsys, 6, "crossing numbers match the brute force oracle",
             mismatches == 0, f"{done} pairs, {mismatches} mismatches")


def test_criterion_07_surgery_certificates(capsys):
    rng = random.Random(202)
    done = failures = 0
    while done < 100:
        a = random_simple_curve(rng, is_simple, PLCurve)
        b = random_simple_curve(rng, is_simple, PLCurve)
        try:
            pts = intersections(a, b)
        except NonGenericError:
            continue
        if not all(p.transverse for p in pts) or len(pts) > 20:
            continue
        path = upper_bound_by_intersection(a, b)
        cert = json.loads(json.dumps(path.to_json_dict()))
        if not (
            path.verify()
            and path.length <= 2 * len(pts) + 2
            and verify_certificate(cert)["valid"]
        ):
            failures += 1
        done += 1
    announce(capsys, 7, "surgery paths verify with length <= 2i + 2",
             failures == 0, f"{done} pairs, {failures} failures")


def test_criterion_08_farey_oracle(capsys):
    classes = primitive_classes(50)
    mismatches = 0
    for base in ((1, 0), (0, 1), (3, 5)):
        oracle = farey_oracle_all_distances(base)
        for w in classes:
            if farey_distance(base, w) != oracle[w]:
                mismatches += 1
    adj_bad = 0
    small = primitive_classes(12)
    for u in small:
        for v in small:
            det = u[0] * v[1] - u[1] * v[0]
            if farey_adjacent(u, v) != (abs(det) == 1):
                adj_bad += 1
    ok = mismatches == 0 and adj_bad == 0
    announce(capsys, 8, "Farey distances match BFS oracle, adjacency by det",
             ok, f"{len(classes)} classes x 3 bases, "
             f"{mismatches} distance / {adj_bad} adjacency mismatches")


def test_criterion_09_adjacency_lifting(capsys):
    rng = random.Random(303)
    pairs = []
    # once-crossing pairs: straight curves in Farey neighbor classes
    while len(pairs) < 25:
        a = straight_curve(
            (1, 0), (Fraction(rng.randint(0, 63), 64),
                     Fraction(rng.randint(0, 63), 64)))
        k = rng.randint(-3, 3)
        b = straight_curve(
            (k, 1), (Fraction(rng.randint(0, 63), 64),
                     Fraction(rng.randint(0, 63), 64)))
        try:
            if adjacent(a, b):
                pairs.append((a, b))
        except NonGenericError:
            continue
    # disjoint pairs: a random simple curve and a small translate
    while len(pairs) < 50:
        a = random_simple_curve(rng, is_simple, PLCurve)
        b = a.translated(Fraction(1, 128), Fraction(1, 128))
        try:
            if adjacent(a, b):
                pairs.append((a, b))
        except NonGenericError:
            continue
    bad = 0
    for a, b in pairs:
        for k in (2, 3):
            la = lift_to_cover(a, k)
            for off in ((0, 0), (1, 0), (0, 1)):
                lb = lift_to_cover(b, k, off)
                if not adjacent(la, lb):
                    bad += 1
    announce(capsys, 9, "adjacent pairs stay adjacent in the T2/T3 covers",
             bad == 0, f"50 pairs, {bad} lift failures")


def test_criterion_10_denjoy_parabolic_signature(capsys):
    F = build_map("denjoy_parabolic").map
    diags = convergence_diagnostics(F, [100, 400, 1600, 3200], 32)
    diameters = [d.diameter for d in diags]
    shrinking = all(
        d2 < d1 for d1, d2 in zip(diameters, diameters[1:])
    )
    S = build_map("denjoy_parabolic", coords="suspension").map
    report = cross_check(
        S, straight_curve((1, 0)), [10, 100, 1000, 10000], res=2048)
    crossings = [e.crossing for e in report.entries
                 if e.crossing is not None]
    verdict = classify(F, ClassifyParams(n=20000, grid=16)).verdict
    record = report.to_json_dict()
    ok = (
        diameters[-1] <= 0.1
        and shrinking
        and max(crossings, default=0) >= 5
        and verdict == "Undetermined"
        and len(record["entries"]) == 4
    )
    announce(capsys, 10,
             "parabolic map: point trend hull, growing crossings,"
             " Undetermined verdict",
             ok, f"diameter {diameters[-1]:.1e}, "
             f"max crossing {max(crossings, default=0)}, verdict {verdict}")


def test_criterion_11_irrational_segment_route(capsys):
    F = build_map("denjoy_irrational_flow").map
    result = classify(F, ClassifyParams(n=1600, grid=32))
    shape = result.evidence["shape"]
    ok = result.verdict == "ParabolicConsistent" and shape["kind"] == "segment"
    dir_err = origin_err = math.inf
    if ok:
        target = np.array([GOLDEN, 1.0])
        target /= np.linalg.norm(target)
        direction = np.array(shape["direction"])
        dir_err = min(
            float(np.abs(direction - target).max()),
            float(np.abs(direction + target).max()),
        )
        origin_err = min(
            max(abs(e[0]), abs(e[1])) for e in shape["endpoints"]
        )
        ok = dir_err <= 0.02 and origin_err <= 5e-3
    announce(capsys, 11,
             "flow: parabolic verdict, golden direction, endpoint at origin",
             ok, f"verdict {result.verdict}, direction error {dir_err:.1e}, "
             f"origin error {origin_err:.1e}")


def test_criterion_12_elliptic_certificate(capsys):
    F = build_map("annulus_attractor").map
    result = classify(F, ClassifyParams(n=400, grid=32))
    cert = annulus_trap_certificate(F, Fraction(1, 4), Fraction(3, 4))
    direct_ok = (
        cert is not None
        and cert.power == 1
        and cert.margin > 0
        and verify_certificate(cert.to_json_dict())["valid"]
    )
    ok = (
        result.verdict == "EllipticCertified"
        and result.certificate is not None
        and result.certificate.margin > 0
        and direct_ok
    )
    announce(capsys, 12, "annulus attractor is certified elliptic",
             ok, f"verdict {result.verdict}, "
             f"margin {cert.margin if cert else 'n/a'}")


def test_criterion_13_cli_determinism(tmp_path, capsys):
    ca = tmp_path / "a.curve.json"
    cb = tmp_path / "b.curve.json"
    write_curve(str(ca), straight_curve((1, 0)))
    write_curve(str(cb), straight_curve(
        (1, 2), (Fraction(1, 7), Fraction(1, 11))))
    commands = [
        ["rotset", "--gallery", "translation", "-n", "50",
         "--grid", "16", "--svg", "--cloud"],
        ["classify", "--gallery", "translation", "-n", "50",
         "--grid", "16"],
        ["crossing", "--curve-a", str(ca), "--curve-b", str(cb)],
        ["distance", "--curve-a", str(ca), "--curve-b", str(cb)],
        ["gallery"],
        ["gallery", "translation", "--param", "vx=0.25"],
    ]
    mismatched = []
    for idx, cmd in enumerate(commands):
        outs = []
        for run in ("r1", "r2"):
            out = str(tmp_path / f"{idx}-{run}")
            code = cli_main(cmd + ["--out", out])
            assert code == 0
            outs.append(out)
        files = sorted(os.listdir(outs[0]))
        if files != sorted(os.listdir(outs[1])):
            mismatched.append(cmd[0])
            continue
        for name in files:
            with open(os.path.join(outs[0], name), "rb") as fh:
                one = fh.read()
            with open(os.path.join(outs[1], name), "rb") as fh:
                two = fh.read()
            if one != two:
                mismatched.append(f"{cmd[0]}/{name}")
    # verify-certificate on the distance artifact, twice
    cert = str(tmp_path / "3-r1" / "certificate.json")
    for run in ("v1", "v2"):
        out = str(tmp_path / run)
        assert cli_main(["verify-certificate", cert, "--out", out]) == 0
    with open(str(tmp_path / "v1" / "verify.json"), "rb") as fh:
        one = fh.read()
    with open(str(tmp_path / "v2" / "verify.json"), "rb") as fh:
        two = fh.read()
    if one != two:
        mismatched.append("verify-certificate")
    capsys.readouterr()  # swallow CLI stdout
    announce(capsys, 13, "CLI artifacts are byte identical across runs",
             not mismatched, f"mismatches: {mismatched or 'none'}")
