"""Inputs, items and correctness checks of the three benchmark workloads.

Every workload is a closed loop with one client: a list of items, each
one user-level call, run one after the other.  An item returns a plain
dict of what it produced; the matching ``*_problems`` function compares
that dict with the allowed table or the recorded reference values and
returns a list of problems (empty when the item is correct).

The package is always reached through module attributes
(``curves.intersections``, not a name imported from it), so that the
traced run sees the calls through its wrappers.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from fractions import Fraction

from torusdyn import classifier, cli, curves, fine_graph, gallery

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_FILE = os.path.join(HERE, "reference.json")

# Nominal cost of one pass on a 2-CPU x86 box with the numpy backend.
# A run does the number of whole passes that take about --seconds
# there: a fixed item count keeps the percentile behind item_tail_s on
# the same kind of item from run to run, which a deadline would not.
# Every input recurs in a run, in passes of seeded order, so that each
# input's best latency can be taken (see run.py).
NOMINAL_PASS_S = {"gallery-classify": 2.9, "orbit-growth": 9.5}
# curve-certify: mean cost of one pair, and the passes over its pairs
NOMINAL_PAIR_S = 0.19
CURVE_PASSES = 3

# ---------------------------------------------------------------------------
# gallery-classify

# name -> (allowed verdicts, route); a copy of the table in
# tests/test_classifier.py, kept here so the benchmark stands alone
GALLERY_TABLE = {
    "anosov": ({"Hyperbolic"}, "AnosovTrace"),
    "twist_model": ({"EllipticConsistent"}, "TwistInterval"),
    "dehn_twist_annular": ({"EllipticConsistent"}, "TwistInterval"),
    "twist_with_interval": ({"Hyperbolic"}, "TwistInterval"),
    "mz_interior": ({"Hyperbolic"}, "IdentityIsotopicRotSet"),
    "shear_segment": ({"EllipticConsistent"}, "IdentityIsotopicRotSet"),
    "translation": ({"Undetermined"}, "IdentityIsotopicRotSet"),
    "denjoy_irrational_flow": ({"ParabolicConsistent"},
                               "IdentityIsotopicRotSet"),
    "denjoy_parabolic": ({"ParabolicConsistent", "Undetermined"},
                         "IdentityIsotopicRotSet"),
    "annulus_attractor": ({"EllipticCertified"}, "IdentityIsotopicRotSet"),
}


def gallery_items(seed: int, passes: int) -> list:
    """Map names for `passes` passes; the seed orders each pass."""
    rng = random.Random(seed)
    items = []
    for _ in range(passes):
        order = sorted(GALLERY_TABLE)
        rng.shuffle(order)
        items.extend(order)
    return items


def classify_item(name: str, out_root: str) -> dict:
    """`torusdyn classify --gallery NAME --out DIR`, in process."""
    out = os.path.join(out_root, name)
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["classify", "--gallery", name, "--out", out])
    return {"name": name, "exit_code": code,
            "path": os.path.join(out, "classify.json")}


def classify_problems(result: dict, first_bytes: dict) -> list:
    """Allowed verdict and route, and bytes equal to the first pass."""
    name = result["name"]
    if result["exit_code"] != 0:
        return [f"{name}: exit code {result['exit_code']}"]
    with open(result["path"], "rb") as fh:
        data = fh.read()
    problems = []
    report = json.loads(data)["report"]
    verdicts, route = GALLERY_TABLE[name]
    if report["verdict"] not in verdicts or report["route"] != route:
        problems.append(f"{name}: {report['verdict']} via {report['route']}")
    if first_bytes.setdefault(name, data) != data:
        problems.append(f"{name}: classify.json changed between passes")
    return problems


# ---------------------------------------------------------------------------
# curve-certify

VERTEX_COUNTS = (8, 16, 24)
CLASSES = tuple(
    (p, q) for p in range(-2, 3) for q in range(-2, 3)
    if math.gcd(abs(p), abs(q)) == 1
)


def random_curve(rng: random.Random, k: int) -> curves.PLCurve:
    """Random simple PL curve with k rational vertices, a class with
    |p|, |q| <= 2 and vertex denominators <= 64.

    The vertices are a graph over the straight line of the class, inside
    a band narrower than the spacing of its parallel strands, so the
    curve is simple by construction."""
    while True:
        p, q = rng.choice(CLASSES)
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
            return curves.PLCurve(tuple(verts), (p, q))


def curve_pair(k: int, gen: int) -> tuple:
    """The pair drawn by generator number gen for k vertices per curve."""
    rng = random.Random(k * 1_000_003 + gen)
    return random_curve(rng, k), random_curve(rng, k)


def curve_items(seed: int, per_count: int, pool: dict) -> list:
    """per_count pairs of each vertex count, in CURVE_PASSES passes of
    seeded order.

    Each vertex count's pool is sorted by the recorded cost of its items
    and cut into per_count strata, and the pair at each stratum's centre
    is taken, so a run sees the pool's spread of costs.  The seed orders
    the passes, as in the other workloads, and does not draw the pairs:
    near the median, pairs next to each other in recorded cost differ
    in measured cost by up to 40%, so seeded draws moved item_p50_s by
    a third from seed to seed."""
    pairs = []
    for k in VERTEX_COUNTS:
        entries = sorted(pool[k], key=lambda e: (e["cost_ms"], e["gen"]))
        pairs += [(k, entries[(2 * s + 1) * len(entries) // (2 * per_count)])
                  for s in range(per_count)]
    rng = random.Random(seed)
    items = []
    for _ in range(CURVE_PASSES):
        rng.shuffle(pairs)
        items.extend(pairs)
    return items


def certify_item(a: curves.PLCurve, b: curves.PLCurve) -> dict:
    """Intersections, crossing number, Farey lower bound, a surgery
    certificate, its JSON round trip and its verification."""
    pts = curves.intersections(a, b)
    crossing = curves.crossing_number(a, b)
    farey = fine_graph.farey_lower_bound(a, b)
    path = fine_graph.upper_bound_by_intersection(a, b)
    text = json.dumps(path.to_json_dict(), sort_keys=True)
    return {
        "intersections": len(pts),
        "transverse": all(p.transverse for p in pts),
        "crossing": crossing,
        "farey": farey,
        "path_length": path.length,
        "certificate": text,
        "verify": fine_graph.verify_certificate(json.loads(text)),
    }


def certify_problems(result: dict, ref: dict) -> list:
    """Counts equal the reference; the certificate re-verified from its
    JSON alone and is no longer than 2i + 2."""
    problems = [
        f"{key} {result[key]} != reference {ref[key]}"
        for key in ("intersections", "crossing", "farey")
        if result[key] != ref[key]
    ]
    if not result["transverse"]:
        problems.append("touching contact in a generic pair")
    if not result["verify"]["valid"]:
        problems.append(f"certificate does not verify: {result['verify']}")
    cert = json.loads(result["certificate"])
    if cert["intersection_count"] != ref["intersections"]:
        problems.append("certificate claims a wrong intersection count")
    if result["path_length"] > 2 * ref["intersections"] + 2:
        problems.append(f"path length {result['path_length']} > 2i + 2")
    return problems


# ---------------------------------------------------------------------------
# orbit-growth

IMAGE_RES = 512
# Items of each kind in one pass.  The light items recur more often, so
# that a run of three passes has 33 items: the ten beyond item_tail_s
# are the cross_check n=1000 and n=100 items, the translation length
# n_max=16 items and one of n_max=15, and the tail is an n_max=15 item,
# whose time the Farey search dominates.
ORBIT_PASS = {
    ("cross_check", 10): 3, ("cross_check", 100): 1,
    ("cross_check", 1000): 1, ("translation_length", 14): 3,
    ("translation_length", 15): 2, ("translation_length", 16): 1,
}


def orbit_maps() -> tuple:
    """(Denjoy suspension map, Anosov map, probe curve)."""
    G = gallery.build_map("denjoy_parabolic", coords="suspension").map
    A = gallery.build_map("anosov").map
    return G, A, curves.straight_curve((1, 0))


def orbit_items(seed: int, passes: int) -> list:
    rng = random.Random(seed)
    one_pass = [item for item, copies in ORBIT_PASS.items()
                for _ in range(copies)]
    items = []
    for _ in range(passes):
        rng.shuffle(one_pass)
        items.extend(one_pass)
    return items


def orbit_item(kind: str, n: int, G, A, a) -> dict:
    if kind == "cross_check":
        report = classifier.cross_check(G, a, [n], res=IMAGE_RES)
        return {"kind": kind, "n": n,
                "entry": report.entries[0].to_json_dict()}
    bounds = fine_graph.translation_length_bounds(A, a, n)
    return {"kind": kind, "n": n,
            "entries": [[e.n, e.upper_numerator, e.lower_numerator]
                        for e in bounds.entries]}


def orbit_problems(result: dict, ref: dict) -> list:
    n = result["n"]
    if result["kind"] == "cross_check":
        want = ref["cross_check"][str(n)]
        got = result["entry"]
        if got != want:
            return [f"cross_check n={n}: {got} != reference {want}"]
        return []
    want = [[m] + ref["translation_length"][str(m)] for m in range(1, n + 1)]
    if result["entries"] != want:
        return [f"translation_length_bounds n_max={n} != reference"]
    return []


# ---------------------------------------------------------------------------
# the workloads as item lists


class GalleryClassify:
    """One item: `torusdyn classify --gallery NAME` on one gallery map."""

    def __init__(self, seed, passes, out_root):
        self.items = gallery_items(seed, passes)
        self.warm_items = sorted(set(self.items))
        self.out_root = out_root
        self.first_bytes = {}

    def run(self, name):
        return classify_item(name, self.out_root)

    def problems(self, name, result):
        return classify_problems(result, self.first_bytes)

    def label(self, name):
        return name

    def properties(self, name, result):
        return {"map": name}


class CurveCertify:
    """One item: distance bounds and a verified certificate for one
    random pair of simple rational PL curves."""

    def __init__(self, seed, per_count, ref):
        pool = ref["curve_pairs"]
        self.items = [(k, entry, curve_pair(k, entry["gen"]))
                      for k, entry in curve_items(seed, per_count, pool)]
        # warm-up: the 8-vertex pair of median cost
        k = min(VERTEX_COUNTS)
        entry = sorted(pool[k], key=lambda e: (e["cost_ms"], e["gen"]))[
            len(pool[k]) // 2]
        self.warm_items = [(k, entry, curve_pair(k, entry["gen"]))]

    def run(self, item):
        return certify_item(*item[2])

    def problems(self, item, result):
        return certify_problems(result, item[1])

    def label(self, item):
        return f"{item[0]}v/{item[1]['gen']}"

    def properties(self, item, result):
        a, b = item[2]
        return {"gen": item[1]["gen"],
                "vertices": [len(a.verts), len(b.verts)],
                "classes": [list(a.w), list(b.w)],
                "intersections": item[1]["intersections"],
                "path_length": None if result is None
                else result["path_length"]}


class OrbitGrowth:
    """Items: cross_check on the Denjoy suspension map at one n, or
    translation length bounds of the Anosov map up to one n_max."""

    def __init__(self, seed, passes, ref):
        self.G, self.A, self.a = orbit_maps()
        self.ref = ref["orbit"]
        self.items = orbit_items(seed, passes)
        self.warm_items = [("cross_check", 10), ("translation_length", 1)]

    def run(self, item):
        return orbit_item(*item, self.G, self.A, self.a)

    def problems(self, item, result):
        return orbit_problems(result, self.ref)

    def label(self, item):
        return f"{item[0]}/{item[1]}"

    def properties(self, item, result):
        label = self.label(item)
        return {"item": label, **self.ref["images"][label]}


def build(workload, seed, seconds, ref, out_root):
    """The workload sized to about `seconds` on the nominal machine."""
    if workload == "gallery-classify":
        passes = max(1, round(seconds / NOMINAL_PASS_S[workload]))
        return GalleryClassify(seed, passes, out_root)
    if workload == "curve-certify":
        per_count = max(1, round(
            seconds / (len(VERTEX_COUNTS) * CURVE_PASSES * NOMINAL_PAIR_S)))
        return CurveCertify(seed, per_count, ref)
    if workload == "orbit-growth":
        passes = max(1, round(seconds / NOMINAL_PASS_S[workload]))
        return OrbitGrowth(seed, passes, ref)
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# reference values


def load_reference() -> dict:
    with open(REFERENCE_FILE, "r", encoding="utf-8") as fh:
        ref = json.load(fh)
    ref["curve_pairs"] = {int(k): v for k, v in ref["curve_pairs"].items()}
    return ref
