"""Rebuild perfbench/reference.json, the reference values the benchmark
checks its exact outputs against.

    PYTHONPATH=src python3 perfbench/make_reference.py

The values are those of the implementation this file is run against.
Run it only when a change is meant to alter them, and say so: a
performance change must leave every recorded value as it is.

curve_pairs: for each vertex count, the generator numbers of the first
POOL_SIZE pairs without a touching contact, with their intersection
count, crossing number and Farey distance.  Pairs with a touching
contact are rejected here, so the benchmark never sees one.  "cost_ms"
is the faster of two timings of the pair's item, measured here; the
benchmark draws its pairs in strata of it.  Counts of the work an item
does (segment pairs handed to `intersections`, exact contact tests)
miss about a quarter of its run time per pair, mostly the growth of
the rationals in surgery, and strata of them let the tail latency move
with the seed.  A rebuild measures again and so may change which pairs
a seed draws: start a new baseline after it.

orbit: the cross_check entries of the Denjoy suspension map and the
translation length numerators of the Anosov map, for every n the
orbit-growth workload reaches, and for each orbit-growth item the
vertex count of its last image curve and that curve's intersection
count with the probe, which a run records as input properties.
"""

from __future__ import annotations

import json
import sys
import time

import workloads as wl
from torusdyn import classifier, curves, errors, fine_graph, maps

POOL_SIZE = 240


def curve_pool(k: int) -> list:
    pool, gen = [], 0
    while len(pool) < POOL_SIZE:
        a, b = wl.curve_pair(k, gen)
        try:
            pts = curves.intersections(a, b)
        except errors.NonGenericError:
            pts = None
        if pts is not None and all(p.transverse for p in pts):
            times = []
            for _ in range(2):
                t = time.perf_counter()
                result = wl.certify_item(a, b)
                times.append(time.perf_counter() - t)
            pool.append({"gen": gen, "intersections": len(pts),
                         "crossing": result["crossing"],
                         "farey": result["farey"],
                         "cost_ms": round(1000 * min(times), 1)})
            problems = wl.certify_problems(result, pool[-1])
            if problems:
                sys.exit(f"k={k} gen={gen}: {problems}")
        gen += 1
    return pool


def orbit_reference() -> dict:
    G, A, a = wl.orbit_maps()
    ns = [n for kind, n in wl.ORBIT_PASS if kind == "cross_check"]
    n_maxes = [n for kind, n in wl.ORBIT_PASS if kind != "cross_check"]
    cc = classifier.cross_check(G, a, ns, res=wl.IMAGE_RES)
    bounds = fine_graph.translation_length_bounds(A, a, max(n_maxes))
    images = {}
    for n in ns:
        images[f"cross_check/{n}"] = curves.image_curve(
            G, a, res=wl.IMAGE_RES, reference=a, n=n)
    for n in n_maxes:
        images[f"translation_length/{n}"] = curves.affine_image_curve(
            maps.power(A, n), a)
    return {
        "cross_check": {str(e.n): e.to_json_dict() for e in cc.entries},
        "translation_length": {
            str(e.n): [e.upper_numerator, e.lower_numerator]
            for e in bounds.entries},
        "images": {
            label: {"image_vertices": len(img.verts),
                    "intersections": curves.intersection_count(a, img)}
            for label, img in images.items()},
    }


def main() -> None:
    ref = {"curve_pairs": {str(k): curve_pool(k) for k in wl.VERTEX_COUNTS},
           "orbit": orbit_reference()}
    with open(wl.REFERENCE_FILE, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
