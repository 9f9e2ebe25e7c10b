"""Spans around the package's public functions, for the traced run.

`Tracer.install` wraps each function in TRACED in every torusdyn module
namespace that binds it, so calls between modules go through the
wrappers too; `Tracer.uninstall` puts the originals back.  A span is
[name, start_ns, end_ns, parent span index or -1, item label, item
number]; spans stay in memory until `write`, one JSON list per line.
The untraced run never creates a Tracer.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter

TRACED = {
    "maps": ("iterate_points", "evaluate_points"),
    "rotation": ("mz_estimate", "convex_hull", "classify_shape",
                 "twist_rotation_interval"),
    "curves": ("is_simple", "intersections", "crossing_number",
               "image_curve"),
    "fine_graph": ("adjacent", "surgery_step", "upper_bound_by_intersection",
                   "verify_certificate", "farey_distance",
                   "annulus_trap_certificate", "translation_length_bounds"),
    "classifier": ("classify", "cross_check"),
    "cli": ("main",),
}
SPAN_NAMES = tuple(f"{m}.{f}" for m, fs in TRACED.items() for f in fs)

# (enclosing span, span) -> counter of spans opened anywhere inside an
# open enclosing span
NESTED_COUNTS = {
    ("curves.image_curve", "curves.is_simple"): "image_simple_checks",
    ("curves.image_curve", "curves.intersections"): "image_transverse_checks",
    ("fine_graph.surgery_step", "curves.intersections"): "surgery_isect_calls",
}


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _count_points_steps(c, args, kwargs, result, steps=None):
    n = _arg(args, kwargs, 2, "n") if steps is None else steps
    c["maps.point_steps"] += len(_arg(args, kwargs, 1, "points")) * int(n)


def _count_intersections(c, args, kwargs, result):
    a, b = _arg(args, kwargs, 0, "a"), _arg(args, kwargs, 1, "b")
    c["curves.intersections.segment_pairs"] += len(a.verts) * len(b.verts)
    c["curves.intersections.points"] += len(result)


def _count_hull_points(c, args, kwargs, result):
    c["rotation.convex_hull.points"] += len(_arg(args, kwargs, 0, "points"))


def _count_annulus_hits(c, args, kwargs, result):
    c["annulus_hits"] += result is not None


# span name -> f(counts, args, kwargs, result), called after each call
COUNTERS = {
    "maps.iterate_points": _count_points_steps,
    "maps.evaluate_points": functools.partial(_count_points_steps, steps=1),
    "rotation.convex_hull": _count_hull_points,
    "curves.intersections": _count_intersections,
    "fine_graph.annulus_trap_certificate": _count_annulus_hits,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.item = None  # label of the item being run
        self.item_number = None
        self.calls = Counter()
        self.busy_ns = Counter()  # outermost spans of each name only
        self.self_ns = Counter()
        self.counts = Counter()
        self.item_calls = Counter()  # (span name, item label) -> calls
        self.item_busy_ns = Counter()  # (span name, item label) -> busy ns
        self._stack = []  # [span index, ns covered by wrapped children]
        self._open = Counter()
        self._undo = []

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)
        nested = [(outer, key) for (outer, inner), key in NESTED_COUNTS.items()
                  if inner == name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for outer, key in nested:
                if self._open[outer]:
                    self.counts[key] += 1
            parent = self._stack[-1][0] if self._stack else -1
            index = len(self.spans)
            self.spans.append([name, time.perf_counter_ns(), None, parent,
                               self.item, self.item_number])
            self._stack.append([index, 0])
            self._open[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                _, child_ns = self._stack.pop()
                self._open[name] -= 1
                span = self.spans[index]
                span[2] = end
                dur = end - span[1]
                self.calls[name] += 1
                self.item_calls[name, self.item] += 1
                self.self_ns[name] += dur - child_ns
                if not self._open[name]:
                    self.busy_ns[name] += dur
                    self.item_busy_ns[name, self.item] += dur
                if self._stack:
                    self._stack[-1][1] += dur
            if counter is not None:
                counter(self.counts, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "torusdyn" or n.startswith("torusdyn."))
                   and m is not None]
        for mod_name, funcs in TRACED.items():
            module = importlib.import_module(f"torusdyn.{mod_name}")
            for func in funcs:
                original = getattr(module, func)
                wrapper = self._wrap(f"{mod_name}.{func}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)
                            self._undo.append((m, attr, original))

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._undo):
            setattr(m, attr, original)
        self._undo.clear()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def per_item(self, item_counts) -> dict:
        """{span name: {item label: [calls, busy s], each per item}}, busy
        from the outermost spans only; item_counts gives how many items
        carried each label."""
        out = {}
        for (name, label), calls in sorted(self.item_calls.items()):
            out.setdefault(name, {})[label] = [
                calls / item_counts[label],
                self.item_busy_ns[name, label] * 1e-9 / item_counts[label]]
        return out

    def layer_metrics(self, map_names) -> dict:
        """Per-layer metrics as {name: (value, unit)}."""
        s = 1e-9
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.busy_s"] = (self.busy_ns[name] * s, "s")
            out[f"{name}.self_s"] = (self.self_ns[name] * s, "s")
        c = self.counts
        maps_s = (self.busy_ns["maps.iterate_points"]
                  + self.busy_ns["maps.evaluate_points"]) * s
        images = self.calls["curves.image_curve"]
        steps = self.calls["fine_graph.surgery_step"]
        probes = self.calls["fine_graph.annulus_trap_certificate"]
        out.update({
            "maps.point_steps": (c["maps.point_steps"], "count"),
            "maps.point_steps_per_s": (_ratio(c["maps.point_steps"], maps_s),
                                       "1/s"),
            "rotation.convex_hull.points": (
                c["rotation.convex_hull.points"], "count"),
            "curves.intersections.segment_pairs": (
                c["curves.intersections.segment_pairs"], "count"),
            "curves.intersections.points": (
                c["curves.intersections.points"], "count"),
            "curves.image_curve.simple_checks_per_image": (
                _ratio(c["image_simple_checks"], images), "1"),
            "curves.image_curve.transverse_checks_per_image": (
                _ratio(c["image_transverse_checks"], images), "1"),
            "fine_graph.surgery_step.isect_calls_per_step": (
                _ratio(c["surgery_isect_calls"], steps), "1"),
            "fine_graph.annulus_trap_certificate.hit_ratio": (
                _ratio(c["annulus_hits"], probes), "1"),
        })
        for m in map_names:
            out[f"classifier.classify.{m}.busy_s"] = (
                self.item_busy_ns["classifier.classify", m] * s, "s")
        return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0
