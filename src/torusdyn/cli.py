"""Command line front end.

Subcommands: rotset, classify, crossing, distance, verify-certificate,
gallery.  Each command writes a single primary JSON artifact (rotset
additionally writes the hull CSV and an optional SVG plot) into the
output directory, echoes its configuration into every artifact and is
byte-deterministic across runs with identical arguments.

Exit codes: 0 success, 2 input error, 3 inapplicable route or
unsupported map, 4 non-generic geometry, resolution failure or invalid
certificate, 5 divergence.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import __version__
from .classifier import ClassifyParams, classify
from .curves import CurvePair, parse_curve
from .errors import InputError, NonGenericError, TorusDynError
from .fine_graph import (
    farey_lower_bound,
    upper_bound_by_intersection,
    verify_certificate,
)
from .gallery import build_map, gallery_names
from .maps import map_from_json
from .rotation import (
    ShapeThresholds,
    convergence_diagnostics,
    mz_estimate,
)

SVG_SIZE = 800


def _dump_json(path: str, obj: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(obj, sort_keys=True, indent=2))
        fh.write("\n")


def _artifact(config: dict, payload: dict) -> dict:
    out = {"tool": "torusdyn", "version": __version__, "config": config}
    out.update(payload)
    return out


def _read_text(path, what) -> str:
    """The text of an input file; a file that cannot be read or is not
    UTF-8 is an input error naming what it should hold."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {what}: {exc}") from None


def _read_json(path, what):
    """Parse a JSON input file; malformed JSON is an input error naming
    what the file should hold."""
    text = _read_text(path, what)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"malformed {what} JSON at line {exc.lineno} column "
            f"{exc.colno}: {exc.msg}")


def _read_curves(args):
    """The curves of --curve-a and --curve-b."""
    return tuple(parse_curve(_read_text(path, "curve file"))
                 for path in (args.curve_a, args.curve_b))


def _parse_gallery_params(items) -> dict:
    params = {}
    for item in items or []:
        if "=" not in item:
            raise InputError(f"gallery parameter {item!r} is not key=value")
        key, _, val = item.partition("=")
        try:
            num = float(val)
        except ValueError:
            params[key] = val
            continue
        if not math.isfinite(num):
            raise InputError(f"gallery parameter {item!r} is not finite")
        params[key] = int(num) if num == int(num) else num
    return params


def _load_map(args):
    """Resolve --gallery / --map into a LiftedMap plus a config echo."""
    if getattr(args, "gallery", None):
        params = _parse_gallery_params(getattr(args, "param", None))
        entry = build_map(args.gallery, **params)
        return entry.map, {"gallery": args.gallery, "params": params}
    if getattr(args, "map", None):
        spec = _read_json(args.map, "map spec")
        return map_from_json(spec), {"map": args.map, "spec": spec}
    raise InputError("either --gallery or --map is required")


def _load_thresholds(path) -> ShapeThresholds:
    if path is None:
        return ShapeThresholds()
    data = _read_json(path, "thresholds")
    try:
        return ShapeThresholds(**data)
    except TypeError as exc:
        raise InputError(f"bad thresholds fields: {exc}")


def _hull_csv(path: str, hull) -> None:
    lines = ["x,y"]
    for x, y in hull.vertices:
        lines.append(f"{x!r},{y!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_svg(path: str, hull, cloud=None) -> None:
    """Fixed 800x800 viewport: unit gridlines, hull polygon, optional
    displacement cloud.  Identical output modulo the version comment."""
    xs = [v[0] for v in hull.vertices] + [0.0, 1.0]
    ys = [v[1] for v in hull.vertices] + [0.0, 1.0]
    if cloud is not None and len(cloud):
        xs += [float(p[0]) for p in cloud]
        ys += [float(p[1]) for p in cloud]
    lo_x, hi_x = min(xs), max(xs)
    lo_y, hi_y = min(ys), max(ys)
    span = max(hi_x - lo_x, hi_y - lo_y, 1e-9)
    pad = 0.08 * span
    lo_x, lo_y = lo_x - pad, lo_y - pad
    span = span + 2 * pad

    def px(x):
        return (x - lo_x) / span * SVG_SIZE

    def py(y):
        return SVG_SIZE - (y - lo_y) / span * SVG_SIZE

    parts = [
        f"<!-- torusdyn {__version__} -->",
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_SIZE}" '
        f'height="{SVG_SIZE}" viewBox="0 0 {SVG_SIZE} {SVG_SIZE}">',
        f'<rect width="{SVG_SIZE}" height="{SVG_SIZE}" fill="white"/>',
    ]
    g0 = int(math.floor(lo_x))
    g1 = int(math.ceil(lo_x + span))
    for g in range(g0, g1 + 1):
        major = "#888888" if g in (0, 1) else "#dddddd"
        if lo_x <= g <= lo_x + span:
            parts.append(
                f'<line x1="{px(g):.2f}" y1="0" x2="{px(g):.2f}" '
                f'y2="{SVG_SIZE}" stroke="{major}" stroke-width="1"/>')
        if lo_y <= g <= lo_y + span:
            parts.append(
                f'<line x1="0" y1="{py(g):.2f}" x2="{SVG_SIZE}" '
                f'y2="{py(g):.2f}" stroke="{major}" stroke-width="1"/>')
    if cloud is not None:
        for p in cloud:
            parts.append(
                f'<circle cx="{px(float(p[0])):.2f}" '
                f'cy="{py(float(p[1])):.2f}" r="1.5" fill="#1f77b4" '
                f'fill-opacity="0.5"/>')
    pts = " ".join(
        f"{px(x):.2f},{py(y):.2f}" for x, y in hull.vertices)
    if len(hull.vertices) >= 3:
        parts.append(
            f'<polygon points="{pts}" fill="#ff7f0e" fill-opacity="0.3" '
            f'stroke="#d62728" stroke-width="2"/>')
    elif len(hull.vertices) == 2:
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="#d62728" '
            f'stroke-width="2"/>')
    else:
        x, y = hull.vertices[0]
        parts.append(
            f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="4" '
            f'fill="#d62728"/>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")


def _outdir(args) -> str:
    out = getattr(args, "out", None) or "."
    os.makedirs(out, exist_ok=True)
    return out


def cmd_rotset(args) -> int:
    if args.cloud and not args.svg:
        raise InputError("--cloud draws into the SVG; it needs --svg")
    if args.n < 1:
        # before the diagnostics iterate anything
        raise InputError("estimation time n must be a positive integer")
    F, map_echo = _load_map(args)
    thresholds = _load_thresholds(args.thresholds)
    config = {
        **map_echo,
        "n": args.n,
        "grid": args.grid,
        "thresholds": thresholds.to_json_dict(),
        "svg": bool(args.svg),
        "cloud": bool(args.cloud),
    }
    payload = {}
    if args.schedule:
        try:
            schedule = [int(s) for s in args.schedule.split(",")]
        except ValueError:
            raise InputError(
                f"--schedule {args.schedule!r} is not a list of integers")
        config["schedule"] = schedule
        diags = convergence_diagnostics(F, schedule, args.grid)
        payload["diagnostics"] = [d.to_json_dict() for d in diags]
    est = mz_estimate(F, args.n, args.grid, thresholds=thresholds)
    payload["estimate"] = est.to_json_dict()
    out = _outdir(args)
    _hull_csv(os.path.join(out, "hull.csv"), est.hull)
    _dump_json(os.path.join(out, "rotset.json"),
               _artifact(config, payload))
    if args.svg:
        _write_svg(os.path.join(out, "rotset.svg"), est.hull,
                   est.cloud if args.cloud else None)
    print(est.shape.kind)
    return 0


def cmd_classify(args) -> int:
    F, map_echo = _load_map(args)
    thresholds = _load_thresholds(args.thresholds)
    params = ClassifyParams(
        n=args.n, grid=args.grid, samples=args.samples,
        thresholds=thresholds)
    config = {**map_echo, "params": params.to_json_dict()}
    report = classify(F, params)
    out = _outdir(args)
    _dump_json(os.path.join(out, "classify.json"),
               _artifact(config, {"report": report.to_json_dict()}))
    print(report.verdict)
    return 0


def cmd_crossing(args) -> int:
    a, b = _read_curves(args)
    config = {"curve_a": args.curve_a, "curve_b": args.curve_b}
    pair = CurvePair(a, b)
    cn = pair.crossing_number()
    ic = pair.intersection_count()
    out = _outdir(args)
    _dump_json(
        os.path.join(out, "crossing.json"),
        _artifact(config, {
            "crossing_number": cn,
            "intersection_count": ic,
            "class_a": list(a.w),
            "class_b": list(b.w),
        }))
    print(cn)
    return 0


def cmd_distance(args) -> int:
    a, b = _read_curves(args)
    config = {"curve_a": args.curve_a, "curve_b": args.curve_b}
    lower = farey_lower_bound(a, b)
    path = upper_bound_by_intersection(a, b)
    if not path.verify():
        raise NonGenericError(
            "internal error: surgery path failed validation")
    out = _outdir(args)
    cert = path.to_json_dict()
    _dump_json(os.path.join(out, "certificate.json"), cert)
    _dump_json(
        os.path.join(out, "distance.json"),
        _artifact(config, {
            "lower": lower,
            "upper": path.length,
            "intersection_count": path.intersection_count,
            "certificate_file": "certificate.json",
        }))
    print(f"lower {lower} upper {path.length}")
    return 0


def cmd_verify_certificate(args) -> int:
    cert = _read_json(args.certificate, "certificate")
    report = verify_certificate(cert)
    out = _outdir(args)
    _dump_json(os.path.join(out, "verify.json"),
               _artifact({"certificate": args.certificate}, report))
    if report["valid"]:
        print("pass")
        return 0
    failed = report.get("failed_step")
    if failed is not None:
        print(f"fail at step {failed}")
    else:
        print("fail")
    return 4


def cmd_gallery(args) -> int:
    out = _outdir(args)
    if args.name is None:
        catalog = []
        for name in gallery_names():
            entry = build_map(name)
            catalog.append({
                "name": name,
                "description": entry.description,
                "expected": entry.expected,
            })
        _dump_json(os.path.join(out, "gallery.json"),
                   _artifact({}, {"catalog": catalog}))
        for row in catalog:
            print(row["name"])
        return 0
    params = _parse_gallery_params(args.param)
    entry = build_map(args.name, **params)
    spec = entry.map.to_json()
    _dump_json(
        os.path.join(out, f"{args.name}.map.json"), spec)
    print(f"{args.name}.map.json")
    return 0


def _add_map_args(p):
    p.add_argument("--gallery", help="gallery map name")
    p.add_argument("--map", help="map spec JSON file")
    p.add_argument("--param", action="append", metavar="KEY=VALUE",
                   help="gallery map parameter (repeatable)")


def _add_common(p):
    p.add_argument("--out", help="output directory (default .)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="torusdyn",
        description="rotation sets, fine curve graph distances and "
                    "isometry type classification on the torus")
    ap.add_argument("--version", action="version",
                    version=f"torusdyn {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rotset", help="rotation set estimate")
    _add_map_args(p)
    p.add_argument("-n", "--n", type=int, default=500)
    p.add_argument("--grid", type=int, default=64)
    p.add_argument("--schedule", help="comma separated increasing n list")
    p.add_argument("--thresholds", help="shape thresholds JSON file")
    p.add_argument("--svg", action="store_true", help="write rotset.svg")
    p.add_argument("--cloud", action="store_true",
                   help="include the displacement cloud in the SVG "
                        "(needs --svg)")
    _add_common(p)
    p.set_defaults(func=cmd_rotset)

    p = sub.add_parser("classify", help="isometry type classification")
    _add_map_args(p)
    p.add_argument("-n", "--n", type=int, default=ClassifyParams.n)
    p.add_argument("--grid", type=int, default=ClassifyParams.grid)
    p.add_argument("--samples", type=int, default=ClassifyParams.samples)
    p.add_argument("--thresholds", help="shape thresholds JSON file")
    _add_common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("crossing", help="crossing number of two curves")
    p.add_argument("--curve-a", required=True)
    p.add_argument("--curve-b", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_crossing)

    p = sub.add_parser("distance",
                       help="fine graph distance bounds + certificate")
    p.add_argument("--curve-a", required=True)
    p.add_argument("--curve-b", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("verify-certificate",
                       help="re-validate a certificate file")
    p.add_argument("certificate")
    _add_common(p)
    p.set_defaults(func=cmd_verify_certificate)

    p = sub.add_parser("gallery", help="list maps or emit a map spec")
    p.add_argument("name", nargs="?", help="map to emit (omit to list)")
    p.add_argument("--param", action="append", metavar="KEY=VALUE")
    _add_common(p)
    p.set_defaults(func=cmd_gallery)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except TorusDynError as exc:
        sys.stderr.write(json.dumps(
            {"error": type(exc).__name__, "message": str(exc)},
            sort_keys=True) + "\n")
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
