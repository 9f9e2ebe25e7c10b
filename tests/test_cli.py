"""End to end tests of the command line interface, run in process."""

import json
import os
import sys

import pytest

from torusdyn import maps
from torusdyn.cli import main
from torusdyn.curves import straight_curve, write_curve
from torusdyn.fine_graph import CertifiedPath
from torusdyn.gallery import build_map


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def curve_file(tmp_path, name, w, base=(0, 0)):
    path = str(tmp_path / name)
    write_curve(path, straight_curve(w, base))
    return path


def test_rotset_translation(tmp_path, capsys):
    out = str(tmp_path / "o")
    code, stdout, _ = run(
        capsys, "rotset", "--gallery", "translation", "-n", "100",
        "--grid", "16", "--svg", "--cloud", "--out", out)
    assert code == 0
    assert stdout.strip() == "point"
    data = read_json(os.path.join(out, "rotset.json"))
    assert data["config"]["n"] == 100
    hull = data["estimate"]["hull"]["vertices"]
    assert len(hull) == 1
    assert hull[0][0] == pytest.approx(0.3, abs=1e-6)
    assert hull[0][1] == pytest.approx(0.7, abs=1e-6)
    with open(os.path.join(out, "hull.csv"), "r", encoding="utf-8") as fh:
        lines = fh.read().strip().splitlines()
    assert lines[0] == "x,y"
    assert len(lines) == 2
    svg = read_bytes(os.path.join(out, "rotset.svg"))
    assert svg.startswith(b"<!-- torusdyn ")


def test_rotset_cloud_needs_svg(tmp_path, capsys):
    out = tmp_path / "o"
    code, _, stderr = run(
        capsys, "rotset", "--gallery", "translation", "-n", "10",
        "--grid", "4", "--cloud", "--out", str(out))
    assert code == 2
    err = json.loads(stderr)
    assert err["error"] == "InputError"
    assert "--svg" in err["message"]
    assert not out.exists()


def test_rotset_determinism(tmp_path, capsys):
    outs = []
    for sub in ("a", "b"):
        out = str(tmp_path / sub)
        code, _, _ = run(
            capsys, "rotset", "--gallery", "mz_interior", "-n", "30",
            "--grid", "8", "--svg", "--out", out)
        assert code == 0
        outs.append(out)
    for name in ("rotset.json", "hull.csv", "rotset.svg"):
        assert (read_bytes(os.path.join(outs[0], name))
                == read_bytes(os.path.join(outs[1], name)))


def test_classify_command(tmp_path, capsys):
    out = str(tmp_path / "o")
    code, stdout, _ = run(
        capsys, "classify", "--gallery", "anosov", "-n", "50",
        "--grid", "8", "--out", out)
    assert code == 0
    assert stdout.strip() == "Hyperbolic"
    data = read_json(os.path.join(out, "classify.json"))
    report = data["report"]
    assert report["verdict"] == "Hyperbolic"
    assert report["route"] == "AnosovTrace"


def test_crossing_command(tmp_path, capsys):
    fa = curve_file(tmp_path, "a.json", (1, 0))
    fb = curve_file(tmp_path, "b.json", (1, 3), base=(0, "1/7"))
    out = str(tmp_path / "o")
    code, stdout, _ = run(
        capsys, "crossing", "--curve-a", fa, "--curve-b", fb,
        "--out", out)
    assert code == 0
    assert stdout.strip() == "3"
    data = read_json(os.path.join(out, "crossing.json"))
    assert data["crossing_number"] == 3
    assert data["class_b"] == [1, 3]


def test_distance_and_verify_round_trip(tmp_path, capsys):
    fa = curve_file(tmp_path, "a.json", (1, 0))
    fb = curve_file(tmp_path, "b.json", (1, 2), base=("1/7", "1/11"))
    out = str(tmp_path / "o")
    code, stdout, _ = run(
        capsys, "distance", "--curve-a", fa, "--curve-b", fb,
        "--out", out)
    assert code == 0
    lower, upper = stdout.split()[1], stdout.split()[3]
    assert int(lower) <= int(upper)
    cert_path = os.path.join(out, "certificate.json")
    data = read_json(os.path.join(out, "distance.json"))
    assert data["lower"] == int(lower)
    assert data["upper"] == int(upper)

    code, stdout, _ = run(
        capsys, "verify-certificate", cert_path, "--out", out)
    assert code == 0
    assert stdout.strip() == "pass"
    assert read_json(os.path.join(out, "verify.json"))["valid"]


def test_distance_path_failing_its_own_check_exits_4(
        tmp_path, capsys, monkeypatch):
    """A surgery path that fails verify() is an invalid certificate of
    the tool's own making, not an input error."""
    monkeypatch.setattr(CertifiedPath, "verify", lambda self: False)
    fa = curve_file(tmp_path, "a.json", (1, 0))
    fb = curve_file(tmp_path, "b.json", (1, 2), base=("1/7", "1/11"))
    out = str(tmp_path / "o")
    code, _, stderr = run(
        capsys, "distance", "--curve-a", fa, "--curve-b", fb,
        "--out", out)
    assert code == 4
    assert json.loads(stderr)["error"] == "NonGenericError"
    assert not os.path.exists(os.path.join(out, "certificate.json"))


def test_verify_tampered_certificate_fails(tmp_path, capsys):
    fa = curve_file(tmp_path, "a.json", (0, 1), base=("1/3", 0))
    fb = curve_file(tmp_path, "b.json", (2, 1), base=("1/7", "1/11"))
    out = str(tmp_path / "o")
    code, _, _ = run(
        capsys, "distance", "--curve-a", fa, "--curve-b", fb,
        "--out", out)
    assert code == 0
    cert_path = os.path.join(out, "certificate.json")
    cert = read_json(cert_path)
    cert["curves"][1]["verts"][0][1] = "1/16"
    with open(cert_path, "w", encoding="utf-8") as fh:
        json.dump(cert, fh)
    code, stdout, _ = run(
        capsys, "verify-certificate", cert_path, "--out", out)
    assert code == 4
    assert stdout.startswith("fail at step")


@pytest.mark.parametrize("field, claim", [
    ("intersection_count", 1000), ("length", 2)])
def test_verify_recounts_the_claimed_figures(tmp_path, capsys, field, claim):
    """The honest certificate claims i = 2 and length 3; the budget is
    2i + 2 for the i recounted from the path's ends, not the claim."""
    fa = curve_file(tmp_path, "a.json", (1, 0))
    fb = curve_file(tmp_path, "b.json", (1, 2), base=("1/7", "1/11"))
    out = str(tmp_path / "o")
    assert run(capsys, "distance", "--curve-a", fa, "--curve-b", fb,
               "--out", out)[0] == 0
    cert_path = os.path.join(out, "certificate.json")
    cert = read_json(cert_path)
    assert (cert["intersection_count"], cert["length"]) == (2, 3)
    cert[field] = claim
    with open(cert_path, "w", encoding="utf-8") as fh:
        json.dump(cert, fh)
    code, stdout, _ = run(
        capsys, "verify-certificate", cert_path, "--out", out)
    assert code == 4
    assert stdout.strip() == "fail"
    report = read_json(os.path.join(out, "verify.json"))
    assert (report["valid"], report["budget"], report["length"]) == (
        False, 6, 3)


HORIZONTAL = {"class": [1, 0], "verts": [["0", "1/2"]]}


def test_one_curve_path_is_invalid(tmp_path, capsys):
    """Its ends overlap, so no surgery budget applies."""
    path = tmp_path / "cert.json"
    path.write_text(json.dumps({"type": "fine_path", "length": 0,
                                "intersection_count": 0,
                                "curves": [HORIZONTAL]}))
    out = tmp_path / "o"
    code, stdout, _ = run(capsys, "verify-certificate", str(path),
                          "--out", str(out))
    assert code == 4 and stdout.strip() == "fail"
    assert read_json(out / "verify.json")["budget"] is None


ANNULUS = {"type": "annulus_trap", "lo": "1/4", "hi": "3/4", "power": 1,
           "samples": 16, "map": build_map("annulus_attractor").map.to_json()}


@pytest.mark.parametrize("cert, field", [
    ({"type": "fine_path", "intersection_count": 0,
      "curves": [{"class": [1, 0], "verts": [["nan", "0"]]}]}, "curves"),
    ({"type": "fine_path", "intersection_count": 0,
      "curves": [{"class": [1, 0], "verts": [["1/0", "0"]]}]}, "curves"),
    ({"type": "fine_path", "intersection_count": 0}, "curves"),
    ({"type": "fine_path", "intersection_count": "x",
      "curves": [HORIZONTAL]}, "intersection_count"),
    ({"type": "annulus_trap", "lo": "1/4", "hi": "3/4", "power": 1,
      "samples": 16}, "map"),
    (dict(ANNULUS, samples=0), "samples"),
    (dict(ANNULUS, samples=-3), "samples"),
    (dict(ANNULUS, power=0), "power"),
], ids=["nan_vertex", "zero_denominator", "missing_curves",
        "bad_intersection_count", "annulus_without_map", "zero_samples",
        "negative_samples", "zero_power"])
def test_malformed_certificate_is_an_input_error(tmp_path, capsys, cert,
                                                 field):
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(cert))
    code, _, stderr = run(capsys, "verify-certificate", str(path),
                          "--out", str(tmp_path / "o"))
    assert code == 2
    err = json.loads(stderr)
    assert err["error"] == "InputError"
    assert repr(field) in err["message"]


@pytest.mark.parametrize("kind, field, claim", [
    ("fine_path", "length", 1.5),
    ("fine_path", "intersection_count", 1.9),
    ("fine_path", "length", True),
    ("annulus_trap", "power", 1.5),
    ("annulus_trap", "samples", 512.9),
    ("annulus_trap", "power", True),
], ids=["length_1.5", "intersection_count_1.9", "length_true", "power_1.5",
        "samples_512.9", "power_true"])
def test_a_count_that_int_would_truncate_is_malformed(tmp_path, capsys,
                                                      kind, field, claim):
    """Each claim truncates to the honest count of a valid certificate,
    so a verifier that parsed counts with int would accept it."""
    out = str(tmp_path / "o")
    if kind == "fine_path":
        fa = curve_file(tmp_path, "a.json", (1, 0))
        fb = curve_file(tmp_path, "b.json", (0, 1), base=("1/7", "1/11"))
        assert run(capsys, "distance", "--curve-a", fa, "--curve-b", fb,
                   "--out", out)[0] == 0
        cert = read_json(os.path.join(out, "certificate.json"))
    else:
        cert = dict(ANNULUS, samples=512)
    assert cert[field] == int(claim)
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(cert))
    assert run(capsys, "verify-certificate", str(path), "--out", out)[0] == 0
    path.write_text(json.dumps(dict(cert, **{field: claim})))
    code, _, stderr = run(capsys, "verify-certificate", str(path),
                          "--out", out)
    assert code == 2
    err = json.loads(stderr)
    assert err["error"] == "InputError"
    assert repr(field) in err["message"]


@pytest.mark.parametrize("argv, name", [
    (("rotset", "--gallery", "translation", "--schedule", "10,x"),
     "--schedule"),
    (("rotset", "--gallery", "translation", "--param", "vx=inf"), "vx=inf"),
    (("classify", "--gallery", "denjoy_parabolic", "--param", "k_max=abc"),
     "k_max='abc'"),
    (("classify", "--gallery", "denjoy_parabolic", "--param",
      "k_max=1000000000"), "k_max"),
    (("gallery", "anosov", "--param", "a=x"), "a='x'"),
    (("rotset", "--gallery", "translation", "--thresholds",
      "thresholds.json"), "'eps_point'"),
], ids=["schedule_not_integers", "infinite_param", "builder_rejects_param",
        "denjoy_k_max_too_large", "gallery_param_not_integer",
        "threshold_not_a_number"])
def test_malformed_argument_is_an_input_error(tmp_path, capsys, monkeypatch,
                                              argv, name):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "thresholds.json").write_text('{"eps_point": "x"}')
    if argv[0] == "rotset":
        argv += ("-n", "10", "--grid", "4")
    code, _, stderr = run(capsys, *argv, "--out", "o")
    assert code == 2
    err = json.loads(stderr)
    assert err["error"] == "InputError"
    assert name in err["message"]


def count_orbit_work(monkeypatch) -> list:
    """The list that every iterate_points call of the package appends
    its arguments to."""
    real = maps.iterate_points
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for mod in list(sys.modules.values()):
        if (getattr(mod, "__name__", "").startswith("torusdyn")
                and getattr(mod, "iterate_points", None) is real):
            monkeypatch.setattr(mod, "iterate_points", counted)
    return calls


def test_bad_schedule_fails_before_any_orbit_work(tmp_path, capsys,
                                                  monkeypatch):
    calls = count_orbit_work(monkeypatch)
    code, _, stderr = run(
        capsys, "rotset", "--gallery", "mz_interior", "-n", "2000",
        "--grid", "64", "--schedule", "10,5", "--out", str(tmp_path / "o"))
    assert code == 2
    assert "strictly increasing" in json.loads(stderr)["message"]
    assert calls == []


def test_bad_n_fails_before_the_diagnostics(tmp_path, capsys, monkeypatch):
    calls = count_orbit_work(monkeypatch)
    code, _, stderr = run(
        capsys, "rotset", "--gallery", "mz_interior", "-n", "0",
        "--schedule", "10,50", "--out", str(tmp_path / "o"))
    assert code == 2
    err = json.loads(stderr)
    assert err["error"] == "InputError"
    assert err["message"] == "estimation time n must be a positive integer"
    assert calls == []


def test_malformed_input_reports_position(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"w": [1, 0],\n  "verts": [[0, 0]')
    out = str(tmp_path / "o")
    code, _, stderr = run(
        capsys, "crossing", "--curve-a", str(bad),
        "--curve-b", str(bad), "--out", out)
    assert code == 2
    err = json.loads(stderr)
    assert err["error"] == "InputError"
    assert "line" in err["message"]


def test_missing_map_is_an_input_error(tmp_path, capsys):
    out = str(tmp_path / "o")
    code, _, stderr = run(
        capsys, "classify", "--gallery", "no_such_map", "--out", out)
    assert code == 2
    assert json.loads(stderr)["error"] == "InputError"


def test_gallery_list_and_build(tmp_path, capsys):
    out = str(tmp_path / "o")
    code, stdout, _ = run(capsys, "gallery", "--out", out)
    assert code == 0
    names = stdout.split()
    assert "anosov" in names and "translation" in names
    catalog = read_json(os.path.join(out, "gallery.json"))
    assert len(catalog["catalog"]) == len(names)

    code, stdout, _ = run(
        capsys, "gallery", "translation", "--param", "vx=0.25",
        "--out", out)
    assert code == 0
    spec = read_json(os.path.join(out, "translation.map.json"))
    flat = json.dumps(spec)
    assert "0.25" in flat


def map_file(tmp_path, primitive):
    path = tmp_path / "map.json"
    path.write_text(json.dumps(
        {"primitives": [primitive], "deck_offset": [0, 0]}))
    return str(path)


@pytest.mark.parametrize("command, source, code, error", [
    ("rotset", ("--gallery", "anosov"), 3, "InapplicableError"),
    ("classify", {"type": "linear", "matrix": [[0, 1], [1, 0]]}, 3,
     "UnsupportedMapError"),
    ("rotset", {"type": "translation", "v": [1e14, 0]}, 5,
     "DivergenceError"),
], ids=["inapplicable", "unsupported_map", "divergence"])
def test_error_exit_codes(tmp_path, capsys, command, source, code, error):
    if isinstance(source, dict):
        source = ("--map", map_file(tmp_path, source))
    out = str(tmp_path / "o")
    got, _, stderr = run(
        capsys, command, *source, "-n", "100", "--grid", "8",
        "--out", out)
    assert got == code
    assert json.loads(stderr)["error"] == error


@pytest.mark.parametrize("spec, names", [
    ({"primitives": [{"type": "shear_x"}]}, ("primitive 0", "'profile'")),
    ({"primitives": [{"type": "shear_x", "profile": {"kind": "sin2"},
                      "strength": "abc"}]}, ("primitive 0", "'strength'")),
    ({"primitives": [{"type": "translation", "v": [0.5, 0]},
                     {"type": "linear"}]}, ("primitive 1", "'matrix'")),
    ({"primitives": [{"type": "custom", "name": "denjoy_flow",
                      "params": {"speed": 2}}]}, ("primitive 0", "'params'")),
    ([{"type": "translation", "v": [0.5, 0]}], ("map spec",)),
], ids=["missing_profile", "strength_not_a_number", "missing_matrix",
        "unknown_custom_parameter", "top_level_list"])
def test_malformed_map_spec_is_an_input_error(tmp_path, capsys, spec, names):
    path = tmp_path / "map.json"
    path.write_text(json.dumps(spec))
    out = str(tmp_path / "o")
    code, _, stderr = run(capsys, "classify", "--map", str(path),
                          "--out", out)
    assert code == 2
    err = json.loads(stderr)
    assert err["error"] == "InputError"
    for name in names:
        assert name in err["message"]


# the command line reading each kind of JSON input, without the file
READERS = {
    "map spec": ("classify", "--map"),
    "thresholds": ("rotset", "--gallery", "translation", "-n", "10",
                   "--grid", "4", "--thresholds"),
    "certificate": ("verify-certificate",),
}


@pytest.mark.parametrize("kind", ["map spec", "thresholds", "certificate"])
@pytest.mark.parametrize("broken", ["missing", "malformed"])
def test_json_inputs_unreadable_or_malformed(tmp_path, capsys, kind, broken):
    path = tmp_path / "input.json"
    if broken == "malformed":
        path.write_text('{"a": 1,\n  "b": [')
        prefix = f"malformed {kind} JSON at line 2 column "
    else:
        prefix = f"cannot read {kind}: "
    out = str(tmp_path / "o")
    code, _, stderr = run(
        capsys, *READERS[kind], str(path), "--out", out)
    assert code == 2
    err = json.loads(stderr)
    assert err["error"] == "InputError"
    assert err["message"].startswith(prefix)
