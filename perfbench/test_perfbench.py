"""Smoke test of the benchmark itself, at tiny sizes.

    PYTHONPATH=src python3 -m pytest perfbench/test_perfbench.py

It checks that every metric BENCHMARK.json names is emitted with its
unit, and that the correctness gate trips on a tampered certificate and
on a wrong reference count.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
import workloads as wl  # noqa: E402
from torusdyn import fine_graph  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)
REF = wl.load_reference()


def units(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def tiny_jobs(tmp_path):
    gallery = wl.GalleryClassify(3, 1, str(tmp_path))
    gallery.items = ["anosov", "translation"]
    certify = wl.CurveCertify(3, 1, REF)
    orbit = wl.OrbitGrowth(3, 1, REF)
    orbit.items = [("cross_check", 10), ("translation_length", 14)]
    return {"gallery-classify": gallery, "curve-certify": certify,
            "orbit-growth": orbit}


def emitted(out):
    return {k: v["unit"] for k, v in out["metrics"].items()}


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(tmp_path, monkeypatch, trace):
    monkeypatch.chdir(tmp_path)
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    want = units("per_layer") if trace else units("end_to_end")
    want.pop("setup_s", None)  # added by the orchestrating process
    for name, job in tiny_jobs(tmp_path).items():
        out = run.run_job(job, name, 3, 1, trace)
        assert out["correct"], out["record"]["problems"]
        assert out["attempted"] == len(job.items) and out["failed"] == 0
        assert emitted(out) == want
        assert all(isinstance(v["value"], (int, float))
                   for v in out["metrics"].values())


def test_command_prints_the_result_line():
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         "curve-certify", "--seed", "5", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170)
    assert proc.returncode == 0
    record, result = [json.loads(x) for x in proc.stdout.splitlines()[-2:]]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert emitted(result) == units("end_to_end")
    env = record["record"]["environment"]
    assert set(env) >= {"backend", "python", "numpy", "nproc", "seed"}
    assert len(record["record"]["setup_samples"]) == run.SETUP_SAMPLES


def test_command_refuses_a_directory_without_sources(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         "curve-certify", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def tampered(cert_text):
    """Put a curve of class (5, 7) into the path; it meets every class
    with entries of size at most 2 at least twice, so the edges beside
    it are not edges of the fine curve graph."""
    cert = json.loads(cert_text)
    cert["curves"][1] = {"class": [5, 7], "verts": [["0", "0"]]}
    return json.dumps(cert)


def test_gate_trips_on_a_tampered_certificate(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    job = wl.CurveCertify(4, 1, REF)
    honest = job.run

    def run_tampered(item):
        result = honest(item)
        result["certificate"] = tampered(result["certificate"])
        result["verify"] = fine_graph.verify_certificate(
            json.loads(result["certificate"]))
        return result

    job.run = run_tampered
    out = run.run_job(job, "curve-certify", 4, 1, 0)
    assert not out["correct"]
    assert out["failed"] == len(job.items)
    assert "does not verify" in " ".join(out["record"]["problems"])


def test_gate_trips_on_a_wrong_reference_count(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    job = wl.CurveCertify(4, 1, REF)
    k, entry, pair = job.items[0]
    job.items[0] = (k, dict(entry, crossing=entry["crossing"] + 1), pair)
    out = run.run_job(job, "curve-certify", 4, 1, 0)
    assert not out["correct"] and out["failed"] == 1
    orbit = wl.OrbitGrowth(4, 1, REF)
    orbit.items = [("translation_length", 14)]
    orbit.ref = json.loads(json.dumps(orbit.ref))
    orbit.ref["translation_length"]["2"][1] += 1
    out = run.run_job(orbit, "orbit-growth", 4, 1, 0)
    assert not out["correct"] and out["failed"] == 1
