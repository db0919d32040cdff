"""Smoke test of the benchmark at n=16: every workload path, untraced and
traced, in a few seconds.

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
N = 16
SEED = 7


def run(workload, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         str(SEED), "--seconds", "0.5", "--trace", str(trace), "--n", str(N)],
        cwd=cwd, capture_output=True, text=True, timeout=120)
    return proc


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def record(workload, trace, suffix=".json"):
    path = HERE / "out" / f"{workload}-n{N}-seed{SEED}-trace{trace}{suffix}"
    return json.loads(path.read_text())


def check_metrics(out, declared):
    assert out["correct"] is True
    assert out["failed"] == 0 and out["attempted"] >= 1
    assert set(out["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = out["metrics"][m["name"]]
        assert set(got) == {"value", "unit"}
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    out = result(run(workload, 0))
    check_metrics(out, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in out["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_nests_spans_and_repeats_counts(workload):
    out = result(run(workload, 1))
    check_metrics(out, SPEC["per_layer"])
    vcycle_self = [v["value"] for k, v in out["metrics"].items()
                   if k.startswith("hierarchy.vcycle.L")]
    assert all(v >= 0.0 for v in vcycle_self)

    spans = record(workload, 1, ".spans.json")
    assert [s["id"] for s in spans] == list(range(len(spans)))
    for s in spans:
        assert s["start"] <= s["end"]
        if s["parent"] is not None:
            parent = spans[s["parent"]]
            assert parent["start"] <= s["start"] and s["end"] <= parent["end"]
            assert s["root"] == parent["root"]
    covered = {}
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] = covered.get(s["parent"], 0.0) + s["end"] - s["start"]
    for s in spans:
        if s["name"] == "hierarchy.vcycle":
            assert s["end"] - s["start"] - covered.get(s["id"], 0.0) >= -1e-9

    # the same seed gives the same counts, traced or not, run after run
    first = record(workload, 1)["counts"]
    result(run(workload, 0))
    assert record(workload, 0)["counts"] == first


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
