"""Smoke test of the benchmark: every workload at a tiny size, untraced
and traced, emits every metric that BENCHMARK.json names, with its unit.

From the root of a checkout:

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAMED = {
    "solve-large": ("solve_s", "iterations"),
    "ensemble-small": ("paths_per_s",),
    "verify-suite": ("verify_s",),
    "crosscheck-frac": ("frac_s", "frac_rel_err"),
}

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_emits_every_metric(workload, trace):
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    printed = "\n".join(lines[:-1])
    assert "machine: " in printed and "table_bytes=" in printed
    for name in ("failed_frac",) + (() if trace else NAMED[workload]):
        assert f"metric {name} = " in printed
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if trace:
        # predicted bypasses
        assert (values["integrals.drift_term.calls"] > 0) == (workload in ("solve-large", "verify-suite"))
        assert (values["fraccalc.left_frac_derivative_all.calls"] > 0) == (workload == "crosscheck-frac")
        assert values["trace.absent_functions"] == 0
    else:
        assert all(v > 0 for v in values.values())
    if workload != "verify-suite":
        # tiny references for seed 1 are recorded in perfbench/reference
        assert '"matches_recorded": true' in printed


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_root_self_time_subtracts_the_union_of_threaded_children():
    from tracer import Tracer

    tr = Tracer()
    # root 0..10 with children 1..4 and 3..6 on two threads, and a
    # grandchild 2..3 that must not count against the root
    tr.spans = [(2, 1, "a", 1.0, 4.0, 0), (3, 1, "b", 3.0, 6.0, 7),
                (4, 2, "c", 2.0, 3.0, 0), (1, 0, "cli", 0.0, 10.0, 0)]
    s = tr.summary()
    assert s["cli"]["self_s"] == pytest.approx(5.0)
    assert s["a"]["self_s"] == pytest.approx(2.0)
    assert s["b"]["iterations"] == 7


def test_missing_layer_function_is_reported_absent(monkeypatch):
    import tracer
    import volterra_fbm.solver

    monkeypatch.setattr(tracer, "LAYER_FUNCTIONS",
                        tracer.LAYER_FUNCTIONS + (("solver", "no_such_function"),))
    original = volterra_fbm.solver.picard_solve
    tr = tracer.Tracer()
    with tr.installed():
        assert volterra_fbm.solver.picard_solve is not original
    assert tr.absent == ["solver.no_such_function"]
    assert volterra_fbm.solver.picard_solve is original
