"""Smoke test of the benchmark itself.

    python3 -m pytest perfbench/test_smoke.py

Runs every workload at tiny sizes for about a second, with and without
tracing, checks that every metric BENCHMARK.json names is reported with
its unit, and checks the exact per-layer counts of the reference ops.
"""

import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import loop  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, MeshFit, RadialSolve  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = {
    "radial_solve": RadialSolve(n_nodes=201, trace_ops=3),
    "mesh_fit": MeshFit(name="mesh_fit", size=41, trace_ops=2, pool=2),
    "mesh_large": MeshFit(name="mesh_large", size=51, trace_ops=2, pool=2),
}


@dataclasses.dataclass(frozen=True)
class ReferenceSolve(RadialSolve):
    """Every op solves at (a, b) = (2, 2)."""

    def params(self, state, index):
        return 2.0, 2.0


@pytest.fixture(autouse=True)
def scratch(request, monkeypatch):
    """A fresh directory under the checkout's .perfbench_work/, removed after."""
    path = loop.WORK_ROOT / f"smoke-{os.getpid()}-{request.node.name}"
    path.mkdir(parents=True)
    monkeypatch.setattr(loop, "WORK_ROOT", path / "work")
    monkeypatch.setattr(loop, "TRACE_ROOT", path / "out")
    yield path
    shutil.rmtree(path)


def test_workloads_match_benchmark_json():
    assert set(TINY) == set(WORKLOADS) == {w["name"] for w in SPEC["workloads"]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_run_reports_every_metric(name, trace, capsys):
    result = loop.measure(TINY[name], seed=3, seconds=1.0, trace=trace, env={})
    assert result["correct"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    printed = capsys.readouterr().out
    for metric, unit in expected.items():
        line = rf"^# {re.escape(metric)} = \S+ {re.escape(unit)}$"
        assert re.search(line, printed, re.MULTILINE), metric
    json.dumps(result, allow_nan=False)


def _counts(metrics):
    return {
        k: v["value"] for k, v in metrics.items()
        if v["unit"] in ("count", "bytes")
    }


def test_traced_counts_repeat_exactly():
    first = loop.measure(TINY["radial_solve"], 5, 1.0, 1, {})["metrics"]
    second = loop.measure(TINY["radial_solve"], 5, 1.0, 1, {})["metrics"]
    assert _counts(first) == _counts(second)


def _reference_op(workload, seed, scratch):
    state = workload.setup(seed, str(scratch))
    tracer = Tracer()
    _, error = loop.run_op(workload, state, 0, tracer)
    assert error is None
    return layer_metrics(tracer, [0])


def test_reference_solve_counts(scratch):
    counts = _counts(_reference_op(ReferenceSolve(), 0, scratch))
    assert counts["solver.iterations"] == 9
    assert counts["solver.picard_step.calls"] == 11
    assert counts["solver.h0_profile.calls"] == 14
    for table in ("v0", "v1", "dv0", "dv1"):
        assert counts[f"kernel.{table}.calls"] == 11
    assert counts["special.bessel_i.calls"] == 145
    assert counts["special.bessel_i.elements"] == 288_123
    assert counts["kernel.admissibility.calls"] == 2


def test_reference_mesh_fit_counts(scratch):
    counts = _counts(_reference_op(WORKLOADS["mesh_fit"], 7, scratch))
    assert counts["fit._measure_apex.calls"] == 2
    assert counts["data.read_mesh.calls"] == 2
    assert counts["data.write_mesh.calls"] == 3
    assert counts["fit.axial_distance_map.calls"] == 4
    assert counts["special.bessel_i.calls"] == 692
    assert counts["solver.picard_step.calls"] == 0


def test_checkout_without_program_fails_without_result(scratch):
    shutil.copy(ROOT / "BENCHMARK.json", scratch)
    shutil.copytree(BENCH_DIR, scratch / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "radial_solve",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=scratch, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
