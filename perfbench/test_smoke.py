"""Smoke test of the benchmark: every workload at the tiny size.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that each run passes its own correctness checks, prints every metric
with its unit, that BENCHMARK.json lists the same metrics as run.py, and
that the traced counts repeat exactly on one seed. About a minute on two
cores.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

REPEATED_COUNTS = ("tomography.mle_iterations", "crosstalk.fits", "crosstalk.restarts_used")


def _run(workload: str, trace: int, seed: int = 5) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return lines, result


def _printed_units(lines: list[str]) -> dict[str, str]:
    """metric NAME = VALUE UNIT (BETTER is better) -> {NAME: UNIT}"""
    return {ln.split()[1]: ln.split()[4] for ln in lines if ln.startswith("metric ")}


def _units(table: dict) -> dict[str, str]:
    return {name: unit for name, (unit, _) in table.items()}


def test_benchmark_json_lists_the_metrics_run_py_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        listed = {m["name"]: (m["unit"], m["better"]) for m in spec[key]}
        assert listed == table


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    lines, result = _run(workload, trace=0)
    assert {n: m["unit"] for n, m in result["metrics"].items()} == _units(run.END_TO_END)
    expected = _units(run.END_TO_END_ALL)
    if workload == "tomography-n4":
        expected.pop("dc_mean")
    assert _printed_units(lines) == expected
    env = next(ln for ln in lines if ln.startswith("env "))
    for field in ("nproc=", "python=", "numpy=", "scipy=", "openblas=", "openblas_threads=",
                  "commit=", "seed=5"):
        assert field in env


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_every_layer_metric_and_counts_repeat(workload):
    first_lines, first = _run(workload, trace=1)
    _, second = _run(workload, trace=1)
    assert {n: m["unit"] for n, m in first["metrics"].items()} == _units(run.PER_LAYER)
    assert set(_printed_units(first_lines)) >= set(run.PER_LAYER)
    for name in REPEATED_COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    fits = first["metrics"]["crosstalk.fits"]["value"]
    assert (fits == 0) == (workload == "tomography-n4")
