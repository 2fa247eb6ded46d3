"""One pipeline through ``detomo.cli.main``, with its correctness checks.

Each step is a CLI invocation in-process, the path a user takes. Only the
``main`` call is timed; the checks that follow a step run outside that time
and call the library directly to load and verify what the step wrote.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

from detomo.cli import main as cli_main
from detomo.crosstalk import Partition, default_partitions
from detomo.io import load_povm
from detomo.operators import trace_distance, validate_povm

from workloads import PipelineSpec
from spans import Tracer

TRIANGLE_SLACK = 1e-9
# Largest trace distance to the truth element accepted from a reconstruction.
# Shot noise gives about 0.02-0.03 at 4096-8192 shots per probe on 2-4 qubits.
RECON_TOL = 0.1
# Partial-transpose eigenvalues above -PPT_RESOLUTION are shot noise: at
# 8192 shots per probe every reconstructed element shows about -2e-3, far
# beyond the program's own 1e-7 tolerance. The entangled family's Bell
# admixture gives -p/2 <= -0.1 on the pair cut at the p values run here.
PPT_RESOLUTION = 0.02


@dataclass
class StepResult:
    name: str
    seconds: float = 0.0
    errors: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors


@dataclass
class PipelineResult:
    spec: PipelineSpec
    steps: list[StepResult] = field(default_factory=list)
    recon_errors: list[float] = field(default_factory=list)
    dc_values: list[float] = field(default_factory=list)
    noise_nppt: int = 0
    bytes_written: int = 0

    @property
    def seconds(self) -> float:
        return sum(s.seconds for s in self.steps)

    @property
    def failures(self) -> list[str]:
        return [f"{self.spec.name} {s.name}: {e}" for s in self.steps for e in s.errors]


def _argv(spec: PipelineSpec, step: str, d: Path) -> list[str]:
    if step == "simulate":
        return [
            "simulate", "--n", str(spec.n), "--noise", spec.noise, "--p", repr(spec.p),
            "--w", repr(spec.w), "--shots", str(spec.shots), "--seed", str(spec.seed),
            "--out", str(d / "counts.json"),
        ]
    if step == "reconstruct":
        return ["reconstruct", "--counts", str(d / "counts.json"), "--out", str(d / "povm.json")]
    if step == "analyze":
        return ["analyze", "--povm", str(d / "povm.json"), "--out", str(d / "report")]
    return [
        "report", "--crosstalk", str(d / "report.crosstalk.json"),
        "--ppt", str(d / "report.ppt.json"), "--out", str(d / "report.txt"),
    ]


def _csv_rows(path: Path) -> int:
    with path.open(newline="") as fh:
        return sum(1 for _ in csv.DictReader(fh))


def _check_reconstruct(d: Path, res: PipelineResult) -> list[str]:
    povm = load_povm(d / "povm.json")
    truth = load_povm(d / "counts.truth.json")
    errors = []
    if not validate_povm(povm).ok:
        errors.append("reconstructed POVM fails validate_povm")
    dist = [trace_distance(a, b) for a, b in zip(povm.elements, truth.elements)]
    res.recon_errors.extend(dist)
    if max(dist) > RECON_TOL:
        errors.append(f"trace distance to truth {max(dist):.4f} > {RECON_TOL}")
    return errors


def _check_analyze(spec: PipelineSpec, d: Path, res: PipelineResult) -> list[str]:
    errors = []
    xt = json.loads((d / "report.crosstalk.json").read_text())
    ppt = json.loads((d / "report.ppt.json").read_text())
    used = (2**spec.n) - len(xt["skipped_outcomes"])
    expected = used * len(default_partitions(range(spec.n)))
    if len(xt["rows"]) != expected:
        errors.append(f"crosstalk JSON has {len(xt['rows'])} rows, expected {expected}")
    for kind, doc in (("crosstalk", xt), ("ppt", ppt)):
        n_csv = _csv_rows(d / f"report.{kind}.csv")
        if n_csv != len(doc["rows"]):
            errors.append(f"{kind} CSV has {n_csv} rows, JSON has {len(doc['rows'])}")
    for row in xt["rows"]:
        res.dc_values.append(row["D_C"])
        if row["D_N"] > row["D_C"] + row["D_L_star"] + TRIANGLE_SLACK:
            errors.append(
                f"triangle fails for {row['outcome']} {row['partition']}: "
                f"D_N {row['D_N']!r} > D_C {row['D_C']!r} + D_L* {row['D_L_star']!r}"
            )

    pair = {0, 1}
    resolved = [r for r in ppt["rows"] if r["min_eigenvalue"] < -PPT_RESOLUTION]
    res.noise_nppt += sum(
        1 for r in ppt["rows"] if r["verdict"] == "N" and r["min_eigenvalue"] >= -PPT_RESOLUTION
    )
    if any(r["verdict"] != "N" for r in resolved):
        errors.append("a resolved negative partial transpose is not reported as N")
    if spec.noise == "entangled":
        zeros = "0" * spec.n
        for r in ppt["rows"]:
            blocks = [set(b) for b in Partition.parse(r["bipartition"]).blocks]
            splits_pair = not any(pair <= b for b in blocks)
            if r["outcome"] == zeros and splits_pair and r not in resolved:
                errors.append(f"no resolved NPPT verdict for {zeros} across {r['bipartition']}")
    elif resolved:
        cells = ", ".join(f"{r['outcome']} {r['bipartition']}" for r in resolved)
        errors.append(f"NPPT beyond shot noise in a separable family: {cells}")
    return errors


def _check_report(d: Path) -> list[str]:
    text = (d / "report.txt").read_text()
    missing = [h for h in ("Crosstalk report", "Partial-transpose report") if h not in text]
    return [f"rendered report lacks {h!r}" for h in missing]


def _check(spec: PipelineSpec, step: str, d: Path, res: PipelineResult) -> list[str]:
    if step == "simulate":
        return [f"{p.name} not written" for p in (d / "counts.json", d / "counts.truth.json") if not p.is_file()]
    if step == "reconstruct":
        return _check_reconstruct(d, res)
    if step == "analyze":
        return _check_analyze(spec, d, res)
    return _check_report(d)


def run_pipeline(spec: PipelineSpec, workdir: Path, tracer: Tracer | None = None) -> PipelineResult:
    """Run the spec's steps in a fresh directory under workdir, then remove it.

    A step that fails leaves the rest of the pipeline without inputs; those
    steps count as attempted and failed.
    """
    d = workdir / spec.name
    shutil.rmtree(d, ignore_errors=True)
    d.mkdir(parents=True)
    res = PipelineResult(spec)
    try:
        for step in spec.steps:
            sr = StepResult(step)
            res.steps.append(sr)
            if any(not s.ok for s in res.steps[:-1]):
                sr.errors.append("not run: an earlier step failed")
                continue
            out, err = io.StringIO(), io.StringIO()
            span = tracer.span(f"cli.{step}", "cli") if tracer else contextlib.nullcontext()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), span:
                    t0 = time.perf_counter()
                    rc = cli_main(_argv(spec, step, d))
                    sr.seconds = time.perf_counter() - t0
            except SystemExit as exc:  # argparse rejected the command line
                sr.errors.append(f"exit code {exc.code}: {err.getvalue().strip()}")
                continue
            except Exception as exc:  # a crash is a failed step, not a crashed benchmark
                sr.errors.append(f"raised {type(exc).__name__}: {exc}")
                continue
            if rc != 0:
                sr.errors.append(f"exit code {rc}: {err.getvalue().strip()}")
                continue
            try:
                sr.errors.extend(_check(spec, step, d, res))
            except (OSError, ValueError, KeyError) as exc:
                sr.errors.append(f"check could not read the output: {type(exc).__name__}: {exc}")
        res.bytes_written = sum(p.stat().st_size for p in d.iterdir())
    finally:
        shutil.rmtree(d, ignore_errors=True)
    return res
