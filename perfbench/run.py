#!/usr/bin/env python3
"""detomo benchmark: closed-loop CLI pipelines, timed, checked and traced.

    python3 perfbench/run.py --workload full-n3 --seed 1 --seconds 15 --trace 0

Run from the repository root. The workload's pipelines (one "pass") repeat
serially until --seconds have elapsed, always finishing the pass in
progress. Every step goes through ``detomo.cli.main`` in this process, with
its files in a scratch directory under ``.perfbench/``. With --trace 0 the
last output line carries the end-to-end metrics; with --trace 1 the same
loop runs with spans around the layer functions and the line carries the
per-layer metrics. The exit code is 1 when any correctness check failed and
2 when the program cannot be found or the arguments are wrong.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import dataclasses
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

from workloads import SIZES, WORKLOADS, build, warmup_spec  # noqa: E402

SETUP_REPEATS = {"full": 3, "tiny": 1}
ALS_SAMPLE_PER_SHAPE = 3  # per pipeline of the first pass
FIT_SHAPES = ("b1-1", "b1-1-1", "b1-2")
IO_FILE_FUNCS = (
    "save_counts", "load_counts", "save_povm", "load_povm", "_dump_json", "_load_json",
    "write_crosstalk_json", "write_ppt_json", "write_crosstalk_csv", "write_ppt_csv",
)

# name -> (unit, better), in print order. The final JSON line of an untraced
# run carries the GATED ones; the others are printed beside them because
# their spread from seed to seed, or from minute to minute on a shared
# host, is wider than any usable bound (see README).
END_TO_END_ALL = {
    "wall_s": ("s", "lower"),
    "pipeline_s.p50": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "error_rate": ("ratio", "lower"),
    "dc_mean": ("1", "lower"),
    "recon_error_max": ("1", "lower"),
}
GATED = ("wall_s", "setup_s", "peak_rss_mb")
END_TO_END = {name: END_TO_END_ALL[name] for name in GATED}
PER_LAYER = {
    "crosstalk.analyze_povm_s": ("s", "lower"),
    "crosstalk.fits": ("count", "higher"),
    "crosstalk.fits_per_s": ("1/s", "higher"),
    "crosstalk.restarts_used": ("count", "lower"),
    "crosstalk.converged_ratio": ("ratio", "higher"),
    **{f"crosstalk.fit_s.{s}": ("s", "lower") for s in FIT_SHAPES},
    **{f"crosstalk.als_only_s.{s}": ("s", "lower") for s in FIT_SHAPES},
    "crosstalk.polish_dc_gain": ("1", "higher"),
    "crosstalk.self_s": ("s", "lower"),
    "tomography.mle_reconstruct_s": ("s", "lower"),
    "tomography.mle_iterations": ("count", "lower"),
    "tomography.mle_ms_per_iter": ("ms", "lower"),
    "tomography.mub_preparations_s": ("s", "lower"),
    "tomography.self_s": ("s", "lower"),
    "simulator.sample_counts_s": ("s", "lower"),
    "simulator.shots": ("count", "higher"),
    "simulator.self_s": ("s", "lower"),
    "io.counts_to_tables_s": ("s", "lower"),
    "io.files_s": ("s", "lower"),
    "io.bytes_written": ("B", "lower"),
    "io.self_s": ("s", "lower"),
    "entanglement.classify_povm_s": ("s", "lower"),
    "entanglement.tests": ("count", "higher"),
    "entanglement.self_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
}


def _parse(argv: list[str] | None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15.0, help="measured time; whole passes only")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=SIZES, default="full", help="tiny: two-qubit smoke size")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _import_program() -> None:
    """Import detomo from this checkout's src/ and nowhere else."""
    if not (SRC / "detomo" / "__init__.py").is_file():
        raise RuntimeError(f"no detomo package under {SRC}")
    sys.path.insert(0, str(SRC))
    import detomo

    if Path(detomo.__file__).resolve().parent != SRC / "detomo":
        raise RuntimeError(f"imported detomo from {detomo.__file__}, not from {SRC}")


def _setup(args: argparse.Namespace, workdir: Path) -> list:
    """Import the program, make the inputs, run one untimed warm-up pipeline."""
    _import_program()
    from pipeline import run_pipeline

    specs = build(args.workload, args.seed, args.size)
    # Its outcome is not counted: the measured pipelines run the same checks.
    run_pipeline(warmup_spec(args.workload), workdir)
    return specs


def _time_setups(args: argparse.Namespace, repeats: int) -> list[float]:
    """Wall time of fresh interpreters that do the set-up and exit."""
    cmd = [
        sys.executable, str(HERE / "run.py"), "--setup-only", "--workload", args.workload,
        "--seed", str(args.seed), "--size", args.size,
    ]
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed ({proc.returncode}): {proc.stderr.strip()}")
    return times


def _tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile (nearest rank) with at least ten samples beyond it."""
    xs = sorted(values)
    for q in range(99, 49, -1):
        rank = math.ceil(q * len(xs) / 100)
        if len(xs) - rank >= 10:
            return q, xs[rank - 1]
    return None


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _openblas() -> tuple[str, str]:
    """OpenBLAS build version (numpy's config) and the runtime thread count."""
    import numpy as np

    try:
        version = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        version = "unknown"
    threads = "unknown"
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                threads = str(fn())
                break
    return version, threads


def _environment(args: argparse.Namespace) -> str:
    import numpy as np
    import scipy

    blas_version, blas_threads = _openblas()
    return (
        f"env nproc={os.cpu_count()} python={platform.python_version()} numpy={np.__version__} "
        f"scipy={scipy.__version__} openblas={blas_version} openblas_threads={blas_threads} "
        f"commit={_git_commit()} workload={args.workload} seed={args.seed} size={args.size} "
        f"seconds={args.seconds:g} trace={args.trace}"
    )


def _shape(partition) -> str:
    return "b" + "-".join(str(n) for n in sorted(len(b) for b in partition.blocks))


def _trace_targets(tracer, fit_sample: dict, sample_pipelines: int):
    """(module, attribute, span name, layer, hook) for every traced function.

    The fit hook also keeps the first few fits of each shape from each of
    the first sample_pipelines pipelines, for the ALS/polish split.
    """
    import detomo.cli as cli
    import detomo.crosstalk as xt
    import detomo.io as dio

    def on_fit(attrs, args, kwargs, fit):
        elem, partition, config, outcome = args
        attrs.update(shape=_shape(partition), restarts=fit.restarts_used,
                     converged=fit.converged, distance=fit.distance)
        if tracer.pipeline_id <= sample_pipelines:
            bucket = fit_sample.setdefault((tracer.pipeline_id, attrs["shape"]), [])
            if len(bucket) < ALS_SAMPLE_PER_SHAPE:
                bucket.append((elem, partition, config, outcome, fit.distance))

    def on_mle(attrs, args, kwargs, result):
        attrs["iterations"] = result[1].iterations

    def on_sample(attrs, args, kwargs, doc):
        attrs["shots"] = sum(p["shots"] for p in doc["preparations"])

    def on_ppt(attrs, args, kwargs, report):
        attrs["tests"] = len(report.rows)

    return [
        (cli, "make_noisy_povm", "simulator.make_noisy_povm", "simulator", None),
        (cli, "sample_counts", "simulator.sample_counts", "simulator", on_sample),
        (cli, "mub_preparations", "tomography.mub_preparations", "tomography", None),
        (cli, "mle_reconstruct", "tomography.mle_reconstruct", "tomography", on_mle),
        (cli, "log_likelihood", "tomography.log_likelihood", "tomography", None),
        (cli, "analyze_povm", "crosstalk.analyze_povm", "crosstalk", None),
        (xt, "fit_product", "crosstalk.fit_product", "crosstalk", on_fit),
        (cli, "classify_povm", "entanglement.classify_povm", "entanglement", on_ppt),
        (dio, "counts_to_tables", "io.counts_to_tables", "io", None),
    ] + [(dio, name, f"io.{name}", "io", None) for name in IO_FILE_FUNCS]


def _als_split(fit_sample: dict) -> dict[str, float]:
    """Refit the sampled fits with the polish off: ALS time and D_C given up."""
    from detomo.crosstalk import fit_product

    out = {}
    with_polish, without = [], []
    for shape in FIT_SHAPES:
        times = []
        sample = [fit for (_, s), fits in fit_sample.items() if s == shape for fit in fits]
        for elem, partition, config, outcome, distance in sample:
            t0 = time.perf_counter()
            fit = fit_product(elem, partition, dataclasses.replace(config, polish_max_fev=0), outcome)
            times.append(time.perf_counter() - t0)
            with_polish.append(distance)
            without.append(fit.distance)
        out[f"crosstalk.als_only_s.{shape}"] = statistics.median(times) if times else 0.0
    gain = statistics.fmean(without) - statistics.fmean(with_polish) if without else 0.0
    out["crosstalk.polish_dc_gain"] = gain
    return out


def _layer_metrics(tracer, results: list, pass_walls: list[float]) -> dict[str, float]:
    """Per-pass totals of the traced spans (every pass runs the same inputs)."""
    from spans import wrapper_cost

    per = 1.0 / len(pass_walls)
    fits = tracer.by_name("crosstalk.fit_product")
    analyze_s = tracer.total("crosstalk.analyze_povm") * per
    mle_s = tracer.total("tomography.mle_reconstruct")
    iters = sum(s.attrs["iterations"] for s in tracer.by_name("tomography.mle_reconstruct"))
    files = [s for s in tracer.spans if s.name in {f"io.{f}" for f in IO_FILE_FUNCS}]
    m = {
        "crosstalk.analyze_povm_s": analyze_s,
        "crosstalk.fits": len(fits) * per,
        "crosstalk.fits_per_s": len(fits) * per / analyze_s if analyze_s else 0.0,
        "crosstalk.restarts_used": sum(s.attrs["restarts"] for s in fits) * per,
        "crosstalk.converged_ratio": (
            sum(1 for s in fits if s.attrs["converged"]) / len(fits) if fits else 0.0
        ),
        "tomography.mle_reconstruct_s": mle_s * per,
        "tomography.mle_iterations": iters * per,
        "tomography.mle_ms_per_iter": 1000.0 * mle_s / iters if iters else 0.0,
        "tomography.mub_preparations_s": tracer.total("tomography.mub_preparations") * per,
        "simulator.sample_counts_s": tracer.total("simulator.sample_counts") * per,
        "simulator.shots": sum(s.attrs["shots"] for s in tracer.by_name("simulator.sample_counts")) * per,
        "io.counts_to_tables_s": tracer.total("io.counts_to_tables") * per,
        "io.files_s": sum(s.self_s for s in files) * per,
        "entanglement.classify_povm_s": tracer.total("entanglement.classify_povm") * per,
        "entanglement.tests": sum(s.attrs["tests"] for s in tracer.by_name("entanglement.classify_povm")) * per,
        "io.bytes_written": sum(r.bytes_written for r in results) * per,
        "trace.wall_s": statistics.median(pass_walls),
        "trace.spans": len(tracer.spans) * per,
        "trace.overhead_s": len(tracer.spans) * per * wrapper_cost(),
    }
    for shape in FIT_SHAPES:
        times = [s.duration for s in fits if s.attrs["shape"] == shape]
        m[f"crosstalk.fit_s.{shape}"] = statistics.median(times) if times else 0.0
    for layer in ("crosstalk", "tomography", "simulator", "io", "entanglement", "cli"):
        m[f"{layer}.self_s"] = tracer.layer_self(layer) * per
    return m


def _measure(args: argparse.Namespace, specs: list, workdir: Path) -> dict:
    from pipeline import run_pipeline
    from spans import Tracer

    tracer = Tracer() if args.trace else None
    fit_sample: dict = {}
    installed = (
        tracer.installed(_trace_targets(tracer, fit_sample, len(specs)))
        if tracer else contextlib.nullcontext()
    )
    results, pass_walls = [], []
    start = time.perf_counter()
    with installed:
        while True:
            t_pass = time.perf_counter()
            for spec in specs:
                if tracer:
                    tracer.pipeline_id += 1
                results.append(run_pipeline(spec, workdir, tracer))
            pass_walls.append(time.perf_counter() - t_pass)
            if time.perf_counter() - start >= args.seconds:
                break

    out = {"results": results, "pass_walls": pass_walls}
    if tracer:
        out["layer"] = {**_layer_metrics(tracer, results, pass_walls), **_als_split(fit_sample)}
        tracer.write(WORK / f"spans-{args.workload}-seed{args.seed}.json")
    return out


def _end_to_end(run: dict, setup_times: list[float], attempted: int, failed: int) -> tuple[dict, list[str]]:
    results = run["results"]
    latencies = [r.seconds for r in results]
    dcs = [v for r in results for v in r.dc_values]
    recon = [v for r in results for v in r.recon_errors]
    m = {
        "wall_s": statistics.median(run["pass_walls"]),
        "pipeline_s.p50": statistics.median(latencies),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "error_rate": failed / attempted,
        "recon_error_max": max(recon) if recon else float("nan"),
    }
    if dcs:
        m["dc_mean"] = statistics.fmean(dcs)
    tail = _tail_percentile(latencies)
    notes = [
        f"passes {len(run['pass_walls'])}, pipelines {len(results)}, steps {attempted}, failed {failed}",
        f"pipeline_s samples {len(latencies)}; "
        + (f"p{tail[0]} = {tail[1]:.6f} s" if tail else "no percentile above p50 has ten samples beyond it"),
        f"setup_s samples {', '.join(f'{t:.4f}' for t in setup_times)}",
        f"NPPT verdicts within shot noise (|min eigenvalue| <= resolution): "
        f"{sum(r.noise_nppt for r in results)}",
    ]
    if not dcs:
        notes.append("dc_mean: no analyze step in this workload")
    return m, notes


def _print_metric(name: str, value: float, unit: str, better: str) -> None:
    print(f"metric {name} = {value:.6g} {unit} ({better} is better)")


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    os.environ.pop("QDT_THREADS", None)
    run_dir = WORK / f"run-{os.getpid()}"
    try:
        if args.setup_only:
            _setup(args, run_dir)
            return 0
        setup_times = _time_setups(args, SETUP_REPEATS[args.size])
        specs = _setup(args, run_dir)
        print(_environment(args))
        run = _measure(args, specs, run_dir)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    steps = [s for r in run["results"] for s in r.steps]
    failed = sum(1 for s in steps if not s.ok)
    e2e, notes = _end_to_end(run, setup_times, len(steps), failed)
    for name, (unit, better) in END_TO_END_ALL.items():
        if name in e2e:
            _print_metric(name, e2e[name], unit, better)
    for line in notes:
        print("note", line)
    failures = [f for r in run["results"] for f in r.failures]
    for f in failures:
        print("FAILED", f)

    if args.trace:
        for name, (unit, better) in PER_LAYER.items():
            _print_metric(name, run["layer"][name], unit, better)
        chosen = {n: (run["layer"][n], u) for n, (u, _) in PER_LAYER.items()}
    else:
        chosen = {n: (e2e[n], u) for n, (u, _) in END_TO_END.items()}
    print(json.dumps({
        "correct": not failures,
        "attempted": len(steps),
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in chosen.items()},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
