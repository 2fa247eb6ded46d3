"""Command line pipeline: simulate, reconstruct, analyze, report.

Exit codes are part of the interface: 0 success, 2 usage or invalid flag
values, 3 input schema violations, 4 numerical failures.  Report files embed
a config hash and input-file hashes; the run timestamp sits in the metadata
object only, so reruns with identical inputs are byte-identical elsewhere.
"""

from __future__ import annotations

import argparse
import functools
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import io as dio
from .crosstalk import Partition, analyze_povm
from .entanglement import PPT_TOL, classify_povm
from .operators import MAX_QUBITS, NumericalFailureError, parse_labels
from .simulator import NOISE_KINDS, NoiseSpec, make_noisy_povm, sample_counts
from .tomography import mle_reconstruct, mub_preparations
# not called here: perfbench/run.py wraps cli.log_likelihood by name in traced runs
from .tomography import log_likelihood  # noqa: F401


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _metadata(config: dict, input_path: str) -> dict:
    """Report metadata: run time, configuration and its hash, input file hash."""
    return {
        "created_at": _timestamp(),
        "config": config,
        "config_hash": dio.config_hash(config),
        "inputs": {str(input_path): dio.file_sha256(input_path)},
    }


def _refuse_clash(writes: list[tuple[str, str]], keeps: list[tuple[str, str | None]]) -> None:
    """Refuse any (flag, path) of writes that resolves to a path of keeps, before any work."""
    for keep_flag, keep in keeps:
        for flag, path in writes:
            if keep is not None and Path(path).resolve() == Path(keep).resolve():
                raise ValueError(f"{flag} {path!r} would overwrite {keep_flag} {keep!r}")


def _second_output(out: str, path: str | None, flag: str, tag: str) -> str:
    """path, or out's sibling <stem>.<tag>.json; refused if it resolves to out."""
    path = path or str(Path(out).with_name(f"{Path(out).stem}.{tag}.json"))
    _refuse_clash([(flag, path)], [("--out", out)])
    return path


def cmd_simulate(args: argparse.Namespace) -> int:
    spec = NoiseSpec(kind=args.noise, p=args.p, w=args.w, pair=parse_labels(args.pair))
    truth_out = _second_output(args.out, args.truth_out, "--truth-out", "truth")
    preps = mub_preparations(args.n)
    povm = make_noisy_povm(args.n, spec)
    # written without save_counts' check: sample_counts' documents are valid by construction
    dio._dump_json(sample_counts(povm, preps, shots=args.shots, seed=args.seed), args.out)
    dio.save_povm(povm, truth_out)
    print(
        f"simulated {preps.num_states} preparations x {args.shots} shots "
        f"({args.noise}) -> {args.out}, truth POVM -> {truth_out}"
    )
    return 0


def cmd_reconstruct(args: argparse.Namespace) -> int:
    diag_out = _second_output(args.out, args.diagnostics_out, "--diagnostics-out", "diag")
    _refuse_clash(
        [("--out", args.out), ("--diagnostics-out", diag_out)], [("--counts", args.counts)]
    )
    preps, freq = dio.load_counts(args.counts)
    povm, diag = mle_reconstruct(freq, preps, epsilon=args.epsilon, max_iters=args.max_iters)
    dio.save_povm(dio.round_povm(povm), args.out)
    payload = dio.diagnostics_to_dict(diag)
    config = {"epsilon": args.epsilon, "max_iters": args.max_iters}
    payload["metadata"] = _metadata(config, args.counts)
    dio._dump_json(payload, diag_out)
    status = "converged" if diag.converged else "hit max_iters"
    print(
        f"reconstructed {povm.n}-qubit POVM in {diag.iterations} iterations ({status}), "
        f"log-likelihood {diag.log_likelihoods[-1]:.6f} -> {args.out}"
    )
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    formats = ("json", "csv") if args.format == "both" else (args.format,)
    written = [f"{args.out}.{kind}.{fmt}" for fmt in formats for kind in ("crosstalk", "ppt")]
    _refuse_clash([("--out", path) for path in written], [("--povm", args.povm)])
    povm = dio.load_povm(args.povm)
    partitions = [Partition.parse(text) for text in args.partitions or ()]
    # the PPT test checks --ppt-tol, so it runs before the crosstalk fits
    ppt = classify_povm(povm, ppt_tol=args.ppt_tol)
    report = analyze_povm(povm, partitions or None)

    config = {"partitions": [p.label() for p in partitions], "ppt_tol": args.ppt_tol}
    metadata = _metadata(config, args.povm)

    base = args.out
    if "json" in formats:
        dio.write_crosstalk_json(report, f"{base}.crosstalk.json", metadata)
        dio.write_ppt_json(ppt, f"{base}.ppt.json", metadata)
    if "csv" in formats:
        dio.write_crosstalk_csv(report, f"{base}.crosstalk.csv")
        dio.write_ppt_csv(ppt, f"{base}.ppt.csv")

    worst = max((r.d_c for r in report.rows), default=0.0)
    n_verdicts = sum(1 for r in ppt.rows if r.verdict == "N")
    print(f"analyzed {len(report.rows)} (outcome, partition) pairs; max D_C = {worst:.4f}")
    if n_verdicts:
        print(f"{n_verdicts} NPPT bipartition(s) found")
    else:
        print("no NPPT entanglement detected")
    for path in written:
        print(f"wrote {path}")
    return 0


def _render_crosstalk(doc: dict) -> str:
    lines = [f"Crosstalk report, qubits {doc['qubits']}"]
    for part in dict.fromkeys(row["partition"] for row in doc["rows"]):
        lines.append(f"\npartition {part}")
        lines.append(f"{'outcome':>8}  {'D_N':>8}  {'D_C':>8}  {'D_L*':>8}")
        for row in doc["rows"]:
            if row["partition"] != part:
                continue
            star = "" if row["resolved"] else "  (below resolution)"
            lines.append(
                f"{row['outcome']:>8}  {row['D_N']:8.4f}  {row['D_C']:8.4f}  "
                f"{row['D_L_star']:8.4f}{star}"
            )
    if doc.get("skipped_outcomes"):
        lines.append(f"\nskipped near-zero elements: {', '.join(doc['skipped_outcomes'])}")
    return "\n".join(lines)


def _render_ppt(doc: dict) -> str:
    lines = [f"Partial-transpose report, qubits {doc['qubits']} (tol {doc['ppt_tol']:g})"]
    bipartitions = list(dict.fromkeys(row["bipartition"] for row in doc["rows"]))
    header = f"{'outcome':>8}  " + "  ".join(f"{bp:>12}" for bp in bipartitions)
    lines.append(header)
    by_key = {(r["outcome"], r["bipartition"]): r for r in doc["rows"]}
    for outcome in dict.fromkeys(row["outcome"] for row in doc["rows"]):
        rows = [by_key[(outcome, bp)] for bp in bipartitions]
        cells = [f"{r['verdict']} {r['min_eigenvalue']:+8.4f}" for r in rows]
        lines.append(f"{outcome:>8}  " + "  ".join(f"{c:>12}" for c in cells))
    if any(r["verdict"] == "N" for r in doc["rows"]):
        bad = sorted({r["outcome"] for r in doc["rows"] if r["verdict"] == "N"})
        lines.append(f"NPPT entanglement detected in outcomes: {', '.join(bad)}")
    else:
        lines.append("no NPPT entanglement detected")
    return "\n".join(lines)


def cmd_report(args: argparse.Namespace) -> int:
    if not args.crosstalk and not args.ppt:
        raise ValueError("report needs --crosstalk and/or --ppt input files")
    if args.out:
        inputs = [("--crosstalk", args.crosstalk), ("--ppt", args.ppt)]
        _refuse_clash([("--out", args.out)], inputs)
    chunks = []
    if args.crosstalk:
        chunks.append(_render_crosstalk(dio.load_crosstalk_report(args.crosstalk)))
    if args.ppt:
        chunks.append(_render_ppt(dio.load_ppt_report(args.ppt)))
    text = "\n\n".join(chunks)
    if args.out:
        Path(args.out).write_text(text + "\n")
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The detomo argument parser, built once per process: parse_args leaves it
    unchanged, and each cmd_* looks up what it calls at call time."""
    parser = argparse.ArgumentParser(
        prog="detomo",
        description="Detector tomography, crosstalk measures, and entanglement tests",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="sample counts from a synthetic noisy POVM")
    sim.add_argument("--n", type=int, required=True, help=f"number of qubits (1..{MAX_QUBITS})")
    sim.add_argument("--noise", choices=NOISE_KINDS, required=True)
    sim.add_argument("--p", type=float, default=0.0, help="flip probability / Bell weight")
    sim.add_argument("--w", type=float, default=0.0, help="correlated-flip weight")
    sim.add_argument("--pair", default="0,1", help="designated qubit pair, e.g. 0,1")
    sim.add_argument("--shots", type=int, default=8192)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out", required=True, help="counts JSON path")
    sim.add_argument("--truth-out", default=None, help="ground-truth POVM path")
    sim.set_defaults(func=cmd_simulate)

    rec = sub.add_parser("reconstruct", help="maximum-likelihood POVM from counts")
    rec.add_argument("--counts", required=True)
    rec.add_argument("--out", required=True, help="POVM JSON path")
    rec.add_argument("--epsilon", type=float, default=1e-6)
    rec.add_argument("--max-iters", type=int, default=10000)
    rec.add_argument("--diagnostics-out", default=None)
    rec.set_defaults(func=cmd_reconstruct)

    ana = sub.add_parser("analyze", help="crosstalk and entanglement reports for a POVM")
    ana.add_argument("--povm", required=True)
    ana.add_argument("--out", required=True, help="output path prefix")
    ana.add_argument(
        "--partitions",
        action="append",
        default=None,
        help="partition like 0:1,2 (repeatable; default: full split plus bipartitions)",
    )
    ana.add_argument("--ppt-tol", type=float, default=PPT_TOL)
    ana.add_argument("--format", choices=("json", "csv", "both"), default="both")
    ana.set_defaults(func=cmd_analyze)

    rep = sub.add_parser("report", help="render report files as tables")
    rep.add_argument("--crosstalk", default=None, help="crosstalk JSON from analyze")
    rep.add_argument("--ppt", default=None, help="PPT JSON from analyze")
    rep.add_argument("--out", default=None, help="write the rendered text here")
    rep.set_defaults(func=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except dio.SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return 3
    except NumericalFailureError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
