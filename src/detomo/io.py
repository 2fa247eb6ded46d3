"""On-disk formats: operators, POVMs, counts documents, and report files.

All JSON writers are deterministic (fixed key order, trailing newline) so
that a repeated run with identical inputs produces byte-identical files;
run timestamps live only inside the report metadata object.

The MLE diagnostics list the log-likelihood and completeness residual of
every iteration, and delta and the smallest eigenvalue only at the
iterations named in trace_steps (diagnostics_to_dict).

Measured floats (MLE diagnostics traces, crosstalk distances, partial-
transpose eigenvalues) are written at MEASURED_DECIMALS places and a
reconstructed POVM is stored on a 10**-POVM_DECIMALS grid, so that the files
do not carry the last bits of LAPACK/BLAS rounding.  They agree across BLAS
thread counts and, for the n=2 golden, across builds; at n >= 3 a last-bit
difference can move where the MLE stops, so builds that do not compute bit
for bit alike agree only to about its stop tolerance (README, "File formats").
The partitions echo lists each partition's label(); `ppt_tol` and POVM files
passed to save_povm are written exactly as given; `resolution` is DC_RESOLUTION.
"""

from __future__ import annotations

import csv
import hashlib
import io as _stdio
import json
import sys
from pathlib import Path

import numpy as np

from .crosstalk import DC_RESOLUTION, CrosstalkReport
from .entanglement import PptReport
from .operators import HermitianOperator, Povm, clipped_repr, outcome_index, outcomes, register_size
from .tomography import FrequencyTable, MleDiagnostics, PreparationSet

CROSSTALK_CSV_COLUMNS = (
    "qubits",
    "outcome",
    "partition",
    "D_N",
    "D_C",
    "D_L_star",
    "converged",
    "restarts_used",
)
PPT_CSV_COLUMNS = ("outcome", "bipartition", "min_eigenvalue", "negativity", "verdict")
MEASURED_DECIMALS = 10
POVM_DECIMALS = 12
# Shots and counts are held as int64 (counts_to_tables).
_INT64_MAX = 2**63 - 1


class SchemaError(ValueError):
    """An input file does not match its documented schema."""


def _is_int(x) -> bool:
    """An integer JSON value; JSON true/false load as bool, an int subclass."""
    return isinstance(x, int) and not isinstance(x, bool)


def _is_number(x) -> bool:
    """A JSON number; true/false do not count."""
    return _is_int(x) or isinstance(x, float)


def _is_finite(x) -> bool:
    """A JSON number that is a finite float; an integer too large for one is not."""
    return _is_number(x) and abs(x) <= sys.float_info.max


def _is_finite_matrix(rows, dim: int) -> bool:
    """A dim x dim list of finite JSON numbers; strings and true/false do not count."""
    return isinstance(rows, list) and len(rows) == dim and all(
        isinstance(row, list) and len(row) == dim and all(_is_finite(v) for v in row)
        for row in rows
    )


def measured(x: float, decimals: int = MEASURED_DECIMALS) -> float:
    """x rounded to `decimals` places by round(), with -0.0 written as 0.0."""
    return round(float(x), decimals) + 0.0


def _measured_list(values: np.ndarray) -> list:
    return [measured(v) for v in np.asarray(values, dtype=float).tolist()]


def round_povm(povm: Povm) -> Povm:
    """The POVM with every real and imaginary entry rounded to POVM_DECIMALS.

    Rounding keeps Hermiticity exactly and moves completeness and the
    eigenvalues by at most about 2**n * 10**-POVM_DECIMALS.
    """
    elements = []
    for e in povm.elements:
        re = [[measured(v, POVM_DECIMALS) for v in row] for row in e.matrix.real.tolist()]
        im = [[measured(v, POVM_DECIMALS) for v in row] for row in e.matrix.imag.tolist()]
        elements.append(HermitianOperator(np.array(re) + 1j * np.array(im), e.qubit_labels))
    return Povm(tuple(elements))


def operator_to_dict(op: HermitianOperator) -> dict:
    return {
        "dim": op.dim,
        "labels": list(op.qubit_labels),
        "re": op.matrix.real.tolist(),
        "im": op.matrix.imag.tolist(),
    }


def operator_from_dict(doc: dict, where: str = "operator") -> HermitianOperator:
    if not isinstance(doc, dict):
        raise SchemaError(f"{where}: expected an object, got {type(doc).__name__}")
    for key in ("dim", "labels", "re", "im"):
        if key not in doc:
            raise SchemaError(f"{where}: missing key {key!r}")
    dim = doc["dim"]
    if not _is_int(dim) or dim < 2:
        raise SchemaError(f"{where}: dim must be an integer >= 2, got {clipped_repr(dim)}")
    if not (_is_finite_matrix(doc["re"], dim) and _is_finite_matrix(doc["im"], dim)):
        raise SchemaError(f"{where}: 're' and 'im' must be {dim}x{dim} lists of finite numbers")
    re = np.asarray(doc["re"], dtype=float)
    im = np.asarray(doc["im"], dtype=float)
    try:  # HermitianOperator takes the labels by the one label rule, operators.as_labels
        return HermitianOperator(re + 1j * im, tuple(doc["labels"]))
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{where}: {exc}") from exc


def povm_to_dict(povm: Povm) -> dict:
    return {
        "n": povm.n,
        "elements": {o: operator_to_dict(e) for o, e in zip(povm.outcomes, povm.elements)},
    }


def povm_from_dict(doc: dict) -> Povm:
    if not isinstance(doc, dict) or "n" not in doc or "elements" not in doc:
        raise SchemaError("POVM document needs keys 'n' and 'elements'")
    try:
        n = register_size(doc["n"])
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"POVM 'n': {exc}") from exc
    elements = doc["elements"]
    if not isinstance(elements, dict):
        raise SchemaError("POVM 'elements' must map outcome bitstrings to operators")
    ops = []
    for outcome in outcomes(n):
        if outcome not in elements:
            raise SchemaError(f"POVM document is missing element for outcome {outcome!r}")
        ops.append(operator_from_dict(elements[outcome], where=f"element {outcome!r}"))
    try:
        return Povm(tuple(ops))
    except ValueError as exc:
        raise SchemaError(f"POVM document: {exc}") from exc


def _dump_json(doc: dict, path: str | Path) -> None:
    """Write doc as indented JSON and a newline, streamed: the text is never held whole."""
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _load_json(path: str | Path) -> dict:
    try:
        doc = json.loads(Path(path).read_text())
    except ValueError as exc:  # JSONDecodeError, or an integer past Python's digit limit
        raise SchemaError(f"{path}: not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise SchemaError(f"{path}: JSON nested too deeply") from exc
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: top level must be an object")
    return doc


def save_povm(povm: Povm, path: str | Path) -> None:
    _dump_json(povm_to_dict(povm), path)


def load_povm(path: str | Path) -> Povm:
    return povm_from_dict(_load_json(path))


def counts_to_tables(doc: dict) -> tuple[PreparationSet, FrequencyTable]:
    """A counts document as its probe set and frequency table, checked in one pass.

    The pass checks the header, then each record's labels, shots, outcome
    keys, counts and count sum while it fills the count and shot arrays;
    the probe set then checks the label alphabet. Raises SchemaError naming
    the offending record. Outcome keys absent from a record are zero counts.
    """
    version = doc.get("version")
    if not _is_int(version) or version != 1:
        raise SchemaError(f"counts version must be 1, got {clipped_repr(version)}")
    qubits = doc.get("qubits")
    if (
        not isinstance(qubits, list)
        or any(not _is_int(label) for label in qubits)
        or len(set(qubits)) != len(qubits)
    ):
        raise SchemaError(
            f"counts 'qubits' must be a list of distinct integers, got {clipped_repr(qubits)}"
        )
    try:
        n = register_size(len(qubits))
    except ValueError as exc:
        raise SchemaError(f"counts 'qubits': {exc}") from exc
    records = doc.get("preparations")
    if not isinstance(records, list) or not records:
        raise SchemaError("counts 'preparations' must be a nonempty list")
    labels = []
    counts = np.zeros((2**n, len(records)), dtype=np.int64)
    shots = np.zeros(len(records), dtype=np.int64)
    for k, rec in enumerate(records):
        where = f"preparation {k}"
        if not isinstance(rec, dict):
            raise SchemaError(f"{where}: expected an object")
        if not isinstance(rec.get("labels"), list):
            raise SchemaError(f"{where}: 'labels' must list one state label per qubit")
        labels.append(rec["labels"])
        rec_shots = rec.get("shots")
        if not _is_int(rec_shots) or not 1 <= rec_shots <= _INT64_MAX:
            raise SchemaError(
                f"{where}: 'shots' must be an integer in 1..2**63 - 1, "
                f"got {clipped_repr(rec_shots)}"
            )
        shots[k] = rec_shots
        rec_counts = rec.get("counts")
        if not isinstance(rec_counts, dict):
            raise SchemaError(f"{where}: 'counts' must map outcome bitstrings to counts")
        total = 0
        for key, value in rec_counts.items():
            try:
                i = outcome_index(key, n)
            except ValueError as exc:
                raise SchemaError(f"{where}: {exc}") from exc
            if not _is_int(value) or not 0 <= value <= _INT64_MAX:
                raise SchemaError(f"{where}: count for {key!r} must be an integer in 0..2**63 - 1")
            counts[i, k] = value
            total += value
        if total != rec_shots:
            raise SchemaError(f"{where}: counts sum to {total} but 'shots' is {rec_shots}")
    try:
        preps = PreparationSet(labels, qubits)
    except ValueError as exc:  # its message names the record as "preparation k"
        raise SchemaError(str(exc)) from exc
    return preps, FrequencyTable.from_counts(counts, shots)


def save_counts(doc: dict, path: str | Path) -> None:
    """Write a counts document after checking it with counts_to_tables."""
    counts_to_tables(doc)
    _dump_json(doc, path)


def load_counts(path: str | Path) -> tuple[PreparationSet, FrequencyTable]:
    """The probe set and frequency table of a counts file (see counts_to_tables)."""
    return counts_to_tables(_load_json(path))


def file_sha256(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def config_hash(config: dict) -> str:
    return hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest()


def diagnostics_to_dict(diag: MleDiagnostics) -> dict:
    return {
        "iterations": diag.iterations,
        "converged": diag.converged,
        "final_delta": measured(diag.final_delta),
        "log_likelihoods": _measured_list(diag.log_likelihoods),
        "trace_steps": [int(step) for step in diag.trace_steps],
        "deltas": _measured_list(diag.deltas),
        "completeness_residuals": _measured_list(diag.completeness_residuals),
        "min_eigenvalues": _measured_list(diag.min_eigenvalues),
    }


def crosstalk_report_to_dict(report: CrosstalkReport, metadata: dict | None = None) -> dict:
    qubits = ",".join(map(str, report.qubit_labels))
    return {
        "qubits": list(report.qubit_labels),
        "resolution": DC_RESOLUTION,
        "rows": [
            {
                "qubits": qubits,
                "outcome": r.outcome,
                "partition": r.partition,
                "D_N": measured(r.d_n),
                "D_C": measured(r.d_c),
                "D_L_star": measured(r.d_l_star),
                "converged": r.converged,
                "restarts_used": r.restarts_used,
                "triangle_residual": measured(r.triangle_residual),
                "resolved": r.resolved,
            }
            for r in report.rows
        ],
        "skipped_outcomes": list(report.skipped_outcomes),
        "metadata": metadata or {},
    }


def write_crosstalk_json(
    report: CrosstalkReport, path: str | Path, metadata: dict | None = None
) -> None:
    _dump_json(crosstalk_report_to_dict(report, metadata), path)


def _csv(columns: tuple[str, ...], rows: list[dict]) -> str:
    """The named columns of JSON report rows, as CSV text with a header line."""
    buf = _stdio.StringIO()
    writer = csv.DictWriter(buf, columns, extrasaction="ignore", lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def crosstalk_report_to_csv(report: CrosstalkReport) -> str:
    return _csv(CROSSTALK_CSV_COLUMNS, crosstalk_report_to_dict(report)["rows"])


def write_crosstalk_csv(report: CrosstalkReport, path: str | Path) -> None:
    Path(path).write_text(crosstalk_report_to_csv(report))


def ppt_report_to_dict(report: PptReport, metadata: dict | None = None) -> dict:
    return {
        "qubits": list(report.qubit_labels),
        "ppt_tol": report.ppt_tol,
        "rows": [
            {
                "outcome": r.outcome,
                "bipartition": r.bipartition,
                "min_eigenvalue": measured(r.min_eigenvalue),
                "negativity": measured(r.negativity),
                "verdict": r.verdict,
                "borderline": r.borderline,
            }
            for r in report.rows
        ],
        "skipped_outcomes": list(report.skipped_outcomes),
        "metadata": metadata or {},
    }


def write_ppt_json(report: PptReport, path: str | Path, metadata: dict | None = None) -> None:
    _dump_json(ppt_report_to_dict(report, metadata), path)


def ppt_report_to_csv(report: PptReport) -> str:
    return _csv(PPT_CSV_COLUMNS, ppt_report_to_dict(report)["rows"])


def write_ppt_csv(report: PptReport, path: str | Path) -> None:
    Path(path).write_text(ppt_report_to_csv(report))


# What the report renderers read from each row: key -> (check, expected value).
_CROSSTALK_ROW_FIELDS = {
    "outcome": (lambda v: isinstance(v, str), "a string"),
    "partition": (lambda v: isinstance(v, str), "a string"),
    "D_N": (_is_finite, "a finite number"),
    "D_C": (_is_finite, "a finite number"),
    "D_L_star": (_is_finite, "a finite number"),
    "resolved": (lambda v: isinstance(v, bool), "true or false"),
}
_PPT_ROW_FIELDS = {
    "outcome": (lambda v: isinstance(v, str), "a string"),
    "bipartition": (lambda v: isinstance(v, str), "a string"),
    "min_eigenvalue": (_is_finite, "a finite number"),
    "verdict": (lambda v: v in ("P", "N"), '"P" or "N"'),
}


def _report_rows(doc: dict, kind: str, fields: dict) -> list[dict]:
    """The rows of a report document, after checking the keys and types read from it."""
    qubits = doc.get("qubits")
    if not isinstance(qubits, list) or not all(_is_int(label) for label in qubits):
        raise SchemaError(
            f"{kind} report 'qubits' must be a list of integers, got {clipped_repr(qubits)}"
        )
    skipped = doc.get("skipped_outcomes", [])
    if not isinstance(skipped, list) or not all(isinstance(o, str) for o in skipped):
        raise SchemaError(f"{kind} report 'skipped_outcomes' must be a list of strings")
    rows = doc.get("rows")
    if not isinstance(rows, list):
        raise SchemaError(f"{kind} report 'rows' must be a list")
    for i, row in enumerate(rows):
        if not isinstance(row, dict):
            raise SchemaError(f"{kind} report row {i}: expected an object")
        for key, (ok, expected) in fields.items():
            if key not in row:
                raise SchemaError(f"{kind} report row {i}: missing key {key!r}")
            if not ok(row[key]):
                raise SchemaError(
                    f"{kind} report row {i}: {key!r} must be {expected}, "
                    f"got {clipped_repr(row[key])}"
                )
    return rows


def load_crosstalk_report(path: str | Path) -> dict:
    """A crosstalk report JSON document, checked for what `detomo report` reads."""
    doc = _load_json(path)
    _report_rows(doc, "crosstalk", _CROSSTALK_ROW_FIELDS)
    return doc


def load_ppt_report(path: str | Path) -> dict:
    """A PPT report JSON document whose rows form a full outcome x bipartition grid."""
    doc = _load_json(path)
    tol = doc.get("ppt_tol")
    if not _is_finite(tol):
        raise SchemaError(f"ppt report 'ppt_tol' must be a finite number, got {clipped_repr(tol)}")
    rows = _report_rows(doc, "ppt", _PPT_ROW_FIELDS)
    cells = {(r["outcome"], r["bipartition"]) for r in rows}
    outcomes = {o for o, _ in cells}
    cuts = {b for _, b in cells}
    if len(cells) != len(rows) or len(cells) != len(outcomes) * len(cuts):
        raise SchemaError("ppt report rows must hold each outcome x bipartition cell exactly once")
    return doc
