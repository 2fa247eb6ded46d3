import gc
import importlib.metadata
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from detomo import (
    HermitianOperator, ideal_povm, load_povm, make_noisy_povm, mub_preparations, NoiseSpec, Povm,
    PreparationSet, sample_counts, save_povm, validate_povm,
)
from detomo import io as dio
from detomo.cli import main


def run_cli(*argv: str) -> int:
    return main(list(argv))


# ----------------------------------------------------------------- simulate


def test_simulate_writes_counts_and_truth(tmp_path, capsys):
    out = tmp_path / "counts.json"
    code = run_cli(
        "simulate", "--n", "2", "--noise", "local_flip", "--p", "0.1",
        "--shots", "64", "--seed", "5", "--out", str(out),
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert len(doc["preparations"]) == 36
    truth = tmp_path / "counts.truth.json"
    assert truth.exists()
    assert validate_povm(load_povm(truth)).ok
    assert "36 preparations x 64 shots" in capsys.readouterr().out


def test_simulate_three_qubits(tmp_path):
    out = tmp_path / "c3.json"
    code = run_cli(
        "simulate", "--n", "3", "--noise", "entangled", "--p", "0.4",
        "--pair", "0,2", "--shots", "16", "--out", str(out),
    )
    assert code == 0
    assert len(json.loads(out.read_text())["preparations"]) == 216


def test_simulate_rejects_out_of_range_probability(tmp_path, capsys):
    code = run_cli(
        "simulate", "--n", "2", "--noise", "local_flip", "--p", "1.5",
        "--out", str(tmp_path / "x.json"),
    )
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_simulate_rejects_bad_pair(tmp_path):
    code = run_cli(
        "simulate", "--n", "2", "--noise", "entangled", "--p", "0.2",
        "--pair", "0,1,2", "--out", str(tmp_path / "x.json"),
    )
    assert code == 2


def test_simulate_rejects_zero_shots(tmp_path, capsys):
    out = tmp_path / "x.json"
    code = run_cli(
        "simulate", "--n", "2", "--noise", "local_flip", "--shots", "0", "--out", str(out),
    )
    assert code == 2
    assert "error:" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_simulate_rejects_negative_seed(tmp_path, capsys):
    out = tmp_path / "x.json"
    code = run_cli(
        "simulate", "--n", "2", "--noise", "local_flip", "--seed", "-1", "--out", str(out),
    )
    assert code == 2
    assert "seed must be non-negative" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def _simulate_then_reconstruct_huge_counts(tmp_path):
    counts = tmp_path / "counts.json"
    run_cli(
        "simulate", "--n", "2", "--noise", "local_flip", "--shots", "8", "--out", str(counts),
    )
    doc = json.loads(counts.read_text())
    _set_first_record(doc, shots=2**63, counts={"00": 2**63})
    counts.write_text(json.dumps(doc))
    return run_cli("reconstruct", "--counts", str(counts), "--out", str(tmp_path / "p.json"))


@pytest.mark.parametrize(
    "run, code, message",
    [
        (lambda tmp: run_cli(
            "simulate", "--n", "2", "--noise", "local_flip", "--p", "0.1",
            "--shots", str(2**63), "--out", str(tmp / "x.json"),
        ), 2, "error: shots must be at most 2**63 - 1"),
        (lambda tmp: run_cli(
            "simulate", "--n", "2", "--noise", "local_flip", "--p", "0.1",
            "--seed", str(2**64), "--out", str(tmp / "x.json"),
        ), 2, "error: seed must be at most 2**64 - 1"),
        (_simulate_then_reconstruct_huge_counts, 3, "schema error: preparation 0: 'shots'"),
    ],
    ids=["simulate-shots", "simulate-seed", "reconstruct-shots"],
)
def test_integers_past_numpy_range_are_refused(tmp_path, capsys, run, code, message):
    assert run(tmp_path) == code
    assert message in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists() and not (tmp_path / "p.json").exists()


@pytest.mark.parametrize("n", ["9", "0"])
def test_simulate_checks_register_size_before_building_the_povm(tmp_path, capsys, monkeypatch, n):
    monkeypatch.setattr("detomo.cli.make_noisy_povm", pytest.fail)
    code = run_cli("simulate", "--n", n, "--noise", "local_flip", "--out", str(tmp_path / "x.json"))
    assert code == 2
    assert f"supported register sizes are 1..4 qubits, got n={n}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_simulate_missing_out_flag_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        run_cli("simulate", "--n", "2", "--noise", "local_flip")
    assert exc.value.code == 2


def test_unknown_noise_kind_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli("simulate", "--n", "2", "--noise", "cosmic", "--out", str(tmp_path / "x.json"))
    assert exc.value.code == 2


def test_unwritable_output_path_is_io_error(tmp_path, capsys):
    code = run_cli(
        "simulate", "--n", "1", "--noise", "local_flip", "--shots", "8",
        "--out", str(tmp_path / "missing_dir" / "x.json"),
    )
    assert code == 1
    assert "i/o error" in capsys.readouterr().err


# -------------------------------------------------------------- reconstruct


def test_reconstruct_round_trip(tmp_path, capsys):
    counts = tmp_path / "counts.json"
    run_cli(
        "simulate", "--n", "1", "--noise", "local_flip", "--p", "0.1",
        "--shots", "4096", "--seed", "1", "--out", str(counts),
    )
    out = tmp_path / "povm.json"
    code = run_cli("reconstruct", "--counts", str(counts), "--out", str(out))
    assert code == 0
    assert "reconstructed 1-qubit POVM" in capsys.readouterr().out
    povm = load_povm(out)
    assert validate_povm(povm).ok
    diag = json.loads((tmp_path / "povm.diag.json").read_text())
    assert diag["converged"] is True
    assert set(diag["metadata"]) == {"created_at", "config", "config_hash", "inputs"}


def test_reconstruct_max_iters_ends_the_diag_trace_at_that_step(tmp_path, capsys):
    counts = tmp_path / "counts.json"
    run_cli(
        "simulate", "--n", "3", "--noise", "classical_corr", "--w", "0.3", "--p", "0.05",
        "--shots", "8192", "--seed", "11", "--out", str(counts),
    )
    out = tmp_path / "povm.json"
    assert run_cli("reconstruct", "--counts", str(counts), "--out", str(out), "--max-iters", "23") == 0
    assert "in 23 iterations (hit max_iters)" in capsys.readouterr().out
    diag = json.loads((tmp_path / "povm.diag.json").read_text())
    assert diag["iterations"] == 23 and diag["converged"] is False
    assert diag["trace_steps"][-2:] == [20, 23]
    assert len(diag["deltas"]) == len(diag["min_eigenvalues"]) == len(diag["trace_steps"])
    assert diag["final_delta"] == diag["deltas"][-1] >= 1e-6


def test_reconstruct_truncated_counts_is_schema_error(tmp_path, capsys):
    counts = tmp_path / "counts.json"
    run_cli(
        "simulate", "--n", "1", "--noise", "local_flip", "--shots", "32",
        "--out", str(counts),
    )
    counts.write_text(counts.read_text()[:-25])
    code = run_cli("reconstruct", "--counts", str(counts), "--out", str(tmp_path / "p.json"))
    assert code == 3
    assert "schema error" in capsys.readouterr().err


def test_reconstruct_rejects_inconsistent_counts(tmp_path):
    doc = {
        "version": 1,
        "qubits": [0],
        "preparations": [{"labels": ["0"], "shots": 9, "counts": {"0": 5, "1": 5}}],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert run_cli("reconstruct", "--counts", str(path), "--out", str(tmp_path / "p.json")) == 3


def test_reconstruct_parses_the_counts_file_once(tmp_path, monkeypatch):
    counts = tmp_path / "counts.json"
    run_cli(
        "simulate", "--n", "2", "--noise", "local_flip", "--shots", "64",
        "--out", str(counts),
    )
    parsed, built = [], []
    parse, post_init = dio.counts_to_tables, PreparationSet.__post_init__
    monkeypatch.setattr(dio, "counts_to_tables", lambda doc: parsed.append(doc) or parse(doc))
    monkeypatch.setattr(
        PreparationSet, "__post_init__", lambda self: built.append(self) or post_init(self)
    )
    assert run_cli("reconstruct", "--counts", str(counts), "--out", str(tmp_path / "p.json")) == 0
    assert len(parsed) == 1
    assert len(built) == 1 and built[0].num_states == 36


def test_simulate_writes_the_sampled_document_without_parsing_it(tmp_path, monkeypatch):
    counts = tmp_path / "counts.json"
    parsed = []
    parse = dio.counts_to_tables
    monkeypatch.setattr(dio, "counts_to_tables", lambda doc: parsed.append(doc) or parse(doc))
    assert run_cli(
        "simulate", "--n", "2", "--noise", "classical_corr", "--p", "0.05", "--w", "0.3",
        "--shots", "64", "--seed", "9", "--out", str(counts),
    ) == 0
    assert parsed == []
    truth = make_noisy_povm(2, NoiseSpec("classical_corr", p=0.05, w=0.3))
    sampled = sample_counts(truth, mub_preparations(2), shots=64, seed=9)
    assert json.loads(counts.read_text()) == sampled
    preps, freq = dio.load_counts(counts)
    assert preps.num_states == 36 and freq.shots.tolist() == [64] * 36


def _set_first_record(doc, **fields):
    doc["preparations"][0].update(fields)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda doc: _set_first_record(doc, counts={"0": True}, shots=1),
        lambda doc: _set_first_record(doc, counts={"0": 1}, shots=True),
        lambda doc: doc.update(qubits=[True]),
        lambda doc: doc.update(version=True),
    ],
    ids=["bool-count", "bool-shots", "bool-qubit", "bool-version"],
)
def test_reconstruct_rejects_bool_where_int_expected(tmp_path, capsys, mutate):
    counts = tmp_path / "counts.json"
    run_cli(
        "simulate", "--n", "1", "--noise", "local_flip", "--shots", "32",
        "--out", str(counts),
    )
    doc = json.loads(counts.read_text())
    mutate(doc)
    counts.write_text(json.dumps(doc))
    code = run_cli("reconstruct", "--counts", str(counts), "--out", str(tmp_path / "p.json"))
    assert code == 3
    assert "schema error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, flag", [("reconstruct", "--counts"), ("analyze", "--povm"), ("report", "--crosstalk")]
)
def test_deeply_nested_json_is_schema_error(tmp_path, capsys, command, flag):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code = run_cli(command, flag, str(path), "--out", str(tmp_path / "out"))
    assert code == 3
    assert capsys.readouterr().err == f"schema error: {path}: JSON nested too deeply\n"
    assert list(tmp_path.iterdir()) == [path]


# ------------------------------------------------------------------ analyze


def test_analyze_ideal_povm(tmp_path, capsys):
    povm_path = tmp_path / "ideal.json"
    save_povm(ideal_povm(2), povm_path)
    prefix = tmp_path / "ideal"
    code = run_cli("analyze", "--povm", str(povm_path), "--out", str(prefix))
    assert code == 0
    out = capsys.readouterr().out
    assert "max D_C = 0.0000" in out
    assert "no NPPT entanglement detected" in out
    for suffix in (".crosstalk.json", ".crosstalk.csv", ".ppt.json", ".ppt.csv"):
        assert (tmp_path / f"ideal{suffix}").exists()
    csv_text = (tmp_path / "ideal.crosstalk.csv").read_text()
    assert csv_text.splitlines()[0] == "qubits,outcome,partition,D_N,D_C,D_L_star,converged,restarts_used"
    ppt = json.loads((tmp_path / "ideal.ppt.json").read_text())
    assert all(r["verdict"] == "P" for r in ppt["rows"])


def _povm_with_small_last_element(trace: float, lowest: float) -> Povm:
    """A complete diagonal n=2 POVM whose element 11 is trace|11><11| + lowest|00><00|."""
    diagonals = [
        [1.0 - lowest, 0.0, 0.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 1.0 - trace],
        [lowest, 0.0, 0.0, trace],
    ]
    return Povm(tuple(HermitianOperator(np.diag(d).astype(complex), (0, 1)) for d in diagonals))


def test_analyze_skips_an_element_that_is_psd_only_before_normalizing(tmp_path, capsys):
    # min eigenvalue -1e-12 is within PSD_TOL, but normalized by the trace
    # 2e-9 it would be -5e-4
    povm = _povm_with_small_last_element(2e-9, -1e-12)
    assert validate_povm(povm).ok
    save_povm(povm, tmp_path / "povm.json")
    code = run_cli("analyze", "--povm", str(tmp_path / "povm.json"), "--out", str(tmp_path / "r"))
    assert code == 0, capsys.readouterr().err
    for kind in ("crosstalk", "ppt"):
        doc = json.loads((tmp_path / f"r.{kind}.json").read_text())
        assert doc["skipped_outcomes"] == ["11"]
        assert {row["outcome"] for row in doc["rows"]} == {"00", "01", "10"}


def test_analyze_refuses_an_element_that_is_not_psd(tmp_path, capsys):
    povm = _povm_with_small_last_element(0.5, -1e-3)
    save_povm(povm, tmp_path / "povm.json")
    code = run_cli("analyze", "--povm", str(tmp_path / "povm.json"), "--out", str(tmp_path / "r"))
    assert code == 2
    assert "normalized element must be PSD" in capsys.readouterr().err


def test_analyze_accepts_explicit_partitions(tmp_path):
    povm_path = tmp_path / "ideal.json"
    save_povm(ideal_povm(2), povm_path)
    prefix = tmp_path / "r"
    code = run_cli(
        "analyze", "--povm", str(povm_path), "--out", str(prefix),
        "--partitions", "0:1", "--format", "json",
    )
    assert code == 0
    doc = json.loads((tmp_path / "r.crosstalk.json").read_text())
    assert {row["partition"] for row in doc["rows"]} == {"0:1"}
    assert not (tmp_path / "r.crosstalk.csv").exists()


def test_analyze_rejects_malformed_partition(tmp_path, capsys):
    povm_path = tmp_path / "ideal.json"
    save_povm(ideal_povm(2), povm_path)
    code = run_cli(
        "analyze", "--povm", str(povm_path), "--out", str(tmp_path / "r"),
        "--partitions", "0::1",
    )
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_analyze_rejects_a_partition_given_twice(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("detomo.crosstalk.fit_products", pytest.fail)
    povm_path = tmp_path / "ideal.json"
    save_povm(ideal_povm(2), povm_path)
    code = run_cli(
        "analyze", "--povm", str(povm_path), "--out", str(tmp_path / "r"),
        "--partitions", "0:1", "--partitions", "0:(1)",
    )
    assert code == 2
    assert capsys.readouterr().err == "error: partition 0:1 is given twice\n"
    assert sorted(tmp_path.iterdir()) == [povm_path]


def _set_entry(doc, part, value):
    doc["elements"]["00"][part][0][0] = value


@pytest.mark.parametrize(
    "n, mutate",
    [
        (2, lambda doc: _set_entry(doc, "re", float("nan"))),
        (2, lambda doc: _set_entry(doc, "re", float("inf"))),
        (2, lambda doc: _set_entry(doc, "im", float("-inf"))),
        (2, lambda doc: doc["elements"]["00"].update(dim=True)),
        (1, lambda doc: doc.update(n=True)),
        (2, lambda doc: _set_entry(doc, "re", "1.0")),
        (2, lambda doc: _set_entry(doc, "im", False)),
    ],
    ids=[
        "nan-entry", "inf-entry", "minus-inf-entry", "bool-dim", "bool-n",
        "string-entry", "bool-entry",
    ],
)
def test_analyze_rejects_malformed_povm_file(tmp_path, capsys, n, mutate):
    povm_path = tmp_path / "bad.json"
    save_povm(ideal_povm(n), povm_path)
    doc = json.loads(povm_path.read_text())
    mutate(doc)
    povm_path.write_text(json.dumps(doc))  # NaN/Infinity as json.loads accepts them
    code = run_cli("analyze", "--povm", str(povm_path), "--out", str(tmp_path / "r"))
    assert code == 3
    assert "schema error" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf"])
def test_analyze_rejects_non_finite_ppt_tol(tmp_path, capsys, tol):
    povm_path = Path(__file__).parent / "golden" / "povm.json"
    code = run_cli("analyze", "--povm", str(povm_path), "--out", str(tmp_path / "r"), f"--ppt-tol={tol}")
    assert code == 2
    assert "ppt_tol" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_analyze_rejects_removed_fit_flags(tmp_path):
    povm_path = tmp_path / "ideal.json"
    save_povm(ideal_povm(2), povm_path)
    for flag in ("--restarts", "--seed"):
        with pytest.raises(SystemExit) as exc:
            run_cli("analyze", "--povm", str(povm_path), "--out", str(tmp_path / "r"), flag, "3")
        assert exc.value.code == 2


def test_analyze_reruns_are_identical_up_to_timestamp(tmp_path):
    povm_path = tmp_path / "noisy.json"
    save_povm(make_noisy_povm(2, NoiseSpec(kind="classical_corr", w=0.6)), povm_path)
    for prefix in ("a", "b"):
        assert run_cli("analyze", "--povm", str(povm_path), "--out", str(tmp_path / prefix)) == 0
    docs = []
    for prefix in ("a", "b"):
        doc = json.loads((tmp_path / f"{prefix}.crosstalk.json").read_text())
        doc["metadata"].pop("created_at")
        docs.append(doc)
    assert docs[0] == docs[1]
    assert (tmp_path / "a.crosstalk.csv").read_bytes() == (tmp_path / "b.crosstalk.csv").read_bytes()
    assert (tmp_path / "a.ppt.csv").read_bytes() == (tmp_path / "b.ppt.csv").read_bytes()


# ------------------------------------------------------------------- report


CROSSTALK_DOC = {
    "qubits": [0, 1],
    "resolution": 1e-3,
    "rows": [
        {
            "qubits": "0,1",
            "outcome": "00",
            "partition": "0:1",
            "D_N": 0.11584,
            "D_C": 0.02191,
            "D_L_star": 0.11592,
            "converged": True,
            "restarts_used": 3,
            "triangle_residual": -0.022,
            "resolved": True,
        },
        {
            "qubits": "0,1",
            "outcome": "01",
            "partition": "0:1",
            "D_N": 0.1,
            "D_C": 0.0004,
            "D_L_star": 0.1,
            "converged": True,
            "restarts_used": 3,
            "triangle_residual": -0.0004,
            "resolved": False,
        },
    ],
    "skipped_outcomes": ["10"],
    "metadata": {},
}

PPT_DOC = {
    "qubits": [0, 1],
    "ppt_tol": 1e-7,
    "rows": [
        {
            "outcome": "00",
            "bipartition": "0:1",
            "min_eigenvalue": -0.5,
            "negativity": 0.5,
            "verdict": "N",
            "borderline": False,
        },
        {
            "outcome": "01",
            "bipartition": "0:1",
            "min_eigenvalue": 0.02,
            "negativity": 0.0,
            "verdict": "P",
            "borderline": False,
        },
    ],
    "skipped_outcomes": [],
    "metadata": {},
}


def test_report_renders_four_decimal_tables(tmp_path, capsys):
    xpath = tmp_path / "x.json"
    ppath = tmp_path / "p.json"
    xpath.write_text(json.dumps(CROSSTALK_DOC))
    ppath.write_text(json.dumps(PPT_DOC))
    code = run_cli("report", "--crosstalk", str(xpath), "--ppt", str(ppath))
    assert code == 0
    out = capsys.readouterr().out
    row = next(line for line in out.splitlines() if line.strip().startswith("00") and "0.1158" in line)
    assert "0.1158" in row and "0.0219" in row and "0.1159" in row
    assert "(below resolution)" in out
    assert "skipped near-zero elements: 10" in out
    assert "N  -0.5000" in out
    assert "NPPT entanglement detected in outcomes: 00" in out


def test_report_writes_file_when_asked(tmp_path, capsys):
    xpath = tmp_path / "x.json"
    xpath.write_text(json.dumps(CROSSTALK_DOC))
    out = tmp_path / "rendered.txt"
    assert run_cli("report", "--crosstalk", str(xpath), "--out", str(out)) == 0
    assert "partition 0:1" in out.read_text()
    assert f"wrote {out}" in capsys.readouterr().out


def test_report_without_inputs_is_usage_error(capsys):
    assert run_cli("report") == 2
    assert "error:" in capsys.readouterr().err


# -------------------------------------------------------------- entry point


def test_parser_cycles_die_young(capsys):
    # With a collection on every allocation and no full one, a parser built
    # while the collector runs is promoted while in use and then only a full
    # collection frees it; main builds it with the collector paused.
    thresholds = gc.get_threshold()
    gc.collect()
    gc.set_threshold(1, 1, 10**9)
    try:
        assert run_cli("report") == 2
        assert gc.isenabled()
        gc.collect(1)
        left = gc.collect()
    finally:
        gc.set_threshold(*thresholds)
    assert left < 50
    gc.disable()
    try:
        assert run_cli("report") == 2
        assert not gc.isenabled()  # a caller's paused collector stays paused
    finally:
        gc.enable()


def test_runtime_imports_numpy_only():
    import detomo

    src = str(Path(detomo.__file__).resolve().parent.parent)
    code = "import sys, detomo, detomo.cli; print('scipy' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src}, check=True,
    )
    assert proc.stdout.strip() == "False"


def _distribution_installed(name: str) -> bool:
    try:
        importlib.metadata.distribution(name)
    except importlib.metadata.PackageNotFoundError:
        return False
    return True


# The console script exists only where the distribution is installed (README,
# "Install"); a source checkout on PYTHONPATH has no entry-point metadata. The
# condition is the missing distribution, not a missing script, so a broken
# [project.scripts] still fails wherever the package is installed.
@pytest.mark.skipif(
    not _distribution_installed("detomo"),
    reason="detomo distribution is not installed (no package metadata); "
    "run `pip install -e .` to test the console script",
)
def test_console_script_is_installed(tmp_path):
    exe = shutil.which("detomo")
    assert exe, "console script 'detomo' not on PATH"
    out = tmp_path / "c.json"
    proc = subprocess.run(
        [exe, "simulate", "--n", "1", "--noise", "local_flip", "--shots", "8",
         "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert out.exists()
