import json

import numpy as np
import pytest

from conftest import random_element, random_povm
from detomo import (
    CROSSTALK_CSV_COLUMNS,
    DC_RESOLUTION,
    PPT_CSV_COLUMNS,
    CrosstalkReport,
    CrosstalkRow,
    MleDiagnostics,
    NoiseSpec,
    PptReport,
    PptRow,
    SchemaError,
    analyze_povm,
    classify_povm,
    config_hash,
    counts_to_tables,
    crosstalk_report_to_csv,
    crosstalk_report_to_dict,
    diagnostics_to_dict,
    ideal_povm,
    load_counts,
    load_povm,
    make_noisy_povm,
    mle_reconstruct,
    mub_preparations,
    operator_from_dict,
    operator_to_dict,
    povm_from_dict,
    povm_to_dict,
    ppt_report_to_csv,
    ppt_report_to_dict,
    round_povm,
    sample_counts,
    save_counts,
    save_povm,
    write_crosstalk_csv,
    write_crosstalk_json,
    write_ppt_csv,
    write_ppt_json,
)
from detomo.cli import main as cli_main
from detomo.io import load_ppt_report


# ---------------------------------------------------------------- operators


def test_operator_dict_round_trip_is_exact():
    op = random_element(2, np.random.default_rng(1)).op
    back = operator_from_dict(json.loads(json.dumps(operator_to_dict(op))))
    np.testing.assert_array_equal(back.matrix, op.matrix)
    assert back.qubit_labels == op.qubit_labels


def test_operator_from_dict_schema_errors():
    good = operator_to_dict(random_element(1, np.random.default_rng(2)).op)
    for key in ("dim", "labels", "re", "im"):
        bad = dict(good)
        del bad[key]
        with pytest.raises(SchemaError):
            operator_from_dict(bad)
    bad = dict(good)
    bad["dim"] = 3
    with pytest.raises(SchemaError):
        operator_from_dict(bad)
    bad = dict(good)
    bad["re"] = [[1.0]]
    with pytest.raises(SchemaError):
        operator_from_dict(bad)
    bad = dict(good)
    bad["labels"] = [0, 1]
    with pytest.raises(SchemaError):
        operator_from_dict(bad)
    bad = dict(good)
    bad["re"] = [["x", 0.0], [0.0, 0.0]]
    with pytest.raises(SchemaError):
        operator_from_dict(bad)


def test_povm_file_round_trip(tmp_path):
    povm = random_povm(2, np.random.default_rng(3))
    path = tmp_path / "povm.json"
    save_povm(povm, path)
    back = load_povm(path)
    for outcome in povm.outcomes:
        np.testing.assert_array_equal(back.element(outcome).matrix, povm.element(outcome).matrix)


def test_povm_from_dict_missing_element():
    doc = povm_to_dict(ideal_povm(2))
    del doc["elements"]["01"]
    with pytest.raises(SchemaError, match="'01'"):
        povm_from_dict(doc)


def test_povm_load_rejects_truncated_json(tmp_path):
    path = tmp_path / "broken.json"
    save_povm(ideal_povm(1), path)
    path.write_text(path.read_text()[:-30])
    with pytest.raises(SchemaError, match="not valid JSON"):
        load_povm(path)


# ------------------------------------------------------------------- counts


def counts_fixture() -> dict:
    povm = make_noisy_povm(2, NoiseSpec(kind="local_flip", p=0.05))
    return sample_counts(povm, mub_preparations(2), shots=400, seed=8)


def test_counts_file_round_trip(tmp_path):
    doc = counts_fixture()
    path = tmp_path / "counts.json"
    save_counts(doc, path)
    assert json.loads(path.read_text()) == doc
    preps, table = load_counts(path)
    expected_preps, expected_table = counts_to_tables(doc)
    assert preps == expected_preps
    np.testing.assert_array_equal(table.frequencies, expected_table.frequencies)
    np.testing.assert_array_equal(table.shots, expected_table.shots)


def test_counts_to_tables_fills_missing_outcomes_with_zeros():
    doc = {
        "version": 1,
        "qubits": [0, 1],
        "preparations": [
            {"labels": ["0", "0"], "shots": 10, "counts": {"00": 7, "11": 3}},
            {"labels": ["+", "1"], "shots": 10, "counts": {"01": 10}},
        ],
    }
    preps, table = counts_to_tables(doc)
    assert preps.num_states == 2
    np.testing.assert_allclose(table.frequencies[:, 0], [0.7, 0.0, 0.0, 0.3])
    np.testing.assert_allclose(table.frequencies[:, 1], [0.0, 1.0, 0.0, 0.0])


def test_counts_to_tables_names_offending_record():
    doc = counts_fixture()
    doc["preparations"][5]["shots"] += 1
    with pytest.raises(SchemaError, match="preparation 5"):
        counts_to_tables(doc)


def test_counts_to_tables_rejects_bad_outcome_key():
    doc = counts_fixture()
    doc["preparations"][0]["counts"]["012"] = 0
    with pytest.raises(SchemaError, match="'012'"):
        counts_to_tables(doc)


def test_counts_to_tables_rejects_bad_headers():
    with pytest.raises(SchemaError):
        counts_to_tables({"version": 2, "qubits": [0], "preparations": []})
    with pytest.raises(SchemaError):
        counts_to_tables({"version": 1, "qubits": [0, 0], "preparations": []})
    with pytest.raises(SchemaError):
        counts_to_tables({"version": 1, "qubits": [0], "preparations": []})


def test_counts_to_tables_rejects_unknown_state_label():
    doc = {
        "version": 1,
        "qubits": [0],
        "preparations": [{"labels": ["up"], "shots": 5, "counts": {"0": 5}}],
    }
    with pytest.raises(SchemaError, match="up"):
        counts_to_tables(doc)


@pytest.mark.parametrize("bad", ["x", 7])
def test_counts_label_outside_the_alphabet_names_its_record(tmp_path, capsys, bad):
    doc = counts_fixture()
    doc["preparations"][3]["labels"][1] = bad
    message = f"preparation 3: unknown preparation label {bad!r}"
    path = tmp_path / "counts.json"
    with pytest.raises(SchemaError) as exc:
        save_counts(doc, path)
    assert str(exc.value) == message
    assert not path.exists()
    with pytest.raises(SchemaError) as exc:
        counts_to_tables(doc)
    assert str(exc.value) == message
    path.write_text(json.dumps(doc))
    code = cli_main(["reconstruct", "--counts", str(path), "--out", str(tmp_path / "p.json")])
    assert code == 3
    assert capsys.readouterr().err == f"schema error: {message}\n"


def test_load_counts_rejects_truncated_file(tmp_path):
    path = tmp_path / "counts.json"
    save_counts(counts_fixture(), path)
    path.write_text(path.read_text()[:-40])
    with pytest.raises(SchemaError):
        load_counts(path)


# ------------------------------------------------------------------ reports


def test_crosstalk_csv_header_is_pinned():
    report = analyze_povm(ideal_povm(2))
    text = crosstalk_report_to_csv(report)
    assert text.splitlines()[0] == ",".join(CROSSTALK_CSV_COLUMNS)
    assert len(text.splitlines()) == 1 + len(report.rows)


def test_ppt_csv_header_is_pinned():
    report = classify_povm(ideal_povm(2))
    text = ppt_report_to_csv(report)
    assert text.splitlines()[0] == ",".join(PPT_CSV_COLUMNS)
    assert len(text.splitlines()) == 1 + len(report.rows)


def test_report_writers_are_deterministic(tmp_path):
    povm = make_noisy_povm(2, NoiseSpec(kind="classical_corr", w=0.5))
    xreport = analyze_povm(povm)
    preport = classify_povm(povm)
    meta = {"config": {"seed": 7}}
    paths = [tmp_path / name for name in ("x1.json", "x2.json", "x1.csv", "x2.csv")]
    write_crosstalk_json(xreport, paths[0], meta)
    write_crosstalk_json(xreport, paths[1], meta)
    write_crosstalk_csv(xreport, paths[2])
    write_crosstalk_csv(xreport, paths[3])
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert paths[2].read_bytes() == paths[3].read_bytes()

    p1, p2 = tmp_path / "p1.json", tmp_path / "p2.json"
    write_ppt_json(preport, p1)
    write_ppt_json(preport, p2)
    assert p1.read_bytes() == p2.read_bytes()
    c1, c2 = tmp_path / "p1.csv", tmp_path / "p2.csv"
    write_ppt_csv(preport, c1)
    write_ppt_csv(preport, c2)
    assert c1.read_bytes() == c2.read_bytes()


def test_crosstalk_json_rows_carry_diagnostics(tmp_path):
    report = analyze_povm(ideal_povm(2))
    path = tmp_path / "x.json"
    write_crosstalk_json(report, path, {"created_at": "now"})
    doc = json.loads(path.read_text())
    row = doc["rows"][0]
    for key in ("triangle_residual", "resolved", "converged", "restarts_used"):
        assert key in row
    assert doc["metadata"] == {"created_at": "now"}
    assert doc["resolution"] == DC_RESOLUTION


def test_config_hash_ignores_key_order():
    a = config_hash({"p": 0.1, "kind": "local_flip"})
    b = config_hash({"kind": "local_flip", "p": 0.1})
    assert a == b
    assert a != config_hash({"kind": "local_flip", "p": 0.2})


# ---------------------------------------------------------------- precision


def _xrow(d_n: float, d_c: float, d_l: float, residual: float) -> CrosstalkRow:
    return CrosstalkRow(
        outcome="00", partition="0:1", d_n=d_n, d_c=d_c, d_l_star=d_l,
        converged=True, restarts_used=3, triangle_residual=residual, resolved=False,
    )


def test_negative_zero_is_written_as_zero():
    xreport = CrosstalkReport((0, 1), (_xrow(-0.0, -1e-13, -0.0, -4e-17),), ())
    preport = PptReport((0, 1), (PptRow("00", "0:1", -2e-16, -0.0, "P", True),), (), 1e-7)
    diag = MleDiagnostics(
        iterations=1, converged=True, final_delta=-0.0,
        log_likelihoods=np.array([-0.0]), trace_steps=np.array([1]), deltas=np.array([-1e-12]),
        completeness_residuals=np.array([3e-16]), min_eigenvalues=np.array([-1e-16]),
    )
    texts = [
        json.dumps(crosstalk_report_to_dict(xreport)),
        json.dumps(ppt_report_to_dict(preport)),
        json.dumps(diagnostics_to_dict(diag)),
        crosstalk_report_to_csv(xreport),
        ppt_report_to_csv(preport),
    ]
    for text in texts:
        assert "-0.0" not in text
    assert '"D_N": 0.0,' in texts[0] and '"triangle_residual": 0.0,' in texts[0]
    assert '"min_eigenvalue": 0.0,' in texts[1] and '"negativity": 0.0,' in texts[1]
    assert '"final_delta": 0.0,' in texts[2] and '"min_eigenvalues": [0.0]' in texts[2]
    assert texts[3].splitlines()[1] == '"0,1",00,0:1,0.0,0.0,0.0,True,3'
    assert texts[4].splitlines()[1] == "00,0:1,0.0,0.0,P"


def test_measured_fields_are_written_at_ten_decimals():
    povm = make_noisy_povm(2, NoiseSpec(kind="entangled", p=0.3))
    xreport = analyze_povm(povm)
    preport = classify_povm(povm)
    xrows = crosstalk_report_to_dict(xreport)["rows"]
    for row, r in zip(xrows, xreport.rows):
        for key, value in (
            ("D_N", r.d_n), ("D_C", r.d_c), ("D_L_star", r.d_l_star),
            ("triangle_residual", r.triangle_residual),
        ):
            assert row[key] == round(value, 10)
    prows = ppt_report_to_dict(preport)["rows"]
    for row, r in zip(prows, preport.rows):
        assert row["min_eigenvalue"] == round(r.min_eigenvalue, 10)
        assert row["negativity"] == round(r.negativity, 10)
    assert any(round(r.min_eigenvalue, 10) != r.min_eigenvalue for r in preport.rows)

    csv_rows = [line.split(",")[-5:-2] for line in crosstalk_report_to_csv(xreport).splitlines()[1:]]
    assert csv_rows == [[repr(row[k]) for k in ("D_N", "D_C", "D_L_star")] for row in xrows]
    ppt_rows = [line.split(",")[2:4] for line in ppt_report_to_csv(preport).splitlines()[1:]]
    assert ppt_rows == [[repr(row["min_eigenvalue"]), repr(row["negativity"])] for row in prows]

    diag = MleDiagnostics(
        iterations=2, converged=False, final_delta=1.0 / 3.0,
        log_likelihoods=np.array([-49.906597000316071, -42.9174794109192]),
        trace_steps=np.array([1, 2], dtype=np.int64),
        deltas=np.array([0.12345678901234, 2.0 / 3.0]),
        completeness_residuals=np.array([1.5e-11, 4.4e-16]),
        min_eigenvalues=np.array([1e-16, 0.123456789012345]),
    )
    doc = diagnostics_to_dict(diag)
    assert '"trace_steps": [1, 2],' in json.dumps(doc)
    assert doc["final_delta"] == 0.3333333333
    assert doc["log_likelihoods"] == [-49.9065970003, -42.9174794109]
    assert doc["deltas"] == [0.123456789, 0.6666666667]
    assert doc["completeness_residuals"] == [0.0, 0.0]
    assert doc["min_eigenvalues"] == [0.0, 0.123456789]


@pytest.mark.parametrize("max_iters", [7, 23, 10000])
def test_diagnostics_list_the_spectra_of_the_traced_steps(max_iters):
    preps = mub_preparations(2)
    freq = counts_to_tables(
        sample_counts(make_noisy_povm(2, NoiseSpec(kind="entangled", p=0.6)), preps, 8192, seed=2024)
    )[1]
    _, diag = mle_reconstruct(freq, preps, max_iters=max_iters)
    doc = json.loads(json.dumps(diagnostics_to_dict(diag)))
    assert list(doc) == [
        "iterations", "converged", "final_delta", "log_likelihoods", "trace_steps",
        "deltas", "completeness_residuals", "min_eigenvalues",
    ]
    steps = doc["trace_steps"]
    assert all(type(step) is int for step in steps)
    assert steps == sorted(set(steps)) and steps[0] >= 1
    assert len(steps) == len(doc["deltas"]) == len(doc["min_eigenvalues"])
    assert steps[-1] == doc["iterations"] == min(max_iters, 32)
    assert doc["final_delta"] == doc["deltas"][-1]
    assert set(range(10, doc["iterations"] + 1, 10)) <= set(steps)
    assert len(doc["log_likelihoods"]) == doc["iterations"] + 1
    assert len(doc["completeness_residuals"]) == doc["iterations"]


def test_configuration_echoes_are_written_as_given(tmp_path):
    ppt_tol = 9.87654321012345e-14
    meta = {"config": {"epsilon": 1.2345678901234567e-13, "ppt_tol": ppt_tol, "seed": 7}}
    xreport = CrosstalkReport((0, 1), (_xrow(0.1, 0.05, 0.06, -0.01),), ())
    preport = PptReport((0, 1), (), (), ppt_tol)
    write_crosstalk_json(xreport, tmp_path / "x.json", meta)
    write_ppt_json(preport, tmp_path / "p.json", meta)
    xdoc = json.loads((tmp_path / "x.json").read_text())
    pdoc = json.loads((tmp_path / "p.json").read_text())
    assert pdoc["ppt_tol"] == ppt_tol
    assert xdoc["metadata"] == meta and pdoc["metadata"] == meta


@pytest.mark.parametrize(
    "tol", [1e-7, np.float64(1e-7), np.float32(1e-3), 1, np.int64(2)],
    ids=["float", "float64", "float32", "int", "int64"],
)
def test_a_ppt_report_written_with_any_accepted_ppt_tol_loads(tmp_path, tol):
    report = classify_povm(ideal_povm(2), ppt_tol=tol)
    assert type(report.ppt_tol) is float and report.ppt_tol == float(tol)
    write_ppt_json(report, tmp_path / "p.json")
    assert load_ppt_report(tmp_path / "p.json")["ppt_tol"] == float(tol)


def test_cli_reconstruct_writes_povm_on_grid(tmp_path):
    counts, out = tmp_path / "counts.json", tmp_path / "povm.json"
    assert cli_main([
        "simulate", "--n", "2", "--noise", "classical_corr", "--w", "0.3",
        "--shots", "2048", "--seed", "4", "--out", str(counts),
    ]) == 0
    assert cli_main(["reconstruct", "--counts", str(counts), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    entries = [
        v
        for op in doc["elements"].values()
        for part in ("re", "im")
        for row in op[part]
        for v in row
    ]
    assert all(v == round(v, 12) for v in entries)
    assert any(v != round(v, 10) for v in entries)
    povm = load_povm(out)
    assert povm_to_dict(round_povm(povm)) == doc
    again = tmp_path / "again.json"
    save_povm(povm, again)
    assert again.read_bytes() == out.read_bytes()
