"""Malformed counts, POVM and report documents: every one must exit 3, never raise.

Each example takes a valid document, applies one mutation that the
documented schema forbids (a dropped key, a wrong type, a non-finite number,
a wrong shape, a bad label, a broken count sum, a ragged outcome x
bipartition grid) and runs the command that reads it.
"""

import copy
import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from detomo import (
    classify_povm, ideal_povm, make_noisy_povm, mub_preparations, NoiseSpec, sample_counts,
)
from detomo.cli import main
from detomo.io import povm_to_dict, ppt_report_to_dict
from detomo.tomography import MUB_LABELS

GOLDEN = Path(__file__).parent / "golden"
N = 2
BASE_CROSSTALK = json.loads((GOLDEN / "report.crosstalk.json").read_text())
# three qubits, so that the PPT rows form an 8 x 3 outcome x bipartition grid
BASE_PPT = ppt_report_to_dict(
    classify_povm(make_noisy_povm(3, NoiseSpec(kind="local_flip", p=0.1)))
)
BASE_COUNTS = sample_counts(ideal_povm(N), mub_preparations(N), shots=16, seed=0)
BASE_POVM = povm_to_dict(make_noisy_povm(N, NoiseSpec(kind="local_flip", p=0.1)))

FUZZ = settings(
    derandomize=True,
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

NON_FINITE = st.sampled_from([float("nan"), float("inf"), float("-inf")])
# JSON numbers that no finite float holds: the above and integers past the float range.
NOT_FLOAT = st.one_of(NON_FINITE, st.sampled_from([10**400, -(10**400)]))
# JSON values that are never an integer: floats (3.0 included), strings, null,
# true/false, arrays and objects.
NOT_INT = st.one_of(
    st.none(),
    st.booleans(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=3),
    st.lists(st.integers(-2, 2), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(-2, 2), max_size=2),
)
NOT_LIST = st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=3),
                     st.dictionaries(st.text(max_size=2), st.integers(), max_size=2))
NOT_DICT = st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=3),
                     st.lists(st.integers(), max_size=2))
NOT_STR = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                    st.lists(st.text(max_size=2), max_size=2))
NOT_NUMBER = st.one_of(st.none(), st.booleans(), st.text(max_size=3),
                       st.lists(st.floats(), max_size=2),
                       st.dictionaries(st.text(max_size=2), st.floats(), max_size=2))


def _mutate_counts(doc: dict, data) -> dict:
    records = doc["preparations"]
    rec = records[data.draw(st.integers(0, len(records) - 1), label="record")]
    kind = data.draw(st.sampled_from(
        ["drop", "type", "non-finite", "shape", "label", "sum", "top-level"]
    ), label="kind")
    if kind == "drop":
        key = data.draw(st.sampled_from(["version", "qubits", "preparations",
                                         "labels", "shots", "counts"]), label="key")
        del (doc if key in doc else rec)[key]
    elif kind == "type":
        field = data.draw(st.sampled_from(["version", "qubits", "qubit", "preparations",
                                           "record", "labels", "label", "shots",
                                           "counts", "count"]), label="field")
        if field == "version":
            doc["version"] = data.draw(NOT_INT)
        elif field == "qubits":
            doc["qubits"] = data.draw(NOT_LIST)
        elif field == "qubit":
            doc["qubits"][0] = data.draw(NOT_INT)
        elif field == "preparations":
            doc["preparations"] = data.draw(NOT_LIST)
        elif field == "record":
            records[0] = data.draw(NOT_DICT)
        elif field == "labels":
            rec["labels"] = data.draw(NOT_LIST)
        elif field == "label":
            rec["labels"][0] = data.draw(NOT_STR)
        elif field == "shots":
            rec["shots"] = data.draw(NOT_INT)
        elif field == "counts":
            rec["counts"] = data.draw(NOT_DICT)
        else:
            rec["counts"][next(iter(rec["counts"]))] = data.draw(NOT_INT)
    elif kind == "non-finite":
        value = data.draw(NON_FINITE)
        where = data.draw(st.sampled_from(["version", "qubit", "shots", "count"]))
        if where == "version":
            doc["version"] = value
        elif where == "qubit":
            doc["qubits"][0] = value
        elif where == "shots":
            rec["shots"] = value
        else:
            rec["counts"][next(iter(rec["counts"]))] = value
    elif kind == "shape":
        what = data.draw(st.sampled_from(["short-labels", "long-labels", "outcome-key",
                                          "extra-qubit", "duplicate-qubit", "no-records",
                                          "version"]))
        if what == "short-labels":
            rec["labels"] = rec["labels"][:-1]
        elif what == "long-labels":
            rec["labels"] = rec["labels"] + ["0"]
        elif what == "outcome-key":
            key = data.draw(st.text(alphabet="01a2 ", max_size=4).filter(
                lambda k: len(k) != N or set(k) - set("01")))
            old = next(iter(rec["counts"]))
            rec["counts"][key] = rec["counts"].pop(old)
        elif what == "extra-qubit":
            doc["qubits"] = doc["qubits"] + [max(doc["qubits"]) + 1]
        elif what == "duplicate-qubit":
            doc["qubits"] = [doc["qubits"][0]] * N
        elif what == "no-records":
            doc["preparations"] = []
        else:
            doc["version"] = data.draw(st.integers().filter(lambda v: v != 1))
    elif kind == "label":
        q = data.draw(st.integers(0, N - 1))
        rec["labels"][q] = data.draw(st.one_of(
            st.text(max_size=3).filter(lambda s: s not in MUB_LABELS), NOT_STR
        ))
    elif kind == "sum":
        if data.draw(st.booleans(), label="shots"):
            rec["shots"] += data.draw(st.integers(-20, 20).filter(bool))
        else:
            key = next(iter(rec["counts"]))
            rec["counts"][key] += data.draw(st.integers(-20, 20).filter(bool))
    else:
        return data.draw(st.one_of(NOT_DICT, st.just([doc])))
    return doc


def _mutate_povm(doc: dict, data) -> dict:
    outcome = data.draw(st.sampled_from(sorted(doc["elements"])), label="outcome")
    elem = doc["elements"][outcome]
    dim = elem["dim"]
    part = data.draw(st.sampled_from(["re", "im"]), label="part")
    row = data.draw(st.integers(0, dim - 1), label="row")
    col = data.draw(st.integers(0, dim - 1), label="col")
    kind = data.draw(st.sampled_from(
        ["drop", "type", "non-finite", "shape", "label", "top-level"]
    ), label="kind")
    if kind == "drop":
        key = data.draw(st.sampled_from(["n", "elements", "outcome", "dim", "labels", "re", "im"]))
        if key in doc:
            del doc[key]
        elif key == "outcome":
            del doc["elements"][outcome]
        else:
            del elem[key]
    elif kind == "type":
        field = data.draw(st.sampled_from(["n", "elements", "element", "dim", "labels",
                                           "matrix", "row", "entry"]))
        if field == "n":
            doc["n"] = data.draw(NOT_INT)
        elif field == "elements":
            doc["elements"] = data.draw(NOT_DICT)
        elif field == "element":
            doc["elements"][outcome] = data.draw(NOT_DICT)
        elif field == "dim":
            elem["dim"] = data.draw(NOT_INT)
        elif field == "labels":
            elem["labels"] = data.draw(NOT_LIST)
        elif field == "matrix":
            elem[part] = data.draw(NOT_LIST)
        elif field == "row":
            elem[part][row] = data.draw(NOT_LIST)
        else:
            elem[part][row][col] = data.draw(NOT_NUMBER)
    elif kind == "non-finite":
        elem[part][row][col] = data.draw(NOT_FLOAT)
    elif kind == "shape":
        what = data.draw(st.sampled_from(["n", "dim", "short-row", "long-row", "drop-row",
                                          "short-labels", "long-labels", "duplicate-labels"]))
        if what == "n":
            doc["n"] = data.draw(st.integers(-2, 6).filter(lambda v: v != N))
        elif what == "dim":
            elem["dim"] = data.draw(st.integers(-2, 20).filter(lambda v: v != dim))
        elif what == "short-row":
            elem[part][row] = elem[part][row][:-1]
        elif what == "long-row":
            elem[part][row] = elem[part][row] + [0.0]
        elif what == "drop-row":
            del elem[part][row]
        elif what == "short-labels":
            elem["labels"] = elem["labels"][:-1]
        elif what == "long-labels":
            elem["labels"] = elem["labels"] + [max(elem["labels"]) + 1]
        else:
            elem["labels"] = [elem["labels"][0]] * N
    elif kind == "label":
        # qubit labels are integers shared by every element
        q = data.draw(st.integers(0, N - 1))
        elem["labels"][q] = data.draw(st.one_of(
            NOT_INT, st.integers(10, 20), st.sampled_from(["0", "1"])
        ))
    else:
        return data.draw(st.one_of(NOT_DICT, st.just([doc])))
    return doc


# The row keys `detomo report` reads, with values of the wrong type for each.
CROSSTALK_ROW_KEYS = {
    "outcome": NOT_STR, "partition": NOT_STR,
    "D_N": NOT_NUMBER, "D_C": NOT_NUMBER, "D_L_star": NOT_NUMBER,
    "resolved": st.one_of(st.none(), st.integers(), st.floats(), st.text(max_size=3)),
}
PPT_ROW_KEYS = {"outcome": NOT_STR, "bipartition": NOT_STR, "min_eigenvalue": NOT_NUMBER,
                "verdict": st.one_of(NOT_STR, st.text(max_size=3).filter(lambda v: v not in "PN"))}


def _mutate_report(doc: dict, row_keys: dict, data) -> dict:
    rows = doc["rows"]
    row = rows[data.draw(st.integers(0, len(rows) - 1), label="row")]
    key = data.draw(st.sampled_from(sorted(row_keys)), label="key")
    ppt = "ppt_tol" in doc
    kinds = ["drop", "type", "non-finite", "top-level"] + (["grid"] if ppt else [])
    kind = data.draw(st.sampled_from(kinds), label="kind")
    if kind == "drop":
        where = data.draw(st.sampled_from(["qubits", "rows", "row"] + (["ppt_tol"] if ppt else [])))
        del (row if where == "row" else doc)[key if where == "row" else where]
    elif kind == "type":
        field = data.draw(st.sampled_from(["qubits", "qubit", "rows", "row", "value",
                                           "skipped_outcomes"] + (["ppt_tol"] if ppt else [])))
        if field == "qubits":
            doc["qubits"] = data.draw(NOT_LIST)
        elif field == "qubit":
            doc["qubits"][0] = data.draw(NOT_INT)
        elif field == "rows":
            doc["rows"] = data.draw(NOT_LIST)
        elif field == "row":
            rows[0] = data.draw(NOT_DICT)
        elif field == "value":
            row[key] = data.draw(row_keys[key])
        elif field == "skipped_outcomes":
            doc["skipped_outcomes"] = data.draw(st.one_of(NOT_LIST, st.just([0])))
        else:
            doc["ppt_tol"] = data.draw(NOT_NUMBER)
    elif kind == "non-finite":
        numbers = [k for k in row_keys if k.startswith(("D_", "min_"))]
        row[data.draw(st.sampled_from(numbers))] = data.draw(NOT_FLOAT)
    elif kind == "grid":
        what = data.draw(st.sampled_from(["drop-row", "duplicate-row", "rename-outcome",
                                          "rename-cut"]))
        if what == "drop-row":
            rows.remove(row)
        elif what == "duplicate-row":
            rows.append(copy.deepcopy(row))
        elif what == "rename-outcome":
            row["outcome"] = "11x"
        else:
            row["bipartition"] = "(0,1):2"
    else:
        return data.draw(st.one_of(NOT_DICT, st.just([doc]), st.just(BASE_POVM)))
    return doc


def _assert_schema_error(code: int, capsys) -> str:
    err = capsys.readouterr().err
    assert code == 3, err
    assert "schema error" in err
    return err


@FUZZ
@given(data=st.data())
def test_reconstruct_exits_3_on_malformed_counts(tmp_path, capsys, data):
    doc = _mutate_counts(copy.deepcopy(BASE_COUNTS), data)
    path = tmp_path / "counts.json"
    path.write_text(json.dumps(doc))  # NaN/Infinity as json.loads accepts them
    code = main(["reconstruct", "--counts", str(path), "--out", str(tmp_path / "povm.json")])
    _assert_schema_error(code, capsys)


@FUZZ
@given(data=st.data())
def test_analyze_exits_3_on_malformed_povm(tmp_path, capsys, data):
    doc = _mutate_povm(copy.deepcopy(BASE_POVM), data)
    path = tmp_path / "povm.json"
    path.write_text(json.dumps(doc))
    code = main(["analyze", "--povm", str(path), "--out", str(tmp_path / "r")])
    _assert_schema_error(code, capsys)


@FUZZ
@given(data=st.data(), flag=st.sampled_from(["--crosstalk", "--ppt"]))
def test_report_exits_3_on_malformed_report(tmp_path, capsys, data, flag):
    if flag == "--crosstalk":
        doc = _mutate_report(copy.deepcopy(BASE_CROSSTALK), CROSSTALK_ROW_KEYS, data)
    else:
        doc = _mutate_report(copy.deepcopy(BASE_PPT), PPT_ROW_KEYS, data)
    path = tmp_path / "report.json"
    path.write_text(json.dumps(doc))
    code = main(["report", flag, str(path), "--out", str(tmp_path / "report.txt")])
    _assert_schema_error(code, capsys)


# Registers past the supported 1..4 qubits are refused before any 2^n table,
# and without echoing a 2^n-sized outcome list or an n-character bitstring.
@pytest.mark.parametrize("qubits", [5, 40])
def test_reconstruct_exits_3_on_oversized_register(tmp_path, capsys, qubits):
    record = {"labels": ["0"] * qubits, "shots": 1, "counts": {"0" * qubits: 1}}
    path = tmp_path / "counts.json"
    path.write_text(json.dumps({"version": 1, "qubits": list(range(qubits)),
                                "preparations": [record]}))
    code = main(["reconstruct", "--counts", str(path), "--out", str(tmp_path / "povm.json")])
    assert len(_assert_schema_error(code, capsys)) < 200


def _nested(depth: int) -> list:
    value: list = []
    for _ in range(depth):
        value = [value]
    return value


# A bad value is quoted clipped, however deep or long it is.
@pytest.mark.parametrize(
    "field, value, names",
    [
        ("qubits", _nested(900), "'qubits'"),
        ("labels", [_nested(900)] * N, "preparation 0"),
        ("counts", {"0" * 100_000: 16}, "preparation 0"),
    ],
)
def test_reconstruct_clips_the_bad_value_in_its_message(tmp_path, capsys, field, value, names):
    doc = copy.deepcopy(BASE_COUNTS)
    if field == "qubits":
        doc["qubits"] = value
    else:
        doc["preparations"][0][field] = value
    path = tmp_path / "counts.json"
    path.write_text(json.dumps(doc))
    code = main(["reconstruct", "--counts", str(path), "--out", str(tmp_path / "povm.json")])
    err = _assert_schema_error(code, capsys)
    assert names in err
    assert len(err) < 200


@pytest.mark.parametrize("n", [5, 100_000_000])
def test_analyze_exits_3_on_oversized_register(tmp_path, capsys, n):
    path = tmp_path / "povm.json"
    path.write_text(json.dumps(dict(BASE_POVM, n=n)))
    code = main(["analyze", "--povm", str(path), "--out", str(tmp_path / "r")])
    assert len(_assert_schema_error(code, capsys)) < 200


def test_analyze_exits_3_on_integer_past_the_digit_limit(tmp_path, capsys):
    # json.loads refuses integer literals longer than 4300 digits with a plain ValueError
    path = tmp_path / "povm.json"
    path.write_text('{"n": ' + "1" * 5000 + ', "elements": {}}')
    code = main(["analyze", "--povm", str(path), "--out", str(tmp_path / "r")])
    _assert_schema_error(code, capsys)


@pytest.mark.parametrize("command", ["reconstruct", "analyze", "report"])
def test_unmutated_fuzz_bases_are_accepted(tmp_path, command):
    if command == "reconstruct":
        path = tmp_path / "counts.json"
        path.write_text(json.dumps(BASE_COUNTS))
        argv = ["reconstruct", "--counts", str(path), "--out", str(tmp_path / "povm.json")]
    elif command == "analyze":
        path = tmp_path / "povm.json"
        path.write_text(json.dumps(BASE_POVM))
        argv = ["analyze", "--povm", str(path), "--out", str(tmp_path / "r"),
                "--partitions", "0:1"]
    else:
        xpath, ppath = tmp_path / "x.json", tmp_path / "p.json"
        xpath.write_text(json.dumps(BASE_CROSSTALK))
        ppath.write_text(json.dumps(BASE_PPT))
        argv = ["report", "--crosstalk", str(xpath), "--ppt", str(ppath),
                "--out", str(tmp_path / "report.txt")]
    assert main(argv) == 0
