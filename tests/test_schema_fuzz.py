"""Malformed counts and POVM documents: every one must exit 3, never raise.

Each example takes a valid document, applies one mutation that the
documented schema forbids (a dropped key, a wrong type, a non-finite number,
a wrong shape, a bad label, a broken count sum) and runs the command that
reads it.
"""

import copy
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from detomo import ideal_povm, make_noisy_povm, mub_preparations, NoiseSpec, sample_counts
from detomo.cli import main
from detomo.io import povm_to_dict
from detomo.tomography import MUB_LABELS

N = 2
BASE_COUNTS = sample_counts(ideal_povm(N), mub_preparations(N), shots=16, seed=0)
BASE_POVM = povm_to_dict(make_noisy_povm(N, NoiseSpec(kind="local_flip", p=0.1)))

FUZZ = settings(
    derandomize=True,
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

NON_FINITE = st.sampled_from([float("nan"), float("inf"), float("-inf")])
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
        elem[part][row][col] = data.draw(NON_FINITE)
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


def _assert_schema_error(code: int, capsys) -> None:
    err = capsys.readouterr().err
    assert code == 3, err
    assert "schema error" in err


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


@pytest.mark.parametrize("command", ["reconstruct", "analyze"])
def test_unmutated_fuzz_bases_are_accepted(tmp_path, command):
    if command == "reconstruct":
        path = tmp_path / "counts.json"
        path.write_text(json.dumps(BASE_COUNTS))
        argv = ["reconstruct", "--counts", str(path), "--out", str(tmp_path / "povm.json")]
    else:
        path = tmp_path / "povm.json"
        path.write_text(json.dumps(BASE_POVM))
        argv = ["analyze", "--povm", str(path), "--out", str(tmp_path / "r"),
                "--partitions", "0:1"]
    assert main(argv) == 0
