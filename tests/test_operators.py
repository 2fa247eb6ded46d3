import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_element
from detomo import (
    DegenerateElementError,
    DimensionMismatchError,
    HermitianOperator,
    LabelConflictError,
    NoiseSpec,
    NormalizedElement,
    Partition,
    Povm,
    PreparationSet,
    basis_projector,
    bipartitions,
    born_probabilities,
    default_partitions,
    full_split,
    ideal_povm,
    make_noisy_povm,
    mub_preparations,
    normalize,
    partial_trace,
    partial_transpose,
    permute_qubits,
    tensor,
    trace_distance,
    validate_povm,
)
from detomo.operators import kron, qubit_axes

KET0 = basis_projector("0", (0,))
KET1 = basis_projector("1", (0,))
PLUS = HermitianOperator(np.full((2, 2), 0.5, dtype=complex), (0,))


def test_hermitian_operator_symmetrizes():
    m = np.array([[1.0, 1.0 + 1e-14j], [1.0 - 3e-14j, 0.0]], dtype=complex)
    op = HermitianOperator(m, (0,))
    assert np.array_equal(op.matrix, op.matrix.conj().T)


def test_hermitian_operator_is_read_only():
    op = HermitianOperator(np.eye(2), (0,))
    with pytest.raises(ValueError):
        op.matrix[0, 0] = 2.0


def test_hermitian_operator_rejects_bad_shapes():
    with pytest.raises(DimensionMismatchError):
        HermitianOperator(np.eye(3), (0, 1))
    with pytest.raises(DimensionMismatchError):
        HermitianOperator(np.ones((2, 3)), (0,))
    with pytest.raises(LabelConflictError):
        HermitianOperator(np.eye(4), (0, 0))


def test_tensor_of_basis_projectors():
    op = tensor([KET0, HermitianOperator(np.diag([0.0, 1.0]), (1,))])
    expected = np.zeros((4, 4))
    expected[1, 1] = 1.0  # outcome "01"
    assert np.allclose(op.matrix, expected)
    assert op.qubit_labels == (0, 1)


def test_tensor_plus_with_zero_projector():
    # hand-expanded Kronecker product: |+><+| (x) |0><0|
    op = tensor([PLUS, HermitianOperator(np.diag([1.0, 0.0]), (1,))])
    expected = np.zeros((4, 4))
    for i, j in [(0, 0), (0, 2), (2, 0), (2, 2)]:
        expected[i, j] = 0.5
    assert np.allclose(op.matrix, expected, atol=1e-15)


def test_tensor_rejects_label_conflicts():
    with pytest.raises(LabelConflictError):
        tensor([KET0, KET1])


@settings(derandomize=True, max_examples=50)
@given(st.integers(0, 10**6))
def test_tensor_is_associative(seed):
    rng = np.random.default_rng(seed)
    ops = [
        HermitianOperator(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)), (q,))
        for q in range(3)
    ]
    left = tensor([tensor(ops[:2]), ops[2]])
    right = tensor([ops[0], tensor(ops[1:])])
    assert np.abs(left.matrix - right.matrix).max() <= 1e-12
    assert left.qubit_labels == right.qubit_labels == (0, 1, 2)


def test_trace_distance_orthogonal_pure_states():
    np.testing.assert_allclose(
        trace_distance(NormalizedElement(KET0), NormalizedElement(PLUS)),
        1.0 / np.sqrt(2.0),
        atol=1e-9,
    )


def test_trace_distance_identity():
    elem = random_element(2, np.random.default_rng(3))
    assert trace_distance(elem, elem) == 0.0


def test_trace_distance_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        trace_distance(KET0, ideal_povm(2).elements[0])


@settings(derandomize=True, max_examples=100)
@given(st.integers(0, 10**6), st.integers(1, 3))
def test_trace_distance_metric_axioms(seed, n):
    rng = np.random.default_rng(seed)
    a, b, c = (random_element(n, rng) for _ in range(3))
    dab = trace_distance(a, b)
    assert dab >= 0.0
    assert dab <= 1.0 + 1e-12
    assert abs(dab - trace_distance(b, a)) <= 1e-12
    assert dab <= trace_distance(a, c) + trace_distance(c, b) + 1e-12


def test_normalize_rescales_trace():
    op = HermitianOperator(np.diag([0.5, 0.0, 0.3, 0.0]), (0, 1))
    elem = normalize(op)
    assert np.allclose(np.diag(elem.matrix).real, [0.625, 0.0, 0.375, 0.0])


def test_normalize_rejects_degenerate_trace():
    with pytest.raises(DegenerateElementError):
        normalize(HermitianOperator(np.zeros((2, 2)), (0,)))


@settings(derandomize=True, max_examples=50)
@given(st.integers(0, 10**6))
def test_normalize_is_idempotent(seed):
    rng = np.random.default_rng(seed)
    op = HermitianOperator(3.7 * random_element(2, rng).matrix, (0, 1))
    once = normalize(op)
    twice = normalize(once.op)
    assert np.abs(once.matrix - twice.matrix).max() <= 1e-15


def test_normalized_element_rejects_negative_eigenvalues():
    with pytest.raises(ValueError):
        NormalizedElement(HermitianOperator(np.diag([1.1, -0.1]), (0,)))


def test_ideal_povm_elements_are_basis_projectors():
    povm = ideal_povm(3)
    assert len(povm.elements) == 8
    expected = np.zeros((8, 8))
    expected[5, 5] = 1.0
    assert np.allclose(povm.element("101").matrix, expected)


def test_ideal_povm_rejects_empty_register():
    with pytest.raises(ValueError):
        ideal_povm(0)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_ideal_povm_validates_tightly(n):
    report = validate_povm(ideal_povm(n), psd_tol=1e-12, completeness_tol=1e-12)
    assert report.ok


def test_born_probabilities_for_flip_povm():
    m0 = HermitianOperator(np.diag([0.9, 0.1]), (0,))
    m1 = HermitianOperator(np.diag([0.1, 0.9]), (0,))
    p = born_probabilities(Povm((m0, m1)), KET0)
    np.testing.assert_allclose(p, [0.9, 0.1], atol=1e-15)


@settings(derandomize=True, max_examples=100)
@given(st.integers(0, 10**6), st.integers(1, 3))
def test_born_probabilities_sum_to_one(seed, n):
    rng = np.random.default_rng(seed)
    p = born_probabilities(ideal_povm(n), random_element(n, rng))
    assert p.min() >= 0.0
    assert abs(p.sum() - 1.0) <= 1e-9


def test_validate_povm_flags_scaled_element():
    povm = ideal_povm(2)
    broken = Povm(
        (HermitianOperator(1.1 * povm.elements[0].matrix, (0, 1)),) + povm.elements[1:]
    )
    report = validate_povm(broken)
    assert not report.completeness_ok
    assert report.psd_ok
    assert not report.ok


def test_validate_povm_reports_planted_negative_eigenvalue():
    povm = ideal_povm(1)
    broken = Povm(
        (
            HermitianOperator(np.diag([1.01, -0.01]), (0,)),
            HermitianOperator(np.diag([-0.01, 1.01]), (0,)),
        )
    )
    assert validate_povm(povm).ok
    report = validate_povm(broken)
    assert not report.psd_ok
    assert report.completeness_ok
    assert min(report.min_eigenvalues) == pytest.approx(-0.01, abs=1e-12)


def test_povm_element_lookup_and_outcomes():
    povm = ideal_povm(2)
    assert povm.outcomes == ("00", "01", "10", "11")
    with pytest.raises(ValueError):
        povm.element("2")


def test_partial_trace_of_product_recovers_factors():
    rng = np.random.default_rng(9)
    a = random_element(1, rng, labels=(0,))
    b = random_element(1, rng, labels=(1,))
    prod = tensor([a.op, b.op])
    np.testing.assert_allclose(partial_trace(prod, [0]).matrix, a.matrix, atol=1e-14)
    np.testing.assert_allclose(partial_trace(prod, [1]).matrix, b.matrix, atol=1e-14)


def test_partial_trace_respects_keep_order():
    rng = np.random.default_rng(10)
    elem = random_element(3, rng)
    swapped = partial_trace(elem.op, [2, 0])
    direct = permute_qubits(partial_trace(elem.op, [0, 2]), (2, 0))
    np.testing.assert_allclose(swapped.matrix, direct.matrix, atol=1e-14)


def test_permute_qubits_round_trip():
    rng = np.random.default_rng(11)
    elem = random_element(3, rng)
    out = permute_qubits(permute_qubits(elem.op, (2, 0, 1)), (0, 1, 2))
    assert np.array_equal(out.matrix, elem.matrix)


def test_permute_qubits_matches_kron_swap():
    rng = np.random.default_rng(12)
    a = random_element(1, rng, labels=(0,))
    b = random_element(1, rng, labels=(1,))
    swapped = permute_qubits(tensor([a.op, b.op]), (1, 0))
    np.testing.assert_allclose(swapped.matrix, tensor([b.op, a.op]).matrix, atol=1e-15)


@pytest.mark.parametrize(
    "shapes",
    [
        [(2, 2)],
        [(2, 2), (4, 4), (2, 2)],
        [(5, 2, 2), (5, 4, 4), (5, 2, 2)],
        [(7, 1, 4), (7, 1, 4), (7, 1, 4)],
        [(2, 3), (1, 4), (3, 2)],
        [(4, 2, 2), (4, 3, 1), (4, 1, 5)],
    ],
    ids=["one-factor", "square", "stacked", "rectangular-rows", "mixed", "stacked-mixed"],
)
def test_kron_equals_np_kron_chain_bitwise(shapes):
    rng = np.random.default_rng(len(shapes) * 100 + sum(map(len, shapes)))
    factors = [rng.standard_normal(s) + 1j * rng.standard_normal(s) for s in shapes]
    out = kron(factors)
    if len(shapes[0]) == 2:
        assert np.array_equal(out, functools.reduce(np.kron, factors))
    else:
        expected = [functools.reduce(np.kron, [f[k] for f in factors]) for k in range(shapes[0][0])]
        assert np.array_equal(out, np.stack(expected))


# ------------------------------------------------------------------ labels

# Each entry point that takes qubit labels, called with label q in place of
# qubit 1 of a register; each returns the labels it took, flattened.
_OP2 = HermitianOperator(np.diag([0.4, 0.3, 0.2, 0.1]), (0, 1))
_OP3 = HermitianOperator(np.diag(np.arange(1.0, 9.0)), (0, 1, 2))


def _blocks(parts):
    return tuple(q for p in parts for b in p.blocks for q in b)


LABEL_ENTRY_POINTS = {
    "HermitianOperator": lambda q: HermitianOperator(np.eye(4), (0, q)).qubit_labels,
    "basis_projector": lambda q: basis_projector("01", (0, q)).qubit_labels,
    "ideal_povm": lambda q: ideal_povm(2, (0, q)).qubit_labels,
    "partial_trace": lambda q: partial_trace(_OP3, [2, q]).qubit_labels,
    "permute_qubits": lambda q: permute_qubits(_OP2, (q, 0)).qubit_labels,
    "partial_transpose": lambda q: partial_transpose(_OP2, [q]).qubit_labels,
    "PreparationSet": lambda q: PreparationSet([("0", "+")], (0, q)).qubit_labels,
    "NoiseSpec.pair": lambda q: NoiseSpec(kind="classical_corr", pair=(0, q)).pair,
    "Partition": lambda q: _blocks([Partition(((0,), (q,)))]),
    "full_split": lambda q: _blocks([full_split((0, q))]),
    "bipartitions": lambda q: _blocks(bipartitions((0, q, 2))),
    "default_partitions": lambda q: _blocks(default_partitions((0, q, 2))),
}


@pytest.mark.parametrize(
    "label", [1.0, "1", True, np.bool_(True)], ids=["float", "str", "bool", "numpy-bool"]
)
@pytest.mark.parametrize("entry", LABEL_ENTRY_POINTS)
def test_every_entry_point_refuses_a_label_that_is_not_an_integer(entry, label):
    with pytest.raises(TypeError):
        LABEL_ENTRY_POINTS[entry](label)


@pytest.mark.parametrize("label", [np.int64(1), np.uint8(1)], ids=["int64", "uint8"])
@pytest.mark.parametrize("entry", LABEL_ENTRY_POINTS)
def test_every_entry_point_takes_a_numpy_integer_label_as_an_int(entry, label):
    taken = LABEL_ENTRY_POINTS[entry](label)
    assert taken == LABEL_ENTRY_POINTS[entry](1)
    assert all(type(q) is int for q in taken)


# ----------------------------------------------------------- register sizes

# Each entry point that takes a register size; each returns the size it built.
REGISTER_ENTRY_POINTS = {
    "ideal_povm": lambda n: ideal_povm(n).n,
    "make_noisy_povm": lambda n: make_noisy_povm(n, NoiseSpec(kind="local_flip", p=0.1)).n,
    "mub_preparations": lambda n: mub_preparations(n).n,
}


@pytest.mark.parametrize(
    "n, expected",
    [
        (True, TypeError),
        (2.0, TypeError),
        ("2", TypeError),
        (0, ValueError),
        (5, ValueError),
        (np.int64(2), 2),
    ],
    ids=["bool", "float", "str", "zero", "five", "int64"],
)
@pytest.mark.parametrize("entry", REGISTER_ENTRY_POINTS)
def test_every_entry_point_takes_the_register_size_by_one_rule(entry, n, expected):
    if expected is ValueError:
        with pytest.raises(ValueError, match=f"supported register sizes are 1..4 qubits, got n={n}"):
            REGISTER_ENTRY_POINTS[entry](n)
    elif expected is TypeError:
        with pytest.raises(TypeError):
            REGISTER_ENTRY_POINTS[entry](n)
    else:
        assert REGISTER_ENTRY_POINTS[entry](n) == expected


def test_qubit_axes_are_the_tensor_positions_of_distinct_labels_of_the_operator():
    op = HermitianOperator(np.eye(8), (5, 2, 7))
    assert qubit_axes(op, [7, 5]) == [2, 0]
    assert qubit_axes(op, []) == []
    with pytest.raises(LabelConflictError):
        qubit_axes(op, [2, 2])
    with pytest.raises(ValueError, match="not a set of labels"):
        qubit_axes(op, [3])
