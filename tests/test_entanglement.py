import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_density, random_element
from detomo import (
    HermitianOperator,
    NormalizedElement,
    Partition,
    PPT_TOL,
    Povm,
    basis_projector,
    bipartitions,
    classify_povm,
    ideal_povm,
    nppt_test,
    partial_transpose,
    tensor,
)

BELL = np.zeros((4, 4), dtype=complex)
BELL[np.ix_((0, 3), (0, 3))] = 0.5


def werner(p: float) -> NormalizedElement:
    m = p * BELL + (1.0 - p) * np.eye(4) / 4.0
    return NormalizedElement(HermitianOperator(m, (0, 1)))


# ---------------------------------------------------------- partial transpose


def test_partial_transpose_of_product_transposes_one_factor():
    rng = np.random.default_rng(3)
    a = random_density(1, rng)
    b = random_density(1, rng)
    op = HermitianOperator(np.kron(a, b), (0, 1))
    pt = partial_transpose(op, (1,))
    np.testing.assert_allclose(pt.matrix, np.kron(a, b.T), atol=1e-15)
    pt0 = partial_transpose(op, (0,))
    np.testing.assert_allclose(pt0.matrix, np.kron(a.T, b), atol=1e-15)


def test_partial_transpose_is_an_involution():
    rng = np.random.default_rng(4)
    op = random_element(3, rng).op
    again = partial_transpose(partial_transpose(op, (0, 2)), (0, 2))
    np.testing.assert_array_equal(again.matrix, op.matrix)


def test_partial_transpose_preserves_trace_and_hermiticity():
    rng = np.random.default_rng(5)
    op = random_element(2, rng).op
    pt = partial_transpose(op, (0,))
    assert pt.trace() == pytest.approx(op.trace(), abs=1e-15)
    np.testing.assert_array_equal(pt.matrix, pt.matrix.conj().T)


def test_partial_transpose_block_equals_transpose_of_complement():
    rng = np.random.default_rng(6)
    op = random_element(3, rng).op
    via_block = partial_transpose(op, (1,))
    via_complement = partial_transpose(op, (0, 2)).matrix.T
    np.testing.assert_allclose(via_block.matrix, via_complement, atol=1e-15)


def test_partial_transpose_rejects_unknown_or_repeated_labels():
    op = random_element(2, np.random.default_rng(7)).op
    with pytest.raises(ValueError):
        partial_transpose(op, (5,))
    with pytest.raises(ValueError):
        partial_transpose(op, (0, 0))


def test_min_eigenvalue_is_lipschitz_under_perturbation():
    # entry permutation preserves the Frobenius norm, so a perturbation of
    # Frobenius size eps moves every partial-transpose eigenvalue by <= eps
    rng = np.random.default_rng(8)
    op = random_element(2, rng).op
    noise = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    noise = noise + noise.conj().T
    noise *= 1e-6 / np.linalg.norm(noise)
    bumped = HermitianOperator(op.matrix + noise, (0, 1))
    lo = partial_transpose(op, (0,)).min_eigenvalue()
    lo_bumped = partial_transpose(bumped, (0,)).min_eigenvalue()
    assert abs(lo - lo_bumped) <= 1.01e-6


# -------------------------------------------------------------------- verdicts


def test_bell_state_is_nppt_with_minus_half_eigenvalue():
    elem = NormalizedElement(HermitianOperator(BELL, (0, 1)))
    verdict = nppt_test(elem, Partition(((0,), (1,))))
    assert verdict.min_eigenvalue == pytest.approx(-0.5, abs=1e-9)
    assert verdict.negativity == pytest.approx(0.5, abs=1e-9)
    assert verdict.nppt
    assert verdict.verdict == "N"
    evals = partial_transpose(elem.op, (0,)).eigenvalues()
    np.testing.assert_allclose(evals, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)


def test_werner_state_verdicts_on_both_sides_of_threshold():
    nppt = nppt_test(werner(0.5), Partition(((0,), (1,))))
    assert nppt.min_eigenvalue == pytest.approx(-0.125, abs=1e-12)
    assert nppt.verdict == "N"
    assert nppt.negativity == pytest.approx(0.125, abs=1e-12)

    ppt = nppt_test(werner(0.2), Partition(((0,), (1,))))
    assert ppt.min_eigenvalue == pytest.approx(0.1, abs=1e-12)
    assert ppt.verdict == "P"
    assert ppt.negativity == 0.0


def test_product_elements_are_ppt():
    rng = np.random.default_rng(9)
    a = random_element(1, rng, labels=(0,))
    b = random_element(1, rng, labels=(1,))
    elem = NormalizedElement(tensor([a.op, b.op]))
    verdict = nppt_test(elem, Partition(((0,), (1,))))
    assert verdict.verdict == "P"
    assert verdict.negativity == 0.0


@settings(derandomize=True, max_examples=30)
@given(st.integers(0, 10**6))
def test_negativity_is_zero_exactly_when_ppt(seed):
    elem = random_element(2, np.random.default_rng(seed))
    verdict = nppt_test(elem, Partition(((0,), (1,))))
    assert (verdict.negativity == 0.0) == (not verdict.nppt)
    if verdict.nppt:
        assert verdict.negativity >= PPT_TOL


def test_nppt_test_argument_validation():
    elem = werner(0.5)
    with pytest.raises(ValueError):
        nppt_test(elem, Partition(((0, 1),)))
    with pytest.raises(ValueError):
        nppt_test(elem, Partition(((0,), (2,))))
    for tol in (0.0, -1e-7, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="ppt_tol"):
            nppt_test(elem, Partition(((0,), (1,))), ppt_tol=tol)


def test_classify_three_qubit_product_is_all_ppt():
    report = classify_povm(ideal_povm(3))
    rows = [r for r in report.rows if r.outcome == "010"]
    assert [r.bipartition for r in rows] == ["0:(1,2)", "1:(0,2)", "2:(0,1)"]
    assert all(r.verdict == "P" for r in rows)


def test_classify_bell_pair_times_idle_qubit():
    bell_op = HermitianOperator(BELL, (0, 1))
    elem = NormalizedElement(tensor([bell_op, basis_projector("0", (2,))]))
    verdicts = {bp.label(): nppt_test(elem, bp) for bp in bipartitions((0, 1, 2))}
    assert verdicts["0:(1,2)"].verdict == "N"
    assert verdicts["1:(0,2)"].verdict == "N"
    assert verdicts["2:(0,1)"].verdict == "P"
    assert verdicts["0:(1,2)"].min_eigenvalue == pytest.approx(-0.5, abs=1e-9)


def test_classify_single_qubit_has_no_bipartitions():
    with pytest.raises(ValueError, match="at least two qubits"):
        classify_povm(ideal_povm(1))


# --------------------------------------------------------------- povm report


def test_classify_ideal_povm_is_all_ppt():
    report = classify_povm(ideal_povm(2))
    assert len(report.rows) == 4
    assert not report.any_nppt
    assert report.skipped_outcomes == ()
    assert report.ppt_tol == PPT_TOL


@pytest.mark.parametrize("tol", [0.0, float("nan"), float("inf"), float("-inf")])
def test_classify_povm_rejects_bad_ppt_tol(tol):
    # one qubit has no bipartition, so only classify_povm itself can catch it
    with pytest.raises(ValueError, match="ppt_tol"):
        classify_povm(ideal_povm(1), ppt_tol=tol)


def test_classify_povm_skips_traceless_elements():
    zero = HermitianOperator(np.zeros((4, 4)), (0, 1))
    povm = Povm(
        (
            HermitianOperator(np.diag([1.0, 1.0, 0.0, 0.0]), (0, 1)),
            zero,
            HermitianOperator(np.diag([0.0, 0.0, 1.0, 0.0]), (0, 1)),
            basis_projector("11", (0, 1)),
        )
    )
    report = classify_povm(povm)
    assert report.skipped_outcomes == ("01",)
    assert {r.outcome for r in report.rows} == {"00", "10", "11"}
