import dataclasses
import functools
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dense_states, exact_frequency_table, random_povm
from detomo import (
    FrequencyTable,
    Povm,
    HermitianOperator,
    PreparationSet,
    born_matrix,
    born_probabilities,
    counts_to_tables,
    ideal_povm,
    log_likelihood,
    make_noisy_povm,
    mle_reconstruct,
    mub_preparations,
    normalize,
    sample_counts,
    trace_distance,
    NoiseSpec,
)
from detomo import tomography
from detomo.optimize import lbfgs
from detomo.tomography import (
    MUB_LABELS,
    TRACE_EVERY,
    _BornMap,
    _fold,
    _grid_columns,
    _log_likelihood,
    _objective,
    _operator_rank,
)

GOLDEN = Path(__file__).parent / "golden"


def test_mub_preparations_single_qubit():
    preps = mub_preparations(1)
    assert preps.num_states == 6
    assert preps.labels == (("0",), ("1",), ("+",), ("-",), ("+i",), ("-i",))
    assert preps.n == 1 and preps.qubit_labels == (0,)
    np.testing.assert_array_equal(preps.index, [[0], [1], [2], [3], [4], [5]])


def test_mub_preparations_two_qubit_order_and_products():
    preps = mub_preparations(2)
    assert preps.num_states == 36
    assert preps.labels[:3] == (("0", "0"), ("0", "1"), ("0", "+"))
    # the probe ("+", "0") is the Kronecker product in label order
    idx = preps.labels.index(("+", "0"))
    np.testing.assert_array_equal(preps.index[idx], [2, 0])
    plus = np.array([[0.5, 0.5], [0.5, 0.5]])
    zero = np.diag([1.0, 0.0])
    np.testing.assert_allclose(dense_states(preps)[idx], np.kron(plus, zero), atol=1e-15)


@pytest.mark.parametrize("n", [0, 5])
def test_mub_preparations_guard_register_size(n):
    with pytest.raises(ValueError):
        mub_preparations(n)


def test_preparation_set_holds_labels_only():
    preps = PreparationSet(labels=[["0", "+i"]], qubit_labels=[3, 1])
    assert [f.name for f in dataclasses.fields(preps)] == ["labels", "qubit_labels"]
    assert preps.labels == (("0", "+i"),)
    assert preps.qubit_labels == (3, 1)
    assert (preps.n, preps.dim, preps.num_states) == (2, 4, 1)
    assert preps == PreparationSet([("0", "+i")], (3, 1))
    with pytest.raises(ValueError):
        preps.index[0, 0] = 1


@pytest.mark.parametrize("bad", [("0", "x"), ("0",), ("0", 1), ("0", ["1"])])
def test_preparation_set_rejects_malformed_labels(bad):
    with pytest.raises(ValueError):
        PreparationSet(labels=(bad,), qubit_labels=(0, 1))


def test_preparation_set_rejects_duplicate_qubit_labels():
    with pytest.raises(ValueError, match="duplicate qubit labels"):
        PreparationSet(mub_preparations(2).labels, (0, 0))


def test_preparation_set_rejects_unknown_label():
    with pytest.raises(ValueError, match=r"preparation 1: unknown preparation label 'x'"):
        PreparationSet([("0", "1"), ("0", "x")], (0, 1))


# The dense Born map and its adjoint over a probe set, kept here as the
# reference for the label-grid products the reconstruction uses.
def _dense_born(m, preps):
    return np.einsum("ist,kts->ik", m, dense_states(preps)).real


def _dense_adjoint(w, preps):
    return np.einsum("ik,kst->ist", w, dense_states(preps))


def _label_lists(n, rng):
    """The full MUB grid, then shuffled, subset and repeated label lists."""
    full = list(mub_preparations(n).labels)
    shuffled = [full[i] for i in rng.permutation(len(full))]
    subset = [full[i] for i in np.sort(rng.choice(len(full), size=len(full) // 3, replace=False))]
    repeated = [full[i] for i in rng.integers(0, len(full), size=len(full) + 5)]
    return {"grid": full, "shuffled": shuffled, "subset": subset, "repeated": repeated}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_product_born_map_matches_dense_oracle(n):
    rng = np.random.default_rng(100 + n)
    d = 2**n
    x = rng.standard_normal((d, d, d)) + 1j * rng.standard_normal((d, d, d))
    m = 0.5 * (x + x.conj().transpose(0, 2, 1))
    born = _BornMap(n)
    for kind, labels in _label_lists(n, rng).items():
        preps = PreparationSet(labels, tuple(range(n)))
        w = rng.standard_normal((d, preps.num_states))
        np.testing.assert_allclose(
            born.probabilities(m)[:, _grid_columns(preps)], _dense_born(m, preps),
            rtol=0, atol=1e-13, err_msg=kind,
        )
        np.testing.assert_allclose(
            born.adjoint(_fold(w, preps)), _dense_adjoint(w, preps), rtol=0, atol=1e-13, err_msg=kind
        )


def test_fold_of_the_mub_set_is_its_table():
    for n in (1, 2, 3, 4):
        f = np.random.default_rng(n).random((2**n, 6**n))
        assert np.array_equal(_fold(f, mub_preparations(n)), f)


def _dense_objective(x, f, preps):
    """-L and its gradient from the dense probe states and the per-probe table f,
    the way the objective computed them before the label grid (M_i = T B_i T)."""
    d = f.shape[0]
    a = x.view(complex).reshape(d, d, d)
    b = a @ a.conj().transpose(0, 2, 1)
    evals, u = np.linalg.eigh(b.sum(axis=0))
    root = np.sqrt(evals)
    t = (u / root) @ u.conj().T
    m = t @ b @ t
    p = np.clip(_dense_born(m, preps), 1e-12, None)
    g = _dense_adjoint(f / p, preps)
    h = (b @ t @ g).sum(axis=0)
    gamma = -1.0 / (np.outer(root, root) * (root[:, None] + root[None, :]))
    k = u @ (gamma * (u.conj().T @ (h + h.conj().T) @ u)) @ u.conj().T
    grad = -2.0 * (t @ g @ t + k) @ a
    return -float((f * np.log(p)).sum()), grad.reshape(-1).view(float)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_folded_objective_matches_the_dense_likelihood(n):
    rng = np.random.default_rng(300 + n)
    d = 2**n
    truth = random_povm(n, rng)
    born = _BornMap(n)
    tied = np.repeat(np.eye(d, dtype=complex)[None] / np.sqrt(d), d, axis=0)
    for kind, labels in _label_lists(n, rng).items():
        preps = PreparationSet(labels, tuple(range(n)))
        f = exact_frequency_table(truth, preps).frequencies
        random = rng.standard_normal((d, d, d)) + 1j * rng.standard_normal((d, d, d))
        for a in (tied, random):
            x = a.ravel().view(float)
            value, grad, _ = _objective(born, _fold(f, preps), x)
            want_value, want_grad = _dense_objective(x, f, preps)
            assert value == pytest.approx(want_value, rel=1e-12, abs=0), kind
            assert np.abs(grad - want_grad).max() <= 1e-12 * np.abs(want_grad).max(), kind


def test_mle_and_likelihood_ignore_probe_order():
    povm = make_noisy_povm(2, NoiseSpec(kind="classical_corr", w=0.3, p=0.05))
    preps = mub_preparations(2)
    freq = exact_frequency_table(povm, preps)
    order = np.random.default_rng(3).permutation(preps.num_states)
    shuffled = PreparationSet([preps.labels[k] for k in order], (0, 1))
    freq_shuffled = FrequencyTable(freq.frequencies[:, order], freq.shots[order])
    # both tables fold onto the same label grid, bit for bit
    assert log_likelihood(povm, freq_shuffled, shuffled) == log_likelihood(povm, freq, preps)
    rec, diag = mle_reconstruct(freq, preps)
    rec_shuffled, diag_shuffled = mle_reconstruct(freq_shuffled, shuffled)
    assert diag_shuffled.iterations == diag.iterations
    for a, b in zip(rec.elements, rec_shuffled.elements):
        assert np.array_equal(a.matrix, b.matrix)


def test_log_likelihood_weighs_each_probe_by_its_shots():
    povm = make_noisy_povm(2, NoiseSpec(kind="classical_corr", w=0.3, p=0.05))
    preps = mub_preparations(2)
    exact = exact_frequency_table(povm, preps)
    shots = np.arange(1, preps.num_states + 1) * 100
    freq = FrequencyTable(exact.frequencies, shots)
    counts = freq.frequencies * shots
    expected = float((counts * np.log(born_matrix(povm, preps))).sum()) / shots.mean()
    assert log_likelihood(povm, freq, preps) == pytest.approx(expected, rel=1e-12)
    # equal shots weigh every column by exactly 1.0
    equal = FrequencyTable(exact.frequencies, np.full(preps.num_states, 8192))
    assert log_likelihood(povm, equal, preps) == log_likelihood(povm, exact, preps)


def test_a_probe_split_over_two_records_reconstructs_as_one():
    # the same 16,384 shots of probe 0 as one record, or as two with the same labels
    truth = make_noisy_povm(2, NoiseSpec(kind="classical_corr", w=0.3, p=0.05))
    preps = mub_preparations(2)
    doc = sample_counts(truth, preps, shots=8192, seed=3)
    extra = sample_counts(truth, preps, shots=8192, seed=4)["preparations"][0]
    two = {**doc, "preparations": doc["preparations"] + [extra]}
    first = doc["preparations"][0]
    merged = {
        "labels": first["labels"],
        "shots": first["shots"] + extra["shots"],
        "counts": {
            k: first["counts"].get(k, 0) + extra["counts"].get(k, 0)
            for k in ("00", "01", "10", "11")
        },
    }
    one = {**doc, "preparations": [merged] + doc["preparations"][1:]}
    preps_one, freq_one = counts_to_tables(one)
    preps_two, freq_two = counts_to_tables(two)
    rec_one, _ = mle_reconstruct(freq_one, preps_one)
    rec_two, _ = mle_reconstruct(freq_two, preps_two)
    for a, b in zip(rec_one.elements, rec_two.elements):
        assert trace_distance(a, b) < 1e-5


def test_frequency_table_requires_unit_columns():
    with pytest.raises(ValueError):
        FrequencyTable(np.array([[0.6], [0.3]]), np.array([100]))


def test_frequency_table_from_counts():
    table = FrequencyTable.from_counts(np.array([[3], [1]]), np.array([4]))
    np.testing.assert_allclose(table.frequencies[:, 0], [0.75, 0.25])


@pytest.mark.parametrize(
    "frequencies, shots, error, match",
    [
        ([[np.nan], [1.0]], [100], ValueError, "^frequencies must be finite"),
        ([[np.inf], [0.0]], [100], ValueError, "^frequencies must be finite"),
        ([[0.5 + 0j], [0.5]], [100], TypeError, "^frequencies must be an array of float"),
        ([[0.5], [0.5]], [100.7], TypeError, "^shots must be an array of int64"),
        ([[0.5], [0.5]], [True], TypeError, "^shots must be an array of int64"),
    ],
    ids=["nan", "inf", "complex", "float-shots", "bool-shots"],
)
def test_frequency_table_refuses_what_is_not_a_finite_table(frequencies, shots, error, match):
    with pytest.raises(error, match=match):
        FrequencyTable(np.array(frequencies), np.array(shots))


def test_frequency_table_from_counts_takes_integer_arrays():
    with pytest.raises(TypeError, match="^counts must be an array of int64"):
        FrequencyTable.from_counts(np.array([[3.0], [1.0]]), np.array([4]))
    with pytest.raises(TypeError, match="^shots must be an array of int64"):
        FrequencyTable.from_counts(np.array([[3], [1]]), np.array([4.0]))
    table = FrequencyTable.from_counts(np.array([[3], [1]], dtype=np.uint8), [np.int32(4)])
    assert table.shots.dtype == np.int64 and table.shots.tolist() == [4]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_operator_rank_is_the_dimension_of_the_real_span_of_the_states(n):
    # oracle: the rank of the dense states' real and imaginary parts side by side
    rng = np.random.default_rng(n)
    for _ in range(20):
        k = int(rng.integers(1, 4**n + 4))
        labels = [tuple(rng.choice(MUB_LABELS, size=n)) for _ in range(k)]
        preps = PreparationSet(labels, tuple(range(n)))
        v = dense_states(preps).reshape(k, -1)
        expected = np.linalg.matrix_rank(np.hstack([v.real, v.imag]))
        assert tomography._operator_rank(preps) == expected


def test_mle_reconstruct_checks_its_settings(monkeypatch):
    preps = mub_preparations(1)
    freq = exact_frequency_table(ideal_povm(1), preps)
    # refused before any work: the informational-completeness check never runs
    monkeypatch.setattr("detomo.tomography._check_informationally_complete", pytest.fail)
    for kwargs in ({"epsilon": 0.0}, {"epsilon": 1.0}, {"epsilon": float("nan")}):
        with pytest.raises(ValueError, match=r"epsilon must lie in \(0, 1\)"):
            mle_reconstruct(freq, preps, **kwargs)
    with pytest.raises(ValueError, match="max_iters must be positive"):
        mle_reconstruct(freq, preps, max_iters=0)
    # a cap that is not an integer would never equal an iteration count
    monkeypatch.setattr(
        "detomo.tomography._check_informationally_complete",
        lambda preps: pytest.fail("max_iters was taken after the work began"),
    )
    for max_iters in (2.5, True, "3"):
        with pytest.raises(TypeError):
            mle_reconstruct(freq, preps, max_iters=max_iters)
    # the settings are keyword-only
    with pytest.raises(TypeError):
        mle_reconstruct(freq, preps, 1e-6)


def test_log_likelihood_at_truth_matches_direct_sum():
    povm = ideal_povm(1)
    preps = mub_preparations(1)
    freq = exact_frequency_table(povm, preps)
    states = dense_states(preps)
    # independent evaluation: plain double loop over the same table
    expected = 0.0
    for k in range(preps.num_states):
        for i, e in enumerate(povm.elements):
            f = freq.frequencies[i, k]
            if f > 0.0:
                expected += f * math.log((e.matrix @ states[k]).trace().real)
    assert log_likelihood(povm, freq, preps) == pytest.approx(expected, abs=1e-12)


def test_log_likelihood_uniform_povm_closed_form():
    n = 2
    d = 2**n
    uniform = Povm(
        tuple(HermitianOperator(np.eye(d) / d, tuple(range(n))) for _ in range(d))
    )
    preps = mub_preparations(n)
    freq = exact_frequency_table(ideal_povm(n), preps)
    expected = -math.log(d) * preps.num_states
    assert log_likelihood(uniform, freq, preps) == pytest.approx(expected, rel=1e-12)


def test_log_likelihood_zero_frequency_terms_drop_out():
    povm = ideal_povm(1)
    preps = mub_preparations(1)
    freq = exact_frequency_table(povm, preps)
    # preparing |1> yields outcome "0" with probability zero and frequency zero
    assert freq.frequencies[0, 1] == 0.0
    assert np.isfinite(log_likelihood(povm, freq, preps))


def test_uniform_frequencies_fix_the_flat_povm():
    preps = mub_preparations(1)
    f = np.full((2, 6), 0.5)
    freq = FrequencyTable(f, np.full(6, 1000))
    povm, diag = mle_reconstruct(freq, preps, epsilon=1e-9)
    for e in povm.elements:
        assert np.abs(e.matrix - np.eye(2) / 2.0).max() <= 1e-9
    assert diag.converged


@pytest.mark.parametrize("n", [1, 2])
def test_mle_noiseless_self_consistency(n):
    povm = make_noisy_povm(n, NoiseSpec(kind="local_flip", p=0.08))
    preps = mub_preparations(n)
    freq = exact_frequency_table(povm, preps)
    rec, diag = mle_reconstruct(freq, preps, epsilon=1e-8)
    assert diag.converged
    for i in range(2**n):
        d = trace_distance(normalize(rec.elements[i]), normalize(povm.elements[i]))
        assert d <= 1e-3


def test_mle_recovers_entangled_povm():
    povm = make_noisy_povm(2, NoiseSpec(kind="entangled", p=0.5))
    preps = mub_preparations(2)
    freq = exact_frequency_table(povm, preps)
    rec, diag = mle_reconstruct(freq, preps, epsilon=1e-8)
    for i in range(4):
        assert trace_distance(normalize(rec.elements[i]), normalize(povm.elements[i])) <= 1e-3


def _record_iterates(monkeypatch):
    """Collect the POVM stack of every step tomography.lbfgs yields, in order."""
    iterates = []

    def recorded(*args):
        for x, evaluation in lbfgs(*args):
            iterates.append(evaluation[2])
            yield x, evaluation

    monkeypatch.setattr(tomography, "lbfgs", recorded)
    return iterates


def test_mle_preserves_completeness_and_positivity_each_iteration(monkeypatch):
    povm = make_noisy_povm(2, NoiseSpec(kind="classical_corr", w=0.3, p=0.05))
    preps = mub_preparations(2)
    freq = exact_frequency_table(povm, preps)
    iterates = _record_iterates(monkeypatch)
    _, diag = mle_reconstruct(freq, preps, epsilon=1e-8)
    assert len(iterates) == diag.iterations > 0
    for m in iterates:
        assert np.abs(m.sum(axis=0) - np.eye(4)).max() <= 1e-8
        assert np.linalg.eigvalsh(m).min() >= -1e-9


def test_mle_likelihood_never_ends_below_start():
    rng = np.random.default_rng(21)
    povm = random_povm(2, rng)
    preps = mub_preparations(2)
    freq = exact_frequency_table(povm, preps)
    _, diag = mle_reconstruct(freq, preps)
    assert diag.log_likelihoods[-1] >= diag.log_likelihoods[0]


def test_mle_is_bitwise_deterministic():
    povm = make_noisy_povm(2, NoiseSpec(kind="entangled", p=0.4))
    preps = mub_preparations(2)
    freq = exact_frequency_table(povm, preps)
    rec1, diag1 = mle_reconstruct(freq, preps)
    rec2, diag2 = mle_reconstruct(freq, preps)
    assert diag1.iterations == diag2.iterations
    for a, b in zip(rec1.elements, rec2.elements):
        assert np.array_equal(a.matrix, b.matrix)


def test_mle_flags_non_convergence_and_returns_best_iterate():
    povm = make_noisy_povm(2, NoiseSpec(kind="entangled", p=0.5))
    preps = mub_preparations(2)
    freq = exact_frequency_table(povm, preps)
    rec, diag = mle_reconstruct(freq, preps, epsilon=1e-12, max_iters=3)
    assert not diag.converged
    assert diag.iterations == 3
    assert validate_ok(rec)
    # a NumPy integer cap stops at the same step
    rec_np, diag_np = mle_reconstruct(freq, preps, epsilon=1e-12, max_iters=np.int64(3))
    assert (diag_np.iterations, diag_np.converged) == (3, False)
    assert all(np.array_equal(a.matrix, b.matrix) for a, b in zip(rec.elements, rec_np.elements))


def validate_ok(povm):
    from detomo import validate_povm

    return validate_povm(povm).ok


def test_mle_rejects_informationally_incomplete_sets():
    # six copies of |0> span a single ray: rank-deficient probe set
    flat = PreparationSet(labels=(("0",),) * 6, qubit_labels=(0,))
    freq = FrequencyTable(np.full((2, 6), 0.5), np.full(6, 100))
    with pytest.raises(ValueError, match="span"):
        mle_reconstruct(freq, flat)


# The dense real span of the states, kept here as the reference for the
# Pauli-coordinate rank the informational-completeness check uses.
def _dense_rank(preps):
    flat = dense_states(preps).reshape(preps.num_states, -1)
    return int(np.linalg.matrix_rank(np.concatenate([flat.real, flat.imag], axis=1)))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_operator_rank_matches_dense_rank(n):
    rng = np.random.default_rng(200 + n)
    ranks = set()
    for trial in range(12):
        # every other set draws from a random alphabet, which may miss a Pauli axis
        alphabet = list(MUB_LABELS)
        if trial % 2:
            alphabet = [MUB_LABELS[i] for i in np.sort(rng.choice(6, rng.integers(1, 7), replace=False))]
        size = int(rng.integers(1, 3 * 4**n))
        labels = [tuple(rng.choice(alphabet, size=n)) for _ in range(size)]
        preps = PreparationSet(labels, tuple(range(n)))
        rank = _operator_rank(preps)
        assert rank == _dense_rank(preps), (trial, alphabet, size)
        ranks.add(rank == 4**n)
    assert ranks == {True, False}  # both complete and rank-deficient sets were drawn


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_the_mub_grid_spans_the_operators(n):
    # the fact that lets a probe set covering the label grid skip the rank
    assert _operator_rank(mub_preparations(n)) == 4**n


def test_only_a_probe_set_that_misses_a_grid_cell_takes_the_rank(monkeypatch):
    calls = []
    rank = tomography._operator_rank

    def spy(preps):
        calls.append(preps.num_states)
        return rank(preps)

    monkeypatch.setattr(tomography, "_operator_rank", spy)
    povm = make_noisy_povm(2, NoiseSpec(kind="classical_corr", w=0.3, p=0.05))
    preps = mub_preparations(2)
    freq = exact_frequency_table(povm, preps)
    order = np.random.default_rng(5).permutation(preps.num_states)
    shuffled = PreparationSet([preps.labels[k] for k in order], (0, 1))
    freq_shuffled = FrequencyTable(freq.frequencies[:, order], freq.shots[order])
    repeated = PreparationSet(preps.labels + preps.labels[7:8], (0, 1))
    freq_repeated = FrequencyTable(freq.frequencies[:, list(range(36)) + [7]], np.full(37, 1000))
    rec, _ = mle_reconstruct(freq, preps)
    rec_shuffled, _ = mle_reconstruct(freq_shuffled, shuffled)
    mle_reconstruct(freq_repeated, repeated)
    assert calls == []
    for a, b in zip(rec.elements, rec_shuffled.elements):
        assert np.array_equal(a.matrix, b.matrix)
    missing = PreparationSet(preps.labels[:20] + preps.labels[21:], (0, 1))
    freq_missing = FrequencyTable(np.delete(freq.frequencies, 20, axis=1), np.full(35, 1000))
    mle_reconstruct(freq_missing, missing, max_iters=3)
    assert calls == [35]


def test_mle_rejects_too_few_preparations():
    preps = mub_preparations(1)
    small = PreparationSet(labels=preps.labels[:3], qubit_labels=(0,))
    freq = FrequencyTable(np.full((2, 3), 0.5), np.full(3, 100))
    with pytest.raises(ValueError, match="informationally complete"):
        mle_reconstruct(freq, small)


def test_mle_shape_mismatch_errors():
    preps = mub_preparations(1)
    freq = FrequencyTable(np.full((2, 5), 0.5), np.full(5, 100))
    with pytest.raises(ValueError):
        mle_reconstruct(freq, preps)


@settings(derandomize=True, max_examples=20, deadline=None)
@given(st.integers(0, 10**6))
def test_mle_statistical_noise_stays_bounded(seed):
    # smoke-scale statistical check; the acceptance suite runs the full version
    povm = make_noisy_povm(1, NoiseSpec(kind="local_flip", p=0.1))
    preps = mub_preparations(1)
    rng = np.random.default_rng(seed)
    cols = []
    for rho in dense_states(preps):
        p = born_probabilities(povm, rho)
        cols.append(rng.multinomial(4096, p / p.sum()))
    freq = FrequencyTable.from_counts(np.stack(cols).T, np.full(preps.num_states, 4096))
    rec, _ = mle_reconstruct(freq, preps)
    for i in range(2):
        d = trace_distance(normalize(rec.elements[i]), normalize(povm.elements[i]))
        assert d <= 0.1


# ------------------------------------------------------------------ solver


def _shot_noise_table(n, spec, seed):
    povm = make_noisy_povm(n, spec)
    return counts_to_tables(sample_counts(povm, mub_preparations(n), shots=8192, seed=seed))


def _trace_norm_sum(a, b):
    return float(np.abs(np.linalg.eigvalsh(a - b)).sum())


@pytest.mark.parametrize("start", ["tied", "random"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_objective_gradient_matches_finite_differences(n, start):
    d = 2**n
    preps, freq = _shot_noise_table(n, NoiseSpec(kind="local_flip", p=0.1), seed=40 + n)
    objective = functools.partial(_objective, _BornMap(n), _fold(freq.frequencies, preps))
    rng = np.random.default_rng(400 + n)
    if start == "tied":  # the solver's start: S = I, every eigenvalue pair a tie
        a = np.repeat(np.eye(d, dtype=complex)[None] / np.sqrt(d), d, axis=0)
    else:
        a = rng.standard_normal((d, d, d)) + 1j * rng.standard_normal((d, d, d))
    x = a.ravel().view(float)
    _, grad, _ = objective(x)
    h = 1e-6
    for _ in range(3):
        v = rng.standard_normal(x.size)
        central = (objective(x + h * v)[0] - objective(x - h * v)[0]) / (2.0 * h)
        assert central == pytest.approx(grad @ v, rel=1e-6, abs=1e-8)


def _r_iteration(freq, preps, epsilon=1e-6, max_iters=10000):
    """Fixed-point R-iteration of Fiurasek (PRA 64, 024102, 2001), the
    reconstruction this package ran before L-BFGS, kept as the reference.

    From M_i = I/D, each step sets M_i <- R_i M_i R_i^dag with
    R_i = S^(-1/2) G_i and S = sum_j G_j M_j G_j, until
    sum_i ||M_i - M_i'||_1 < epsilon.  Returns the POVM stack and its
    log-likelihood.
    """
    born = _BornMap(preps.n)
    f = _fold(freq.frequencies, preps)
    d = preps.dim
    m = np.repeat(np.eye(d, dtype=complex)[None] / d, d, axis=0)
    p = born.clipped(m)
    for _ in range(max_iters):
        g = born.adjoint(f / p)
        s = (g @ m @ g).sum(axis=0)
        evals, vecs = np.linalg.eigh(0.5 * (s + s.conj().T))
        r = ((vecs * evals**-0.5) @ vecs.conj().T) @ g
        m_new = r @ m @ r.conj().transpose(0, 2, 1)
        m_new = 0.5 * (m_new + m_new.conj().transpose(0, 2, 1))
        delta = _trace_norm_sum(m_new, m)
        m = m_new
        p = born.clipped(m)
        if delta < epsilon:
            break
    return m, _log_likelihood(f, p)


@pytest.mark.parametrize(
    "n, spec, seed",
    [
        (2, NoiseSpec(kind="entangled", p=0.6), 2024),
        (3, NoiseSpec(kind="classical_corr", w=0.3, p=0.05), 11),
    ],
)
def test_mle_matches_r_iteration_reference(n, spec, seed):
    preps, freq = _shot_noise_table(n, spec, seed)
    ref, ref_loglik = _r_iteration(freq, preps)
    rec, diag = mle_reconstruct(freq, preps)
    assert diag.converged
    assert diag.log_likelihoods[-1] >= ref_loglik
    assert _trace_norm_sum(np.stack([e.matrix for e in rec.elements]), ref) <= 1e-3


def test_mle_reconstructs_four_qubits_from_shot_noise():
    spec = NoiseSpec(kind="classical_corr", w=0.3, p=0.05)
    truth = make_noisy_povm(4, spec)
    preps, freq = _shot_noise_table(4, spec, seed=4)
    rec, diag = mle_reconstruct(freq, preps)
    assert diag.converged and diag.final_delta < 1e-6
    # the benchmark's reconstruction check: every element within 0.1 trace distance
    assert max(trace_distance(a, b) for a, b in zip(rec.elements, truth.elements)) <= 0.1


def test_mle_iterates_are_complete_and_psd_to_1e_12(monkeypatch):
    # ideal projectors: the maximum-likelihood POVM sits on the PSD boundary
    preps, freq = _shot_noise_table(3, NoiseSpec(kind="local_flip", p=0.0), seed=9)
    iterates = _record_iterates(monkeypatch)
    _, diag = mle_reconstruct(freq, preps)
    assert diag.converged
    assert diag.iterations > 10 and len(iterates) == diag.iterations
    min_eigs = np.array([np.linalg.eigvalsh(m).min() for m in iterates])
    completeness = np.array([np.abs(m.sum(axis=0) - np.eye(8)).max() for m in iterates])
    assert min_eigs.min() < 1e-4
    assert completeness.max() <= 1e-12
    assert min_eigs.min() >= -1e-12


def _exact_every_step(freq, preps, epsilon=1e-6, max_iters=10000):
    """mle_reconstruct with the exact stop test and spectra at every step,
    as it ran before the Frobenius bound, kept as the reference.

    Returns the POVM and (iterations, converged, final_delta, deltas,
    min_eigenvalues), the last two with one entry per iteration.
    """
    d = preps.dim
    objective = functools.partial(_objective, _BornMap(preps.n), _fold(freq.frequencies, preps))
    x = np.repeat(np.eye(d, dtype=complex)[None] / np.sqrt(d), d, axis=0).ravel().view(float)
    start = objective(x)
    m = start[2]
    deltas, min_eigs = [], []
    converged = True
    for iterations, (_, (_, _, m_new)) in enumerate(lbfgs(objective, x, start), 1):
        eigs = np.linalg.eigvalsh(np.concatenate([m_new - m, m_new]))
        delta = float(np.abs(eigs[:d]).sum())
        deltas.append(delta)
        min_eigs.append(float(eigs[d:].min()))
        m = m_new
        if delta < epsilon:
            break
        if iterations == max_iters:
            converged = False
            break
    povm = Povm(tuple(HermitianOperator(mi, preps.qubit_labels) for mi in m))
    final_delta = deltas[-1] if deltas else 0.0
    return povm, (len(deltas), converged, final_delta, np.array(deltas), np.array(min_eigs))


def _golden_counts():
    return counts_to_tables(json.loads((GOLDEN / "counts.json").read_text()))


def _criterion_2_draw_18():
    rng = np.random.default_rng(2202)
    for _ in range(18):
        truth = random_povm(2, rng)
    preps = mub_preparations(2)
    return preps, exact_frequency_table(truth, preps)


def _uniform():
    preps = mub_preparations(1)
    return preps, FrequencyTable(np.full((2, 6), 0.5), np.full(6, 1000))


_CLASSICAL_CORR_11 = functools.partial(
    _shot_noise_table, 3, NoiseSpec(kind="classical_corr", w=0.3, p=0.05), 11
)


@pytest.mark.parametrize(
    "table, options",
    [
        (_golden_counts, {}),
        (_CLASSICAL_CORR_11, {}),
        (_CLASSICAL_CORR_11, {"max_iters": 7}),
        (_CLASSICAL_CORR_11, {"max_iters": 23}),
        (_criterion_2_draw_18, {"epsilon": 1e-7}),
        # the same 79 steps, but the bound decides step 79, so its spectra
        # are taken only after lbfgs ends
        (_criterion_2_draw_18, {"epsilon": 1e-8}),
        (_uniform, {"epsilon": 1e-9}),
    ],
    ids=[
        "golden", "classical_corr", "max_iters_7", "max_iters_23", "step_floor",
        "step_floor_past_the_bound", "uniform",
    ],
)
def test_traced_steps_stop_where_the_exact_test_stops(table, options):
    preps, freq = table()
    ref, (iterations, converged, final_delta, deltas, min_eigs) = _exact_every_step(
        freq, preps, **options
    )
    rec, diag = mle_reconstruct(freq, preps, **options)
    assert (diag.iterations, diag.converged, diag.final_delta) == (
        iterations, converged, final_delta
    )
    for got, want in zip(rec.elements, ref.elements):
        assert np.array_equal(got.matrix, want.matrix)
    steps = diag.trace_steps
    assert steps.dtype == np.int64
    assert np.array_equal(diag.deltas, deltas[steps - 1])
    assert np.array_equal(diag.min_eigenvalues, min_eigs[steps - 1])
    assert len(diag.log_likelihoods) == iterations + 1
    assert len(diag.completeness_residuals) == iterations
    if iterations:
        assert steps[-1] == iterations
        assert set(range(TRACE_EVERY, iterations + 1, TRACE_EVERY)) <= set(steps)
    else:
        assert len(steps) == 0 and diag.final_delta == 0.0
