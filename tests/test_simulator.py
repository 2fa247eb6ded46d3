import functools
import json
import re

import numpy as np
import pytest

from conftest import dense_states, random_povm
from detomo import (
    born_probabilities,
    NoiseSpec,
    assignment_matrix,
    classify_povm,
    ideal_povm,
    make_noisy_povm,
    mub_preparations,
    nppt_test,
    normalize,
    Partition,
    PreparationSet,
    sample_counts,
    validate_povm,
)


# -------------------------------------------------------------------- specs


def test_noise_spec_rejects_bad_parameters():
    with pytest.raises(ValueError):
        NoiseSpec(kind="thermal")
    with pytest.raises(ValueError):
        NoiseSpec(kind="local_flip", p=1.5)
    with pytest.raises(ValueError):
        NoiseSpec(kind="classical_corr", w=-0.1)
    with pytest.raises(ValueError):
        NoiseSpec(kind="local_flip", flip_probs=(0.1, 2.0))
    with pytest.raises(ValueError):
        NoiseSpec(kind="entangled", pair=(1, 1))
    with pytest.raises(ValueError):
        NoiseSpec(kind="entangled", pair=(0, 1, 2))


@pytest.mark.parametrize(
    "field, value, name, error",
    [
        ("p", True, "p", TypeError),
        ("p", "0.1", "p", TypeError),
        ("w", np.bool_(True), "w", TypeError),
        ("w", 0.5 + 0j, "w", TypeError),
        ("flip_probs", ("0.1", 0.2), "flip_probs[0]", TypeError),
        ("flip_probs", (0.1, True), "flip_probs[1]", TypeError),
        ("p", float("nan"), "p", ValueError),
        ("w", float("nan"), "w", ValueError),
        ("flip_probs", (0.1, float("nan")), "flip_probs[1]", ValueError),
    ],
    ids=["p-bool", "p-str", "w-numpy-bool", "w-complex", "flip-str", "flip-bool",
         "p-nan", "w-nan", "flip-nan"],
)
def test_noise_spec_takes_each_probability_as_a_real_number_in_the_unit_interval(
    field, value, name, error
):
    with pytest.raises(error, match=f"^{re.escape(name)} must"):
        NoiseSpec(kind="local_flip", **{field: value})


def test_noise_spec_takes_numpy_probabilities_as_floats():
    spec = NoiseSpec(kind="classical_corr", p=np.float64(0.1), w=np.float32(0.5),
                     flip_probs=(np.float64(0.2), 1))
    assert (spec.p, spec.w, spec.flip_probs) == (0.1, 0.5, (0.2, 1.0))
    assert all(type(x) is float for x in (spec.p, spec.w, *spec.flip_probs))
    plain = make_noisy_povm(2, NoiseSpec(kind="classical_corr", p=0.1, w=0.5))
    numpy = make_noisy_povm(2, NoiseSpec(kind="classical_corr", p=np.float64(0.1), w=np.float64(0.5)))
    for a, b in zip(plain.elements, numpy.elements):
        assert np.array_equal(a.matrix, b.matrix)


def test_make_noisy_povm_argument_checks():
    with pytest.raises(ValueError):
        make_noisy_povm(0, NoiseSpec(kind="local_flip"))
    with pytest.raises(ValueError):
        make_noisy_povm(1, NoiseSpec(kind="classical_corr", w=0.2))
    with pytest.raises(ValueError):
        make_noisy_povm(1, NoiseSpec(kind="entangled", p=0.2))
    with pytest.raises(ValueError):
        make_noisy_povm(3, NoiseSpec(kind="local_flip", flip_probs=(0.1, 0.2)))
    with pytest.raises(ValueError):
        make_noisy_povm(2, NoiseSpec(kind="entangled", pair=(0, 5)))


# ------------------------------------------------------------ constructions


def test_local_flip_at_zero_is_the_ideal_povm():
    noisy = make_noisy_povm(2, NoiseSpec(kind="local_flip", p=0.0))
    ideal = ideal_povm(2)
    for a, b in zip(noisy.elements, ideal.elements):
        np.testing.assert_array_equal(a.matrix, b.matrix)


def test_local_flip_uses_per_qubit_probabilities():
    povm = make_noisy_povm(2, NoiseSpec(kind="local_flip", flip_probs=(0.1, 0.3)))
    single = lambda p: np.array([[1 - p, p], [p, 1 - p]])
    np.testing.assert_allclose(
        assignment_matrix(povm), np.kron(single(0.1), single(0.3)), atol=1e-15
    )


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_local_flip_elements_equal_kron_chain_bitwise(n):
    flip = (0.1, 0.3, 0.05, 0.2)[:n]
    povm = make_noisy_povm(n, NoiseSpec(kind="local_flip", flip_probs=flip))
    singles = [
        (np.diag([1 - p, p]).astype(complex), np.diag([p, 1 - p]).astype(complex)) for p in flip
    ]
    for outcome, elem in zip(povm.outcomes, povm.elements):
        expected = functools.reduce(np.kron, [singles[q][int(b)] for q, b in enumerate(outcome)])
        assert np.array_equal(elem.matrix, expected)


def test_all_noise_kinds_produce_valid_povms():
    cases = [
        make_noisy_povm(2, NoiseSpec(kind="local_flip", p=0.25)),
        make_noisy_povm(2, NoiseSpec(kind="classical_corr", p=0.05, w=0.7)),
        make_noisy_povm(2, NoiseSpec(kind="entangled", p=1.0)),
        make_noisy_povm(3, NoiseSpec(kind="entangled", p=0.6, pair=(1, 2))),
    ]
    for povm in cases:
        report = validate_povm(povm, psd_tol=1e-10, completeness_tol=1e-10)
        assert report.ok


def test_classical_corr_at_full_weight_mixes_flipped_pair():
    povm = make_noisy_povm(2, NoiseSpec(kind="classical_corr", w=1.0))
    m00 = povm.element("00").matrix
    np.testing.assert_allclose(np.diag(m00).real, [0.5, 0.0, 0.0, 0.5], atol=1e-15)
    assert np.abs(m00 - np.diag(np.diag(m00))).max() == 0.0
    assert not classify_povm(povm).any_nppt


def test_entangled_element_has_negative_partial_transpose():
    povm = make_noisy_povm(2, NoiseSpec(kind="entangled", p=0.6))
    verdict = nppt_test(normalize(povm.element("00")), Partition(((0,), (1,))))
    assert verdict.min_eigenvalue == pytest.approx(-0.3, abs=1e-12)
    assert verdict.verdict == "N"


def test_entangled_residual_lands_on_pair_flipped_outcome():
    povm = make_noisy_povm(3, NoiseSpec(kind="entangled", p=0.4, pair=(0, 2)))
    # outcome 000 loses weight to the Bell projector; 101 absorbs the residual
    m101 = povm.element("101").matrix
    assert m101[0, 0].real == pytest.approx(0.4 * 0.5, abs=1e-15)
    untouched = povm.element("010").matrix
    np.testing.assert_array_equal(untouched, np.diag([0, 0, 1, 0, 0, 0, 0, 0]).astype(complex))


# ----------------------------------------------------------------- sampling


def test_sample_counts_ideal_measurement_is_deterministic_per_state():
    povm = ideal_povm(2)
    preps = PreparationSet([("0", "0"), ("1", "1")], (0, 1))
    doc = sample_counts(povm, preps, shots=100, seed=11)
    assert doc["version"] == 1
    assert doc["qubits"] == [0, 1]
    assert doc["preparations"][0]["counts"] == {"00": 100}
    assert doc["preparations"][1]["counts"] == {"11": 100}


def test_sample_counts_zero_rows_are_omitted():
    povm = ideal_povm(1)
    preps = PreparationSet([("0",)], (0,))
    doc = sample_counts(povm, preps, shots=50, seed=0)
    assert doc["preparations"][0]["counts"] == {"0": 50}


def test_sample_counts_same_seed_reproduces_byte_identical_documents():
    povm = make_noisy_povm(2, NoiseSpec(kind="local_flip", p=0.1))
    preps = mub_preparations(2)
    a = sample_counts(povm, preps, shots=512, seed=42)
    b = sample_counts(povm, preps, shots=512, seed=42)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    c = sample_counts(povm, preps, shots=512, seed=43)
    assert json.dumps(a, sort_keys=True) != json.dumps(c, sort_keys=True)


def test_sample_counts_shot_totals_and_outcome_keys():
    povm = make_noisy_povm(2, NoiseSpec(kind="classical_corr", p=0.02, w=0.3))
    preps = mub_preparations(2)
    doc = sample_counts(povm, preps, shots=300, seed=9)
    assert len(doc["preparations"]) == 36
    for rec in doc["preparations"]:
        assert sum(rec["counts"].values()) == rec["shots"] == 300
        assert all(len(k) == 2 and set(k) <= {"0", "1"} for k in rec["counts"])


def test_sample_counts_plus_state_splits_evenly():
    povm = ideal_povm(1)
    preps = PreparationSet([("+",)], (0,))
    doc = sample_counts(povm, preps, shots=100_000, seed=3)
    f0 = doc["preparations"][0]["counts"]["0"] / 100_000
    assert f0 == pytest.approx(0.5, abs=0.01)


def test_sample_counts_tracks_born_probabilities():
    povm = make_noisy_povm(2, NoiseSpec(kind="entangled", p=0.35))
    preps = mub_preparations(2)
    shots = 100_000
    doc = sample_counts(povm, preps, shots=shots, seed=17)
    states = dense_states(preps)
    for k in (0, 7, 21, 35):
        p = born_probabilities(povm, states[k])
        rec = doc["preparations"][k]
        for i, outcome in enumerate(povm.outcomes):
            f = rec["counts"].get(outcome, 0) / shots
            bound = 5.0 * np.sqrt(p[i] * (1.0 - p[i]) / shots) + 1e-12
            assert abs(f - p[i]) <= bound


def test_sample_counts_argument_checks():
    povm = ideal_povm(2)
    preps = mub_preparations(1)
    with pytest.raises(ValueError):
        sample_counts(povm, preps, shots=10)
    preps2 = mub_preparations(2)
    with pytest.raises(ValueError):
        sample_counts(povm, preps2, shots=0)
    with pytest.raises(ValueError):
        sample_counts(povm, preps2, shots=10, seed=-2)
    # same qubit count, other qubits: the document would name the wrong qubits
    with pytest.raises(ValueError):
        sample_counts(ideal_povm(2, (5, 6)), preps2, shots=4)


@pytest.mark.parametrize(
    "kwargs",
    [{"shots": 2.7}, {"shots": 4, "seed": 1.9}, {"shots": True}, {"shots": 4, "seed": True},
     {"shots": "4"}],
    ids=["float-shots", "float-seed", "bool-shots", "bool-seed", "str-shots"],
)
def test_sample_counts_refuses_shots_and_seeds_that_are_not_integers(kwargs):
    with pytest.raises(TypeError):
        sample_counts(ideal_povm(2), mub_preparations(2), **kwargs)


def test_sample_counts_takes_numpy_integer_shots_and_seeds():
    povm, preps = make_noisy_povm(2, NoiseSpec(kind="local_flip", p=0.1)), mub_preparations(2)
    doc = sample_counts(povm, preps, shots=np.int64(64), seed=np.uint64(5))
    assert doc == sample_counts(povm, preps, shots=64, seed=5)
    assert json.dumps(doc) == json.dumps(sample_counts(povm, preps, shots=64, seed=5))


def _reference_counts(povm, preps, shots, seed):
    """Per-probe dense Born probabilities, one multinomial on Philox keyed by (seed, k)."""
    preparations = []
    for k, rho in enumerate(dense_states(preps)):
        p = born_probabilities(povm, rho)
        rng = np.random.Generator(np.random.Philox(key=np.array([seed, k], dtype=np.uint64)))
        counts = rng.multinomial(shots, p / p.sum())
        preparations.append(
            {
                "labels": list(preps.labels[k]),
                "shots": shots,
                "counts": {povm.outcomes[i]: int(c) for i, c in enumerate(counts) if c > 0},
            }
        )
    return {"version": 1, "qubits": list(povm.qubit_labels), "preparations": preparations}


@pytest.mark.parametrize("n, shots", [(1, 4096), (2, 2048), (3, 256), (4, 16)])
def test_sample_counts_matches_dense_reference_sampler(n, shots):
    rng = np.random.default_rng(500 + n)
    povm = random_povm(n, rng)
    preps = mub_preparations(n)
    for seed in (0, 7):
        doc = sample_counts(povm, preps, shots=shots, seed=seed)
        ref = _reference_counts(povm, preps, shots, seed)
        header = lambda d: json.dumps({**d, "preparations": len(d["preparations"])})
        assert header(doc) == header(ref)
        # one record at a time, so a mismatch names its probe instead of diffing the document
        for k, (got, want) in enumerate(zip(doc["preparations"], ref["preparations"])):
            assert json.dumps(got) == json.dumps(want), f"seed {seed}, preparation {k}"


def test_sample_counts_keys_each_preparation_by_its_index():
    # a probe's counts depend only on (seed, its index): sampling a prefix of
    # the probe list reproduces the full document's first records
    povm = make_noisy_povm(2, NoiseSpec(kind="classical_corr", p=0.02, w=0.3))
    full = mub_preparations(2)
    head = PreparationSet(full.labels[:7], full.qubit_labels)
    doc = sample_counts(povm, full, shots=8192, seed=5)
    part = sample_counts(povm, head, shots=8192, seed=5)
    assert len(doc["preparations"]) == 36
    assert json.dumps(part["preparations"]) == json.dumps(doc["preparations"][:7])
