"""Shared helpers for building random states, elements, and POVMs."""

import numpy as np

from detomo import (
    FrequencyTable,
    HermitianOperator,
    NormalizedElement,
    Povm,
    born_probabilities,
)


def random_density(n: int, rng: np.random.Generator) -> np.ndarray:
    d = 2**n
    x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = x @ x.conj().T
    return rho / rho.trace().real


def random_element(n: int, rng: np.random.Generator, labels=None) -> NormalizedElement:
    labels = tuple(range(n)) if labels is None else tuple(labels)
    return NormalizedElement(HermitianOperator(random_density(n, rng), labels))


def random_povm(n: int, rng: np.random.Generator) -> Povm:
    """Random full-rank POVM: Wishart pieces whitened by their sum."""
    d = 2**n
    raw = []
    for _ in range(2**n):
        x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        raw.append(x @ x.conj().T)
    total = sum(raw)
    evals, vecs = np.linalg.eigh(total)
    isq = (vecs * evals**-0.5) @ vecs.conj().T
    return Povm(tuple(HermitianOperator(isq @ a @ isq, tuple(range(n))) for a in raw))


# The single-qubit MUB kets written out, independent of detomo's own tables.
_S = 1.0 / np.sqrt(2.0)
MUB_KETS = {
    "0": np.array([1.0, 0.0]),
    "1": np.array([0.0, 1.0]),
    "+": np.array([_S, _S]),
    "-": np.array([_S, -_S]),
    "+i": np.array([_S, 1j * _S]),
    "-i": np.array([_S, -1j * _S]),
}


def dense_states(preps) -> np.ndarray:
    """The probe density matrices (K, 2**n, 2**n), each the np.kron chain of its kets."""
    states = []
    for labels in preps.labels:
        ket = np.ones(1, dtype=complex)
        for label in labels:
            ket = np.kron(ket, MUB_KETS[label])
        states.append(np.outer(ket, ket.conj()))
    return np.array(states, dtype=complex).reshape(len(states), preps.dim, preps.dim)


def exact_frequency_table(povm: Povm, preps, shots: int = 8192) -> FrequencyTable:
    """Noise-free frequencies: the exact Born probabilities of each preparation."""
    cols = [born_probabilities(povm, rho) for rho in dense_states(preps)]
    f = np.stack(cols).T
    f = f / f.sum(axis=0, keepdims=True)
    return FrequencyTable(f, np.full(preps.num_states, shots))
