"""Maximum-likelihood POVM reconstruction from known preparation states.

The detector is probed with an informationally complete set of pure product
states (all single-qubit mutually unbiased basis states by default) and the
POVM is recovered by an iterative fixed-point update that preserves
completeness exactly at every step.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .operators import (
    HermitianOperator,
    NumericalFailureError,
    Povm,
    validate_povm,
)

MUB_LABELS = ("0", "1", "+", "-", "+i", "-i")

_SQRT2 = np.sqrt(2.0)
_MUB_KETS = {
    "0": np.array([1.0, 0.0], dtype=complex),
    "1": np.array([0.0, 1.0], dtype=complex),
    "+": np.array([1.0, 1.0], dtype=complex) / _SQRT2,
    "-": np.array([1.0, -1.0], dtype=complex) / _SQRT2,
    "+i": np.array([1.0, 1.0j], dtype=complex) / _SQRT2,
    "-i": np.array([1.0, -1.0j], dtype=complex) / _SQRT2,
}

_PURITY_TOL = 1e-12
_FREQ_COLUMN_TOL = 1e-12
# Lower clips of Born probabilities and of normalization-operator eigenvalues.
_PROB_FLOOR = 1e-12
_EIG_FLOOR = 1e-12


@dataclass(frozen=True)
class PreparationSet:
    """Pure product probe states with their per-qubit state labels.

    states has shape (num_preparations, 2**n, 2**n); every state must be a
    rank-one projector.
    """

    n: int
    labels: tuple[tuple[str, ...], ...]
    states: np.ndarray
    qubit_labels: tuple[int, ...] = ()
    shots_per_state: int = 8192

    def __post_init__(self) -> None:
        states = np.asarray(self.states, dtype=complex)
        d = 2**self.n
        if states.ndim != 3 or states.shape[1:] != (d, d):
            raise ValueError(f"states must have shape (K, {d}, {d}), got {states.shape}")
        if len(self.labels) != states.shape[0]:
            raise ValueError("one label tuple per state is required")
        if self.shots_per_state < 1:
            raise ValueError("shots_per_state must be positive")
        qubits = tuple(self.qubit_labels) if self.qubit_labels else tuple(range(self.n))
        if len(qubits) != self.n:
            raise ValueError(f"{len(qubits)} qubit labels given for n={self.n}")
        herm = np.abs(states - states.conj().transpose(0, 2, 1)).max()
        if herm > _PURITY_TOL:
            raise ValueError(f"states must be Hermitian, max asymmetry {herm:.3e}")
        traces = np.einsum("kss->k", states).real
        if np.abs(traces - 1.0).max() > _PURITY_TOL:
            raise ValueError("states must have unit trace")
        purity = np.einsum("kst,kts->k", states, states).real
        if np.abs(purity - 1.0).max() > _PURITY_TOL:
            raise ValueError(
                f"states must be rank-one projectors, worst purity {purity.min():.12f}"
            )
        states = states.copy()
        states.flags.writeable = False
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "labels", tuple(tuple(l) for l in self.labels))
        object.__setattr__(self, "qubit_labels", qubits)

    @property
    def num_states(self) -> int:
        return self.states.shape[0]

    @property
    def dim(self) -> int:
        return 2**self.n


@dataclass(frozen=True)
class FrequencyTable:
    """Relative outcome frequencies, one column per preparation."""

    frequencies: np.ndarray
    shots: np.ndarray

    def __post_init__(self) -> None:
        f = np.asarray(self.frequencies, dtype=float)
        shots = np.asarray(self.shots, dtype=np.int64)
        if f.ndim != 2:
            raise ValueError(f"frequencies must be 2-d, got shape {f.shape}")
        if shots.shape != (f.shape[1],):
            raise ValueError("one shot count per preparation is required")
        if (shots < 1).any():
            raise ValueError("shot counts must be positive")
        if f.min() < 0.0:
            raise ValueError("frequencies must be non-negative")
        col = f.sum(axis=0)
        worst = np.abs(col - 1.0).max()
        if worst > _FREQ_COLUMN_TOL:
            raise ValueError(f"frequency columns must sum to one, worst deviation {worst:.3e}")
        f = f.copy()
        f.flags.writeable = False
        shots = shots.copy()
        shots.flags.writeable = False
        object.__setattr__(self, "frequencies", f)
        object.__setattr__(self, "shots", shots)

    @classmethod
    def from_counts(cls, counts: np.ndarray, shots: np.ndarray) -> "FrequencyTable":
        counts = np.asarray(counts, dtype=np.int64)
        shots = np.asarray(shots, dtype=np.int64)
        return cls(counts / shots[None, :], shots)

    @property
    def num_outcomes(self) -> int:
        return self.frequencies.shape[0]

    @property
    def num_preparations(self) -> int:
        return self.frequencies.shape[1]


@dataclass(frozen=True)
class MleConfig:
    epsilon: float = 1e-6
    max_iters: int = 10000

    def __post_init__(self) -> None:
        if not (0.0 < self.epsilon < 1.0):
            raise ValueError("epsilon must lie in (0, 1)")
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")


@dataclass
class MleDiagnostics:
    """Per-iteration traces of the reconstruction."""

    iterations: int
    converged: bool
    final_delta: float
    log_likelihoods: np.ndarray = field(repr=False)
    deltas: np.ndarray = field(repr=False)
    completeness_residuals: np.ndarray = field(repr=False)
    min_eigenvalues: np.ndarray = field(repr=False)


def preparations_from_labels(
    label_tuples: Sequence[Sequence[str]],
    qubit_labels: Sequence[int],
    shots_per_state: int = 8192,
) -> PreparationSet:
    """Build product probe states from per-qubit state labels."""
    n = len(qubit_labels)
    states = []
    for labels in label_tuples:
        if len(labels) != n:
            raise ValueError(f"label tuple {labels!r} does not match {n} qubits")
        ket = np.ones(1, dtype=complex)
        for l in labels:
            if l not in _MUB_KETS:
                raise ValueError(f"unknown preparation label {l!r}")
            ket = np.kron(ket, _MUB_KETS[l])
        states.append(np.outer(ket, ket.conj()))
    return PreparationSet(
        n=n,
        labels=tuple(tuple(l) for l in label_tuples),
        states=np.stack(states),
        qubit_labels=tuple(qubit_labels),
        shots_per_state=shots_per_state,
    )


def mub_preparations(n: int, shots_per_state: int = 8192) -> PreparationSet:
    """All 6**n products of single-qubit MUB states, in lexicographic label order.

    Overcomplete (6**n > 4**n conditions) but uses only local state
    preparation. Guarded to n <= 4.
    """
    if not 1 <= n <= 4:
        raise ValueError(f"supported register sizes are 1..4 qubits, got n={n}")
    label_tuples = tuple(itertools.product(MUB_LABELS, repeat=n))
    return preparations_from_labels(label_tuples, tuple(range(n)), shots_per_state)


def _born_matrix(elements: np.ndarray, states: np.ndarray) -> np.ndarray:
    """tr[M_i rho_k] for stacked elements (L,D,D) and states (K,D,D)."""
    return np.einsum("ist,kts->ik", elements, states, optimize=True).real


def log_likelihood(povm: Povm, freq: FrequencyTable, preps: PreparationSet) -> float:
    """Sum of f[i,k] * log tr[M_i rho_k] with the 0*log(0) = 0 convention."""
    m = np.stack([e.matrix for e in povm.elements])
    return _log_likelihood_raw(m, freq.frequencies, preps.states)


def _log_likelihood_raw(elements: np.ndarray, f: np.ndarray, states: np.ndarray) -> float:
    p = _born_matrix(elements, states)
    terms = np.where(f > 0.0, f * np.log(np.clip(p, _PROB_FLOOR, None)), 0.0)
    return float(terms.sum())


def _check_informationally_complete(preps: PreparationSet) -> None:
    d = preps.dim
    k = preps.num_states
    if k < d * d:
        raise ValueError(
            f"need at least {d * d} informationally complete preparations, got {k}"
        )
    flat = preps.states.reshape(k, d * d)
    real = np.concatenate([flat.real, flat.imag], axis=1)
    rank = np.linalg.matrix_rank(real)
    if rank < d * d:
        raise ValueError(
            f"preparation states span only {rank} of {d * d} operator dimensions"
        )


def mle_reconstruct(
    freq: FrequencyTable, preps: PreparationSet, config: MleConfig | None = None
) -> tuple[Povm, MleDiagnostics]:
    """Iterative maximum-likelihood POVM reconstruction.

    Starting from M_i = I/D, each step rescales the elements by
    R_i = S^(-1/2) G_i with G_i = sum_k (f[i,k]/p[i,k]) rho_k and
    S = sum_j G_j M_j G_j, then sets M_i <- R_i M_i R_i^dag.  This choice of
    ordering keeps sum_i M_i = I exact up to roundoff.  Iteration stops once
    sum_i ||M_i - M_i'||_1 < epsilon or at max_iters, whichever is first; the
    solver is deterministic, so identical inputs give identical outputs.

    Returns the reconstructed POVM and per-iteration diagnostics; a run that
    hits max_iters is returned with converged=False rather than raised.
    """
    cfg = config or MleConfig()
    if freq.num_preparations != preps.num_states:
        raise ValueError(
            f"frequency table has {freq.num_preparations} columns for {preps.num_states} states"
        )
    d = preps.dim
    num_outcomes = 2**preps.n
    if freq.num_outcomes != num_outcomes:
        raise ValueError(
            f"frequency table has {freq.num_outcomes} rows, expected {num_outcomes}"
        )
    _check_informationally_complete(preps)

    rho = preps.states
    f = freq.frequencies
    eye = np.eye(d, dtype=complex)
    m = np.repeat(eye[None] / d, num_outcomes, axis=0)

    logliks = [_log_likelihood_raw(m, f, rho)]
    deltas: list[float] = []
    completeness: list[float] = []
    min_eigs: list[float] = []
    converged = False
    iterations = 0

    for _ in range(cfg.max_iters):
        p = np.clip(_born_matrix(m, rho), _PROB_FLOOR, None)
        w = f / p
        g = np.einsum("ik,kst->ist", w, rho, optimize=True)
        s = np.einsum("ist,itu,iuv->sv", g, m, g, optimize=True)
        if not np.all(np.isfinite(s)):
            raise NumericalFailureError("non-finite normalization operator in MLE update")
        s = 0.5 * (s + s.conj().T)
        evals, vecs = np.linalg.eigh(s)
        if not np.all(np.isfinite(evals)) or evals.max() <= 0.0:
            raise NumericalFailureError("singular normalization operator in MLE update")
        inv_sqrt = (vecs * np.clip(evals, _EIG_FLOOR, None) ** -0.5) @ vecs.conj().T
        a = np.einsum("st,itu->isu", inv_sqrt, g, optimize=True)
        m_new = a @ m @ a.conj().transpose(0, 2, 1)
        m_new = 0.5 * (m_new + m_new.conj().transpose(0, 2, 1))

        diff_eigs = np.linalg.eigvalsh(m_new - m)
        delta = float(np.abs(diff_eigs).sum())
        deltas.append(delta)
        completeness.append(float(np.abs(m_new.sum(axis=0) - eye).max()))
        min_eigs.append(float(np.linalg.eigvalsh(m_new).min()))
        logliks.append(_log_likelihood_raw(m_new, f, rho))
        m = m_new
        iterations += 1
        if delta < cfg.epsilon:
            converged = True
            break

    povm = Povm(tuple(HermitianOperator(mi, preps.qubit_labels) for mi in m))
    report = validate_povm(povm)
    if not report.ok:
        raise NumericalFailureError(
            "reconstruction left the POVM cone: "
            f"min eigenvalue {min(report.min_eigenvalues):.3e}, "
            f"completeness residual {report.completeness_residual:.3e}"
        )
    diag = MleDiagnostics(
        iterations=iterations,
        converged=converged,
        final_delta=deltas[-1] if deltas else 0.0,
        log_likelihoods=np.array(logliks),
        deltas=np.array(deltas),
        completeness_residuals=np.array(completeness),
        min_eigenvalues=np.array(min_eigs),
    )
    return povm, diag
