"""Maximum-likelihood POVM reconstruction from known preparation states.

The detector is probed with an informationally complete set of pure product
states (all single-qubit mutually unbiased basis states by default) and the
POVM is recovered by limited-memory BFGS on the log-likelihood, in a
parametrization that is complete and PSD at every step.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .operators import (
    HermitianOperator,
    NumericalFailureError,
    Povm,
    as_labels,
    clipped_repr,
    finite_array,
    integer,
    kron,
    real,
    register_size,
    validate_povm,
)
from .optimize import lbfgs

MUB_LABELS = ("0", "1", "+", "-", "+i", "-i")

# Single-qubit MUB kets in MUB_LABELS order.
_MUB_KETS = np.array(
    [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, -1.0], [1.0, 1.0j], [1.0, -1.0j]], dtype=complex
)
_MUB_KETS[2:] /= np.sqrt(2.0)
_MUB_INDEX = {label: j for j, label in enumerate(MUB_LABELS)}
# _MUB_MAP[(s, t), j] = <t|j><j|s>, so tr(X |j><j|) = sum_st X[s, t] _MUB_MAP[(s, t), j].
_MUB_MAP = np.einsum("jt,js->stj", _MUB_KETS, _MUB_KETS.conj()).reshape(4, 6)

_FREQ_COLUMN_TOL = 1e-12
# The MLE takes the exact spectra of a step (its delta and smallest
# eigenvalue) at every TRACE_EVERY-th step, at its last step, and wherever
# the Frobenius bound cannot decide the stop test (mle_reconstruct).
TRACE_EVERY = 10
# Relative margin of that bound over epsilon, for rounding on rank-1 steps.
_FROBENIUS_MARGIN = 1e-6
# Lower clips of Born probabilities and of normalization-operator eigenvalues.
_PROB_FLOOR = 1e-12
_EIG_FLOOR = 1e-12


def _label_index(label_tuples: Sequence[Sequence[str]], n: int) -> np.ndarray:
    """Per-qubit MUB indices, shape (K, n), of product-state label tuples.

    A bad tuple's ValueError names it as "preparation k", as a counts
    document names its records.
    """
    index = np.zeros((len(label_tuples), n), dtype=np.int64)
    for k, labels in enumerate(label_tuples):
        if len(labels) != n:
            raise ValueError(
                f"preparation {k}: label tuple {clipped_repr(labels)} does not match {n} qubits"
            )
        for q, label in enumerate(labels):
            if not isinstance(label, str) or label not in _MUB_INDEX:
                raise ValueError(
                    f"preparation {k}: unknown preparation label {clipped_repr(label)}"
                )
            index[k, q] = _MUB_INDEX[label]
    return index


@dataclass(frozen=True)
class PreparationSet:
    """Pure product probe states, named by their per-qubit MUB labels.

    Probe k prepares the product over the qubits q of the MUB state
    labels[k][q] on qubit qubit_labels[q].
    """

    labels: tuple[tuple[str, ...], ...]
    qubit_labels: tuple[int, ...]

    def __post_init__(self) -> None:
        qubits = as_labels(self.qubit_labels)
        index = _label_index(self.labels, len(qubits))
        index.flags.writeable = False
        object.__setattr__(self, "labels", tuple(tuple(l) for l in self.labels))
        object.__setattr__(self, "qubit_labels", qubits)
        object.__setattr__(self, "_index", index)

    @property
    def n(self) -> int:
        return len(self.qubit_labels)

    @property
    def index(self) -> np.ndarray:
        """Per-qubit MUB_LABELS indices of the probes, shape (num_states, n)."""
        return self._index

    @property
    def num_states(self) -> int:
        return len(self.labels)

    @property
    def dim(self) -> int:
        return 2**self.n


class _BornMap:
    """The Born map of n-qubit elements on the label grid, and its adjoint.

    The label grid is the 6**n tuples of single-qubit MUB labels, the first
    qubit most significant.  probabilities(m)[i, j] = tr(M_i rho_j) and
    adjoint(w)[i] = sum_j w[i, j] rho_j over its product states rho_j.
    With the paired index (s_1, t_1, ..., s_n, t_n) of an element's entries,
    split after the first L = ceil(n/2) qubits, M_i is a (4**L, 4**(n-L))
    matrix X_i, and the Born map is the product of two half-register
    Kronecker products of _MUB_MAP, Re(F_L^T X_i F_R); the adjoint is
    conj(F_L) W_i F_R^dag.  A probe set meets the grid through _fold (its
    frequencies) and _grid_columns (its probabilities), so any order, subset
    or repetition of label tuples is allowed.
    """

    def __init__(self, n: int) -> None:
        left = (n + 1) // 2
        f_left = kron([_MUB_MAP] * left)
        f_right = kron([_MUB_MAP] * (n - left)) if n > left else np.ones((1, 1))
        self._n = n
        self._d = 2**n
        self._paired_shape = (4**left, 4 ** (n - left))
        self._grid_shape = (6**left, 6 ** (n - left))
        self._left_t = f_left.T.copy()
        self._right = f_right
        self._left_conj = f_left.conj()
        self._right_h = f_right.conj().T.copy()
        # (i, s_1..s_n, t_1..t_n) <-> (i, s_1, t_1, ..., s_n, t_n)
        self._pairs = [0] + [a for q in range(n) for a in (1 + q, 1 + n + q)]
        self._unpairs = list(np.argsort(self._pairs))

    def probabilities(self, m: np.ndarray) -> np.ndarray:
        """tr(M_i rho_j) for Hermitian elements m (L, D, D), shape (L, 6**n)."""
        paired = m.reshape((len(m),) + (2,) * (2 * self._n)).transpose(self._pairs)
        x = paired.reshape((len(m),) + self._paired_shape)
        return ((self._left_t @ x) @ self._right).real.reshape(len(m), -1)

    def clipped(self, m: np.ndarray) -> np.ndarray:
        """The Born grid clipped below at _PROB_FLOOR, as the likelihood uses it."""
        return np.clip(self.probabilities(m), _PROB_FLOOR, None)

    def adjoint(self, w: np.ndarray) -> np.ndarray:
        """sum_j w[i, j] rho_j for real weights w (L, 6**n) on the grid, shape (L, D, D)."""
        grid = w.reshape((len(w),) + self._grid_shape)
        paired = (self._left_conj @ grid) @ self._right_h
        g = paired.reshape((len(w),) + (2,) * (2 * self._n)).transpose(self._unpairs)
        return g.reshape(len(w), self._d, self._d)


def _grid_columns(preps: PreparationSet) -> np.ndarray:
    """Flat index of each probe on the label grid, first qubit most significant."""
    return preps.index @ (6 ** np.arange(preps.n - 1, -1, -1))


def _fold(f: np.ndarray, preps: PreparationSet) -> np.ndarray:
    """Per-probe columns f (L, K) summed onto the label grid, shape (L, 6**n).

    Repeated probes add up, and grid cells without a probe hold 0; for the
    probes of mub_preparations the result equals f bit for bit.
    """
    size = 6**preps.n
    bins = (np.arange(len(f))[:, None] * size + _grid_columns(preps)).ravel()
    return np.bincount(bins, weights=f.ravel(), minlength=len(f) * size).reshape(len(f), size)


def born_matrix(povm: Povm, preps: PreparationSet) -> np.ndarray:
    """tr(M_i rho_k) for every element i and probe k, shape (2**n, num_states).

    Tiny negative values from roundoff are clamped to zero, as in
    born_probabilities.
    """
    m = np.stack([e.matrix for e in povm.elements])
    grid = _BornMap(preps.n).probabilities(m)
    return np.clip(grid[:, _grid_columns(preps)], 0.0, None)


@dataclass(frozen=True)
class FrequencyTable:
    """Relative outcome frequencies, one column per preparation.

    Both arrays are taken with operators.finite_array: the frequencies as
    real numbers (a complex array is a TypeError, a NaN or infinite entry a
    ValueError), and the shots, like the counts of from_counts, as an
    integer array (a float or bool array is a TypeError).
    """

    frequencies: np.ndarray
    shots: np.ndarray

    def __post_init__(self) -> None:
        f = finite_array(self.frequencies, "frequencies")
        shots = finite_array(self.shots, "shots", np.int64)
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
        counts = finite_array(counts, "counts", np.int64)
        shots = finite_array(shots, "shots", np.int64)
        return cls(counts / shots[None, :], shots)

    @property
    def num_outcomes(self) -> int:
        return self.frequencies.shape[0]

    @property
    def num_preparations(self) -> int:
        return self.frequencies.shape[1]


@dataclass
class MleDiagnostics:
    """Traces of the reconstruction.

    log_likelihoods (see log_likelihood) has one entry for the start and one
    per iteration, and completeness_residuals one per iteration.  deltas and
    min_eigenvalues hold the exact spectra the solver took, at the 1-based
    iterations listed in trace_steps: every TRACE_EVERY-th, any the
    Frobenius bound could not decide, and the last, so final_delta is
    deltas[-1] (0.0 with no iteration).
    """

    iterations: int
    converged: bool
    final_delta: float
    log_likelihoods: np.ndarray = field(repr=False)
    trace_steps: np.ndarray = field(repr=False)
    deltas: np.ndarray = field(repr=False)
    completeness_residuals: np.ndarray = field(repr=False)
    min_eigenvalues: np.ndarray = field(repr=False)


def mub_preparations(n: int) -> PreparationSet:
    """All 6**n products of single-qubit MUB states, in lexicographic label order.

    Overcomplete (6**n > 4**n conditions) but uses only local state
    preparation. n is taken with register_size.
    """
    n = register_size(n)
    label_tuples = tuple(itertools.product(MUB_LABELS, repeat=n))
    return PreparationSet(label_tuples, tuple(range(n)))


def _shot_weighted(freq: FrequencyTable) -> np.ndarray:
    """f[i,k] shots_k / mean(shots), exactly f at equal shots."""
    return freq.frequencies * (freq.shots / freq.shots.mean())


def log_likelihood(povm: Povm, freq: FrequencyTable, preps: PreparationSet) -> float:
    """Sum of counts[i,k] log tr[M_i rho_k] over the mean shot count, with 0*log(0) = 0;
    at equal shots, the sum of f[i,k] log tr[M_i rho_k]."""
    m = np.stack([e.matrix for e in povm.elements])
    return _log_likelihood(_fold(_shot_weighted(freq), preps), _BornMap(preps.n).clipped(m))


def _log_likelihood(f: np.ndarray, p: np.ndarray) -> float:
    """sum f * log p for clipped Born probabilities p > 0; f = 0 terms add exactly 0."""
    return float((f * np.log(p)).sum())


def _operator_rank(preps: PreparationSet) -> int:
    """Dimension of the real span of the preparation states.

    Hermitian operators are linearly independent over the reals exactly when
    they are over the complex numbers, so this is the complex rank of the
    states' entries (K, 4**n), each row a product of its qubits' _MUB_MAP
    columns.
    """
    rows = kron([_MUB_MAP.T[preps.index[:, q], None, :] for q in range(preps.n)])
    return int(np.linalg.matrix_rank(rows[:, 0, :]))


def _check_informationally_complete(preps: PreparationSet) -> None:
    """Refuse probes that do not span the Hermitian operators.

    A probe set with every cell of the label grid is complete without a rank:
    the six columns of _MUB_MAP span C^4, so the grid's rows, the n-fold
    Kronecker products of those columns, span all 4**n entries.
    """
    d = preps.dim
    k = preps.num_states
    if k < d * d:
        raise ValueError(
            f"need at least {d * d} informationally complete preparations, got {k}"
        )
    covered = np.zeros(6**preps.n, dtype=bool)
    covered[_grid_columns(preps)] = True
    if covered.all():
        return
    rank = _operator_rank(preps)
    if rank < d * d:
        raise ValueError(
            f"preparation states span only {rank} of {d * d} operator dimensions"
        )


def _objective(
    born: _BornMap, f: np.ndarray, x: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray]:
    """-L, its gradient in the factors packed in x, and the POVM (2**n, D, D) they give.

    f is the shot-weighted frequency table folded onto the label grid
    (_shot_weighted, _fold), so -L is that of log_likelihood.  x packs
    the complex factors A_i (2**n, D, D) as real and imaginary parts;
    M_i = C_i C_i^dag with C_i = T A_i, T = S^(-1/2) and S = sum_j A_j A_j^dag.
    With G_i = sum_j (f[i,j]/p[i,j]) rho_j and B_i = A_i A_i^dag, the
    gradient is -2 (T G_i T + K) A_i, where K = U (Gamma o U^dag H U) U^dag
    for S = U diag(lam) U^dag, H = sum_i (B_i T G_i + G_i T B_i) and Gamma
    the divided differences of lam^(-1/2),
    Gamma_ab = -1 / (sqrt(lam_a lam_b) (sqrt(lam_a) + sqrt(lam_b))),
    which is the derivative -lam^(-3/2)/2 on ties without a separate case.
    """
    d = f.shape[0]  # 2**n outcomes of D = 2**n
    a = x.view(complex).reshape(d, d, d)
    b = a @ a.conj().transpose(0, 2, 1)
    s = b.sum(axis=0)
    if not np.all(np.isfinite(s)):
        raise NumericalFailureError("non-finite normalization operator in MLE step")
    evals, u = np.linalg.eigh(0.5 * (s + s.conj().T))
    if not np.all(np.isfinite(evals)) or evals.max() <= 0.0:
        raise NumericalFailureError("singular normalization operator in MLE step")
    root = np.sqrt(np.clip(evals, _EIG_FLOOR, None))
    t = (u / root) @ u.conj().T
    c = t @ a
    m = c @ c.conj().transpose(0, 2, 1)
    m = 0.5 * (m + m.conj().transpose(0, 2, 1))
    p = born.clipped(m)
    g = born.adjoint(f / p)
    tg = t @ g
    # sum_i B_i T G_i as one product of the B_i side by side and the T G_i stacked
    bt_g = b.transpose(1, 0, 2).reshape(d, d * d) @ tg.reshape(d * d, d)
    gamma = -1.0 / (np.outer(root, root) * (root[:, None] + root[None, :]))
    k = u @ (gamma * (u.conj().T @ (bt_g + bt_g.conj().T) @ u)) @ u.conj().T
    grad = -2.0 * (tg @ t + k) @ a
    return -_log_likelihood(f, p), grad.reshape(-1).view(float), m


def mle_reconstruct(
    freq: FrequencyTable,
    preps: PreparationSet,
    *,
    epsilon: float = 1e-6,
    max_iters: int = 10000,
) -> tuple[Povm, MleDiagnostics]:
    """Maximum-likelihood POVM reconstruction by limited-memory BFGS.

    The POVM is written as M_i = T A_i A_i^dag T with T = S^(-1/2) and
    S = sum_j A_j A_j^dag, so every iterate is complete and PSD by
    construction; -L (log_likelihood) is minimized over the factors A_i (see
    _objective), starting from A_i = I/sqrt(D), that is M_i = I/D.  One
    iteration is one accepted step.  Iteration stops once a step moves the
    POVM by sum_i ||M_i - M_i'||_1 < epsilon, when no step above the step
    floor of optimize.armijo lowers -L, even along the gradient, or at
    max_iters, whichever is first.  The first two count as converged, the
    last does not; a run stopped at the step floor ends with final_delta >=
    epsilon (or with no iteration at all).  The solver is deterministic, so
    identical inputs give identical outputs.

    The stop test needs the spectra of the M_i - M_i', but their Frobenius
    norms bound the trace norms from below, so a step whose Frobenius sum
    reaches epsilon·(1 + 1e-6) cannot stop and its eigenvalues are skipped,
    unless it is a TRACE_EVERY-th step.  The last step's spectra are always
    taken, so every run stops where an exact test at every step would.

    Returns the reconstructed POVM and its diagnostics (MleDiagnostics); a
    run that hits max_iters is returned with converged=False rather than
    raised.
    Raises, before any work, TypeError for a max_iters that is not an
    integer (operators.integer) or an epsilon that is not a real number
    (operators.real), and ValueError for epsilon outside (0, 1),
    max_iters below 1, or a table that does not match the probe set.
    """
    if not 0.0 < (epsilon := real(epsilon, "epsilon")) < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    if (max_iters := integer(max_iters)) < 1:
        raise ValueError("max_iters must be positive")
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

    objective = functools.partial(
        _objective, _BornMap(preps.n), _fold(_shot_weighted(freq), preps)
    )
    eye = np.eye(d, dtype=complex)
    x = np.repeat(eye[None] / np.sqrt(d), num_outcomes, axis=0).ravel().view(float)
    start = objective(x)
    m = start[2]

    logliks = [-start[0]]
    completeness: list[float] = []
    trace_steps: list[int] = []
    deltas: list[float] = []
    min_eigs: list[float] = []

    def record_spectra(step: int, diff: np.ndarray, m_new: np.ndarray) -> float:
        eigs = np.linalg.eigvalsh(np.concatenate([diff, m_new]))
        trace_steps.append(step)
        deltas.append(float(np.abs(eigs[:num_outcomes]).sum()))
        min_eigs.append(float(eigs[num_outcomes:].min()))
        return deltas[-1]

    # sum_i ||D_i||_F <= sum_i ||D_i||_1: a step whose Frobenius sum reaches this cannot stop
    bound = epsilon * (1.0 + _FROBENIUS_MARGIN)
    iterations = 0
    # true also when lbfgs ends because no step above the step floor lowers -L
    converged = True

    for iterations, (_, (value, _, m_new)) in enumerate(lbfgs(objective, x, start), 1):
        diff = m_new - m
        completeness.append(float(np.abs(m_new.sum(axis=0) - eye).max()))
        logliks.append(-value)
        m = m_new
        last = iterations == max_iters
        exact = (
            last
            or iterations % TRACE_EVERY == 0
            or float(np.linalg.norm(diff, axis=(1, 2)).sum()) < bound
        )
        if exact and record_spectra(iterations, diff, m) < epsilon:
            break
        if last:
            converged = False
            break
    else:
        # lbfgs ended at the step floor: take the last step's spectra if not yet taken
        if iterations and trace_steps[-1:] != [iterations]:
            record_spectra(iterations, diff, m)

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
        trace_steps=np.array(trace_steps, dtype=np.int64),
        deltas=np.array(deltas),
        completeness_residuals=np.array(completeness),
        min_eigenvalues=np.array(min_eigs),
    )
    return povm, diag
