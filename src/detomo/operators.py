"""Operator algebra for multi-qubit measurement elements.

Conventions used throughout the package: qubits carry distinct integer labels,
taken by as_labels alone (a NumPy integer becomes an int; a float, string or
bool is a TypeError); a register's size is taken by register_size alone, the
same way, in 1..MAX_QUBITS; an outcome bitstring a1...an assigns a1 to the
first label, the leftmost bit most significant in the Kronecker index; POVM
elements are in the order of outcomes(n), and outcome_index is the one parser.
"""

from __future__ import annotations

import functools
import operator
import reprlib
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

PSD_TOL = 1e-9
COMPLETENESS_TOL = 1e-8
TRACE_ONE_TOL = 1e-10
DEGENERATE_TRACE = 1e-12
_SKIP_TRACE = 1e-10
MAX_QUBITS = 4


class LabelConflictError(ValueError):
    """Tensor factors share a qubit label."""


class DimensionMismatchError(ValueError):
    """Operands act on incompatible spaces."""


class DegenerateElementError(ValueError):
    """Element trace is too small to normalize."""


class NumericalFailureError(RuntimeError):
    """A solver produced non-finite or unusable intermediates."""


def integer(value) -> int:
    """value as an int, taken with operator.index: no float, string or bool."""
    if isinstance(value, bool):
        raise TypeError(f"expected an integer, not a bool: {value!r}")
    return operator.index(value)


def clipped_repr(value: object) -> str:
    """repr(value) for an error message, at most 60 characters: reprlib stops at a
    few levels of nesting and items, so a huge input value is never rendered whole."""
    text = reprlib.repr(value)
    return text if len(text) <= 60 else text[:57] + "..."


def register_size(n) -> int:
    """A qubit count, taken with integer, in 1..MAX_QUBITS."""
    n = integer(n)
    if not 1 <= n <= MAX_QUBITS:
        raise ValueError(
            f"supported register sizes are 1..{MAX_QUBITS} qubits, got n={clipped_repr(n)}"
        )
    return n


@functools.cache
def outcomes(n: int) -> tuple[str, ...]:
    """The 2**n outcome bitstrings of n qubits, in lexicographic order."""
    return tuple(format(i, f"0{n}b") for i in range(2**n))


def as_labels(qubit_labels: Iterable[int]) -> tuple[int, ...]:
    """Distinct qubit labels as a tuple of ints, each taken with integer."""
    labels = tuple(map(integer, qubit_labels))
    if len(set(labels)) != len(labels):
        raise LabelConflictError(f"duplicate qubit labels: {clipped_repr(labels)}")
    return labels


def parse_labels(text: str) -> tuple[int, ...]:
    """Comma-separated qubit labels, each ASCII digits with optional spaces around."""
    tokens = text.split(",")
    if not all(tok.strip(" ").isdecimal() and tok.isascii() for tok in tokens):
        raise ValueError(f"malformed qubit labels {text!r}")
    return tuple(map(int, tokens))


def _hermitize(matrix: np.ndarray) -> np.ndarray:
    return 0.5 * (matrix + matrix.conj().T)


@dataclass(frozen=True)
class HermitianOperator:
    """Hermitian matrix on a register of labeled qubits.

    The matrix is symmetrized to (M + M^dag)/2 at construction and stored
    read-only, so Hermiticity holds exactly from then on.
    """

    matrix: np.ndarray
    qubit_labels: tuple[int, ...]

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatchError(f"expected a square matrix, got shape {m.shape}")
        labels = as_labels(self.qubit_labels)
        if m.shape[0] != 2 ** len(labels):
            raise DimensionMismatchError(
                f"matrix dim {m.shape[0]} does not match {len(labels)} qubit labels"
            )
        m = _hermitize(m)
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "qubit_labels", labels)

    @property
    def n(self) -> int:
        return len(self.qubit_labels)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def trace(self) -> float:
        return float(self.matrix.trace().real)

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.matrix)

    def min_eigenvalue(self) -> float:
        return float(self.eigenvalues()[0])


@dataclass(frozen=True)
class NormalizedElement:
    """POVM element rescaled to unit trace, the object distance measures act on."""

    op: HermitianOperator

    def __post_init__(self) -> None:
        tr = self.op.trace()
        if abs(tr - 1.0) > TRACE_ONE_TOL:
            raise ValueError(f"normalized element must have unit trace, got {tr!r}")
        lo = self.op.min_eigenvalue()
        if lo < -PSD_TOL:
            raise ValueError(f"normalized element must be PSD, min eigenvalue {lo:.3e}")

    @property
    def matrix(self) -> np.ndarray:
        return self.op.matrix

    @property
    def qubit_labels(self) -> tuple[int, ...]:
        return self.op.qubit_labels

    @property
    def n(self) -> int:
        return self.op.n

    @property
    def dim(self) -> int:
        return self.op.dim


@dataclass(frozen=True)
class Povm:
    """POVM elements in lexicographic outcome order.

    Construction checks structure only (one element per bitstring, shared
    labels); physical validity is reported by validate_povm so that broken
    inputs can still be inspected.
    """

    elements: tuple[HermitianOperator, ...]

    def __post_init__(self) -> None:
        elems = tuple(self.elements)
        if not elems:
            raise ValueError("a POVM needs at least one element")
        labels = elems[0].qubit_labels
        for e in elems:
            if e.qubit_labels != labels:
                raise LabelConflictError("all POVM elements must share the same qubit labels")
        if len(elems) != 2 ** len(labels):
            raise DimensionMismatchError(
                f"expected {2 ** len(labels)} elements for {len(labels)} qubits, got {len(elems)}"
            )
        object.__setattr__(self, "elements", elems)

    @property
    def n(self) -> int:
        return self.elements[0].n

    @property
    def dim(self) -> int:
        return self.elements[0].dim

    @property
    def qubit_labels(self) -> tuple[int, ...]:
        return self.elements[0].qubit_labels

    @property
    def outcomes(self) -> tuple[str, ...]:
        return outcomes(self.n)

    def element(self, outcome: str) -> HermitianOperator:
        return self.elements[outcome_index(outcome, self.n)]

    @functools.cached_property
    def usable(self) -> tuple[tuple[tuple[str, NormalizedElement], ...], tuple[str, ...]]:
        """(outcome, normalized element) pairs, and the skipped outcomes, decided once.

        Skipped: trace below 1e-10 (no usable signal), or PSD within PSD_TOL
        but not once normalized (smallest eigenvalue in [-PSD_TOL,
        -PSD_TOL·trace)).  An element below -PSD_TOL is normalized, which
        refuses it unless its trace brings it within PSD_TOL.
        """
        usable = []
        skipped = []
        for outcome, element in zip(self.outcomes, self.elements):
            tr = element.trace()
            if tr < _SKIP_TRACE or -PSD_TOL <= element.min_eigenvalue() < -PSD_TOL * tr:
                skipped.append(outcome)
            else:
                usable.append((outcome, normalize(element)))
        return tuple(usable), tuple(skipped)


@dataclass(frozen=True)
class PovmValidation:
    """Positivity and completeness report for a candidate POVM."""

    min_eigenvalues: tuple[float, ...]
    completeness_residual: float
    psd_tol: float
    completeness_tol: float

    @property
    def psd_ok(self) -> bool:
        return min(self.min_eigenvalues) >= -self.psd_tol

    @property
    def completeness_ok(self) -> bool:
        return self.completeness_residual <= self.completeness_tol

    @property
    def ok(self) -> bool:
        return self.psd_ok and self.completeness_ok


def outcome_index(outcome: str, n: int) -> int:
    """Index of an outcome bitstring in lexicographic order."""
    if len(outcome) != n or outcome.strip("01"):
        raise ValueError(f"outcome {clipped_repr(outcome)} is not a {n}-bit string")
    return int(outcome, 2)


def kron(factors: Sequence[np.ndarray]) -> np.ndarray:
    """Kronecker product of stacked (..., r, c) factors, the first most significant.

    Leading axes broadcast.  Each entry is multiplied left to right, so every
    stack entry equals, bit for bit, a chain of numpy.kron over its factors.
    """
    out = factors[0]
    for f in factors[1:]:
        prod = out[..., :, None, :, None] * f[..., None, :, None, :]
        r, s, c, t = prod.shape[-4:]
        out = prod.reshape(prod.shape[:-4] + (r * s, c * t))
    return out


def tensor(ops: Sequence[HermitianOperator]) -> HermitianOperator:
    """Kronecker product of operators on disjoint qubit registers.

    Labels concatenate in argument order; the first argument supplies the most
    significant bits.
    """
    if not ops:
        raise ValueError("tensor of zero operators is undefined")
    labels = [q for op in ops for q in op.qubit_labels]
    return HermitianOperator(kron([op.matrix for op in ops]), labels)


def trace_norm(matrix: np.ndarray) -> float:
    """Sum of absolute eigenvalues of a Hermitian matrix."""
    return float(np.abs(np.linalg.eigvalsh(_hermitize(matrix))).sum())


def trace_distance(a, b) -> float:
    """Trace distance (1/2)||a - b||_1 between Hermitian operands.

    Accepts NormalizedElement or HermitianOperator; operands must share the
    same dimension.
    """
    ma, mb = a.matrix, b.matrix
    if ma.shape != mb.shape:
        raise DimensionMismatchError(f"operands have shapes {ma.shape} and {mb.shape}")
    return 0.5 * trace_norm(ma - mb)


def normalize(op: HermitianOperator) -> NormalizedElement:
    """Rescale an element to unit trace; traces <= 1e-12 are rejected."""
    tr = op.trace()
    if tr <= DEGENERATE_TRACE:
        raise DegenerateElementError(f"cannot normalize element with trace {tr:.3e}")
    return NormalizedElement(HermitianOperator(op.matrix / tr, op.qubit_labels))


def basis_projector(outcome: str, qubit_labels: Sequence[int]) -> HermitianOperator:
    """Projector |outcome><outcome| in the computational basis."""
    n = len(qubit_labels)
    i = outcome_index(outcome, n)
    m = np.zeros((2**n, 2**n), dtype=complex)
    m[i, i] = 1.0
    return HermitianOperator(m, qubit_labels)


def ideal_povm(n: int, qubit_labels: Sequence[int] | None = None) -> Povm:
    """Projective computational-basis POVM on n qubits."""
    n = register_size(n)
    labels = tuple(range(n)) if qubit_labels is None else as_labels(qubit_labels)
    if len(labels) != n:
        raise DimensionMismatchError(f"{len(labels)} labels given for n={n}")
    return Povm(tuple(basis_projector(outcome, labels) for outcome in outcomes(n)))


def born_probabilities(povm: Povm, state) -> np.ndarray:
    """Outcome probabilities tr[M_i rho] for a density matrix, in POVM order.

    Tiny negative values from roundoff are clamped to zero.
    """
    rho = state.matrix if hasattr(state, "matrix") else np.asarray(state, dtype=complex)
    if rho.shape != (povm.dim, povm.dim):
        raise DimensionMismatchError(f"state shape {rho.shape} does not match POVM dim {povm.dim}")
    stacked = np.stack([e.matrix for e in povm.elements])
    p = np.einsum("ist,ts->i", stacked, rho).real
    return np.clip(p, 0.0, None)


def validate_povm(
    povm: Povm, psd_tol: float = PSD_TOL, completeness_tol: float = COMPLETENESS_TOL
) -> PovmValidation:
    """Report positivity and completeness; never raises on physics violations."""
    mins = tuple(e.min_eigenvalue() for e in povm.elements)
    total = sum(e.matrix for e in povm.elements)
    residual = float(np.abs(total - np.eye(povm.dim)).max())
    return PovmValidation(mins, residual, psd_tol, completeness_tol)


def qubit_axes(op: HermitianOperator, labels: Iterable[int]) -> list[int]:
    """Tensor positions in op of the given labels, which must be distinct labels of op."""
    taken = as_labels(labels)
    if any(q not in op.qubit_labels for q in taken):
        raise ValueError(f"{taken} is not a set of labels from {op.qubit_labels}")
    return [op.qubit_labels.index(q) for q in taken]


def partial_trace(op: HermitianOperator, keep: Iterable[int]) -> HermitianOperator:
    """Trace out every qubit not listed in keep; kept labels follow keep order."""
    n = op.n
    pos = qubit_axes(op, keep)
    rest = [i for i in range(n) if i not in pos]
    order = pos + rest
    t = np.transpose(op.matrix.reshape((2,) * (2 * n)), order + [n + i for i in order])
    dk, dr = 2 ** len(pos), 2 ** len(rest)
    t = t.reshape(dk, dr, dk, dr)
    return HermitianOperator(np.einsum("ajbj->ab", t), [op.qubit_labels[i] for i in pos])


def permute_qubits(op: HermitianOperator, new_labels: Sequence[int]) -> HermitianOperator:
    """Reorder tensor factors so the labels appear in new_labels order."""
    n = op.n
    pos = qubit_axes(op, new_labels)
    new = [op.qubit_labels[i] for i in pos]
    if len(new) != n:
        raise ValueError(f"{new} is not a permutation of {op.qubit_labels}")
    t = np.transpose(op.matrix.reshape((2,) * (2 * n)), pos + [n + i for i in pos])
    return HermitianOperator(t.reshape(op.dim, op.dim), new)
