"""Partial-transpose entanglement tests for measurement elements.

A normalized element with a negative partial transpose across a bipartition
cannot be written as a mixture of products across that cut.  For two qubits
(4x4) a positive partial transpose also certifies separability; for larger
registers a PPT result only means no NPPT entanglement was detected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .operators import HermitianOperator, NormalizedElement, Povm, qubit_axes, real
from .crosstalk import Partition, bipartitions

PPT_TOL = 1e-7


def partial_transpose(op: HermitianOperator, block: Sequence[int]) -> HermitianOperator:
    """Transpose the tensor indices of the given qubits; trace is untouched."""
    n = op.n
    t = op.matrix.reshape((2,) * (2 * n))
    perm = list(range(2 * n))
    for p in qubit_axes(op, block):
        perm[p], perm[n + p] = perm[n + p], perm[p]
    return HermitianOperator(t.transpose(perm).reshape(op.dim, op.dim), op.qubit_labels)


@dataclass(frozen=True)
class PptVerdict:
    """Partial-transpose spectrum summary for one bipartition.

    negativity sums eigenvalues below -ppt_tol, so it is zero exactly when
    the verdict is PPT; min eigenvalues in [-ppt_tol, 0) are flagged
    borderline rather than called entangled.
    """

    bipartition: Partition
    min_eigenvalue: float
    negativity: float
    nppt: bool
    borderline: bool
    ppt_tol: float

    @property
    def verdict(self) -> str:
        return "N" if self.nppt else "P"


def nppt_test(
    elem: NormalizedElement, bipartition: Partition, ppt_tol: float = PPT_TOL
) -> PptVerdict:
    """Partial transpose over the first block, then eigenvalue classification.

    ppt_tol is taken with operators.real and must be positive and finite.
    """
    if len(bipartition.blocks) != 2:
        raise ValueError(f"need a two-block partition, got {bipartition.label()}")
    bipartition.check_covers(elem.qubit_labels)
    if not 0.0 < (ppt_tol := real(ppt_tol, "ppt_tol")) < math.inf:
        raise ValueError(f"ppt_tol must be positive and finite, got {ppt_tol}")
    pt = partial_transpose(elem.op, bipartition.blocks[0])
    evals = pt.eigenvalues()
    lo = float(evals[0])
    negativity = float(-evals[evals < -ppt_tol].sum())
    return PptVerdict(
        bipartition=bipartition,
        min_eigenvalue=lo,
        negativity=negativity,
        nppt=lo < -ppt_tol,
        borderline=-ppt_tol <= lo < 0.0,
        ppt_tol=ppt_tol,
    )


@dataclass(frozen=True)
class PptRow:
    outcome: str
    bipartition: str
    min_eigenvalue: float
    negativity: float
    verdict: str
    borderline: bool


@dataclass(frozen=True)
class PptReport:
    """Bipartition verdicts for every usable element of a POVM."""

    qubit_labels: tuple[int, ...]
    rows: tuple[PptRow, ...]
    skipped_outcomes: tuple[str, ...]
    ppt_tol: float

    @property
    def any_nppt(self) -> bool:
        return any(r.verdict == "N" for r in self.rows)


def classify_povm(povm: Povm, ppt_tol: float = PPT_TOL) -> PptReport:
    """NPPT test of every element Povm.usable keeps across every bipartition;
    the others (trace < 1e-10, or PSD only before normalizing) are skipped.
    ppt_tol is taken as nppt_test takes it, also when no element is tested."""
    if not 0.0 < (ppt_tol := real(ppt_tol, "ppt_tol")) < math.inf:
        raise ValueError(f"ppt_tol must be positive and finite, got {ppt_tol}")
    usable, skipped = povm.usable
    cuts = bipartitions(povm.qubit_labels)
    rows = []
    for outcome, elem in usable:
        for cut in cuts:
            v = nppt_test(elem, cut, ppt_tol)
            rows.append(
                PptRow(
                    outcome=outcome,
                    bipartition=v.bipartition.label(),
                    min_eigenvalue=v.min_eigenvalue,
                    negativity=v.negativity,
                    verdict=v.verdict,
                    borderline=v.borderline,
                )
            )
    return PptReport(
        qubit_labels=povm.qubit_labels,
        rows=tuple(rows),
        skipped_outcomes=skipped,
        ppt_tol=ppt_tol,
    )
