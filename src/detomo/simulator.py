"""Synthetic noisy readout POVMs and deterministic shot sampling.

Three noise families cover the interesting crosstalk regimes:

* local_flip: independent per-qubit assignment flips; the POVM stays an
  exact tensor product, so every crosstalk measure should vanish.
* classical_corr: a weight-w mixture with a channel that flips both qubits
  of a designated pair together (balanced, so at w=1 the all-zeros element
  becomes the even mixture of |a><a| and |flip(a)><flip(a)|).  Elements stay
  diagonal: classically correlated but never entangled.
* entangled: the all-zeros element is mixed with a Bell projector on the
  designated pair at weight p, and the residual p(P0 - Bell) is moved onto
  the element whose outcome flips the pair bits, which keeps the sum exactly
  at identity and every element PSD for p in [0, 1].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .operators import (
    HermitianOperator,
    Povm,
    as_labels,
    ideal_povm,
    integer,
    kron,
    real,
    register_size,
    validate_povm,
)
from .tomography import PreparationSet, born_matrix

NOISE_KINDS = ("local_flip", "classical_corr", "entangled")


@dataclass(frozen=True)
class NoiseSpec:
    """Noise model parameters.

    p is the per-qubit flip probability for local_flip (flip_probs overrides
    it per qubit) and the Bell mixing weight for entangled; w is the
    correlated-flip weight for classical_corr, whose local part also uses p.
    p, w and each flip_probs entry are taken with operators.real and must
    lie in [0, 1]; they are held as floats.
    """

    kind: str
    p: float = 0.0
    w: float = 0.0
    flip_probs: tuple[float, ...] | None = None
    pair: tuple[int, int] = (0, 1)

    def __post_init__(self) -> None:
        if self.kind not in NOISE_KINDS:
            raise ValueError(f"unknown noise kind {self.kind!r}, expected one of {NOISE_KINDS}")
        probs = {"p": self.p, "w": self.w}
        if self.flip_probs is not None:
            probs |= {f"flip_probs[{q}]": x for q, x in enumerate(self.flip_probs)}
        for name, value in probs.items():
            probs[name] = value = real(value, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value}")
        object.__setattr__(self, "p", probs.pop("p"))
        object.__setattr__(self, "w", probs.pop("w"))
        if self.flip_probs is not None:
            object.__setattr__(self, "flip_probs", tuple(probs.values()))
        pair = as_labels(self.pair)
        if len(pair) != 2:
            raise ValueError(f"pair must name two qubits, got {pair}")
        object.__setattr__(self, "pair", pair)


def _local_flip_elements(n: int, flip: Sequence[float]) -> np.ndarray:
    """Stacked product elements (2**n, D, D) for independent per-qubit flips."""
    # singles[q, b]: qubit q's element for bit b
    singles = np.array(
        [[np.diag([1.0 - p, p]), np.diag([p, 1.0 - p])] for p in flip], dtype=complex
    )
    # bits[i, q]: qubit q's bit of outcome i, the first qubit most significant
    bits = np.arange(2**n)[:, None] >> np.arange(n - 1, -1, -1) & 1
    return kron([singles[q, bits[:, q]] for q in range(n)])


def _pair_mask(n: int, pair: tuple[int, int]) -> int:
    """The pair's bits in an outcome index, the first qubit most significant."""
    if not (0 <= pair[0] < n and 0 <= pair[1] < n):
        raise ValueError(f"pair {pair} is outside qubits 0..{n - 1}")
    return (1 << (n - 1 - pair[0])) | (1 << (n - 1 - pair[1]))


def make_noisy_povm(n: int, spec: NoiseSpec) -> Povm:
    """Construct the noisy POVM for a register of n qubits (labels 0..n-1).

    n is taken with register_size.  The result is re-validated at tolerance
    1e-10; parameters that leave the POVM cone are rejected.
    """
    n = register_size(n)
    flip = spec.flip_probs if spec.flip_probs is not None else (spec.p,) * n
    if len(flip) != n:
        raise ValueError(f"{len(flip)} flip probabilities given for n={n}")
    if spec.kind != "local_flip" and n < 2:
        raise ValueError(f"{spec.kind} noise needs at least two qubits")

    if spec.kind == "local_flip":
        stacked = _local_flip_elements(n, flip)
    elif spec.kind == "classical_corr":
        mask = _pair_mask(n, spec.pair)
        local = _local_flip_elements(n, flip)
        stacked = np.empty_like(local)
        for i in range(2**n):
            proj = np.zeros((2**n, 2**n), dtype=complex)
            proj[i, i] = 0.5
            proj[i ^ mask, i ^ mask] = 0.5
            stacked[i] = (1.0 - spec.w) * local[i] + spec.w * proj
    else:
        conj = _pair_mask(n, spec.pair)
        d = 2**n
        stacked = np.stack([e.matrix for e in ideal_povm(n).elements])
        bell = np.zeros(d, dtype=complex)
        bell[0] = 1.0 / np.sqrt(2.0)
        bell[conj] = 1.0 / np.sqrt(2.0)
        bell_proj = np.outer(bell, bell.conj())
        p0 = stacked[0].copy()
        stacked[0] = (1.0 - spec.p) * p0 + spec.p * bell_proj
        stacked[conj] = stacked[conj] + spec.p * (p0 - bell_proj)

    povm = Povm(tuple(HermitianOperator(m, range(n)) for m in stacked))
    report = validate_povm(povm, psd_tol=1e-10, completeness_tol=1e-10)
    if not report.ok:
        raise ValueError(
            f"noise parameters produce an invalid POVM: min eigenvalue "
            f"{min(report.min_eigenvalues):.3e}, completeness residual "
            f"{report.completeness_residual:.3e}"
        )
    return povm


def sample_counts(
    povm: Povm,
    preps: PreparationSet,
    shots: int,
    seed: int | None = None,
) -> dict:
    """Draw multinomial counts for every preparation; returns a counts document.

    Each preparation's counts are one multinomial draw of `shots` over its
    normalized Born probabilities, on a counter-based Philox generator keyed
    by (seed, preparation index): the law of the counts of `shots`
    independent outcomes, at a cost set by the number of outcomes, not of
    shots.  Any preparation's counts are reproducible independently of the
    others.  Zero counts are omitted from the document.  Shots and seed are
    taken with operators.integer; shots run up to 2**63 - 1 and seeds up to
    2**64 - 1, the largest numpy's sampler and the Philox key hold.
    """
    if povm.qubit_labels != preps.qubit_labels:
        raise ValueError(
            f"POVM acts on qubits {povm.qubit_labels}, preparations on {preps.qubit_labels}"
        )
    shots = integer(shots)
    if shots < 1:
        raise ValueError("shots must be positive")
    if shots > np.iinfo(np.int64).max:
        raise ValueError(f"shots must be at most 2**63 - 1, got {shots}")
    seed = 0 if seed is None else integer(seed)
    if seed < 0:
        raise ValueError("seed must be non-negative")
    if seed > np.iinfo(np.uint64).max:
        raise ValueError(f"seed must be at most 2**64 - 1, got {seed}")

    outcomes = povm.outcomes
    preparations = []
    for k, p in enumerate(born_matrix(povm, preps).T):
        rng = np.random.Generator(np.random.Philox(key=np.array([seed, k], dtype=np.uint64)))
        counts = rng.multinomial(shots, p / p.sum())
        preparations.append(
            {
                "labels": list(preps.labels[k]),
                "shots": shots,
                "counts": {
                    outcomes[i]: int(c) for i, c in enumerate(counts) if c > 0
                },
            }
        )
    return {
        "version": 1,
        "qubits": list(povm.qubit_labels),
        "preparations": preparations,
    }
