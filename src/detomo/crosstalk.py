"""Measurement crosstalk measures built on nearest-product fits.

For a normalized POVM element three trace distances are reported: D_N to the
ideal outcome projector (total error), D_C to the nearest product element
across a qubit partition (crosstalk error), and D_L* from that nearest
product to the ideal projector (local error).  The triangle inequality
D_N <= D_C + D_L* holds for any fitted product, so the decomposition never
over-explains the total error.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Generator, Iterator, Sequence

import numpy as np

from .operators import (
    HermitianOperator,
    NormalizedElement,
    Povm,
    basis_projector,
    kron,
    normalize,
    partial_trace,
    permute_qubits,
    tensor,
    trace_distance,
    trace_norm,
)
from .optimize import armijo

# D_C values at or below this sit inside the optimizer's own tolerance and do
# not certify crosstalk.
DC_RESOLUTION = 1e-3

# Elements with trace below this carry no usable signal; both the crosstalk
# and the partial-transpose reports skip them.
_SKIP_TRACE = 1e-10
_TIE_TOL = 1e-9
_DEDUPE_TOL = 1e-8
_ALS_TOL = 1e-10
_ALS_MAX_SWEEPS = 500
_EARLY_STOP = 1e-10
# The polish smooths the trace norm as tr√(Δ²+μ²I), for each μ in turn.
_SMOOTHING = (1e-3, 1e-5, 1e-7, 1e-9)
_START_MIX = 1e-6

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


@dataclass(frozen=True)
class Partition:
    """Ordered disjoint blocks of qubit labels; order fixes factor order."""

    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        blocks = tuple(tuple(int(q) for q in b) for b in self.blocks)
        if not blocks or any(not b for b in blocks):
            raise ValueError("partition blocks must be nonempty")
        flat = [q for b in blocks for q in b]
        if len(set(flat)) != len(flat):
            raise ValueError(f"partition blocks overlap: {blocks}")
        object.__setattr__(self, "blocks", blocks)

    @property
    def covered(self) -> frozenset[int]:
        return frozenset(q for b in self.blocks for q in b)

    def label(self) -> str:
        parts = []
        for b in self.blocks:
            parts.append(str(b[0]) if len(b) == 1 else "(" + ",".join(map(str, b)) + ")")
        return ":".join(parts)

    @classmethod
    def parse(cls, text: str) -> "Partition":
        """Parse "0:1,2" or "0:(1,2)" into blocks."""
        blocks = []
        for part in text.split(":"):
            part = part.strip().strip("()")
            if not part:
                raise ValueError(f"empty block in partition {text!r}")
            blocks.append(tuple(int(tok) for tok in part.split(",")))
        return cls(tuple(blocks))


def full_split(qubit_labels: Sequence[int]) -> Partition:
    """One block per qubit."""
    return Partition(tuple((int(q),) for q in qubit_labels))


def bipartitions(qubit_labels: Sequence[int]) -> tuple[Partition, ...]:
    """All 2**(n-1) - 1 two-block partitions, singleton-first lexicographic."""
    labels = sorted(int(q) for q in qubit_labels)
    n = len(labels)
    if n < 2:
        raise ValueError("bipartitions need at least two qubits")
    firsts = []
    for mask in range(1, 2**n - 1):
        first = tuple(labels[i] for i in range(n) if mask >> i & 1)
        rest = tuple(labels[i] for i in range(n) if not mask >> i & 1)
        if len(first) > len(rest):
            continue
        if len(first) == len(rest) and labels[0] not in first:
            continue
        firsts.append((first, rest))
    firsts.sort(key=lambda fr: (len(fr[0]), fr[0]))
    return tuple(Partition((f, r)) for f, r in firsts)


def default_partitions(qubit_labels: Sequence[int]) -> tuple[Partition, ...]:
    """Full split plus every bipartition (just the bipartition for n=2)."""
    labels = tuple(int(q) for q in qubit_labels)
    if len(labels) < 2:
        raise ValueError("crosstalk analysis needs at least two qubits")
    if len(labels) == 2:
        return (full_split(labels),)
    return (full_split(labels),) + bipartitions(labels)


@dataclass(frozen=True)
class FitConfig:
    """BFGS steps of the polish per smoothing stage; 0 skips the polish."""

    polish_max_fev: int = 2000

    def __post_init__(self) -> None:
        if self.polish_max_fev < 0:
            raise ValueError("polish_max_fev must be non-negative")


@dataclass(frozen=True)
class ProductFit:
    """Best product approximation found for one element and partition."""

    partition: Partition
    factors: tuple[NormalizedElement, ...]
    distance: float
    restarts_used: int
    converged: bool
    qubit_labels: tuple[int, ...]

    @property
    def product(self) -> NormalizedElement:
        prod = tensor([f.op for f in self.factors])
        return NormalizedElement(permute_qubits(prod, self.qubit_labels))


def _psd_unit_trace(matrix: np.ndarray) -> np.ndarray:
    """Nearest PSD matrix by eigenvalue clipping, rescaled to unit trace."""
    h = 0.5 * (matrix + matrix.conj().T)
    evals, vecs = np.linalg.eigh(h)
    evals = np.clip(evals, 0.0, None)
    s = evals.sum()
    if s < 1e-300:
        d = h.shape[0]
        return np.eye(d, dtype=complex) / d
    return (vecs * (evals / s)) @ vecs.conj().T


def _distance(a: np.ndarray, b: np.ndarray) -> float:
    return 0.5 * trace_norm(a - b)


def _als_update_subscript(nb: int, b: int) -> str:
    rows, cols = _LETTERS[:nb], _LETTERS[nb : 2 * nb]
    operands = [rows + cols]
    for i in range(nb):
        if i != b:
            operands.append(rows[i] + cols[i])
    return ",".join(operands) + "->" + rows[b] + cols[b]


def _als(
    tensor_target: np.ndarray,
    dims: Sequence[int],
    factors: list[np.ndarray],
) -> tuple[list[np.ndarray], np.ndarray, bool]:
    """Alternating closed-form updates of each block factor.

    Each factor takes its closed-form Frobenius least-squares value given the
    others, then is projected back to the PSD unit-trace set.
    """
    nb = len(dims)
    prev = kron(factors)
    for _ in range(_ALS_MAX_SWEEPS):
        for b in range(nb):
            others = [factors[i].conj() for i in range(nb) if i != b]
            w = np.einsum(_als_update_subscript(nb, b), tensor_target, *others)
            scale = 1.0
            for i in range(nb):
                if i != b:
                    scale *= float(np.vdot(factors[i], factors[i]).real)
            factors[b] = _psd_unit_trace(w / max(scale, 1e-300))
        prod = kron(factors)
        change = float(np.linalg.norm(prod - prev))
        prev = prod
        if change < _ALS_TOL:
            return factors, prod, True
    return factors, prod, False


# Leading axis of the stacked polish contractions: one row per problem.
_BATCH = "z"

# What the polish generators yield, (mu, x), and are sent back, (f, g).
_Polish = Generator[tuple[float, np.ndarray], tuple[float, np.ndarray], tuple]


@lru_cache(maxsize=None)
def _plan(dims: tuple[int, ...]) -> tuple[tuple[slice, str, np.ndarray], ...]:
    """Per block: its root's slice of the packed complex vector, the stacked
    gradient contraction (the ALS update with a leading batch letter) and its identity."""
    nb = len(dims)
    plan, end = [], 0
    for b, d in enumerate(dims):
        ins, out = _als_update_subscript(nb, b).split("->")
        subscript = ",".join(_BATCH + op for op in ins.split(",")) + "->" + _BATCH + out
        eye = np.eye(d)
        eye.flags.writeable = False
        plan.append((slice(end, end + d * d), subscript, eye))
        end += d * d
    return tuple(plan)


def _unroot(
    x: np.ndarray, dims: tuple[int, ...]
) -> tuple[list[np.ndarray], list[np.ndarray], list[np.ndarray]]:
    """Per block, for each row of x (B, 2·Σd_b²) packing roots A_b as real and
    imaginary parts: A_b (B, d_b, d_b), tr(A_b A_b†) (B,), and F_b = A_b A_b†/tr(A_b A_b†)."""
    packed = x.view(complex)
    roots, norms, factors = [], [], []
    for (block, _, _), d in zip(_plan(dims), dims):
        flat = packed[:, block]
        a = flat.reshape(-1, d, d)
        norm = np.vecdot(flat, flat).real
        roots.append(a)
        norms.append(norm)
        factors.append(a @ a.conj().transpose(0, 2, 1) / norm[:, None, None])
    return roots, norms, factors


def _smoothed(
    canons: np.ndarray, dims: tuple[int, ...], x: np.ndarray, mu: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """½ tr√(Δ²+μ²I) at Δ = canon − ⊗F_b, and its gradient in the roots packed in x.

    Stacked over problems: canons (B, D, D), x (B, 2·Σd_b²), mu (B,); row k
    of both results is bitwise what problem k alone gives.
    """
    roots, norms, factors = _unroot(x, dims)
    evals, vecs = np.linalg.eigh(canons - kron(factors))
    smooth = np.sqrt(evals**2 + (mu**2)[:, None])
    g = (vecs * (evals / smooth)[:, None, :]) @ vecs.conj().transpose(0, 2, 1)
    g = g.reshape((len(x),) + dims * 2)
    grads = []
    for b, (_, subscript, eye) in enumerate(_plan(dims)):
        others = [f.conj() for i, f in enumerate(factors) if i != b]
        d_f = -0.5 * np.einsum(subscript, g, *others)
        along = np.vecdot(factors[b].reshape(len(x), -1), d_f.reshape(len(x), -1)).real
        d_f -= along[:, None, None] * eye
        grads.append(((2.0 / norms[b])[:, None, None] * (d_f @ roots[b])).reshape(len(x), -1))
    return 0.5 * smooth.sum(axis=1), np.concatenate(grads, axis=1).view(float)


def _bfgs(
    x: np.ndarray, h: np.ndarray, mu: float, max_steps: int
) -> Generator[tuple[float, np.ndarray], tuple[float, np.ndarray], np.ndarray]:
    """BFGS with Armijo backtracking from x, updating the inverse Hessian h in place.

    Minimizes the trace norm smoothed at mu: yields each trial point (mu, x)
    and is sent the objective and gradient there.  Stops after max_steps
    steps, or when no step that still moves x decreases the objective, and
    returns the end point.
    """
    f, g = yield mu, x
    for _ in range(max_steps):
        step = yield from armijo(x, f, g, -h @ g, mu)
        if step is None:
            return x
        x_new, (f_new, g_new) = step
        s, y = x_new - x, g_new - g
        sy = float(s @ y)
        if sy > 0.0:
            hy = h @ y
            h += ((sy + y @ hy) / sy**2) * np.outer(s, s) - (np.outer(hy, s) + np.outer(s, hy)) / sy
        x, f, g = x_new, f_new, g_new
    return x


def _polish(
    canon: np.ndarray,
    dims: tuple[int, ...],
    factors: list[np.ndarray],
    start_distance: float,
    max_steps: int,
) -> _Polish:
    """BFGS on the factor roots against the trace norm smoothed at shrinking μ.

    Each stage starts where the previous one ended, with its curvature
    estimate; the end point with the smallest true distance wins, or the
    starting factors if none improves.  A generator driven by _lockstep; it
    returns (factors, distance).
    """
    if max_steps == 0:
        return factors, start_distance
    # A little identity lets a rank-deficient factor grow rank: a zero
    # column of its root would never receive gradient.
    mixed = [(1.0 - _START_MIX) * f + _START_MIX * np.eye(d) / d for f, d in zip(factors, dims)]
    roots = [(v * np.sqrt(np.clip(w, 0.0, None))).ravel() for w, v in map(np.linalg.eigh, mixed)]
    x = np.concatenate(roots).view(float)
    h = np.eye(x.size)
    best, best_distance = factors, start_distance
    for mu in _SMOOTHING:
        x = yield from _bfgs(x, h, mu, max_steps)
        cand = [f[0] for f in _unroot(x[None], dims)[2]]
        dist = _distance(canon, kron(cand))
        if dist < best_distance:
            best, best_distance = cand, dist
    return best, best_distance


def _lockstep(dims: tuple[int, ...], problems: Sequence[tuple[np.ndarray, _Polish]]) -> list[tuple]:
    """Drive (canon, polish generator) problems side by side, with one stacked
    _smoothed call per round; returns what each generator returns, in order.

    Each live problem holds a dense inverse Hessian, so at most prod(dims) =
    2^n run at a time, one per outcome of one partition; a finished problem's
    place goes to the next waiting one.
    """
    width = math.prod(dims)
    results: list[tuple] = [()] * len(problems)
    trials: dict[int, tuple[float, np.ndarray]] = {}
    waiting = iter(range(len(problems)))

    def advance(k: int, reply: tuple[float, np.ndarray] | None) -> None:
        try:
            trials[k] = problems[k][1].send(reply)
        except StopIteration as stop:
            trials.pop(k, None)
            results[k] = stop.value

    def refill() -> None:
        while len(trials) < width and (k := next(waiting, None)) is not None:
            advance(k, None)

    refill()
    while trials:
        live = list(trials)
        f, g = _smoothed(
            np.stack([problems[k][0] for k in live]),
            dims,
            np.stack([trials[k][1] for k in live]),
            np.array([trials[k][0] for k in live]),
        )
        for row, k in enumerate(live):
            advance(k, (float(f[row]), g[row]))
        refill()
    return results


def _seeds(
    canon: HermitianOperator,
    blocks: Sequence[tuple[int, ...]],
    dims: Sequence[int],
    outcome_bits: list[str] | None,
) -> Iterator[list[np.ndarray]]:
    """Block partial traces of the element with its blocks on contiguous axes,
    then a basis projector, then maximally mixed."""
    traces = [partial_trace(canon, block).matrix for block in blocks]
    yield [_psd_unit_trace(pt) for pt in traces]
    if outcome_bits is None:
        picks = [int(np.argmax(np.real(np.diag(pt)))) for pt in traces]
    else:
        picks = [int(bits, 2) for bits in outcome_bits]
    yield [np.diag(np.eye(d, dtype=complex)[i]) for d, i in zip(dims, picks)]
    yield [np.eye(d, dtype=complex) / d for d in dims]


def _seed_order(dists: Sequence[float]) -> tuple[int, int]:
    """The winning seed and the number of seeds used, replaying the serial rule.

    Seeds are taken in order; a later seed wins only if it beats the best by
    more than 1e-9, and the search stops once the best is 1e-10 or less.
    """
    best = used = 0
    for used, dist in enumerate(dists, 1):
        if dist < dists[best] - _TIE_TOL:
            best = used - 1
        if dists[best] <= _EARLY_STOP:
            break
    return best, used


def fit_products(
    items: Sequence[tuple[NormalizedElement, Partition, str | None]],
    config: FitConfig | None = None,
) -> list[ProductFit]:
    """fit_product for each (element, partition, outcome) item.

    Every item is checked before any fit runs.  The seeds, ALS runs and
    dedupe are per item, as in fit_product.  The polishes of all items and
    seeds with the same block dimensions then run side by side, one stacked
    objective evaluation per step (_lockstep); each keeps its own BFGS
    trajectory bit for bit.  The seed-order rules are replayed per item
    afterwards, so every fit is identical to a lone fit_product call.  Seeds
    after an early stop that needed a polish to show itself are polished too,
    and then ignored.
    """
    cfg = config or FitConfig()
    for elem, partition, _ in items:
        if len(partition.blocks) < 2:
            raise ValueError("crosstalk queries need at least two blocks")
        if partition.covered != frozenset(elem.qubit_labels):
            raise ValueError(
                f"partition {partition.label()} does not cover qubits {elem.qubit_labels}"
            )

    # (distance, factors) per distinct ALS end point; polished ones are filled in below
    ends: list[tuple[float, list[np.ndarray]]] = []
    tried: list[list[tuple[int, bool]]] = []  # per item: (end point, ALS converged) per seed
    # per block dims: the end points to polish, each with its (canon, polish) problem
    polishes: dict[tuple[int, ...], dict[int, tuple[np.ndarray, _Polish]]] = {}
    for elem, partition, outcome in items:
        dims = tuple(2 ** len(b) for b in partition.blocks)
        canon_op = permute_qubits(elem.op, [q for b in partition.blocks for q in b])
        canon = canon_op.matrix
        tensor_target = canon.reshape(dims * 2)
        outcome_bits = None
        if outcome is not None:
            by_label = dict(zip(elem.qubit_labels, outcome))
            outcome_bits = ["".join(by_label[q] for q in b) for b in partition.blocks]

        seeds: list[tuple[int, bool]] = []
        seen: list[tuple[np.ndarray, int]] = []
        pending = False  # a seed of this item awaits its polish
        for factors0 in _seeds(canon_op, partition.blocks, dims, outcome_bits):
            factors1, prod1, als_ok = _als(tensor_target, dims, factors0)
            end = next(
                (e for prod, e in seen if float(np.abs(prod - prod1).max()) < _DEDUPE_TOL), None
            )
            if end is None:
                end = len(ends)
                dist = _distance(canon, prod1)
                ends.append((dist, factors1))
                seen.append((prod1, end))
                if dist > _TIE_TOL:
                    pending = True
                    polishes.setdefault(dims, {})[end] = (
                        canon, _polish(canon, dims, factors1, dist, cfg.polish_max_fev)
                    )
            seeds.append((end, als_ok))
            # with no polish pending, the early stop is already decided
            if not pending:
                dists = [ends[e][0] for e, _ in seeds]
                if dists[_seed_order(dists)[0]] <= _EARLY_STOP:
                    break
        tried.append(seeds)

    for dims, queue in polishes.items():
        for end, (factors, dist) in zip(queue, _lockstep(dims, list(queue.values()))):
            ends[end] = (dist, factors)

    fits = []
    for (elem, partition, _), seeds in zip(items, tried):
        best, used = _seed_order([ends[e][0] for e, _ in seeds])
        end, als_ok = seeds[best]
        dist, factors = ends[end]
        fits.append(
            ProductFit(
                partition=partition,
                factors=tuple(
                    NormalizedElement(HermitianOperator(f, block))
                    for f, block in zip(factors, partition.blocks)
                ),
                distance=float(dist),
                restarts_used=used,
                converged=als_ok,
                qubit_labels=elem.qubit_labels,
            )
        )
    return fits


def fit_product(
    elem: NormalizedElement,
    partition: Partition,
    config: FitConfig | None = None,
    outcome: str | None = None,
) -> ProductFit:
    """Nearest product element across a partition, by two-stage local search.

    Stage one runs alternating closed-form Frobenius updates from each seed;
    stage two polishes the trace distance itself by BFGS over square roots
    of the factors, on the smoothed trace norm tr√(Δ²+μ²I) for μ = 1e-3,
    1e-5, 1e-7 and 1e-9 in turn.  The three seeds, in order, are the
    block partial traces, a basis projector (the outcome's when given, else
    the dominant diagonal) and maximally mixed factors; a seed whose first
    stage ends where an earlier seed's did reuses that result instead of
    polishing again.  The fit is carried out with the partition blocks
    permuted to contiguous axes, so a consistent relabeling of qubits and
    partition sees an identical problem and returns identical distances.

    Ties across seeds within 1e-9 keep the earliest seed; the search stops
    once a distance of 1e-10 or less is found.  This is fit_products with one
    item.
    """
    return fit_products([(elem, partition, outcome)], config)[0]


def total_error(elem: NormalizedElement, outcome: str) -> float:
    """Trace distance from the element to its ideal outcome projector."""
    return trace_distance(elem, basis_projector(outcome, elem.qubit_labels))


def crosstalk_error(
    elem: NormalizedElement,
    partition: Partition,
    config: FitConfig | None = None,
    outcome: str | None = None,
) -> float:
    """Distance to the nearest product element across the partition."""
    return fit_product(elem, partition, config, outcome).distance


def local_error(fit: ProductFit, outcome: str) -> float:
    """Distance from the fitted product to the ideal outcome projector."""
    return trace_distance(fit.product, basis_projector(outcome, fit.qubit_labels))


@dataclass(frozen=True)
class CrosstalkRow:
    outcome: str
    partition: str
    d_n: float
    d_c: float
    d_l_star: float
    converged: bool
    restarts_used: int
    triangle_residual: float
    resolved: bool


@dataclass(frozen=True)
class CrosstalkReport:
    """Per-outcome, per-partition error decomposition for one POVM."""

    qubit_labels: tuple[int, ...]
    rows: tuple[CrosstalkRow, ...]
    skipped_outcomes: tuple[str, ...]
    resolution: float = DC_RESOLUTION

    @property
    def max_triangle_residual(self) -> float:
        return max((r.triangle_residual for r in self.rows), default=0.0)


def _clip01(x: float) -> float:
    return min(max(x, 0.0), 1.0)


def usable_elements(povm: Povm) -> tuple[list[tuple[str, NormalizedElement]], tuple[str, ...]]:
    """(outcome, normalized element) pairs, and the skipped outcomes.

    Elements with trace below 1e-10 carry no usable signal and are skipped
    instead of being normalized.
    """
    usable = []
    skipped = []
    for outcome in povm.outcomes:
        element = povm.element(outcome)
        if element.trace() < _SKIP_TRACE:
            skipped.append(outcome)
        else:
            usable.append((outcome, normalize(element)))
    return usable, tuple(skipped)


def analyze_povm(
    povm: Povm,
    partitions: Sequence[Partition] | None = None,
    config: FitConfig | None = None,
) -> CrosstalkReport:
    """Total/crosstalk/local error decomposition for every element.

    Elements with trace below 1e-10 carry no usable signal and are listed in
    skipped_outcomes instead of being normalized.  Every usable outcome and
    partition is fitted in one fit_products call, in row order.
    """
    parts = tuple(partitions) if partitions is not None else default_partitions(povm.qubit_labels)
    usable, skipped = usable_elements(povm)
    items = [(elem, partition, outcome) for outcome, elem in usable for partition in parts]
    d_n = {outcome: total_error(elem, outcome) for outcome, elem in usable}
    rows = []
    for (_, partition, outcome), fit in zip(items, fit_products(items, config)):
        d_c = fit.distance
        d_l = local_error(fit, outcome)
        rows.append(
            CrosstalkRow(
                outcome=outcome,
                partition=partition.label(),
                d_n=_clip01(d_n[outcome]),
                d_c=_clip01(d_c),
                d_l_star=_clip01(d_l),
                converged=fit.converged,
                restarts_used=fit.restarts_used,
                triangle_residual=d_n[outcome] - (d_c + d_l),
                resolved=d_c > DC_RESOLUTION,
            )
        )

    return CrosstalkReport(
        qubit_labels=povm.qubit_labels,
        rows=tuple(rows),
        skipped_outcomes=skipped,
    )


def assignment_matrix(povm: Povm) -> np.ndarray:
    """Column-stochastic confusion matrix A[i, j] = tr[M_i |j><j|]."""
    return np.stack([np.diag(e.matrix).real for e in povm.elements])


def _project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    idx = np.arange(1, v.size + 1)
    mask = u - (css - 1.0) / idx > 0.0
    rho = idx[mask][-1]
    theta = (css[mask][-1] - 1.0) / rho
    return np.clip(v - theta, 0.0, None)


def mitigate_histogram(assignment: np.ndarray, observed: np.ndarray) -> np.ndarray:
    """Invert readout errors on an observed outcome distribution.

    Solves the full assignment system in one least-squares step (per-qubit
    factorized inversion is deliberately not used; it cannot represent
    correlated readout errors) and projects the solution onto the probability
    simplex.  A numerically singular assignment matrix falls back to the
    pseudo-inverse with a warning.
    """
    a = np.asarray(assignment, dtype=float)
    b = np.asarray(observed, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"assignment matrix must be square, got shape {a.shape}")
    if b.shape != (a.shape[0],):
        raise ValueError(f"histogram length {b.shape} does not match matrix {a.shape}")
    cond = np.linalg.cond(a)
    if not np.isfinite(cond) or cond > 1e12:
        warnings.warn(
            f"assignment matrix is ill-conditioned (cond={cond:.3e}); using pseudo-inverse",
            RuntimeWarning,
            stacklevel=2,
        )
        x = np.linalg.pinv(a) @ b
    else:
        x = np.linalg.lstsq(a, b, rcond=None)[0]
    return _project_simplex(x)
