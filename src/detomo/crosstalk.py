"""Measurement crosstalk measures built on nearest-product fits.

For a normalized POVM element three trace distances are reported: D_N to the
ideal outcome projector (total error), D_C to the nearest product element
across a qubit partition (crosstalk error), and D_L* from that nearest
product to the ideal projector (local error).  The triangle inequality
D_N <= D_C + D_L* holds for any fitted product, so the decomposition never
over-explains the total error.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Generator, Sequence

import numpy as np

from .operators import (
    HermitianOperator,
    NormalizedElement,
    Povm,
    as_labels,
    basis_projector,
    finite_array,
    kron,
    parse_labels,
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

_TIE_TOL = 1e-9
_DEDUPE_TOL = 1e-8
_ALS_TOL = 1e-10
_ALS_MAX_SWEEPS = 500
# The polish smooths the trace norm as tr√(Δ²+μ²I), for each μ in turn.
_SMOOTHING = (1e-3, 1e-5, 1e-7, 1e-9)
# A stage before the last ends at its first step that lowers the smoothed
# trace norm by at most this times μ: it is biased by about 2.5μ anyway.
_STAGE_TOL = 1e-6
# A safety stop on BFGS steps per smoothing stage: on the benchmark's n=2-4
# truths and reconstructions no stage took more than 187.
_MAX_STEPS = 2000
_START_MIX = 1e-6

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


@dataclass(frozen=True)
class Partition:
    """Ordered disjoint blocks of qubit labels, taken with as_labels; order fixes factor order."""

    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        blocks = tuple(map(as_labels, self.blocks))
        if not blocks or any(not b for b in blocks):
            raise ValueError("partition blocks must be nonempty")
        as_labels(q for b in blocks for q in b)  # no label in two blocks
        object.__setattr__(self, "blocks", blocks)

    def check_covers(self, qubit_labels: tuple[int, ...]) -> None:
        """Refuse a partition whose blocks do not hold exactly these qubits."""
        if {q for b in self.blocks for q in b} != set(qubit_labels):
            raise ValueError(f"partition {self.label()} does not cover qubits {qubit_labels}")

    def label(self) -> str:
        parts = []
        for b in self.blocks:
            parts.append(str(b[0]) if len(b) == 1 else "(" + ",".join(map(str, b)) + ")")
        return ":".join(parts)

    @classmethod
    def parse(cls, text: str) -> "Partition":
        """Parse "0:1,2" or "0:(1,2)" into blocks: each block is labels as
        parse_labels reads them, optionally in one pair of parentheses."""
        blocks = []
        for part in text.split(":"):
            part = part.strip(" ")
            if part.startswith("(") and part.endswith(")"):
                part = part[1:-1]
            try:
                blocks.append(parse_labels(part))
            except ValueError:
                raise ValueError(f"malformed block {part!r} in partition {text!r}") from None
        return cls(tuple(blocks))


def full_split(qubit_labels: Sequence[int]) -> Partition:
    """One block per qubit."""
    return Partition(tuple((q,) for q in qubit_labels))


def bipartitions(qubit_labels: Sequence[int]) -> tuple[Partition, ...]:
    """All 2**(n-1) - 1 two-block partitions, singleton-first lexicographic; a
    first block of half the labels holds the smallest one."""
    labels = sorted(as_labels(qubit_labels))
    n = len(labels)
    if n < 2:
        raise ValueError("bipartitions need at least two qubits")
    return tuple(
        Partition((first, tuple(q for q in labels if q not in first)))
        for k in range(1, n // 2 + 1)
        for first in itertools.combinations(labels, k)
        if 2 * k < n or first[0] == labels[0]
    )


def default_partitions(qubit_labels: Sequence[int]) -> tuple[Partition, ...]:
    """Full split plus every bipartition (just the bipartition for n=2)."""
    labels = as_labels(qubit_labels)
    if len(labels) < 2:
        raise ValueError("crosstalk analysis needs at least two qubits")
    if len(labels) == 2:
        return (full_split(labels),)
    return (full_split(labels),) + bipartitions(labels)


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


def _psd_unit_trace(matrices: np.ndarray) -> np.ndarray:
    """Nearest PSD matrix to each of (B, d, d) by eigenvalue clipping, rescaled
    to unit trace; a row with no positive eigenvalue becomes I/d."""
    h = 0.5 * (matrices + matrices.conj().transpose(0, 2, 1))
    evals, vecs = np.linalg.eigh(h)
    evals = np.clip(evals, 0.0, None)
    s = evals.sum(axis=1)
    empty = s < 1e-300
    weights = evals / np.where(empty, 1.0, s)[:, None]
    out = (vecs * weights[:, None, :]) @ vecs.conj().transpose(0, 2, 1)
    out[empty] = np.eye(h.shape[-1]) / h.shape[-1]
    return out


def _distance(a: np.ndarray, b: np.ndarray) -> float:
    return 0.5 * trace_norm(a - b)


# What a fit yields while it polishes, (mu, x), and is sent back, (f, g).
_Fit = Generator[tuple[float, np.ndarray], tuple[float, np.ndarray], tuple]


@lru_cache(maxsize=None)
def _plan(dims: tuple[int, ...]) -> tuple[tuple[slice, str, np.ndarray], ...]:
    """Per block: its root's slice of the packed complex vector, the stacked
    contraction of the ALS update and the polish gradient, and its identity.

    In the contraction, z is the stack axis, one row per problem, and block
    i's row and column axes are rows[i] and cols[i].
    """
    nb = len(dims)
    rows, cols = _LETTERS[:nb], _LETTERS[nb : 2 * nb]
    plan, end = [], 0
    for b, d in enumerate(dims):
        others = ["z" + rows[i] + cols[i] for i in range(nb) if i != b]
        subscript = ",".join(["z" + rows + cols] + others) + "->z" + rows[b] + cols[b]
        eye = np.eye(d)
        eye.flags.writeable = False
        plan.append((slice(end, end + d * d), subscript, eye))
        end += d * d
    return tuple(plan)


def _als(
    targets: np.ndarray, dims: tuple[int, ...], factors: list[np.ndarray]
) -> tuple[list[np.ndarray], np.ndarray]:
    """Alternating closed-form updates of each block factor, stacked over rows.

    targets (B, *dims, *dims) and factors[b] (B, d_b, d_b); each factor takes
    its closed-form Frobenius least-squares value given the others, up to a
    positive factor per row that the projection back to the PSD unit-trace
    set removes, so no factor needs unit trace.  A row ends at the first
    sweep that moves its product ⊗F_b by less than _ALS_TOL, or after
    _ALS_MAX_SWEEPS; the sweeps go on until every row has ended, and a row's
    later sweeps are discarded.  Returns the end factors and converged flags
    (B,); row k of both is bitwise what row k alone gives.
    """
    factors, ends = list(factors), [np.empty_like(f) for f in factors]
    converged = np.zeros(len(targets), dtype=bool)
    prev = kron(factors)
    for _ in range(_ALS_MAX_SWEEPS):
        for b, (_, subscript, _) in enumerate(_plan(dims)):
            others = [f.conj() for i, f in enumerate(factors) if i != b]
            factors[b] = _psd_unit_trace(np.einsum(subscript, targets, *others))
        prod = kron(factors)
        diff = np.subtract(prod, prev, out=prev).reshape(len(prod), -1)  # np.linalg.norm's sums
        for end, f in zip(ends, factors):
            end[~converged] = f[~converged]
        change = np.sqrt(np.vecdot(diff.real, diff.real) + np.vecdot(diff.imag, diff.imag))
        converged |= change < _ALS_TOL
        if converged.all():
            break
        prev = prod
    return ends, converged


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
    x: np.ndarray, h: np.ndarray, mu: float
) -> Generator[tuple[float, np.ndarray], tuple[float, np.ndarray], np.ndarray]:
    """BFGS with interpolating Armijo backtracking from x, updating the
    inverse Hessian h in place.

    Minimizes the trace norm smoothed at mu: yields each trial point (mu, x)
    and is sent the objective and gradient there.  Stops after _MAX_STEPS
    steps, or when no step above the step floor (armijo) decreases the
    objective, and returns the end point.  At a mu above the last smoothing
    it also stops at the first step that lowers the objective by at most
    _STAGE_TOL·mu, and returns that step's point without updating h.
    """
    tol = _STAGE_TOL * mu if mu > _SMOOTHING[-1] else -math.inf
    f, g = yield mu, x
    for _ in range(_MAX_STEPS):
        step = yield from armijo(x, f, g, -h @ g, mu, interpolate=True)
        if step is None:
            return x
        x_new, (f_new, g_new) = step
        if f - f_new <= tol:
            return x_new
        s, y = x_new - x, g_new - g
        sy = float(s @ y)
        if sy > 0.0:
            hy = h @ y
            ss, hys = s[:, None] * s, hy[:, None] * s  # np.outer, bit for bit
            h += ((sy + y @ hy) / sy**2) * ss - (hys + hys.T) / sy
            del ss, hys  # a suspended polish keeps h as its only nv × nv array
        x, f, g = x_new, f_new, g_new
    return x


def _polish(
    canon: np.ndarray,
    dims: tuple[int, ...],
    factors: list[np.ndarray],
    start_distance: float,
) -> _Fit:
    """BFGS on the factor roots against the trace norm smoothed at shrinking μ.

    Each stage starts where the previous one ended, with its curvature
    estimate.  The stages before the last end once a step gains at most
    _STAGE_TOL·μ, the last at the step floor (_bfgs).  It returns the last
    stage's end point and its true distance if that beats start_distance,
    else the starting factors; a generator driven by _fit.
    """
    # A little identity lets a rank-deficient factor grow rank: a zero
    # column of its root would never receive gradient.
    mixed = [(1.0 - _START_MIX) * f + _START_MIX * np.eye(d) / d for f, d in zip(factors, dims)]
    roots = [(v * np.sqrt(np.clip(w, 0.0, None))).ravel() for w, v in map(np.linalg.eigh, mixed)]
    x = np.concatenate(roots).view(float)
    h = np.eye(x.size)
    for mu in _SMOOTHING:
        x = yield from _bfgs(x, h, mu)
    polished = [f[0] for f in _unroot(x[None], dims)[2]]
    dist = _distance(canon, kron(polished))
    return (polished, dist) if dist < start_distance else (factors, start_distance)


def _lockstep(dims: tuple[int, ...], problems: list[tuple[np.ndarray, _Fit]]) -> list[tuple]:
    """Drive (canon, fit generator) problems side by side, with one stacked
    _smoothed call per round; returns what each generator returns, in order.

    A live fit polishes one ALS end point at a time and holds its dense
    inverse Hessian, so at most prod(dims) = 2^n fits run at a time, one per
    outcome of one partition; a finished fit's place goes to the next
    problem in the list.
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
    canon: HermitianOperator, blocks: Sequence[tuple[int, ...]], dims: Sequence[int]
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """The two seeds: the block partial traces of the element with its blocks
    on contiguous axes, raw (_als projects them), then per block the basis
    projector on its partial trace's largest diagonal entry (first of ties)."""
    traces = [partial_trace(canon, block).matrix for block in blocks]
    picks = [int(np.argmax(np.real(np.diag(pt)))) for pt in traces]
    projectors = [np.diag(np.eye(d, dtype=complex)[i]) for d, i in zip(dims, picks)]
    return traces, projectors


def _fit(canon: np.ndarray, dims: tuple[int, ...], ends: list[tuple]) -> _Fit:
    """One product fit of the element canon, its blocks on contiguous axes,
    from its seeds' ALS end points (factors, converged), in seed order.

    An end point whose product coincides with an earlier seed's reuses that
    result; a new one farther than 1e-9 from the element is polished.  A
    later seed wins only if it beats the best by more than 1e-9, so once the
    best is 1e-9 or less none can, and the search stops there: no later seed
    is polished or used.  Its polishes' trial points pass through it to
    _lockstep; it returns (distance, factors, ALS converged, seeds used).
    """
    done: list[tuple[np.ndarray, float, list[np.ndarray]]] = []  # (ALS product, distance, factors)
    for used, (factors, als_ok) in enumerate(ends, 1):
        prod = kron(factors)
        end = next((e for e in done if float(np.abs(e[0] - prod).max()) < _DEDUPE_TOL), None)
        if end is None:
            dist = _distance(canon, prod)
            if dist > _TIE_TOL:
                factors, dist = yield from _polish(canon, dims, factors, dist)
            end = (prod, dist, factors)
            done.append(end)
        _, dist, factors = end
        if used == 1 or dist < best[0] - _TIE_TOL:
            best = (dist, factors, als_ok)
        if best[0] <= _TIE_TOL:
            break
    return best + (used,)


def _als_ends(dims: tuple[int, ...], items: list[tuple]) -> list[tuple[np.ndarray, list]]:
    """(canon, its seeds' ALS end points (factors, converged)) per (element,
    partition) item, canon being the element with the partition's blocks on
    contiguous axes; the seeds of every item go through one stacked _als.
    Each row is copied out of the stack, so that no fit keeps the stack alive."""
    ops = [permute_qubits(elem.op, [q for b in p.blocks for q in b]) for elem, p in items]
    seeds = [(op.matrix, _seeds(op, p.blocks, dims)) for op, (_, p) in zip(ops, items)]
    rows = [(canon, seed) for canon, item in seeds for seed in item]
    factors, converged = _als(
        np.stack([canon for canon, _ in rows]).reshape((len(rows),) + dims * 2),
        dims,
        [np.stack([seed[b] for _, seed in rows]) for b in range(len(dims))],
    )
    ends = iter([([f[r].copy() for f in factors], bool(ok)) for r, ok in enumerate(converged)])
    return [(canon, [next(ends) for _ in item]) for canon, item in seeds]


def fit_products(items: Sequence[tuple[NormalizedElement, Partition]]) -> list[ProductFit]:
    """fit_product for each (element, partition) pair.

    A fit depends on the element and the partition alone.  Every pair is
    checked before any fit runs.  The fits of all pairs with the same block
    dimensions then run side by side, in pair order: the seeds of all of
    them go through one stacked ALS (_als_ends), and the polishes take one
    stacked objective evaluation per step (_lockstep).  Each keeps its own
    path bit for bit, so every fit is identical to a lone fit_product call.
    """
    for elem, partition in items:
        if len(partition.blocks) < 2:
            raise ValueError("crosstalk queries need at least two blocks")
        partition.check_covers(elem.qubit_labels)

    groups: dict[tuple[int, ...], list[int]] = {}  # item indices per block dims
    for k, (_, partition) in enumerate(items):
        groups.setdefault(tuple(2 ** len(b) for b in partition.blocks), []).append(k)

    results: list[tuple] = [()] * len(items)
    for dims, group in groups.items():
        ends = _als_ends(dims, [items[k] for k in group])
        problems = [(canon, _fit(canon, dims, seed_ends)) for canon, seed_ends in ends]
        for k, result in zip(group, _lockstep(dims, problems)):
            results[k] = result

    return [
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
        for (elem, partition), (dist, factors, als_ok, used) in zip(items, results)
    ]


def fit_product(elem: NormalizedElement, partition: Partition) -> ProductFit:
    """Nearest product element across a partition, by two-stage local search.

    Stage one runs alternating closed-form Frobenius updates from each seed,
    the two seeds stacked in one call; stage two polishes the trace
    distance itself by BFGS over square roots of the factors, on the
    smoothed trace norm tr√(Δ²+μ²I) for μ = 1e-3, 1e-5, 1e-7 and 1e-9 in
    turn, at most 2000 steps each (_MAX_STEPS).
    The two seeds, in order, are the block partial traces and, per block, the
    basis projector on its partial trace's largest diagonal entry; when the
    second seed's first stage ends where the first's did, it reuses that
    result instead of polishing again.  The fit is carried out with the partition
    blocks permuted to contiguous axes, so a consistent relabeling of qubits
    and partition sees an identical problem and returns identical distances.

    The second seed wins only if it beats the first by more than 1e-9, so
    the search stops once the first reaches 1e-9 or less (_fit).  This is
    fit_products with one item.
    """
    return fit_products([(elem, partition)])[0]


def total_error(elem: NormalizedElement, outcome: str) -> float:
    """Trace distance from the element to its ideal outcome projector."""
    return trace_distance(elem, basis_projector(outcome, elem.qubit_labels))


def crosstalk_error(elem: NormalizedElement, partition: Partition) -> float:
    """Distance to the nearest product element across the partition."""
    return fit_product(elem, partition).distance


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

    @property
    def max_triangle_residual(self) -> float:
        return max((r.triangle_residual for r in self.rows), default=0.0)


def _clip01(x: float) -> float:
    return min(max(x, 0.0), 1.0)


def analyze_povm(
    povm: Povm,
    partitions: Sequence[Partition] | None = None,
) -> CrosstalkReport:
    """Total/crosstalk/local error decomposition for every element.

    Elements that Povm.usable skips (trace below 1e-10, or PSD only
    before normalizing) are listed in skipped_outcomes.  Every usable
    element and partition is fitted in one fit_products call, in row order;
    the outcome enters D_N and D_L* only.  A partition given twice is
    refused before any fit runs.  A row is resolved when its D_C exceeds
    DC_RESOLUTION.
    """
    parts = tuple(partitions) if partitions is not None else default_partitions(povm.qubit_labels)
    for k, partition in enumerate(parts):
        if partition in parts[:k]:
            raise ValueError(f"partition {partition.label()} is given twice")
    usable, skipped = povm.usable
    items = [(outcome, elem, partition) for outcome, elem in usable for partition in parts]
    d_n = {outcome: total_error(elem, outcome) for outcome, elem in usable}
    rows = []
    fits = fit_products([(elem, partition) for _, elem, partition in items])
    for (outcome, _, partition), fit in zip(items, fits):
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
    pseudo-inverse with a warning.  Both arrays are taken with
    operators.finite_array as real numbers.
    """
    a = finite_array(assignment, "assignment")
    b = finite_array(observed, "observed")
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"assignment matrix must be square, got shape {a.shape}")
    if b.shape != (a.shape[0],):
        raise ValueError(f"histogram length {b.shape} does not match matrix {a.shape}")
    cond = np.linalg.cond(a)
    if cond > 1e12:
        warnings.warn(
            f"assignment matrix is ill-conditioned (cond={cond:.3e}); using pseudo-inverse",
            RuntimeWarning,
            stacklevel=2,
        )
        x = np.linalg.pinv(a) @ b
    else:
        x = np.linalg.lstsq(a, b, rcond=None)[0]
    return _project_simplex(x)
