"""Quasi-Newton minimization with one Armijo line search.

The crosstalk polish runs dense BFGS on a few dozen variables per problem,
side by side through generators (crosstalk._bfgs); the MLE runs
limited-memory BFGS on its thousands of variables through a callable
objective (lbfgs).  Both take their steps with armijo, which gives up at one
relative step floor, STEP_FLOOR.  The MLE's searches halve the step; the
polish's interpolate it, which needs fewer trial points for the same
sufficient decrease.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Generator, Iterator, Sequence

import numpy as np

# (s, y) pairs the limited-memory inverse Hessian keeps.
MEMORY = 10

# The step floor: a line search gives up once its step would move x by at
# most this fraction of max|x|.  Shorter steps change x only in its last
# bits, so their objective values are float noise.
STEP_FLOOR = 1e-12

# What an objective gives at a point: (f, gradient, anything the caller
# wants back with the accepted point).
Evaluation = tuple[Any, ...]


def armijo(
    x: np.ndarray,
    f: float,
    g: np.ndarray,
    p: np.ndarray,
    tag: Any = None,
    *,
    interpolate: bool = False,
) -> Generator[tuple[Any, np.ndarray], Evaluation, tuple[np.ndarray, Evaluation] | None]:
    """Backtracking line search from x along the direction p.

    Yields each trial point as (tag, x') and is sent the evaluation there,
    (f', g', ...).  Tries steps t from 1 until f' < f + 1e-4·t·g·p and
    returns (x', evaluation), or returns None, before evaluating it, at the
    first step at the step floor: t·max|p| <= STEP_FLOOR·max|x|.  At x = 0
    the floor is 0, so the search ends where t·max|p| underflows.

    After a rejected step the next one is t/2, or, with interpolate, the
    minimizer of the quadratic through f, the slope g·p and f', clipped to
    [t/10, t/2] (halving when that quadratic has no minimum, or f' is NaN).
    """
    slope = float(g @ p)
    reach = float(np.abs(p).max(initial=0.0))
    floor = STEP_FLOOR * float(np.abs(x).max(initial=0.0))
    t = 1.0
    while t * reach > floor:
        x_new = x + t * p
        evaluation = yield tag, x_new
        if evaluation[0] < f + 1e-4 * t * slope:
            return x_new, evaluation
        excess = evaluation[0] - f - slope * t  # f' above the tangent line
        if interpolate and excess > 0.0:
            t = min(max(-slope * t * t / (2.0 * excess), 0.1 * t), 0.5 * t)
        else:
            t *= 0.5
    return None


def _line_search(
    objective: Callable[[np.ndarray], Evaluation],
    x: np.ndarray,
    evaluation: Evaluation,
    p: np.ndarray,
) -> tuple[np.ndarray, Evaluation] | None:
    """armijo along p, each trial point evaluated by objective."""
    search = armijo(x, evaluation[0], evaluation[1], p)
    try:
        _, trial = next(search)
        while True:
            _, trial = search.send(objective(trial))
    except StopIteration as stop:
        return stop.value


def _direction(g: np.ndarray, pairs: Sequence[tuple[np.ndarray, np.ndarray, float]]) -> np.ndarray:
    """−H·g for the limited-memory inverse Hessian H of pairs (s, y, 1/s·y), oldest first.

    The two-loop recursion, with H₀ = (s·y / y·y)·I from the newest pair; −g
    with no pairs.
    """
    q = g.copy()
    alphas = []
    for s, y, rho in reversed(pairs):
        alpha = rho * float(s @ q)
        q -= alpha * y
        alphas.append(alpha)
    if pairs:
        s, y, _ = pairs[-1]
        q *= float(s @ y) / float(y @ y)
    for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
        q += (alpha - rho * float(y @ q)) * s
    return -q


def lbfgs(
    objective: Callable[[np.ndarray], Evaluation], x: np.ndarray, evaluation: Evaluation
) -> Iterator[tuple[np.ndarray, Evaluation]]:
    """Limited-memory BFGS from x, whose evaluation is given.

    Yields (x, evaluation) after each accepted step; the caller decides when
    to stop.  When a line search finds no decrease above the step floor
    (armijo), the memory is dropped and the search retried once along the
    gradient; if that fails too, the iteration ends.
    """
    pairs: deque[tuple[np.ndarray, np.ndarray, float]] = deque(maxlen=MEMORY)
    while True:
        g = evaluation[1]
        step = _line_search(objective, x, evaluation, _direction(g, pairs))
        if step is None and pairs:
            pairs.clear()
            step = _line_search(objective, x, evaluation, -g)
        if step is None:
            return
        x_new, evaluation = step
        s, y = x_new - x, evaluation[1] - g
        sy = float(s @ y)
        if sy > 0.0:
            pairs.append((s, y, 1.0 / sy))
        x = x_new
        yield x, evaluation
