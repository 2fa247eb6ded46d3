"""The Armijo line search and its step floor."""

import math

import numpy as np
import pytest

import detomo.optimize as optimize
from conftest import exact_frequency_table, random_povm
from detomo import mle_reconstruct, mub_preparations
from detomo.optimize import STEP_FLOOR, armijo


def _drive(search, objective):
    """Run an armijo generator; returns (its result, the trial points in order)."""
    trials = []
    try:
        _, trial = next(search)
        while True:
            trials.append(trial)
            _, trial = search.send(objective(trial))
    except StopIteration as stop:
        return stop.value, trials


def _halving_to_no_change(x, f, g, p):
    """The search before the step floor: halve until x + t·p == x."""
    slope = float(g @ p)
    t = 1.0
    while True:
        x_new = x + t * p
        if np.array_equal(x_new, x):
            return None
        evaluation = yield None, x_new
        if evaluation[0] < f + 1e-4 * t * slope:
            return x_new, evaluation
        t *= 0.5


def _quadratic(a):
    return lambda x: (0.5 * float(x @ a @ x), a @ x)


@pytest.mark.parametrize("interpolate", [False, True], ids=["halve", "interpolate"])
def test_search_without_decrease_stops_at_the_floor(interpolate):
    rng = np.random.default_rng(3)
    x = rng.standard_normal(12) * 40.0
    g = rng.standard_normal(12)
    p = -g * 7.0
    result, trials = _drive(armijo(x, 0.0, g, p, interpolate=interpolate), lambda y: (1.0, g))
    assert result is None
    ratio = np.abs(p).max() / (STEP_FLOOR * np.abs(x).max())
    assert 0 < len(trials) <= math.ceil(math.log2(ratio)) + 1
    # every trial point moves x by more than the floor
    for trial in trials:
        assert np.abs(trial - x).max() > STEP_FLOOR * np.abs(x).max()
    # halving on to x + t·p == x takes 15 more trial points here
    old, old_trials = _drive(_halving_to_no_change(x, 0.0, g, p), lambda y: (1.0, g))
    assert old is None and len(old_trials) > len(trials) + 10


def test_search_above_the_floor_accepts_the_same_point():
    rng = np.random.default_rng(4)
    m = rng.standard_normal((8, 8))
    objective = _quadratic(m @ m.T + 0.1 * np.eye(8))
    x = rng.standard_normal(8)
    f, g = objective(x)
    counts = []
    for scale in (1.0, 50.0, 1e4):  # a longer first step needs more halvings
        p = -scale * g
        new, new_trials = _drive(armijo(x, f, g, p), objective)
        old, old_trials = _drive(_halving_to_no_change(x, f, g, p), objective)
        assert new is not None
        assert np.array_equal(new[0], old[0])
        assert new[1][0] == old[1][0] and np.array_equal(new[1][1], old[1][1])
        assert len(new_trials) == len(old_trials)
        counts.append(len(new_trials))
    assert counts[-1] > 10


def test_interpolated_search_accepts_a_long_first_step_in_fewer_trials():
    # the scale = 1e4 case above: halving needs more than 10 trial points
    rng = np.random.default_rng(4)
    m = rng.standard_normal((8, 8))
    objective = _quadratic(m @ m.T + 0.1 * np.eye(8))
    x = rng.standard_normal(8)
    f, g = objective(x)
    p = -1e4 * g
    halved, halved_trials = _drive(armijo(x, f, g, p), objective)
    new, trials = _drive(armijo(x, f, g, p, interpolate=True), objective)
    assert halved is not None and new is not None
    assert len(halved_trials) > 10 and len(trials) <= len(halved_trials) // 2
    # the step t of each trial point x + t·p, in order; the last is accepted
    steps = [float((trial - x) @ p) / float(p @ p) for trial in trials]
    assert steps[0] == pytest.approx(1.0)
    assert new[1][0] < f + 1e-4 * steps[-1] * float(g @ p)
    for t, t_next in zip(steps, steps[1:]):
        assert 0.1 - 1e-12 <= t_next / t <= 0.5 + 1e-12


def test_zero_direction_returns_none_without_a_trial_point():
    x = np.arange(1.0, 6.0)
    result, trials = _drive(armijo(x, 0.0, np.ones(5), np.zeros(5)), pytest.fail)
    assert result is None and trials == []


@pytest.mark.parametrize("nan_in", ["x", "p"])
def test_search_with_nan_returns_none_without_a_trial_point(nan_in):
    # NaN makes t·max|p| > STEP_FLOOR·max|x| false, so the search ends before
    # any trial point; halving on until x + t·p == x never ended it
    x, p = np.ones(3), -np.ones(3)
    (x if nan_in == "x" else p)[0] = np.nan
    result, trials = _drive(armijo(x, 0.0, np.ones(3), p), pytest.fail)
    assert result is None and trials == []


def test_search_from_the_origin_ends_when_the_step_no_longer_moves_x():
    # max|x| = 0 puts the floor at 0, so the search halves until t·p
    # underflows: t = 2^-1075 is the first step that leaves x unchanged
    x = np.zeros(3)
    result, trials = _drive(armijo(x, 0.0, np.ones(3), -np.ones(3)), lambda y: (1.0, y))
    assert result is None
    assert len(trials) == 1075
    assert np.all(trials[-1] != 0.0)


def test_criterion_2_draw_18_spends_no_evaluations_below_the_floor(monkeypatch):
    # the 18th draw of criterion 2 ends in a failed search and a failed
    # retry along the gradient; both used to halve down to x + t·p == x
    rng = np.random.default_rng(2202)
    for _ in range(18):
        truth = random_povm(2, rng)
    searches = []  # (x, g, p, trial points, result) of every line search, in order

    def recorded(x, f, g, p, *args, **kwargs):
        trials = []
        search = armijo(x, f, g, p, *args, **kwargs)
        try:
            item = next(search)
            while True:
                trials.append(item[1])
                item = search.send((yield item))
        except StopIteration as stop:
            searches.append((x, g, p, trials, stop.value))
            return stop.value

    monkeypatch.setattr(optimize, "armijo", recorded)
    preps = mub_preparations(2)
    _, diag = mle_reconstruct(exact_frequency_table(truth, preps), preps, epsilon=1e-7)
    assert diag.converged
    assert diag.final_delta >= 1e-7  # stopped because no step lowers -L
    (x, g, p, trials, result), (x_retry, g_retry, p_retry, retry, retry_result) = searches[-2:]
    assert result is None and retry_result is None
    # the retry starts from the same point, along the gradient
    assert x_retry is x and g_retry is g and np.array_equal(p_retry, -g)
    floor = STEP_FLOOR * np.abs(x).max()
    for direction, points in ((p, trials), (p_retry, retry)):
        # every trial point moves x by more than the floor ...
        for point in points:
            assert np.abs(point - x).max() > floor
        # ... and halving went on until the next step would reach the floor
        t_last = 0.5 ** (len(points) - 1)
        assert t_last * np.abs(direction).max() > floor >= 0.5 * t_last * np.abs(direction).max()
