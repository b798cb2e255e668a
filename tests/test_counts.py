"""The count rule: every count argument goes through `graphs._valid_count`.

A count is an integer (`operator.index`, so a float raises TypeError at
the call, as in `range`, and a numpy integer counts as the equal int)
with a lower bound, and a count below it raises ValueError naming it.
"""

import math
import re

import numpy as np
import pytest

from consensus_lab import (
    AgentState,
    DirectedGraph,
    GeneratedSchedule,
    KuramotoTime1,
    LinearAverage,
    PeriodicSchedule,
    attractivity_probe,
    check_communication_assumption,
    check_strict_convexity,
    counterexample_sample_times,
    iter_spans,
    random_windowed_schedule,
)
from consensus_lab import simulator
from consensus_lab.scenarios import CounterexampleSchedule, StretchingSchedule

PAIR = DirectedGraph(2, {(1, 2), (2, 1)})
PATH = DirectedGraph(3, {(1, 2), (2, 3)})


def _schedule(s):
    return s.name, s.n, [s.graph_at(t) for t in range(8)]


def _generated(n):
    s = GeneratedSchedule(lambda t: PAIR, n, name="pair")
    return s.name, s.n, s.first_time


def _run(steps):
    sched = StretchingSchedule(3)
    return [(t, end, x.values.tolist())
            for t, end, x in iter_spans(sched, LinearAverage(), [0.0, 1.0, 3.0], steps)]


def _probe(**given):
    kwargs = dict(radius=0.3, samples=2, horizon=6, tol=1e-6, seed=4) | given
    return attractivity_probe(PeriodicSchedule([PAIR]), LinearAverage(), [0.0, 1.0], **kwargs)


def _flow(substeps):
    m = KuramotoTime1(substeps)
    return m.substeps, m.step(0, PAIR, AgentState([0.0, 1.0])).values.tolist()


# (noun, least, a valid count, the call): one row per count argument
COUNTS = {
    "DirectedGraph n": ("node count", 1, 3, DirectedGraph),
    "GeneratedSchedule n": ("node count", 1, 2, _generated),
    "iter_spans steps": ("steps", 0, 12, _run),
    "attractivity_probe samples": ("samples", 1, 3, lambda v: _probe(samples=v)),
    "attractivity_probe horizon": ("horizon", 1, 9, lambda v: _probe(horizon=v)),
    "_FlowMap substeps": ("substeps", 1, 4, _flow),
    "check_communication_assumption trials": (
        "trials", 1, 2,
        lambda v: check_communication_assumption(
            LinearAverage(), PATH, AgentState([0.0, 1.0, 2.0]), trials=v)),
    "check_strict_convexity samples": (
        "samples", 1, 2, lambda v: check_strict_convexity(LinearAverage(), PATH, samples=v)),
    "block_start s": ("block index", 0, 3, CounterexampleSchedule.block_start),
    "counterexample_sample_times p_max": ("p_max", 1, 5, counterexample_sample_times),
    "random_windowed_schedule n": (
        "node count", 1, 4, lambda v: _schedule(random_windowed_schedule(v, 1, 5))),
    "random_windowed_schedule T": (
        "window slack T", 0, 2, lambda v: _schedule(random_windowed_schedule(4, v, 5))),
    "random_windowed_schedule length": (
        "period length", 1, 3, lambda v: _schedule(random_windowed_schedule(4, 1, v))),
    "random_windowed_schedule seed": (
        "seed", 0, 3, lambda v: _schedule(random_windowed_schedule(4, 1, 5, v))),
    "attractivity_probe seed": ("seed", 0, 3, lambda v: _probe(seed=v)),
    "check_communication_assumption seed": (
        "seed", 0, 3,
        lambda v: check_communication_assumption(
            LinearAverage(), PATH, AgentState([0.0, 1.0, 2.0]), trials=2, seed=v)),
    "check_strict_convexity seed": (
        "seed", 0, 3, lambda v: check_strict_convexity(LinearAverage(), PATH, samples=2, seed=v)),
    "StretchingSchedule n": ("node count", 2, 3, lambda v: _schedule(StretchingSchedule(v))),
    "active_position g": ("active step index", 1, 4, StretchingSchedule(3).active_position),
    "arc_free_window T": ("window length", 1, 3, StretchingSchedule(3).arc_free_window),
}


@pytest.mark.parametrize("noun, least, valid, call", COUNTS.values(), ids=COUNTS.keys())
def test_every_count_follows_the_one_rule(noun, least, valid, call):
    with pytest.raises(TypeError):
        call(float(valid))
    bound = "nonnegative" if least == 0 else f"at least {least}"
    with pytest.raises(ValueError, match=f"^{re.escape(noun)} must be {bound}, got {least - 1}$"):
        call(least - 1)
    call(least)
    # the same result, down to its repr: no numpy integer leaks into it
    assert repr(call(np.int64(valid))) == repr(call(valid))


# ---------------------------------------------------------------------------
# Calls that a float or zero count used to get through


def test_a_fractional_window_slack_is_refused():
    # T = 1.5 planted only at slots 0 and 5, so 2-step windows went unrooted
    with pytest.raises(TypeError):
        random_windowed_schedule(4, 1.5, 10)


def test_fractional_indices_and_substeps_raise_at_the_call():
    with pytest.raises(TypeError):
        StretchingSchedule(3).active_position(2.5)
    with pytest.raises(TypeError):
        CounterexampleSchedule.block_start(1.5)
    with pytest.raises(TypeError):
        KuramotoTime1(substeps=2.5)


def test_a_generated_schedule_needs_a_node():
    with pytest.raises(ValueError, match="^node count must be at least 1, got 0$"):
        GeneratedSchedule(lambda t: PAIR, 0)


def test_the_probe_checks_its_horizon_before_any_sample(monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("a sample was run")

    monkeypatch.setattr(simulator, "iter_spans", no_run)
    with pytest.raises(TypeError):
        _probe(horizon=10.5)


def test_the_probe_radius_is_nonnegative_and_finite():
    for radius in (-0.5, math.inf, math.nan):
        with pytest.raises(ValueError, match=f"^radius must be nonnegative and finite, got {radius}$"):
            _probe(radius=radius)
