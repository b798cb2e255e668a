"""Schedules, stepping, consensus detection, and probing."""

import math

import numpy as np
import pytest

from consensus_lab import (
    AgentState,
    DirectedGraph,
    FiniteSchedule,
    GeneratedSchedule,
    LinearAverage,
    PeriodicSchedule,
    WeightedDigraph,
    attractivity_probe,
    constant_schedule,
    disagreement,
    empty_graph,
    iter_states,
    monitor_stream,
    summarize,
)

PAIR = DirectedGraph(2, {(1, 2), (2, 1)})


# ---------------------------------------------------------------------------
# Schedules


def test_finite_schedule_runs_out_into_after_graph():
    a = DirectedGraph(2, {(1, 2)})
    sched = FiniteSchedule([a, PAIR], first_time=3)
    assert sched.graph_at(3) is a
    assert sched.graph_at(4) is PAIR
    assert sched.graph_at(5).arcs == frozenset()
    assert sched.graph_at(10**9).arcs == frozenset()
    assert sched.constant_from == 5
    with pytest.raises(ValueError, match="before the schedule"):
        sched.graph_at(2)


def test_finite_schedule_explicit_after():
    sched = FiniteSchedule([empty_graph(2)], after=PAIR)
    assert sched.graph_at(99) is PAIR
    assert FiniteSchedule([], after=PAIR).graph_at(0) is PAIR


def test_finite_schedule_node_count_mismatch():
    with pytest.raises(ValueError, match="node count"):
        FiniteSchedule([empty_graph(2), empty_graph(3)])
    with pytest.raises(ValueError, match="at least one"):
        FiniteSchedule([])


def test_periodic_schedule_wraps():
    a = DirectedGraph(2, {(1, 2)})
    b = DirectedGraph(2, {(2, 1)})
    sched = PeriodicSchedule([a, b])
    assert [sched.graph_at(t) for t in range(4)] == [a, b, a, b]
    assert sched.period == 2
    assert sched.constant_from is None


def test_generated_schedule_validates_node_count():
    sched = GeneratedSchedule(lambda t: empty_graph(3 if t > 0 else 2), n=2)
    assert sched.graph_at(0).n == 2
    with pytest.raises(ValueError, match="expected 2"):
        sched.graph_at(1)


def test_constant_schedule():
    sched = constant_schedule(PAIR, first_time=7)
    assert sched.name == "constant"
    assert sched.graph_at(7) is PAIR
    assert sched.graph_at(7000) is PAIR
    assert sched.period == 1


# ---------------------------------------------------------------------------
# Stepping


def test_iter_states_counts_and_times():
    pairs = list(iter_states(constant_schedule(PAIR), LinearAverage(), [0.0, 1.0], steps=3))
    assert [t for t, _ in pairs] == [0, 1, 2, 3]
    assert pairs[0][1].values.tolist() == [0.0, 1.0]
    assert pairs[1][1].values.tolist() == [0.5, 0.5]
    assert pairs[3][1].values.tolist() == [0.5, 0.5]


def test_iter_states_follows_schedule_switches():
    # one round of mutual averaging, then silence
    sched = FiniteSchedule([PAIR])
    states = [x for _, x in iter_states(sched, LinearAverage(), [0.0, 1.0], steps=4)]
    assert states[1].values.tolist() == [0.5, 0.5]
    assert states[4] is states[1]  # arc-free steps return the same object


def test_iter_states_validation():
    # Checked when the stream is made, before anything is iterated.
    sched = constant_schedule(PAIR, first_time=2)
    with pytest.raises(ValueError, match="nonnegative"):
        iter_states(sched, LinearAverage(), [0.0, 1.0], steps=-1)
    with pytest.raises(ValueError, match="before the schedule"):
        iter_states(sched, LinearAverage(), [0.0, 1.0], steps=1, t0=0)
    with pytest.raises(ValueError, match="n=3"):
        iter_states(sched, LinearAverage(), [0.0, 1.0, 2.0], steps=1)


def test_iter_states_honors_t0():
    states = iter_states(constant_schedule(PAIR, first_time=0), LinearAverage(), [0.0, 1.0], steps=2, t0=5)
    assert [t for t, _ in states] == [5, 6, 7]


# ---------------------------------------------------------------------------
# Disagreement and consensus detection


def test_disagreement_scalar_and_planar():
    assert disagreement(AgentState([0.0, 3.0, 1.0])) == 3.0
    assert disagreement(AgentState([2.0, 2.0])) == 0.0
    square = AgentState([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    assert disagreement(square) == pytest.approx(math.sqrt(2.0))


def test_summarize_finds_consensus_time():
    def run(graph, tol):
        states = iter_states(constant_schedule(graph), LinearAverage(), [0.0, 1.0], steps=3)
        return summarize(monitor_stream(states), tol)

    assert run(PAIR, 1e-9).consensus_time == 1
    assert run(PAIR, 2.0).consensus_time == 0
    assert run(empty_graph(2), 1e-9).consensus_time is None
    with pytest.raises(ValueError, match="tol"):
        run(PAIR, 0.0)


# ---------------------------------------------------------------------------
# Attractivity probing


def test_probe_converges_on_constant_pair():
    rep = attractivity_probe(
        constant_schedule(PAIR), LinearAverage(), center=[0.0, 1.0], radius=0.1,
        samples=5, horizon=50, tol=1e-9, seed=3,
    )
    assert rep.converged_fraction == 1.0
    assert all(s.status == "converged" for s in rep.samples)
    assert all(s.consensus_time == 1 for s in rep.samples)
    assert all(s.max_excursion <= 1.3 for s in rep.samples)


def test_probe_diverges_when_nothing_moves():
    rep = attractivity_probe(
        constant_schedule(empty_graph(2)), LinearAverage(), center=[0.0, 1.0],
        radius=0.0, samples=2, horizon=20, tol=1e-6, seed=0,
    )
    assert rep.converged_fraction == 0.0
    assert all(s.status == "diverged" for s in rep.samples)
    assert all(s.final_disagreement == 1.0 for s in rep.samples)


def test_probe_reports_undetermined_for_slow_contraction():
    slow = WeightedDigraph(PAIR, {(1, 2): 0.01, (2, 1): 0.01})
    rep = attractivity_probe(
        constant_schedule(slow), LinearAverage(), center=[0.0, 1.0],
        radius=0.0, samples=1, horizon=100, tol=1e-9, seed=0,
    )
    assert rep.samples[0].status == "undetermined"


def test_probe_is_deterministic_in_seed():
    kwargs = dict(center=[0.0, 1.0, 0.3], radius=0.2, samples=4, horizon=30, tol=1e-6)
    g = DirectedGraph(3, {(1, 2), (2, 1), (2, 3), (3, 2)})
    a = attractivity_probe(constant_schedule(g), LinearAverage(), seed=11, **kwargs)
    b = attractivity_probe(constant_schedule(g), LinearAverage(), seed=11, **kwargs)
    assert a.to_json_dict() == b.to_json_dict()


def test_probe_json_shape():
    rep = attractivity_probe(
        constant_schedule(PAIR), LinearAverage(), center=[0.0, 1.0], radius=0.1,
        samples=2, horizon=10, tol=1e-6, seed=1,
    )
    d = rep.to_json_dict()
    assert d["samples"] == 2
    assert d["schedule"] == "constant" and d["map"] == "linear"
    assert len(d["per_sample"]) == 2
    assert {"index", "status", "final_disagreement", "max_excursion", "consensus_time"} <= set(
        d["per_sample"][0]
    )


def test_probe_validation():
    sched = constant_schedule(PAIR)
    with pytest.raises(ValueError, match="samples"):
        attractivity_probe(sched, LinearAverage(), [0.0, 1.0], 0.1, samples=0)
    with pytest.raises(ValueError, match="horizon"):
        attractivity_probe(sched, LinearAverage(), [0.0, 1.0], 0.1, horizon=0)
    with pytest.raises(ValueError, match="radius"):
        attractivity_probe(sched, LinearAverage(), [0.0, 1.0], -0.5)
    for tol in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            attractivity_probe(sched, LinearAverage(), [0.0, 1.0], 0.1, tol=tol)
