"""Schedules, stepping, consensus detection, and probing."""

import math

import numpy as np
import pytest

from consensus_lab import (
    AgentState,
    DirectedGraph,
    FiniteSchedule,
    GeneratedSchedule,
    KuramotoTime1,
    LinearAverage,
    MaxUpdate,
    NonlinearConsensus,
    PeriodicSchedule,
    VicsekHeading,
    WeightedDigraph,
    attractivity_probe,
    constant_schedule,
    counterexample_schedule,
    disagreement,
    empty_graph,
    hull,
    iter_states,
    monitor_stream,
    stretching_bidirectional_schedule,
    summarize,
)
from consensus_lab.dynamics import UpdateMap
from consensus_lab.simulator import GraphSchedule

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


def test_iter_states_checks_the_state_against_the_map_when_made():
    # Nothing on these schedules is ever stepped, so the check cannot wait
    # for a step.
    silent = FiniteSchedule([], after=empty_graph(3))
    planar = [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]
    with pytest.raises(ValueError, match="kuramoto does not support d=2"):
        iter_states(silent, KuramotoTime1(), planar, steps=5)
    with pytest.raises(ValueError, match="vicsek: agent 2 is at 2.0, outside"):
        iter_states(silent, VicsekHeading(), [0.0, 2.0, 0.0], steps=5)
    with pytest.raises(ValueError, match="vicsek: agent 3 is at -1.5707963267948966"):
        iter_states(constant_schedule(DirectedGraph(3, {(1, 2)})), VicsekHeading(),
                    [0.0, 0.5, -math.pi / 2], steps=0)


# ---------------------------------------------------------------------------
# Skipping arc-free stretches

A = DirectedGraph(3, {(1, 2)})
B = DirectedGraph(3, {(2, 3), (3, 2)})
Z = empty_graph(3)


def _scan_next_active(schedule, lo, hi, ahead=20):
    """{t: first time in [t, hi + ahead) with an arc, or None} for t in
    [lo, hi), by calling `graph_at` at every time."""
    out, nxt = {}, None
    for t in reversed(range(lo, hi + ahead)):
        if schedule.graph_at(t).arcs:
            nxt = t
        out[t] = nxt
    return {t: out[t] for t in range(lo, hi)}


@pytest.mark.parametrize(
    "schedule, lo, hi",
    [
        (FiniteSchedule([Z, A, Z, Z, B, Z], first_time=3), 3, 20),
        (FiniteSchedule([A, Z, Z], first_time=2, after=B), 2, 20),
        (FiniteSchedule([Z, Z], after=Z), 0, 10),
        (FiniteSchedule([], first_time=4, after=A), 4, 10),
        (PeriodicSchedule([Z, A, Z, Z, B, Z, Z], first_time=5), 5, 60),
        (PeriodicSchedule([Z, Z, Z], first_time=1), 1, 20),
        (PeriodicSchedule([A, B]), 0, 10),
        (constant_schedule(Z, first_time=2), 2, 10),
        (counterexample_schedule(), 1, 400),
    ],
    ids=["finite-silent-after", "finite-active-after", "finite-all-silent",
         "finite-only-after", "periodic", "periodic-all-silent", "periodic-all-active",
         "constant-silent", "counterexample"],
)
def test_next_active_matches_a_graph_at_scan(schedule, lo, hi):
    # each schedule here repeats or turns constant within the 20 steps that
    # the scan looks past hi, so a time the scan finds no arc after has none
    assert {t: schedule.next_active(t) for t in range(lo, hi)} == _scan_next_active(
        schedule, lo, hi
    )
    with pytest.raises(ValueError, match="before the schedule"):
        schedule.next_active(schedule.first_time - 1)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_stretching_next_active_matches_a_graph_at_scan(n):
    sched = stretching_bidirectional_schedule(n)
    # the gap after t < 5000 is under 100 steps, so the scan finds every answer
    want = _scan_next_active(sched, 0, 5000, ahead=100)
    assert [t for t in range(5000) if sched.next_active(t) != want[t]] == []


def test_generated_schedule_next_active_is_the_time_itself():
    sched = GeneratedSchedule(lambda t: Z if t % 3 else A, n=3, first_time=2)
    assert [sched.next_active(t) for t in range(2, 8)] == list(range(2, 8))


def _reference_run(schedule, update_map, x0, steps, t0):
    """The plain loop: `step` and `graph_at` at every time."""
    x = AgentState(x0)
    out = [(t0, x)]
    for t in range(t0, t0 + steps):
        x = update_map.step(t, schedule.graph_at(t), x)
        out.append((t + 1, x))
    return out


def _same_run(got, want):
    assert [t for t, _ in got] == [t for t, _ in want]
    assert [x.points.tobytes() for _, x in got] == [x.points.tobytes() for _, x in want]
    # a silent step keeps the state object in both
    assert [a is b for (_, a), (_, b) in zip(got, got[1:])] == [
        a is b for (_, a), (_, b) in zip(want, want[1:])
    ]


@pytest.mark.parametrize(
    "schedule",
    [
        stretching_bidirectional_schedule(4),
        FiniteSchedule([Z, A, Z, Z, B, Z, Z], first_time=1),
        FiniteSchedule([Z, Z, A], first_time=1, after=B),
        PeriodicSchedule([Z, A, Z, Z, Z, B, Z], first_time=1),
        PeriodicSchedule([Z, Z]),
    ],
    ids=["stretching", "finite", "finite-active-after", "periodic", "periodic-silent"],
)
@pytest.mark.parametrize("t0", [None, 2, 7, 40])
@pytest.mark.parametrize(
    "make_map", [LinearAverage, MaxUpdate, lambda: KuramotoTime1(substeps=2)],
    ids=["linear", "max", "kuramoto"],
)
def test_skipping_stream_equals_the_per_step_loop(schedule, t0, make_map):
    t0 = schedule.first_time if t0 is None else t0
    x0 = np.linspace(-0.9, 0.7, schedule.n) ** 3
    for steps in (0, 1, 5, 120):
        got = list(iter_states(schedule, make_map(), x0, steps, t0))
        _same_run(got, _reference_run(schedule, make_map(), x0, steps, t0))


class _CountingAverage(UpdateMap):
    """Linear averaging that counts its `step` calls."""

    name = "counting"

    def __init__(self):
        self.inner = LinearAverage()
        self.times = []

    def step(self, t, graph, state):
        self.times.append(t)
        return self.inner.step(t, graph, state)


def test_the_stream_steps_the_map_at_active_times_only():
    sched = stretching_bidirectional_schedule(3)
    steps = sched.active_position(30) + 5
    counting = _CountingAverage()
    got = list(iter_states(sched, counting, [0.0, 1.0, 4.0], steps))
    assert counting.times == [sched.active_position(g) for g in range(1, 31)]
    _same_run(got, _reference_run(sched, LinearAverage(), [0.0, 1.0, 4.0], steps, 0))


class _CountingSchedule(GraphSchedule):
    """Another schedule's graphs, counting `graph_at` calls; its default
    `next_active` claims no silence, so every time is looked up."""

    def __init__(self, inner):
        self.inner, self.n, self.first_time = inner, inner.n, inner.first_time
        self.name = "counting"
        self.times = []

    def graph_at(self, t):
        self.times.append(t)
        return self.inner.graph_at(t)


def test_the_stream_stops_stepping_at_the_first_state_at_rest():
    sched = _CountingSchedule(constant_schedule(PAIR))
    counting = _CountingAverage()
    got = list(iter_states(sched, counting, [0.0, 1.0], steps=7, t0=3))
    assert counting.times == sched.times == [3]  # 0.5, 0.5 from t = 4 on
    assert [t for t, _ in got] == list(range(3, 11))
    rest = got[1][1]
    assert rest.values.tolist() == [0.5, 0.5] and rest._at_rest()
    assert all(x is rest for _, x in got[1:])
    _same_run(got, _reference_run(constant_schedule(PAIR), LinearAverage(), [0.0, 1.0], 7, 3))


@pytest.mark.parametrize("steps", [0, 1, 50])
def test_an_initial_state_at_rest_is_never_stepped(steps):
    sched = _CountingSchedule(constant_schedule(A))
    counting = _CountingAverage()
    x0 = AgentState([-2.5, -2.5, -2.5])
    got = list(iter_states(sched, counting, x0, steps, t0=4))
    assert counting.times == sched.times == []
    assert [t for t, _ in got] == list(range(4, 4 + steps + 1))
    assert all(x is x0 for _, x in got)


@pytest.mark.parametrize("x0", [[-0.0, -0.0, -0.0], [0.0, -0.0, 0.0]])
def test_minus_zero_is_stepped_once_into_rest(x0):
    # linear steps turn -0.0 into +0.0, so a state with -0.0 is not at rest
    sched = _CountingSchedule(constant_schedule(A))
    counting = _CountingAverage()
    got = list(iter_states(sched, counting, x0, steps=5))
    assert counting.times == sched.times == [0]
    assert [x.points.tobytes() for _, x in got[1:]] == [np.zeros((3, 1)).tobytes()] * 5
    assert all(x is got[1][1] for _, x in got[1:])


# ---------------------------------------------------------------------------
# Disagreement and consensus detection


def test_disagreement_is_the_scalar_spread_bit_for_bit():
    rng = np.random.default_rng(5)
    for n in (1, 2, 3, 10, 200):
        for scale in (1e-300, 1e-9, 1.0, 1e9, 1e300):
            v = rng.standard_normal(n) * scale
            for x in (v, np.full(n, v[0]), -np.abs(v)):
                want = float(x.max() - x.min())
                s = AgentState(x)
                assert disagreement(s) == want  # hulled here
                hull(s)
                assert disagreement(s) == want  # the stored hull's diameter
                assert disagreement(x) == want


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
