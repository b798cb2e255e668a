"""Schedules, stepping, consensus detection, and probing."""

import itertools
import math
from dataclasses import astuple

import numpy as np
import pytest

from consensus_lab import lyapunov, simulator
from consensus_lab import (
    AgentState,
    CounterexampleSchedule,
    DirectedGraph,
    FiniteSchedule,
    GeneratedSchedule,
    IntervalSpec,
    KuramotoTime1,
    LinearAverage,
    MaxUpdate,
    NonlinearConsensus,
    PeriodicSchedule,
    StretchingSchedule,
    VicsekHeading,
    WeightedDigraph,
    attractivity_probe,
    disagreement,
    hull,
    monitor_stream,
    summarize,
    union_across,
)
from consensus_lab.dynamics import UpdateMap
from consensus_lab.simulator import GraphSchedule, iter_spans, iter_states

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
    assert sched.cycle_from == 5
    with pytest.raises(ValueError, match="before the schedule"):
        sched.graph_at(2)


def test_finite_schedule_explicit_after():
    sched = FiniteSchedule([DirectedGraph(2)], after=PAIR)
    assert sched.graph_at(99) is PAIR
    assert FiniteSchedule([], after=PAIR).graph_at(0) is PAIR


def test_finite_schedule_node_count_mismatch():
    with pytest.raises(ValueError, match="node count"):
        FiniteSchedule([DirectedGraph(2), DirectedGraph(3)])
    with pytest.raises(ValueError, match="at least one"):
        FiniteSchedule([])
    with pytest.raises(ValueError, match="^need at least one graph$"):
        PeriodicSchedule([])


def test_periodic_schedule_wraps():
    a = DirectedGraph(2, {(1, 2)})
    b = DirectedGraph(2, {(2, 1)})
    sched = PeriodicSchedule([a, b])
    assert [sched.graph_at(t) for t in range(4)] == [a, b, a, b]
    assert sched.period == 2
    assert sched.cycle_from == sched.first_time


def test_generated_schedule_validates_node_count():
    sched = GeneratedSchedule(lambda t: DirectedGraph(3 if t > 0 else 2), n=2)
    assert sched.graph_at(0).n == 2
    with pytest.raises(ValueError, match="expected 2"):
        sched.graph_at(1)


# ---------------------------------------------------------------------------
# Stepping


def test_iter_states_counts_and_times():
    pairs = list(iter_states(PeriodicSchedule([PAIR]), LinearAverage(), [0.0, 1.0], steps=3))
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
    sched = PeriodicSchedule([PAIR], first_time=2)
    with pytest.raises(ValueError, match="nonnegative"):
        iter_states(sched, LinearAverage(), [0.0, 1.0], steps=-1)
    with pytest.raises(ValueError, match="before the schedule"):
        iter_states(sched, LinearAverage(), [0.0, 1.0], steps=1, t0=0)
    with pytest.raises(ValueError, match="n=3"):
        iter_states(sched, LinearAverage(), [0.0, 1.0, 2.0], steps=1)


def test_iter_states_honors_t0():
    sched = PeriodicSchedule([PAIR], first_time=0)
    states = iter_states(sched, LinearAverage(), [0.0, 1.0], steps=2, t0=5)
    assert [t for t, _ in states] == [5, 6, 7]


def test_iter_states_checks_the_state_against_the_map_when_made():
    # Nothing on these schedules is ever stepped, so the check cannot wait
    # for a step.
    silent = FiniteSchedule([], after=DirectedGraph(3))
    planar = [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]
    with pytest.raises(ValueError, match="kuramoto does not support d=2"):
        iter_states(silent, KuramotoTime1(), planar, steps=5)
    with pytest.raises(ValueError, match="vicsek: agent 2 is at 2.0, outside"):
        iter_states(silent, VicsekHeading(), [0.0, 2.0, 0.0], steps=5)
    with pytest.raises(ValueError, match="vicsek: agent 3 is at -1.5707963267948966"):
        iter_states(PeriodicSchedule([DirectedGraph(3, {(1, 2)})]), VicsekHeading(),
                    [0.0, 0.5, -math.pi / 2], steps=0)


# ---------------------------------------------------------------------------
# Skipping arc-free stretches

A = DirectedGraph(3, {(1, 2)})
B = DirectedGraph(3, {(2, 3), (3, 2)})
Z = DirectedGraph(3)


def _scan_next_change(schedule, lo, hi, ahead=20):
    """{t: first time in (t, hi + ahead) with an arc, or None} for t in
    [lo, hi), by calling `graph_at` at every time."""
    out, nxt = {}, None
    for t in reversed(range(lo, hi + ahead)):
        out[t] = nxt
        if schedule.graph_at(t)._keys.size:
            nxt = t
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
        (PeriodicSchedule([Z], first_time=2), 2, 10),
    ],
    ids=["finite-silent-after", "finite-active-after", "finite-all-silent",
         "finite-only-after", "periodic", "periodic-all-silent", "periodic-all-active",
         "constant-silent"],
)
def test_next_change_matches_a_graph_at_scan(schedule, lo, hi):
    # each schedule here repeats or turns constant within the 20 steps that
    # the scan looks past hi, so a time the scan finds no arc after has none
    assert {t: schedule.next_change(t) for t in range(lo, hi)} == _scan_next_change(
        schedule, lo, hi
    )
    with pytest.raises(ValueError, match="before the schedule"):
        schedule.next_change(schedule.first_time - 1)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_stretching_next_change_matches_a_graph_at_scan(n):
    sched = StretchingSchedule(n)
    # the gap after t < 5000 is under 100 steps, so the scan finds every answer
    want = _scan_next_change(sched, 0, 5000, ahead=100)
    assert [t for t in range(5000) if sched.next_change(t) != want[t]] == []


def test_generated_schedule_next_change_is_the_next_time():
    sched = GeneratedSchedule(lambda t: Z if t % 3 else A, n=3, first_time=2)
    assert [sched.next_change(t) for t in range(2, 8)] == list(range(3, 9))


# Tables (finite, periodic, constant) against their unrolled definitions

FAR = 10**18
CYCLE = (Z, A, Z, Z, B, Z)

# (schedule, unrolled): unrolled(i) is the graph at first_time + i, as the
# constructor's arguments define it
TABLES = [
    (FiniteSchedule([Z, A, Z, B], first_time=3), lambda i: (Z, A, Z, B)[i] if i < 4 else Z),
    (FiniteSchedule([A, Z], first_time=2, after=B), lambda i: (A, Z)[i] if i < 2 else B),
    (PeriodicSchedule(CYCLE, first_time=5), lambda i: CYCLE[i % len(CYCLE)]),
    (PeriodicSchedule([A], first_time=2), lambda i: A),
    (PeriodicSchedule([Z]), lambda i: Z),
]
TABLE_IDS = ["finite-silent-after", "finite-active-after", "periodic-offset",
             "constant-active", "constant-silent"]


@pytest.mark.parametrize("schedule, unrolled", TABLES, ids=TABLE_IDS)
def test_tables_match_their_unrolled_definition_at_far_times(schedule, unrolled):
    f, p = schedule.first_time, schedule.period
    times = range(FAR, FAR + 3 * p + 1)
    assert [schedule.graph_at(t) for t in times] == [unrolled(t - f) for t in times]
    # past the head, every slot recurs within one period, so the next time
    # with an arc is at most p steps ahead, or there is none
    want = [next((u for u in range(t + 1, t + 1 + p) if unrolled(u - f)._keys.size), None)
            for t in times]
    assert [schedule.next_change(t) for t in times] == want


@pytest.mark.parametrize("schedule, unrolled", TABLES, ids=TABLE_IDS)
def test_table_graph_repeats_a_period_back_from_the_cycle(schedule, unrolled):
    c, p = schedule.cycle_from, schedule.period
    for t in [*range(c + p, c + 4 * p), *range(FAR, FAR + 2 * p)]:
        assert schedule.graph_at(t) is schedule.graph_at(t - p)


@pytest.mark.parametrize("schedule, unrolled", TABLES, ids=TABLE_IDS)
def test_table_unions_scan_at_most_one_cycle(schedule, unrolled):
    f, p = schedule.first_time, schedule.period

    def scan(a, b):
        return frozenset().union(*(g.arcs for g in {unrolled(t - f) for t in range(a, b + 1)}))

    for k in range(2 * p + 1):
        got = union_across(schedule, IntervalSpec(FAR, FAR + k))
        assert got.arcs == scan(FAR, FAR + min(k, p - 1))
    assert union_across(schedule, IntervalSpec(FAR)).arcs == scan(FAR, FAR + p - 1)
    # from the first time, the head comes before the one cycle
    assert union_across(schedule, IntervalSpec(f)).arcs == scan(f, schedule.cycle_from + p - 1)


def test_times_steps_and_counts_must_be_integers():
    # as range(2.5) does; int() would silently truncate each of them
    sched = PeriodicSchedule(CYCLE, first_time=1)
    for bad in (
        lambda: sched.graph_at(2.5),
        lambda: sched.next_change(2.5),
        lambda: iter_spans(sched, LinearAverage(), [0.0, 1.0, 2.0], steps=2.5),
        lambda: iter_spans(sched, LinearAverage(), [0.0, 1.0, 2.0], steps=2, t0=1.5),
        lambda: attractivity_probe(sched, LinearAverage(), [0.0, 1.0, 2.0], 0.1, t0=1.5),
        lambda: PeriodicSchedule(CYCLE, first_time=0.5),
        lambda: FiniteSchedule([A], first_time=0.5),
        lambda: GeneratedSchedule(lambda t: A, n=3.0),
    ):
        with pytest.raises(TypeError):
            bad()


def test_numpy_integer_times_give_the_same_schedules_and_runs():
    i64 = np.int64
    g = DirectedGraph(i64(3), [(i64(1), i64(2)), (i64(3), i64(2))])
    sched = FiniteSchedule([g, Z, Z], first_time=i64(2), after=B)
    ref = FiniteSchedule([DirectedGraph(3, {(1, 2), (3, 2)}), Z, Z], first_time=2, after=B)
    assert (sched.first_time, sched.cycle_from) == (2, 5)
    assert type(sched.first_time) is int and type(sched.cycle_from) is int
    for t in range(2, 10):
        assert sched.graph_at(i64(t)) == ref.graph_at(t)
        assert sched.next_change(i64(t)) == ref.next_change(t)
        assert type(sched.next_change(i64(t))) is int

    def spans(schedule, steps, t0):
        return [(t, end, x.values.tolist())
                for t, end, x in iter_spans(schedule, LinearAverage(), [0.0, 1.0, 2.0], steps, t0)]

    run = spans(sched, i64(8), i64(3))
    assert run == spans(ref, 8, 3)
    assert all(type(t) is int and type(end) is int for t, end, _ in run)
    gen = GeneratedSchedule(lambda t: B, n=i64(3), first_time=i64(1))
    assert type(gen.n) is int
    assert spans(gen, i64(4), None) == spans(PeriodicSchedule([B], 1), 4, None)


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
        StretchingSchedule(4),
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
    sched = StretchingSchedule(3)
    steps = sched.active_position(30) + 5
    counting = _CountingAverage()
    got = list(iter_states(sched, counting, [0.0, 1.0, 4.0], steps))
    assert counting.times == [sched.active_position(g) for g in range(1, 31)]
    _same_run(got, _reference_run(sched, LinearAverage(), [0.0, 1.0, 4.0], steps, 0))


class _CountingSchedule(GraphSchedule):
    """Another schedule's graphs, counting `graph_at` calls; its default
    `next_change` claims no silence, so every time is looked up until one
    carries an arc."""

    def __init__(self, inner):
        self.inner, self.n, self.first_time = inner, inner.n, inner.first_time
        self.name = "counting"
        self.times = []

    def graph_at(self, t):
        self.times.append(t)
        return self.inner.graph_at(t)


def test_the_stream_stops_stepping_at_the_first_state_at_rest():
    sched = _CountingSchedule(PeriodicSchedule([PAIR]))
    counting = _CountingAverage()
    got = list(iter_states(sched, counting, [0.0, 1.0], steps=7, t0=3))
    assert counting.times == sched.times == [3]  # 0.5, 0.5 from t = 4 on
    assert [t for t, _ in got] == list(range(3, 11))
    rest = got[1][1]
    assert rest.values.tolist() == [0.5, 0.5] and rest._at_rest()
    assert all(x is rest for _, x in got[1:])
    _same_run(got, _reference_run(PeriodicSchedule([PAIR]), LinearAverage(), [0.0, 1.0], 7, 3))


@pytest.mark.parametrize("steps", [0, 1, 50])
def test_an_initial_state_at_rest_is_never_stepped(steps):
    sched = _CountingSchedule(PeriodicSchedule([A]))
    counting = _CountingAverage()
    x0 = AgentState([-2.5, -2.5, -2.5])
    got = list(iter_states(sched, counting, x0, steps, t0=4))
    assert counting.times == sched.times == []
    assert [t for t, _ in got] == list(range(4, 4 + steps + 1))
    assert all(x is x0 for _, x in got)


@pytest.mark.parametrize("x0", [[-0.0, -0.0, -0.0], [0.0, -0.0, 0.0]])
def test_minus_zero_is_stepped_once_into_rest(x0):
    # linear steps turn -0.0 into +0.0, so a state with -0.0 is not at rest
    sched = _CountingSchedule(PeriodicSchedule([A]))
    counting = _CountingAverage()
    got = list(iter_states(sched, counting, x0, steps=5))
    assert counting.times == sched.times == [0]
    assert [x.points.tobytes() for _, x in got[1:]] == [np.zeros((3, 1)).tobytes()] * 5
    assert all(x is got[1][1] for _, x in got[1:])


# ---------------------------------------------------------------------------
# The span stream

COMPLETE3 = DirectedGraph(3, {(k, l) for k in (1, 2, 3) for l in (1, 2, 3) if k != l})

SPAN_SCHEDULES = {
    # next_change claims nothing here, so every time is looked up, and the
    # arc-free ones share the span that ends at the next time with an arc
    "generated": GeneratedSchedule(lambda t: B if t % 7 == 3 else (A if t % 4 == 0 else Z),
                                   n=3, first_time=1),
    "finite-burst": FiniteSchedule([A, Z, Z, B, Z, A], first_time=2),
    "periodic": PeriodicSchedule([Z, A, Z, Z, Z, B, Z], first_time=1),
    "stretching": StretchingSchedule(3),
    "counterexample": CounterexampleSchedule(),
    "rest": PeriodicSchedule([COMPLETE3]),  # max reaches rest in one step
}
SPAN_MAPS = {
    "linear": LinearAverage,
    "max": MaxUpdate,
    "kuramoto": lambda: KuramotoTime1(substeps=2),
    "nonlinear": lambda: NonlinearConsensus(math.atan, substeps=2),
    "vicsek": VicsekHeading,
}


def _check_tiling(spans, t0, steps):
    assert spans[0][0] == t0 and spans[-1][1] == t0 + steps
    assert all(t <= end for t, end, _ in spans)
    assert [t for t, _, _ in spans[1:]] == [end + 1 for _, end, _ in spans[:-1]]


def _expand(spans):
    return [(t, x) for start, end, x in spans for t in range(start, end + 1)]


@pytest.mark.parametrize("schedule", SPAN_SCHEDULES.values(), ids=SPAN_SCHEDULES)
@pytest.mark.parametrize("make_map", SPAN_MAPS.values(), ids=SPAN_MAPS)
def test_expanded_spans_equal_the_per_step_loop(schedule, make_map):
    x0 = np.linspace(-0.9, 0.7, schedule.n) ** 3
    for t0 in (schedule.first_time, 9):
        for steps in (0, 1, 6, 150):
            spans = list(iter_spans(schedule, make_map(), x0, steps, t0))
            _check_tiling(spans, t0, steps)
            _same_run(_expand(spans), _reference_run(schedule, make_map(), x0, steps, t0))


@pytest.mark.parametrize("schedule", SPAN_SCHEDULES.values(), ids=SPAN_SCHEDULES)
def test_spans_step_the_map_once_between_spans(schedule):
    counting = _CountingAverage()
    spans = list(iter_spans(schedule, counting, [0.0, 1.0, 4.0], 300))
    assert len(spans) == 1 + len(counting.times)
    # each step is taken at the last time of a span, and makes the next one
    assert counting.times == [end for _, end, _ in spans[:-1]]


@pytest.mark.parametrize("schedule", SPAN_SCHEDULES.values(), ids=SPAN_SCHEDULES)
@pytest.mark.parametrize(
    "make_map, x0",
    [(LinearAverage, [0.0, 1.0, 4.0]), (MaxUpdate, [[0.0, 0.0], [1.0, 0.0], [0.5, 1.0]])],
    ids=["linear", "planar-max"],
)
def test_summaries_over_span_starts_equal_those_over_every_step(schedule, make_map, x0):
    steps, tol = 400, 1e-3
    starts = ((t, x) for t, _, x in iter_spans(schedule, make_map(), x0, steps))
    by_span = summarize(monitor_stream(starts), tol)
    by_step = summarize(monitor_stream(iter_states(schedule, make_map(), x0, steps)), tol)
    assert by_span.consensus_time == by_step.consensus_time
    assert by_span.violations == by_step.violations
    assert by_span.final.diameter == by_step.final.diameter


def test_span_summaries_see_consensus_and_violations():
    # the cases above are not vacuous: max on a complete planar graph
    # escapes the hull once and then rests
    x0 = [[0.0, 0.0], [1.0, 0.0], [0.5, 1.0]]
    starts = ((t, x) for t, _, x in iter_spans(SPAN_SCHEDULES["rest"], MaxUpdate(), x0, 400))
    run = summarize(monitor_stream(starts), 1e-3)
    assert (run.consensus_time, run.violations, run.final.t) == (1, 1, 1)


def test_iter_spans_is_validated_when_made():
    sched = PeriodicSchedule([PAIR], first_time=1)
    with pytest.raises(ValueError, match="nonnegative"):
        iter_spans(sched, LinearAverage(), [0.0, 1.0], steps=-1)
    with pytest.raises(ValueError, match="before the schedule"):
        iter_spans(sched, LinearAverage(), [0.0, 1.0], steps=1, t0=0)
    with pytest.raises(ValueError, match="n=3"):
        iter_spans(sched, LinearAverage(), [0.0, 1.0, 2.0], steps=1)
    with pytest.raises(ValueError):
        iter_spans(PeriodicSchedule([DirectedGraph(3)]), VicsekHeading(), [0.0, 2.0, 0.0], steps=1)


def test_a_generated_schedule_spans_its_arc_free_times_together():
    sched, steps = SPAN_SCHEDULES["generated"], 150
    arc_times = [t for t in range(1, 1 + steps) if sched.graph_at(t)._keys.size]
    spans = list(iter_spans(sched, LinearAverage(), [0.0, 1.0, 4.0], steps))
    assert len(spans) == len(arc_times) + 1 < steps
    assert [end for _, end, _ in spans[:-1]] == arc_times
    got = list(iter_states(sched, LinearAverage(), [0.0, 1.0, 4.0], steps))
    _same_run(got, _reference_run(sched, LinearAverage(), [0.0, 1.0, 4.0], steps, 1))


class _DoublingSchedule(GraphSchedule):
    """Bidirectional path edges of three agents at t = 2^g (g >= 1), edge
    1-2 and 2-3 by turns; every other time is arc-free.  Every tail is
    connected, and the silent gaps double."""

    n, first_time, name = 3, 0, "doubling"
    EDGES = (DirectedGraph(3, {(1, 2), (2, 1)}), DirectedGraph(3, {(2, 3), (3, 2)}))

    def graph_at(self, t):
        t = self._check_time(t)
        return self.EDGES[t.bit_length() % 2] if t >= 2 and t & (t - 1) == 0 else Z

    def next_change(self, t):
        return max(2, 1 << self._check_time(t).bit_length())


def test_doubling_schedule_next_change_matches_a_graph_at_scan():
    sched = _DoublingSchedule()
    want = _scan_next_change(sched, 0, 3000, ahead=3000)
    assert [t for t in range(3000) if sched.next_change(t) != want[t]] == []


def test_spans_reach_a_horizon_of_2_to_the_70():
    steps = 2**70
    spans = list(iter_spans(_DoublingSchedule(), LinearAverage(), [0.0, 1.0, 4.0], steps))
    assert len(spans) <= 2 * 70 + 2
    _check_tiling(spans, 0, steps)
    run = summarize(monitor_stream((t, x) for t, _, x in spans), 1e-6)
    assert run.consensus_time is not None and run.violations == 0
    assert run.final.state._at_rest() and run.final.t < steps


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


@pytest.mark.parametrize("n", [3, 5])
def test_a_monitored_per_step_run_hulls_each_distinct_state_once(n, monkeypatch):
    hulled = []
    real = lyapunov._hull_of
    monkeypatch.setattr(lyapunov, "_hull_of", lambda pts: hulled.append(pts) or real(pts))
    sched = StretchingSchedule(n)
    steps = sched.active_position(40) + 1
    s1, s2 = itertools.tee(iter_states(sched, LinearAverage(), np.linspace(0.0, 1.0, n), steps))
    states = {}
    for (t, x), rec in zip(s1, monitor_stream(s2)):
        assert disagreement(x) == rec.diameter
        states[id(x)] = x
    assert len(states) == 41  # x0 and one state per active step
    assert sorted(map(id, hulled)) == sorted(id(x.points) for x in states.values())


def test_disagreement_reads_a_held_hull_and_hulls_only_a_state_without_one(monkeypatch):
    born = LinearAverage().step(0, PAIR, AgentState([0.0, 1.0]))  # holds its hull
    calls = []
    real = lyapunov.hull
    monkeypatch.setattr(lyapunov, "hull", lambda x: calls.append(x) or real(x))
    fresh = AgentState([0.0, 1.0])
    raw = np.array([0.0, 1.0])
    assert [disagreement(x) for x in (born, born, fresh, fresh, raw, raw)] == [0.0, 0.0] + [1.0] * 4
    assert [id(x) for x in calls] == [id(fresh), id(raw), id(raw)]


def test_summarize_finds_consensus_time():
    def run(graph, tol):
        states = iter_states(PeriodicSchedule([graph]), LinearAverage(), [0.0, 1.0], steps=3)
        return summarize(monitor_stream(states), tol)

    assert run(PAIR, 1e-9).consensus_time == 1
    assert run(PAIR, 2.0).consensus_time == 0
    assert run(DirectedGraph(2), 1e-9).consensus_time is None
    with pytest.raises(ValueError, match="tol"):
        run(PAIR, 0.0)


# ---------------------------------------------------------------------------
# Attractivity probing


def test_probe_converges_on_constant_pair():
    rep = attractivity_probe(
        PeriodicSchedule([PAIR]), LinearAverage(), center=[0.0, 1.0], radius=0.1,
        samples=5, horizon=50, tol=1e-9, seed=3,
    )
    assert rep.converged_fraction == 1.0
    assert all(s.status == "converged" for s in rep.samples)
    assert all(s.consensus_time == 1 for s in rep.samples)
    assert all(s.max_excursion <= 1.3 for s in rep.samples)


def test_probe_diverges_when_nothing_moves():
    rep = attractivity_probe(
        PeriodicSchedule([DirectedGraph(2)]), LinearAverage(), center=[0.0, 1.0],
        radius=0.0, samples=2, horizon=20, tol=1e-6, seed=0,
    )
    assert rep.converged_fraction == 0.0
    assert all(s.status == "diverged" for s in rep.samples)
    assert all(s.final_disagreement == 1.0 for s in rep.samples)


def test_probe_reports_undetermined_for_slow_contraction():
    slow = WeightedDigraph(2, {(1, 2): 0.01, (2, 1): 0.01})
    rep = attractivity_probe(
        PeriodicSchedule([slow]), LinearAverage(), center=[0.0, 1.0],
        radius=0.0, samples=1, horizon=100, tol=1e-9, seed=0,
    )
    assert rep.samples[0].status == "undetermined"


def test_probe_leaves_a_run_that_ends_in_a_silent_stretch_undetermined():
    # arcs at 0, 45 and 90: the run ends in the arc-free span [91, 100],
    # but the schedule has an arc again at 135, so nothing shows that the
    # state holds forever
    slow = WeightedDigraph(2, {(1, 2): 0.01, (2, 1): 0.01})
    sched = PeriodicSchedule([slow] + [DirectedGraph(2)] * 44)
    rep = attractivity_probe(
        sched, LinearAverage(), center=[0.0, 1.0], radius=0.0, samples=1,
        horizon=100, tol=1e-9, seed=0,
    )
    assert rep.samples[0].status == "undetermined"


@pytest.mark.parametrize(
    "schedule, center, want",
    [
        # converges, but only after the horizon: its silent gaps keep
        # coming, and so do its arcs
        (StretchingSchedule(3), [0.0, 0.0, 0.0], "undetermined"),
        # one step, then silence forever: the state holds
        (FiniteSchedule([A]), [0.0, 1.0, 4.0], "diverged"),
        # arcs at every time; that the pairs never meet needs a closed-set
        # witness, which this probe does not look for
        (PeriodicSchedule([DirectedGraph(4, {(1, 2), (2, 1), (3, 4), (4, 3)})]),
         [0.0, 0.0, 1.0, 1.0], "undetermined"),
    ],
    ids=["stretching", "burst-then-silence", "two-pairs"],
)
def test_probe_calls_a_sample_diverged_only_when_nothing_can_move_it(schedule, center, want):
    rep = attractivity_probe(schedule, LinearAverage(), center, radius=1.0, samples=5,
                             horizon=50)
    assert [s.status for s in rep.samples] == [want] * 5


def _probe_by_the_span_loop(schedule, update_map, center, radius, samples, horizon, tol, seed,
                            t0):
    """The probe's own fold over spans, as it stood before each sample became
    a `summarize` of its monitored run: a reference for the merged fold,
    as tuples of the five fields a sample had then."""
    c = AgentState(center)
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(samples)]
    out = []
    for i, rng in enumerate(rngs):
        dim = c.n * c.d
        direction = rng.standard_normal(dim)
        norm = float(np.linalg.norm(direction))
        if norm == 0.0:
            offset = np.zeros(dim)
        else:
            offset = direction / norm * radius * rng.uniform(0.0, 1.0) ** (1.0 / dim)
        x0 = AgentState(c.points + offset.reshape(c.n, c.d))
        status, consensus_time, max_exc = "undetermined", None, 0.0
        for t, _, x in iter_spans(schedule, update_map, x0, horizon, t0):
            d_now = disagreement(x)
            max_exc = max(max_exc, d_now)
            if d_now < tol:
                status, consensus_time = "converged", t
                break
        else:
            if not schedule.graph_at(t)._keys.size and schedule.next_change(t) is None:
                status = "diverged"
        out.append((i, status, d_now, max_exc, consensus_time))
    return out


@pytest.mark.parametrize(
    "schedule, make_map, center, radius, tol, t0, want",
    [
        (PeriodicSchedule([PAIR]), LinearAverage, [0.0, 1.0], 0.1, 1e-9, None, "converged"),
        (StretchingSchedule(3), LinearAverage, [0.0, 0.0, 0.0], 1.0, 1e-6,
         None, "undetermined"),
        (FiniteSchedule([A]), LinearAverage, [0.0, 1.0, 4.0], 1.0, 1e-6, None, "diverged"),
        (PeriodicSchedule([PAIR]), LinearAverage, [2.0, 2.0], 1e-9, 1e-6, 5, "converged"),
        (PeriodicSchedule([A, B, Z]), MaxUpdate, [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], 0.5,
         1e-6, None, "undetermined"),
    ],
    ids=["converged", "stretching", "burst-then-silence", "below-tol-at-t0", "planar-max"],
)
def test_probe_samples_equal_the_span_loop_bit_for_bit(schedule, make_map, center, radius,
                                                       tol, t0, want):
    kwargs = dict(radius=radius, samples=4, horizon=50, tol=tol, seed=7, t0=t0)
    got = attractivity_probe(schedule, make_map(), center, **kwargs).samples
    ref = _probe_by_the_span_loop(schedule, make_map(), center, **kwargs)
    assert [s[1] for s in ref] == [want] * 4
    # repr tells every float apart bit for bit, -0.0 from 0.0 too
    assert [repr(astuple(s)[:5]) for s in got] == list(map(repr, ref))
    if t0 is not None:
        assert all(s.consensus_time == t0 for s in got)


def test_probe_refuses_a_radius_whose_samples_can_overflow():
    # two agents' offsets differ by up to sqrt(2) times the radius: at
    # 1.7e308 the ball holds samples whose disagreement is no float
    edgeless = PeriodicSchedule([DirectedGraph(2)])
    one_arc = PeriodicSchedule([DirectedGraph(2, {(1, 2)})])
    for schedule in (edgeless, one_arc):
        for seed in range(4):
            with pytest.raises(ValueError, match="^radius must keep every sample"):
                attractivity_probe(schedule, LinearAverage(), [0.0, 0.0], 1.7e308, samples=3,
                                   horizon=3, seed=seed)
    # the center's own magnitude counts: every coordinate must stay a float
    with pytest.raises(ValueError, match="^radius must keep every sample"):
        attractivity_probe(edgeless, LinearAverage(), [1.7e308, 1.7e308], 1e307)
    for seed in range(4):
        rep = attractivity_probe(one_arc, LinearAverage(), [0.0, 0.0], 1.2e308, samples=3,
                                 horizon=3, seed=seed)
        assert all(math.isfinite(s.max_excursion) for s in rep.samples)


def test_probe_is_deterministic_in_seed():
    kwargs = dict(center=[0.0, 1.0, 0.3], radius=0.2, samples=4, horizon=30, tol=1e-6)
    g = DirectedGraph(3, {(1, 2), (2, 1), (2, 3), (3, 2)})
    a = attractivity_probe(PeriodicSchedule([g]), LinearAverage(), seed=11, **kwargs)
    b = attractivity_probe(PeriodicSchedule([g]), LinearAverage(), seed=11, **kwargs)
    assert a.to_json_dict() == b.to_json_dict()


def test_probe_json_shape():
    rep = attractivity_probe(
        PeriodicSchedule([PAIR]), LinearAverage(), center=[0.0, 1.0], radius=0.1,
        samples=2, horizon=10, tol=1e-6, seed=1,
    )
    d = rep.to_json_dict()
    assert d["samples"] == 2
    assert d["schedule"] == "periodic" and d["map"] == "linear"
    assert len(d["per_sample"]) == 2
    assert {"index", "status", "final_disagreement", "max_excursion", "consensus_time",
            "violations", "records"} <= set(d["per_sample"][0])


@pytest.mark.parametrize("make_map, escapes", [(MaxUpdate, True), (LinearAverage, False)])
def test_probe_samples_report_what_their_monitor_found(make_map, escapes):
    # on the 2-cycle the coordinate-wise max of (0, 1) and (1, 0) is (1, 1),
    # outside their hull; averaging stays inside it
    rep = attractivity_probe(PeriodicSchedule([PAIR]), make_map(), [[0.0, 1.0], [1.0, 0.0]],
                             radius=0.1, samples=3, horizon=20, tol=1e-9, seed=2)
    # one step takes both agents to one point: the start and that point
    assert [(s.status, s.violations, s.records) for s in rep.samples] == [
        ("converged", int(escapes), 2)
    ] * 3
    per_sample = rep.to_json_dict()["per_sample"]
    assert [(d["violations"], d["records"]) for d in per_sample] == [
        (s.violations, s.records) for s in rep.samples
    ]


def test_probe_validation():
    sched = PeriodicSchedule([PAIR])
    with pytest.raises(ValueError, match="samples"):
        attractivity_probe(sched, LinearAverage(), [0.0, 1.0], 0.1, samples=0)
    with pytest.raises(ValueError, match="horizon"):
        attractivity_probe(sched, LinearAverage(), [0.0, 1.0], 0.1, horizon=0)
    with pytest.raises(ValueError, match="radius"):
        attractivity_probe(sched, LinearAverage(), [0.0, 1.0], -0.5)
    for tol in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            attractivity_probe(sched, LinearAverage(), [0.0, 1.0], 0.1, tol=tol)
