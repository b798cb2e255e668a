"""Time-dependent graph schedules and streamed runs.

A schedule assigns a communication graph to every integer time at or
after its first time.  Three kinds cover practical needs: an explicit
finite list (eventually constant, by default arc-free), a repeating
list (`PeriodicSchedule([g])` is constant), and a generator function.
The first two are tables, a head of graphs then a cycle repeated
forever, so arc unions over any time interval of them stay decidable;
the closed-form families are classes in `scenarios`, each declaring the
tail union that `GraphSchedule.tail_union` returns after its time check.

The run engine is `iter_spans`: it rolls an update map along a schedule
and yields one span (t, end, state) per constant stretch, the state
holding at every time in [t, end].  From an arc-free time, schedules
answer `next_change`, the next time that can carry an arc, so a map that
is the identity on arc-free graphs is not stepped across the silence in
between, nor ever after a state at rest, which every map keeps; a run
costs time in its active steps, not in its horizon.  Its span starts fed to
`lyapunov.monitor_stream` are a monitored run that stores nothing.
`iter_states` expands the spans into one (t, state) pair per time step.
`attractivity_probe` repeats a run from random initial states around a
center and reports how often the group reached consensus, measured by
`lyapunov.disagreement`.
"""

from __future__ import annotations

import operator
from dataclasses import asdict, dataclass
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .dynamics import UpdateMap
from .graphs import DirectedGraph, _valid_count
from .lyapunov import AgentState, _check_distance, _through_consensus, disagreement, hull
from .lyapunov import monitor_stream, summarize


class GraphSchedule:
    """Base class: a graph for every integer time t >= first_time.

    Tables (finite and periodic schedules) are a head of graphs, then a
    cycle of `period` graphs repeated forever from `cycle_from`; other
    schedules leave both None.  A closed-form schedule declares `_tail`,
    the arc union of every tail.  `name` names the schedule in reports.
    """

    first_time: int
    n: int
    name: str
    period: Optional[int] = None
    cycle_from: Optional[int] = None
    _tail: Optional[DirectedGraph] = None

    def _check_time(self, t: int) -> int:
        """t as an int, at or after the first time: the rule for every time."""
        t = operator.index(t)
        if t < self.first_time:
            raise ValueError(
                f"time {t} is before the schedule's first time {self.first_time}"
            )
        return t

    def graph_at(self, t: int) -> DirectedGraph:
        raise NotImplementedError

    def next_change(self, t: int) -> Optional[int]:
        """A time t' > t such that no time in (t, t') carries an arc that
        `graph_at(t)` lacks, or None when no time after t does.

        The default t + 1 claims nothing and is always sound.  Tables and
        the stretching schedule answer the next time with an arc, and
        schedules whose graphs come in runs the end of the run.  After an
        arc-free time, this is where `iter_spans` looks next, and None
        means silence forever; `graphs.union_across` walks these times.
        """
        return self._check_time(t) + 1

    def tail_union(self, start: int) -> Optional[DirectedGraph]:
        """Arc union over [start, infinity), when known in closed form.

        `start` is checked as every time is, and the answer is `_tail`,
        the same for every tail.  With the default None, only a table's
        unbounded union can be taken.
        """
        self._check_time(start)
        return self._tail


def _node_count(graphs: Sequence[DirectedGraph]) -> int:
    ns = {g.n for g in graphs}
    if len(ns) != 1:
        raise ValueError(f"graphs disagree on node count: {sorted(ns)}")
    return ns.pop()


class _TableSchedule(GraphSchedule):
    """A head of graphs from `first_time`, then a nonempty cycle repeated
    forever from `cycle_from`.  Slots are stored cycle first, so i = t -
    cycle_from indexes them as i % period, or in the head as the negative
    i.  `_next[i]` is the offset from `cycle_from` of the first time at
    or after slot i with an arc; after the last slot it wraps to the
    cycle's first such slot.
    """

    def __init__(self, head, cycle, first_time, name):
        self.n = _node_count(head + cycle)
        self.first_time = operator.index(first_time)
        self.cycle_from = self.first_time + len(head)
        self.period = len(cycle)
        self.name = name
        self._slots = cycle + head
        j = next((self.period + i for i, g in enumerate(cycle) if g._keys.size), None)
        self._next: list[Optional[int]] = [None] * len(self._slots)
        for i in reversed(range(-len(head), self.period)):
            if self._slots[i]._keys.size:
                j = i
            self._next[i] = j

    def graph_at(self, t: int) -> DirectedGraph:
        i = self._check_time(t) - self.cycle_from
        return self._slots[i % self.period if i >= 0 else i]

    def next_change(self, t: int) -> Optional[int]:
        t = self._check_time(t) + 1
        i = t - self.cycle_from
        r = i % self.period if i >= 0 else i
        j = self._next[r]
        return None if j is None else t - r + j


class FiniteSchedule(_TableSchedule):
    """An explicit list of graphs, then a constant `after` graph forever:
    the head `graphs` and the cycle `(after,)`.

    `after` defaults to the arc-free graph, modeling a burst of
    communication followed by silence.
    """

    def __init__(
        self,
        graphs: Sequence[DirectedGraph],
        first_time: int = 0,
        after: Optional[DirectedGraph] = None,
        name: str = "finite",
    ):
        graphs = tuple(graphs)
        if not graphs and after is None:
            raise ValueError("need at least one graph or an explicit after graph")
        if after is None:
            after = DirectedGraph(graphs[0].n, ())
        super().__init__(graphs, (after,), first_time, name)
        self.graphs, self.after = graphs, after


class PeriodicSchedule(_TableSchedule):
    """A list of graphs repeated forever: an empty head and the cycle
    `graphs`, so the period is the list length."""

    def __init__(
        self, graphs: Sequence[DirectedGraph], first_time: int = 0, name: str = "periodic"
    ):
        graphs = tuple(graphs)
        if not graphs:
            raise ValueError("need at least one graph")
        super().__init__((), graphs, first_time, name)
        self.graphs = graphs


class GeneratedSchedule(GraphSchedule):
    """Graphs produced by a function of time, each checked for its n.

    A generated schedule is no table, since nothing checks that the
    function repeats; unions over unbounded intervals are refused unless
    a subclass declares its `_tail` for `tail_union`, which also ends
    bounded ones early.
    """

    def __init__(
        self,
        fn: Callable[[int], DirectedGraph],
        n: int,
        first_time: int = 0,
        name: str = "generated",
    ):
        self.fn = fn
        self.n = _valid_count(n, 1, "node count")
        self.first_time = operator.index(first_time)
        self.name = name

    def graph_at(self, t: int) -> DirectedGraph:
        g = self.fn(self._check_time(t))
        if g.n != self.n:
            raise ValueError(f"generator returned a graph with n={g.n}, expected {self.n}")
        return g


# ---------------------------------------------------------------------------
# Runs


def iter_spans(
    schedule: GraphSchedule,
    update_map: UpdateMap,
    x0,
    steps: int,
    t0: Optional[int] = None,
) -> Iterator[tuple[int, int, AgentState]]:
    """Yield spans (t, end, state) that tile [t0, t0 + steps], stepping the map.

    The state holds at every time in [t, end], and the next span starts
    at end + 1.  A span ends at the first time with an arc, where the map
    is stepped into the next span's state, so there is one span more than
    there are `step` calls.  From an arc-free time the run looks next at
    the schedule's `next_change`, so `graph_at` is called only at the
    times that it names, and `step` never inside a span:
    with no senders, every agent of the paper's model stays where it is,
    and every `UpdateMap` returns its input on an arc-free graph, so the
    skip is exact.  A state at rest (`x0` included), which every
    `UpdateMap` returns under any graph, holds through t0 + steps, however
    far off that is.

    `steps` (`graphs._valid_count`), `t0` (`GraphSchedule._check_time`)
    and `x0` are checked when the stream is made, before the caller opens
    any output, not on its first `next()`; so is `x0` against the map (its
    dimension and domain), since a run that never meets an arc never steps
    the map.
    """
    steps = _valid_count(steps, 0, "steps")
    t0 = schedule.first_time if t0 is None else schedule._check_time(t0)
    x = x0 if isinstance(x0, AgentState) else AgentState(x0)
    if x.n != schedule.n:
        raise ValueError(f"state has n={x.n} but schedule has n={schedule.n}")
    update_map._check(None, x)
    return _run(schedule, update_map, x, steps, t0)


def _run(
    schedule: GraphSchedule, update_map: UpdateMap, x: AgentState, steps: int, t0: int
) -> Iterator[tuple[int, int, AgentState]]:
    step, graph_at, next_change = update_map.step, schedule.graph_at, schedule.next_change
    t, last = t0, t0 + steps
    while True:
        # x holds through the next time with an arc, and forever from a state at rest
        a = None if x._at_rest() else t
        while a is not None and a < last:
            g = graph_at(a)
            if g._keys.size:
                break
            a = next_change(a)
        if a is None or a >= last:
            yield t, last, x
            return
        yield t, a, x
        x = step(a, g, x)
        t = a + 1


def iter_states(
    schedule: GraphSchedule,
    update_map: UpdateMap,
    x0,
    steps: int,
    t0: Optional[int] = None,
) -> Iterator[tuple[int, AgentState]]:
    """Yield (t, state) from t0 through t0 + steps: `iter_spans`, one pair
    per time step, for callers that read every time (the per-step tests,
    `perfbench`'s `monitored_run`); the package itself runs on spans.

    Each span's state object is yielded at every time of the span, so an
    arc-free stretch and the times after a state at rest cost one `yield`
    each, with no `graph_at` or `step` call.  The arguments are checked
    when the stream is made, as `iter_spans` checks them.
    """
    spans = iter_spans(schedule, update_map, x0, steps, t0)
    return ((t, x) for start, end, x in spans for t in range(start, end + 1))


# ---------------------------------------------------------------------------
# Attractivity probing


@dataclass(frozen=True)
class ProbeSample:
    index: int
    status: str  # "converged" | "diverged" | "undetermined"
    final_disagreement: float
    max_excursion: float
    consensus_time: Optional[int]
    violations: int  # records not contained in the previous hull
    records: int  # monitor records folded, one per span


@dataclass(frozen=True)
class ProbeReport:
    schedule_name: str
    map_name: str
    t0: int
    center: tuple
    radius: float
    horizon: int
    tol: float
    seed: int
    samples: tuple[ProbeSample, ...]

    @property
    def converged_fraction(self) -> float:
        return sum(s.status == "converged" for s in self.samples) / len(self.samples)

    def to_json_dict(self) -> dict:
        return {
            "schedule": self.schedule_name,
            "map": self.map_name,
            "t0": self.t0,
            "center": [list(row) for row in self.center],
            "radius": self.radius,
            "horizon": self.horizon,
            "tol": self.tol,
            "seed": self.seed,
            "samples": len(self.samples),
            "converged_fraction": self.converged_fraction,
            "per_sample": [asdict(s) for s in self.samples],
        }


def attractivity_probe(
    schedule: GraphSchedule,
    update_map: UpdateMap,
    center,
    radius: float,
    samples: int = 20,
    horizon: int = 1000,
    tol: float = 1e-6,
    seed: int = 0,
    t0: Optional[int] = None,
) -> ProbeReport:
    """Sample initial states near a center and count consensus outcomes.

    Each sample starts uniformly in the ball of the given radius around
    `center` (in the flattened state space).  Its run is `simulate`'s
    monitored run, cut after its first record below `tol`; its `summarize`
    gives the consensus time (converged), the final disagreement, the
    peak (`max_excursion`), the monitor's `violations` and its `records`
    count.  An unconverged run is diverged only when
    nothing can move it again: the graph at its last span's start is
    arc-free and the schedule's `next_change` there is None, so its state
    holds forever; any other is undetermined.  The radius must keep each
    sample and its disagreement finite (two agents' offsets in the ball
    differ by at most sqrt(2) radius).  Everything is deterministic in `seed`.
    """
    samples = _valid_count(samples, 1, "samples")
    horizon = _valid_count(horizon, 1, "horizon")
    seed = _valid_count(seed, 0, "seed")
    _check_distance(radius, "radius")
    c = center if isinstance(center, AgentState) else AgentState(center)
    if not np.isfinite([hull(c).magnitude + radius, disagreement(c) + 2**0.5 * radius]).all():
        raise ValueError(f"radius must keep every sample around the center finite, got {radius}")
    t0 = schedule.first_time if t0 is None else schedule._check_time(t0)
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(samples)]
    out: list[ProbeSample] = []
    for i, rng in enumerate(rngs):
        dim = c.n * c.d
        direction = rng.standard_normal(dim)
        norm = float(np.linalg.norm(direction))
        if norm == 0.0:
            offset = np.zeros(dim)
        else:
            offset = direction / norm * radius * rng.uniform(0.0, 1.0) ** (1.0 / dim)
        x0 = AgentState(c.points + offset.reshape(c.n, c.d))
        spans = iter_spans(schedule, update_map, x0, horizon, t0)
        run = summarize(_through_consensus(monitor_stream((t, x) for t, _, x in spans), tol), tol)
        t, status = run.final.t, "converged"
        if run.consensus_time is None:
            held = not schedule.graph_at(t)._keys.size and schedule.next_change(t) is None
            status = "diverged" if held else "undetermined"
        out.append(ProbeSample(i, status, run.final.diameter, run.peak, run.consensus_time,
                               run.violations, run.records))
    return ProbeReport(
        schedule_name=schedule.name,
        map_name=update_map.name,
        t0=t0,
        center=tuple(tuple(map(float, row)) for row in c.points),
        radius=float(radius),
        horizon=horizon,
        tol=float(tol),
        seed=seed,
        samples=tuple(out),
    )
