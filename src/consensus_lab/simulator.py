"""Time-dependent graph schedules and streamed runs.

A schedule assigns a communication graph to every integer time at or
after its first time.  Three kinds cover practical needs: an explicit
finite list (eventually constant, by default arc-free), a repeating
list, and an arbitrary generator function.  Periodic and eventually
constant schedules expose enough structure that arc unions over
unbounded time intervals stay decidable.

The run engine is `iter_spans`: it rolls an update map along a schedule
and yields one span (t, end, state) per constant stretch, the state
holding at every time in [t, end].  Schedules answer `next_active`, the
next time that carries an arc, so a map that is the identity on arc-free
graphs is not stepped across the silence in between, nor ever after a
state at rest, which every map keeps; a run costs time in its active
steps, not in its horizon.  `iter_states` expands the spans into one
(t, state) pair per time step, so `lyapunov.monitor_stream(iter_states(...))`
is a monitored run that stores nothing.  `attractivity_probe` repeats a
run from random initial states around a center and reports how often the
group reached consensus.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .dynamics import UpdateMap
from .graphs import DirectedGraph
from .lyapunov import AgentState, diameter, hull


class GraphSchedule:
    """Base class: a graph for every time t >= first_time.

    Subclasses set `period` (repeating schedules) or `constant_from`
    (schedules that stop changing) when applicable; both stay None
    otherwise.  `name` identifies the schedule in reports and files.
    """

    first_time: int
    n: int
    name: str
    period: Optional[int] = None
    constant_from: Optional[int] = None

    def _check_time(self, t: int) -> int:
        t = int(t)
        if t < self.first_time:
            raise ValueError(
                f"time {t} is before the schedule's first time {self.first_time}"
            )
        return t

    def graph_at(self, t: int) -> DirectedGraph:
        raise NotImplementedError

    def next_active(self, t: int) -> Optional[int]:
        """A time t' >= t such that every time in [t, t') is arc-free, or
        None when no time at or after t carries an arc.

        The default t' = t claims nothing and is always sound; schedules
        that know where their arcs are answer the next time with an arc.
        """
        return self._check_time(t)

    def tail_union(self, start: int) -> Optional[DirectedGraph]:
        """Arc union over [start, infinity), when known in closed form.

        Aperiodic schedules with analyzable structure override this; the
        default None means the union must be scanned, which is only
        possible for periodic or eventually constant schedules.
        """
        return None


def _node_count(graphs: Sequence[DirectedGraph]) -> int:
    ns = {g.n for g in graphs}
    if len(ns) != 1:
        raise ValueError(f"graphs disagree on node count: {sorted(ns)}")
    return ns.pop()


def _next_active_indices(
    graphs: Sequence[DirectedGraph], beyond: Optional[int]
) -> list[Optional[int]]:
    """For each index i, the least j >= i whose graph has an arc, or
    `beyond` when no graph from i on has one."""
    out: list[Optional[int]] = [None] * len(graphs)
    j = beyond
    for i in reversed(range(len(graphs))):
        if graphs[i].arcs:
            j = i
        out[i] = j
    return out


class FiniteSchedule(GraphSchedule):
    """An explicit list of graphs, then a constant `after` graph forever.

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
        self.n = _node_count(graphs if after is None else graphs + (after,))
        self.graphs = graphs
        self.after = after if after is not None else DirectedGraph(self.n, ())
        self.first_time = int(first_time)
        self.constant_from = self.first_time + len(graphs)
        self.name = name
        self._next = _next_active_indices(graphs, len(graphs) if self.after.arcs else None)

    def graph_at(self, t: int) -> DirectedGraph:
        idx = self._check_time(t) - self.first_time
        return self.graphs[idx] if idx < len(self.graphs) else self.after

    def next_active(self, t: int) -> Optional[int]:
        idx = self._check_time(t) - self.first_time
        if idx >= len(self.graphs):
            return t if self.after.arcs else None
        j = self._next[idx]
        return None if j is None else self.first_time + j


class PeriodicSchedule(GraphSchedule):
    """A list of graphs repeated forever; the period is the list length."""

    def __init__(
        self, graphs: Sequence[DirectedGraph], first_time: int = 0, name: str = "periodic"
    ):
        graphs = tuple(graphs)
        if not graphs:
            raise ValueError("need at least one graph")
        self.n = _node_count(graphs)
        self.graphs = graphs
        self.first_time = int(first_time)
        self.period = len(graphs)
        self.name = name
        # the first active slot of the next period follows the last slot
        wrap = next((i + self.period for i, g in enumerate(graphs) if g.arcs), None)
        self._next = _next_active_indices(graphs, wrap)

    def graph_at(self, t: int) -> DirectedGraph:
        idx = (self._check_time(t) - self.first_time) % self.period
        return self.graphs[idx]

    def next_active(self, t: int) -> Optional[int]:
        q, idx = divmod(self._check_time(t) - self.first_time, self.period)
        j = self._next[idx]
        return None if j is None else self.first_time + q * self.period + j


class GeneratedSchedule(GraphSchedule):
    """Graphs produced by a function of time, each checked for its n.

    A generated schedule declares no `period` or `constant_from`, since
    nothing checks that the function would honor them; unions over
    unbounded intervals are refused unless a subclass answers `tail_union`.
    """

    def __init__(
        self,
        fn: Callable[[int], DirectedGraph],
        n: int,
        first_time: int = 0,
        name: str = "generated",
    ):
        self.fn = fn
        self.n = int(n)
        self.first_time = int(first_time)
        self.name = name

    def graph_at(self, t: int) -> DirectedGraph:
        g = self.fn(self._check_time(t))
        if g.n != self.n:
            raise ValueError(f"generator returned a graph with n={g.n}, expected {self.n}")
        return g


def constant_schedule(graph: DirectedGraph, first_time: int = 0) -> PeriodicSchedule:
    """The same graph at every time."""
    return PeriodicSchedule([graph], first_time, name="constant")


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
    at end + 1.  A span ends at the schedule's `next_active` time, where
    the map is stepped into the next span's state, so there is one span
    more than there are `step` calls, and neither `graph_at` nor `step`
    is called inside a span:
    with no senders, every agent of the paper's model stays where it is,
    and every `UpdateMap` returns its input on an arc-free graph, so the
    skip is exact.  A state at rest (`x0` included), which every
    `UpdateMap` returns under any graph, holds through t0 + steps, however
    far off that is.

    `steps`, `t0` and `x0` are checked when the stream is made, before
    the caller opens any output, not on its first `next()`; so is `x0`
    against the map (its dimension and domain), since a run that never
    meets an arc never steps the map.
    """
    if steps < 0:
        raise ValueError(f"steps must be nonnegative, got {steps}")
    t0 = schedule.first_time if t0 is None else int(t0)
    if t0 < schedule.first_time:
        raise ValueError(
            f"t0={t0} is before the schedule's first time {schedule.first_time}"
        )
    x = x0 if isinstance(x0, AgentState) else AgentState(x0)
    if x.n != schedule.n:
        raise ValueError(f"state has n={x.n} but schedule has n={schedule.n}")
    update_map._check(None, x)
    return _run(schedule, update_map, x, steps, t0)


def _run(
    schedule: GraphSchedule, update_map: UpdateMap, x: AgentState, steps: int, t0: int
) -> Iterator[tuple[int, int, AgentState]]:
    step, graph_at, next_active = update_map.step, schedule.graph_at, schedule.next_active
    t, last = t0, t0 + steps
    while True:
        # x holds through the next active time, and forever from a state at rest
        active = None if t == last or x._at_rest() else next_active(t)
        if active is None or active >= last:
            yield t, last, x
            return
        yield t, active, x
        x = step(active, graph_at(active), x)
        t = active + 1


def iter_states(
    schedule: GraphSchedule,
    update_map: UpdateMap,
    x0,
    steps: int,
    t0: Optional[int] = None,
) -> Iterator[tuple[int, AgentState]]:
    """Yield (t, state) from t0 through t0 + steps: `iter_spans`, one pair
    per time step.

    Each span's state object is yielded at every time of the span, so an
    arc-free stretch and the times after a state at rest cost one `yield`
    each, with no `graph_at` or `step` call.  The arguments are checked
    when the stream is made, as `iter_spans` checks them.
    """
    return _per_step(iter_spans(schedule, update_map, x0, steps, t0))


def _per_step(spans) -> Iterator[tuple[int, AgentState]]:
    for t, end, x in spans:
        for t in range(t, end + 1):
            yield t, x


def disagreement(state) -> float:
    """Hull diameter of the agent positions: 0 exactly at consensus.

    An `AgentState` is hulled once, so this reads the hull that the
    monitor already made for the same state.
    """
    return diameter(hull(state))


# ---------------------------------------------------------------------------
# Attractivity probing


@dataclass(frozen=True)
class ProbeSample:
    index: int
    status: str  # "converged" | "diverged" | "undetermined"
    final_disagreement: float
    max_excursion: float
    consensus_time: Optional[int]


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
        if not self.samples:
            return 0.0
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


#: Relative disagreement drop over the last tenth of the horizon below
#: which an unconverged run is called diverged rather than undetermined.
_STALL_THRESHOLD = 1e-3


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
    `center` (in the flattened state space) and is stepped until its
    disagreement drops below `tol` (converged) or the horizon is reached.
    Unconverged runs whose disagreement is still visibly shrinking over
    the final tenth of the horizon are labeled undetermined; the rest are
    labeled diverged.  Everything is deterministic in `seed`.
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    if horizon < 1:
        raise ValueError(f"horizon must be at least 1, got {horizon}")
    if not (radius >= 0.0 and math.isfinite(radius)):
        raise ValueError(f"radius must be nonnegative and finite, got {radius}")
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    c = center if isinstance(center, AgentState) else AgentState(center)
    t0 = schedule.first_time if t0 is None else int(t0)
    checkpoint = max(1, horizon - horizon // 10)
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(samples)]
    out: list[ProbeSample] = []
    for i in range(samples):
        rng = rngs[i]
        dim = c.n * c.d
        direction = rng.standard_normal(dim)
        norm = float(np.linalg.norm(direction))
        if norm == 0.0:
            offset = np.zeros(dim)
        else:
            offset = direction / norm * radius * rng.uniform(0.0, 1.0) ** (1.0 / dim)
        x0 = AgentState(c.points + offset.reshape(c.n, c.d))
        status = "diverged"
        consensus_time: Optional[int] = None
        max_exc = 0.0
        d_checkpoint = math.inf
        d_now = math.inf
        for t, end, x in iter_spans(schedule, update_map, x0, horizon, t0):
            d_now = disagreement(x)
            max_exc = max(max_exc, d_now)
            if d_now < tol:
                status = "converged"
                consensus_time = t
                break
            if t <= t0 + checkpoint <= end:
                d_checkpoint = d_now
        if status != "converged":
            drop = (d_checkpoint - d_now) / d_checkpoint if d_checkpoint > 0.0 else 0.0
            status = "undetermined" if drop > _STALL_THRESHOLD else "diverged"
        out.append(
            ProbeSample(
                index=i,
                status=status,
                final_disagreement=d_now,
                max_excursion=max_exc,
                consensus_time=consensus_time,
            )
        )
    return ProbeReport(
        schedule_name=schedule.name,
        map_name=update_map.name,
        t0=t0,
        center=tuple(tuple(map(float, row)) for row in c.points),
        radius=float(radius),
        horizon=int(horizon),
        tol=float(tol),
        seed=int(seed),
        samples=tuple(out),
    )
