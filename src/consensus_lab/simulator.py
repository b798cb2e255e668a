"""Time-dependent graph schedules and streamed runs.

A schedule assigns a communication graph to every integer time at or
after its first time.  Three kinds cover practical needs: an explicit
finite list (eventually constant, by default arc-free), a repeating
list, and an arbitrary generator function.  Periodic and eventually
constant schedules expose enough structure that arc unions over
unbounded time intervals stay decidable.

`iter_states` rolls an update map along a schedule and yields the visited
states one at a time, so `lyapunov.monitor_stream(iter_states(...))` is a
monitored run that stores nothing; `attractivity_probe` repeats a run
from random initial states around a center and reports how often the
group reached consensus.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence, Union

import numpy as np

from .dynamics import AgentState, UpdateMap
from .graphs import DirectedGraph, WeightedDigraph, as_directed
from .lyapunov import diameter, hull

Graph = Union[DirectedGraph, WeightedDigraph]


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

    def graph_at(self, t: int) -> Graph:
        raise NotImplementedError

    def tail_union(self, start: int) -> Optional[DirectedGraph]:
        """Arc union over [start, infinity), when known in closed form.

        Aperiodic generated schedules with analyzable structure override
        this; the default None means the union must be scanned, which is
        only possible for periodic or eventually constant schedules.
        """
        return None


def _node_count(graphs: Sequence[Graph]) -> int:
    ns = {as_directed(g).n for g in graphs}
    if len(ns) != 1:
        raise ValueError(f"graphs disagree on node count: {sorted(ns)}")
    return ns.pop()


class FiniteSchedule(GraphSchedule):
    """An explicit list of graphs, then a constant `after` graph forever.

    `after` defaults to the arc-free graph, modeling a burst of
    communication followed by silence.
    """

    def __init__(
        self,
        graphs: Sequence[Graph],
        first_time: int = 0,
        after: Optional[Graph] = None,
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

    def graph_at(self, t: int) -> Graph:
        idx = self._check_time(t) - self.first_time
        return self.graphs[idx] if idx < len(self.graphs) else self.after


class PeriodicSchedule(GraphSchedule):
    """A list of graphs repeated forever; the period is the list length."""

    def __init__(self, graphs: Sequence[Graph], first_time: int = 0, name: str = "periodic"):
        graphs = tuple(graphs)
        if not graphs:
            raise ValueError("need at least one graph")
        self.n = _node_count(graphs)
        self.graphs = graphs
        self.first_time = int(first_time)
        self.period = len(graphs)
        self.name = name

    def graph_at(self, t: int) -> Graph:
        idx = (self._check_time(t) - self.first_time) % self.period
        return self.graphs[idx]


class GeneratedSchedule(GraphSchedule):
    """Graphs produced by a function of time.

    A generated schedule declares no `period` or `constant_from`, since
    nothing checks that the function would honor them; unions over
    unbounded intervals are refused unless a subclass answers `tail_union`.
    """

    def __init__(
        self,
        fn: Callable[[int], Graph],
        n: int,
        first_time: int = 0,
        name: str = "generated",
    ):
        self.fn = fn
        self.n = int(n)
        self.first_time = int(first_time)
        self.name = name

    def graph_at(self, t: int) -> Graph:
        g = self.fn(self._check_time(t))
        if as_directed(g).n != self.n:
            raise ValueError(
                f"generator returned a graph with n={as_directed(g).n}, expected {self.n}"
            )
        return g


def constant_schedule(graph: Graph, first_time: int = 0) -> PeriodicSchedule:
    """The same graph at every time."""
    return PeriodicSchedule([graph], first_time, name="constant")


# ---------------------------------------------------------------------------
# Runs


def iter_states(
    schedule: GraphSchedule,
    update_map: UpdateMap,
    x0,
    steps: int,
    t0: Optional[int] = None,
) -> Iterator[tuple[int, AgentState]]:
    """Yield (t, state) from t0 through t0 + steps, stepping the map.

    `steps`, `t0` and `x0` are checked when the stream is made, before
    the caller opens any output, not on its first `next()`.
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
    return _run(schedule, update_map, x, steps, t0)


def _run(
    schedule: GraphSchedule, update_map: UpdateMap, x: AgentState, steps: int, t0: int
) -> Iterator[tuple[int, AgentState]]:
    yield t0, x
    for t in range(t0, t0 + steps):
        x = update_map.step(t, schedule.graph_at(t), x)
        yield t + 1, x


def disagreement(state) -> float:
    """Hull diameter of the agent positions: 0 exactly at consensus."""
    x = state if isinstance(state, AgentState) else AgentState(state)
    if x.d == 1:
        v = x.points[:, 0]
        return float(v.max() - v.min())
    return diameter(hull(x))


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
            "per_sample": [
                {
                    "index": s.index,
                    "status": s.status,
                    "final_disagreement": s.final_disagreement,
                    "max_excursion": s.max_excursion,
                    "consensus_time": s.consensus_time,
                }
                for s in self.samples
            ],
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
        for t, x in iter_states(schedule, update_map, x0, horizon, t0):
            d_now = disagreement(x)
            max_exc = max(max_exc, d_now)
            if d_now < tol:
                status = "converged"
                consensus_time = t
                break
            if t - t0 == checkpoint:
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
