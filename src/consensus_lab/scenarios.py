"""Named schedule families with known convergence behavior.

Three constructions:

* A three-agent schedule whose every-tail arc unions are weakly
  connected, yet unit-weight averaging never reaches consensus: the
  communication windows needed for connectivity stretch out so fast that
  the residual disagreement survives in the limit.  The gap between
  agents 3 and 1 at specific sample times obeys an exact product
  recursion, which makes the whole pipeline self-auditing.
* Random periodic schedules that plant a rooted spanning tree often
  enough that every window of T + 1 consecutive steps is weakly
  connected; averaging must then converge uniformly.
* A bidirectional single-edge schedule with ever-growing silent gaps.
  No fixed window length stays connected, but every tail is, and for
  bidirectional communication that is enough for consensus.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dynamics import LinearAverage
from .graphs import DirectedGraph, IntervalSpec, _valid_count
from .lyapunov import AgentState
from .simulator import GraphSchedule, PeriodicSchedule, iter_spans

# ---------------------------------------------------------------------------
# The non-converging schedule
#
# Four graphs on agents {1, 2, 3}:
#   g12      : 1 -> 2
#   g12_21   : 1 <-> 2
#   g32      : 3 -> 2
#   g23_32   : 2 <-> 3
# Block s (s = 0, 1, 2, ...) is the sequence
#   (2s copies of g12, g12_21, 2s+1 copies of g32, g23_32)
# of length 4s + 3; blocks are concatenated starting at time 1, so block
# s starts at time 2 s^2 + s + 1.

_G12 = DirectedGraph(3, {(1, 2)})
_G12_21 = DirectedGraph(3, {(1, 2), (2, 1)})
_G32 = DirectedGraph(3, {(3, 2)})
_G23_32 = DirectedGraph(3, {(2, 3), (3, 2)})

_CE_FIRST_TIME = 1


class CounterexampleSchedule(GraphSchedule):
    """The stretching-block schedule on three agents (first time 1)."""

    n, first_time, name = 3, _CE_FIRST_TIME, "counterexample"

    def tail_union(self, start: int) -> DirectedGraph:
        # Every tail contains a complete block with s >= 1, and such a
        # block uses all four arc sets.
        return DirectedGraph(3, {(1, 2), (2, 1), (3, 2), (2, 3)})

    @staticmethod
    def block_start(s: int) -> int:
        """Time at which block s begins."""
        s = _valid_count(s, 0, "block index")
        return 2 * s * s + s + 1

    def block_of(self, t: int) -> tuple[int, int]:
        """(block index, offset inside the block) for a time t >= 1."""
        t = self._check_time(t)
        s = (math.isqrt(8 * t - 7) - 1) // 4
        return s, t - self.block_start(s)

    def _run(self, t: int) -> tuple[DirectedGraph, int]:
        """(graph at t, start of the next run of equal graphs): block s's
        four runs end at offsets 2s (empty in block 0), 2s + 1, 4s + 2 and
        4s + 3, the block's length."""
        s, r = self.block_of(t)
        runs = ((_G12, 2 * s), (_G12_21, 2 * s + 1), (_G32, 4 * s + 2), (_G23_32, 4 * s + 3))
        g, end = next(run for run in runs if r < run[1])
        return g, self.block_start(s) + end

    def graph_at(self, t: int) -> DirectedGraph:
        return self._run(t)[0]

    def next_change(self, t: int) -> int:
        """The start of the run of equal graphs after the one holding t, so
        a bounded union walks at most four runs per block, and one block
        reaches the tail union from any start."""
        return self._run(t)[1]


def counterexample_schedule() -> CounterexampleSchedule:
    return CounterexampleSchedule()


def counterexample_initial_state() -> AgentState:
    """The canonical initial data (0, 1, 1) at time 1."""
    return AgentState([0.0, 1.0, 1.0])


def counterexample_sample_times(p_max: int) -> tuple[int, ...]:
    """Sample times t_p = 1 + p (p + 1) / 2 for p = 1..p_max.

    Consecutive samples are p + 1 steps apart; each lands right after a
    block's mutual exchange between agents 2 and 3.
    """
    p_max = _valid_count(p_max, 1, "p_max")
    return tuple(1 + p * (p + 1) // 2 for p in range(1, p_max + 1))


def _gap_product(p: int) -> float:
    """v(p) = 1/2 prod_{j=2..p} (1 - 2^-j), the recursion's gap at sample p."""
    v = 0.5
    for j in range(2, p + 1):
        v *= 1.0 - 2.0 ** (-j)
    return v


def counterexample_limit() -> float:
    """Limit of the gap sequence: one half times prod_{j>=2} (1 - 2^-j),
    whose factors past j = 53 round to 1.0."""
    return _gap_product(63)


@dataclass(frozen=True)
class CounterexampleRow:
    p: int
    t: int
    gap: float  # x3 - x1 at the sample time
    predicted: float  # from the product recursion
    residual: float
    tol: float

    @property
    def ok(self) -> bool:
        return self.residual <= self.tol


@dataclass(frozen=True)
class CounterexampleReport:
    p_max: int
    rows: tuple[CounterexampleRow, ...]
    final_gap: float
    recursion_gap: float  # independent recursion value at p_max
    limit_lower_bound: float  # rigorous floor on the limiting gap

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.rows)

    @property
    def first_failure(self) -> Optional[int]:
        for r in self.rows:
            if not r.ok:
                return r.p
        return None


def _recursion_tol(p: int) -> float:
    # Accumulated roundoff grows with the run length; stay strict early.
    return 1e-12 if p <= 20 else 1e-9


def verify_counterexample(p_max: int = 64) -> CounterexampleReport:
    """Simulate the schedule and check the gap recursion at the sample times.

    The gap v(p) = x3 - x1 at time t_p must satisfy v(1) = 1/2 and
    v(p) = v(p-1) (2^p - 1) / 2^p.  Each row records the simulated gap,
    the value the recursion predicts from the previous row, and their
    difference.  A mismatch beyond tolerance is reported, not raised.
    """
    schedule = counterexample_schedule()
    update = LinearAverage()
    t_samples = counterexample_sample_times(p_max)
    p_max = len(t_samples)  # the checked count, an int even for a numpy integer
    gaps: list[float] = []  # gaps[p - 1] is v(p), read from the span holding t_p
    steps = t_samples[-1] - _CE_FIRST_TIME
    for _, end, x in iter_spans(schedule, update, counterexample_initial_state(), steps):
        while len(gaps) < p_max and t_samples[len(gaps)] <= end:
            v = x.values
            gaps.append(float(v[2] - v[0]))
    rows = []
    for p in range(1, p_max + 1):
        gap = gaps[p - 1]
        if p == 1:
            predicted = 0.5
        else:
            predicted = gaps[p - 2] * (2.0**p - 1.0) / 2.0**p
        rows.append(
            CounterexampleRow(
                p=p,
                t=t_samples[p - 1],
                gap=gap,
                predicted=predicted,
                residual=abs(gap - predicted),
                tol=_recursion_tol(p),
            )
        )
    final = gaps[-1]
    return CounterexampleReport(
        p_max=p_max,
        rows=tuple(rows),
        final_gap=final,
        recursion_gap=_gap_product(p_max),
        limit_lower_bound=final * (1.0 - 2.0 ** (-p_max)),
    )


# ---------------------------------------------------------------------------
# Random periodic schedules with guaranteed connected windows


def _random_arborescence(n: int, rng: np.random.Generator) -> set[tuple[int, int]]:
    """Arcs of a random spanning tree directed away from a random root."""
    order = [int(v) + 1 for v in rng.permutation(n)]
    arcs: set[tuple[int, int]] = set()
    for i in range(1, n):
        parent = order[int(rng.integers(0, i))]
        arcs.add((parent, order[i]))
    return arcs


_EXTRA_ARC_RATE = 0.15
_COINS_PER_PASS = 1 << 16  # bounds a pass's coin and hit arrays


def random_windowed_schedule(
    n: int, T: int, length: int, seed: int = 0
) -> PeriodicSchedule:
    """Random periodic schedule whose every (T+1)-window is weakly connected.

    A spanning arborescence, a tree directed away from a random root, is
    planted at every slot that is a multiple of T + 1, and independent
    extra arcs are sprinkled everywhere.  The window property holds by
    construction: slot 0 is a plant, consecutive plants are at most T + 1
    apart, and so is the last plant from slot 0 of the next period (a
    period shorter than T + 1 has slot 0 alone, and a window covers all of
    it).  So every T + 1 consecutive times meet a plant, and the window's
    arc union contains a rooted spanning tree, which is weakly connected.
    The draws come from `SeedSequence(entropy=(seed, 0))`.  n >= 1, T >= 0
    and length >= 1 are counts (`graphs._valid_count`): a T of 1.5 would
    plant only at slots 0, 5, ..., leaving 2-step windows without a plant.
    """
    n = _valid_count(n, 1, "node count")
    T = _valid_count(T, 0, "window slack T")
    length = _valid_count(length, 1, "period length")
    seed = _valid_count(seed, 0, "seed")
    name = f"windowed:n={n},T={T},length={length},seed={seed}"
    # One coin per ordered pair (k, l), k != l, per slot, in the k-major
    # order in which `~eye` lists its entries.  Generator.random draws
    # concatenate exactly, so the coins of consecutive slots are drawn in
    # one call up to the next plant: the same doubles, and the same
    # generator state, as one draw per pair.  A pass lays its slots' hits
    # out as (sender, receiver) matrices, whose transposes list each slot's
    # arc keys in the receiver-major order a graph stores.
    m, pairs = n * (n - 1), ~np.eye(n, dtype=bool)
    per_pass = max(1, _COINS_PER_PASS // max(m, 1))
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, 0)))
    graphs = []
    for first in range(0, length, per_pass):
        slots = range(first, min(first + per_pass, length))
        coins, plants, run = [], [], 0
        for slot in slots:
            if slot % (T + 1) == 0:
                if run:
                    coins.append(rng.random((run, m)))
                plants += [(slot - first, k - 1, l - 1) for k, l in _random_arborescence(n, rng)]
                run = 0
            run += 1
        coins.append(rng.random((run, m)))
        hits = np.zeros((len(slots), n, n), dtype=bool)
        hits[:, pairs] = np.concatenate(coins) < _EXTRA_ARC_RATE
        if plants:
            hits[tuple(zip(*plants))] = True
        row, keys = np.nonzero(hits.transpose(0, 2, 1).reshape(len(slots), n * n))
        split = np.split(keys, np.searchsorted(row, range(1, len(slots))))
        graphs += [DirectedGraph._own(n, k) for k in split]
    return PeriodicSchedule(graphs, first_time=0, name=name)


# ---------------------------------------------------------------------------
# Bidirectional schedule with stretching silent gaps


class StretchingSchedule(GraphSchedule):
    """Bidirectional path edges activated one at a time, ever further apart.

    The g-th active step (g = 1, 2, ...) happens at offset
    (g - 1)(g + 2) / 2 from the first time and turns on both directions
    of path edge 1 + ((g - 1) mod (n - 1)); it is followed by g arc-free
    steps.  Every tail of the schedule eventually cycles through all path
    edges, but no fixed window length does.  n >= 2 and the indices and
    lengths below are counts (`graphs._valid_count`).
    """

    def __init__(self, n: int):
        n = _valid_count(n, 2, "node count")
        # Edge e's arcs e + 1 -> e and e -> e + 1 have the receiver-major
        # keys (e - 1) n + e and e n + e - 1.
        self.edges = [
            DirectedGraph._own(n, np.array([(e - 1) * n + e, e * n + e - 1], dtype=np.intp))
            for e in range(1, n)
        ]
        self._empty = DirectedGraph._own(n, np.empty(0, dtype=np.intp))
        self.n, self.first_time, self.name = n, 0, f"stretching:n={n}"

    def active_position(self, g: int) -> int:
        """Time of the g-th active step (g >= 1)."""
        g = _valid_count(g, 1, "active step index")
        return self.first_time + (g - 1) * (g + 2) // 2

    def arc_free_window(self, T: int) -> IntervalSpec:
        """A window of T consecutive arc-free times (T >= 1)."""
        T = _valid_count(T, 1, "window length")
        start = self.active_position(T) + 1
        return IntervalSpec(start, start + T - 1)

    def tail_union(self, start: int) -> DirectedGraph:
        # Active steps recur forever and cycle through all path edges, so
        # every tail union is the full bidirectional path.
        return DirectedGraph(self.n, {arc for g in self.edges for arc in g.arcs})

    def next_change(self, t: int) -> int:
        """The time of the first active step after t."""
        return self.active_position(_active_before(self._check_time(t) - self.first_time) + 1)

    def graph_at(self, t: int) -> DirectedGraph:
        q = self._check_time(t) - self.first_time
        g = _active_before(q)
        if (g - 1) * (g + 2) // 2 != q:
            return self._empty
        return self.edges[(g - 1) % (len(self.edges))]


def _active_before(q: int) -> int:
    """The index g of the last active step at or before offset q >= 0: the
    largest g with (g - 1)(g + 2) / 2 <= q."""
    return (math.isqrt(9 + 8 * q) - 1) // 2


def stretching_bidirectional_schedule(n: int) -> StretchingSchedule:
    return StretchingSchedule(n)
