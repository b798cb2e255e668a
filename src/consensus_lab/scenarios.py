"""Named schedule families with known convergence behavior.

Three constructions, each built by its class or function:

* `CounterexampleSchedule()`: three agents whose every-tail arc unions
  are weakly connected, yet unit-weight averaging never reaches
  consensus: the windows needed for connectivity stretch out so fast
  that the residual disagreement survives in the limit.  The gap between
  agents 3 and 1 at specific sample times obeys an exact product
  recursion, which makes the whole pipeline self-auditing.
* `random_windowed_schedule`: periodic schedules that plant a rooted
  spanning tree often enough that every window of T + 1 consecutive
  steps is weakly connected; averaging must then converge uniformly.
* `StretchingSchedule(n)`: one bidirectional edge at a time, with
  ever-growing silent gaps.  No fixed window length stays connected, but
  every tail is, and for bidirectional communication that is enough.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Optional

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
_CE_TAIL = DirectedGraph(3, {(1, 2), (2, 1), (3, 2), (2, 3)})

_CE_FIRST_TIME = 1


class CounterexampleSchedule(GraphSchedule):
    """The stretching-block schedule on three agents (first time 1)."""

    n, first_time, name = 3, _CE_FIRST_TIME, "counterexample"
    # Every tail contains a complete block with s >= 1, and such a block
    # uses all four arc sets.
    _tail = _CE_TAIL

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


def _gap_numerators(p_max: int) -> Iterator[int]:
    """N_p = prod_{j=1..p} (2^j - 1) for p = 1..p_max: the gap recursion
    v(1) = 1/2, v(p) = v(p-1) (2^p - 1) / 2^p in integers, as
    v(p) = N_p / 2^(p (p + 1) / 2)."""
    n = 1
    for p in range(1, p_max + 1):
        n = (n << p) - n
        yield n


def counterexample_limit() -> float:
    """Limit of the gap sequence, one half times prod_{j>=2} (1 - 2^-j): the
    nearest float to v(64), which the limit undercuts by under 2^-64 v(64)."""
    *_, n = _gap_numerators(64)
    return n / (1 << 64 * 65 // 2)


@dataclass(frozen=True)
class CounterexampleRow:
    p: int
    t: int
    gap: float  # x3 - x1 at the sample time
    predicted: float  # v(p), correctly rounded
    residual: float
    bound: float  # derived in `verify_counterexample`

    @property
    def ok(self) -> bool:
        return self.residual <= self.bound


@dataclass(frozen=True)
class CounterexampleReport:
    p_max: int
    rows: tuple[CounterexampleRow, ...]
    limit_lower_bound: float  # exact v(p_max) (1 - 2^-p_max) rounded down: a floor on the limit

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.rows)

    @property
    def first_failure(self) -> Optional[int]:
        for r in self.rows:
            if not r.ok:
                return r.p
        return None


def verify_counterexample(p_max: int = 64) -> CounterexampleReport:
    """Simulate the schedule and check the gap recursion at the sample times.

    The gap x3 - x1 at time t_p must be v(p) = N_p / 2^(p (p + 1) / 2),
    the solution of v(1) = 1/2, v(p) = v(p-1) (2^p - 1) / 2^p, from one
    running integer product N_p (`_gap_numerators`).  Each row records
    the float gap, v(p) correctly rounded, their difference, and the
    bound eps (1.5 (t_p - 1) + 0.5) that a float run of the exact
    dynamics keeps to, with eps the float epsilon 2^-52:

    * every receiver in the four graphs has exactly one sender, of weight
      1/2, so one float `linear_step` moves each coordinate at most 3/4 eps
      from the exact map of its float input: eps/4 from the halved rounded
      difference x_l - x_k and eps/2 from the sum, as values stay in [0, 1];
    * the averaging map does not grow max-norm error, so after the
      t_p - 1 steps from time 1 each coordinate is within 3/4 eps (t_p - 1)
      of the exact one, and x3 - x1 within 1.5 eps (t_p - 1);
    * the last subtraction and the rounding of v(p) each round a number
      in [0, 1] to nearest, which moves it at most eps/4.  (The residual
      itself is exact: both terms lie in [1/4, 1/2].)

    A row past its bound is reported, not raised.
    """
    schedule = CounterexampleSchedule()
    update = LinearAverage()
    t_samples = counterexample_sample_times(p_max)
    p_max = len(t_samples)  # the checked count, an int even for a numpy integer
    gaps: list[float] = []  # gaps[p - 1] is v(p), read from the span holding t_p
    steps = t_samples[-1] - _CE_FIRST_TIME
    for _, end, x in iter_spans(schedule, update, counterexample_initial_state(), steps):
        while len(gaps) < p_max and t_samples[len(gaps)] <= end:
            v = x.values
            gaps.append(float(v[2] - v[0]))
    eps = sys.float_info.epsilon
    rows = []
    for p, (n, t, gap) in enumerate(zip(_gap_numerators(p_max), t_samples, gaps), 1):
        predicted = n / (1 << p * (p + 1) // 2)
        bound = eps * (1.5 * (t - _CE_FIRST_TIME) + 0.5)
        rows.append(CounterexampleRow(p, t, gap, predicted, abs(gap - predicted), bound))
    return CounterexampleReport(p_max, tuple(rows), _limit_floor(n, p_max))  # n is N_p_max


def _limit_floor(n: int, p: int) -> float:
    """The largest float <= v(p) (1 - 2^-p) = n (2^p - 1) / 2^E, with n = N_p
    and E = p (p + 1) / 2 + p: a floor on the limit v(p) prod_{j>p} (1 - 2^-j),
    as that product is at least 1 - 2^-p."""
    n = (n << p) - n
    s = max(n.bit_length() - 53, 0)  # the top 53 bits, truncated: rounded down
    return math.ldexp(n >> s, s - p * (p + 1) // 2 - p)


# ---------------------------------------------------------------------------
# Random periodic schedules with guaranteed connected windows


def _random_arborescence(n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """0-based (sender, receiver) arrays of the arcs of a random spanning
    tree directed away from a random root: node order[i] hangs from a
    uniform earlier node of a random order."""
    order = rng.permutation(n)
    parents = [rng.integers(0, i) for i in range(1, n)]
    return order[parents], order[1:]


_EXTRA_ARC_RATE = 0.15


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
    The draws come from `SeedSequence(entropy=(seed, 0))`, slot by slot:
    first the plant, if the slot has one (a random order of the nodes,
    then each later node's parent among the earlier ones), then one coin
    per ordered pair (k, l), k != l, in k-major order, which adds the arc
    k -> l when it is below `_EXTRA_ARC_RATE`.  This order is what makes
    an (n, T, length, seed) name one schedule.  n >= 1, T >= 0 and
    length >= 1 are counts (`graphs._valid_count`): a T of 1.5 would
    plant only at slots 0, 5, ..., leaving 2-step windows without a plant.
    """
    n = _valid_count(n, 1, "node count")
    T = _valid_count(T, 0, "window slack T")
    length = _valid_count(length, 1, "period length")
    seed = _valid_count(seed, 0, "seed")
    name = f"windowed:n={n},T={T},length={length},seed={seed}"
    # The receiver-major keys l * n + k of the ordered pairs, in the coins'
    # k-major order, which is the order in which `~eye` lists its entries.
    sender, receiver = np.nonzero(~np.eye(n, dtype=bool))
    pair_keys = receiver * n + sender
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, 0)))
    graphs = []
    for slot in range(length):
        hits = np.zeros(n * n, dtype=bool)
        if slot % (T + 1) == 0:
            k, l = _random_arborescence(n, rng)
            hits[l * n + k] = True
        hits[pair_keys[rng.random(pair_keys.size) < _EXTRA_ARC_RATE]] = True
        graphs.append(DirectedGraph._own(n, hits.nonzero()[0]))
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

    @cached_property
    def _tail(self) -> DirectedGraph:
        # Active steps recur forever and cycle through all path edges, so
        # every tail union is the full bidirectional path, its edges' keys.
        return DirectedGraph._own(self.n, np.sort(np.concatenate([g._keys for g in self.edges])))

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
    """`StretchingSchedule(n)`, kept only as perfbench's entry point."""
    return StretchingSchedule(n)
