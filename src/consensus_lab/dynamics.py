"""Update matrices and one-step update maps.

The discrete-time system acts on n agents whose states are points in R^d
with d in {1, 2}.  Each time step is driven by the current communication
graph: agent k hears from its in-senders (nodes with an arc into k) and
moves to a convex combination of what it hears.  The linear map is given
by the stochastic matrix A(t) of the graph's arc weights, which
`build_update_matrix` alone builds; the other maps here are
classical nonlinear examples (coupled oscillators in chart coordinates,
odd-gain consensus flows, heading averaging) plus a deliberately
non-contracting reference map (coordinate-wise max).  Each map is one
`UpdateMap` subclass that defines only its move, `_move`, under the one
shared `step`; the two flow maps each give the term rules of a field and
move through the generated RK4 of their shared base `_FlowMap`.

Two runtime checkers probe the structural assumptions the convergence
theory rests on: that an agent's update depends only on its own state and
its in-senders' states, and that the update lands strictly inside the
convex hull of those states unless they all coincide.  Both return a
`CheckReport` whose witnesses are `Violation`s: an agent, a draw, a
reason, the agent's output and its closed in-neighborhood's states.
"""

from __future__ import annotations

import functools
import itertools
import math
import weakref
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Union

import numpy as np

from .graphs import Arc, DirectedGraph, WeightedDigraph, _valid_count
from .lyapunov import _EPS, _ROUNDING_ULPS, AgentState, _exact_cross, _scaled, hull

GainFn = Callable[[float], float]


class StochasticMatrix:
    """Row-stochastic matrix with strictly positive diagonal, stored sparsely.

    Holds the diagonal `diag` and the nonzero off-diagonal entries as
    0-based triples (`rows[i]`, `cols[i]`, `weights[i]`) sorted by
    (row, col); all arrays are read-only.  `entries` builds the dense array.

    `build_update_matrix` is the one constructor, so every matrix is the
    A(t) of a weighted graph: `StochasticMatrix(...)` raises TypeError.
    """

    __slots__ = ("n", "diag", "rows", "cols", "weights")

    @classmethod
    def _own(cls, n, diag, rows, cols, weights) -> "StochasticMatrix":
        """Wrap the fresh, unshared arrays of a matrix that is stochastic by
        construction, triples sorted by (row, col): no copy and no check."""
        M = cls.__new__(cls)
        M.n, M.diag, M.rows, M.cols, M.weights = int(n), diag, rows, cols, weights
        for arr in (diag, rows, cols, weights):
            arr.flags.writeable = False
        return M

    @property
    def entries(self) -> np.ndarray:
        """The dense n x n array (read-only), built on each access."""
        A = np.zeros((self.n, self.n))
        A[self.rows, self.cols] = self.weights
        np.fill_diagonal(A, self.diag)
        A.flags.writeable = False
        return A

    def __repr__(self) -> str:
        return f"StochasticMatrix({self.entries.tolist()!r})"


def build_update_matrix(g: DirectedGraph) -> StochasticMatrix:
    """Stochastic update matrix of a weighted communication graph, and the
    one constructor of `StochasticMatrix`.

    Row k averages agent k's own state with its in-senders' states:

        A[k, k] = 1 / (1 + S_k),   A[k, i] = w_ik / (1 + S_k)  for senders i,

    where S_k is the total weight into k, summed over senders in ascending
    order: the arcs are read from the graph's cached `arc_arrays`, which
    are sorted by (receiver, sender).  A `WeightedDigraph` uses its own
    weight array, stored in that key order (no map reads weights elsewhere);
    an arc of any other graph weighs 1.  The arc-free graph yields the
    identity.  Builds one triple per arc in O(n + m) and allocates no
    n x n array.

    Stochastic by construction: each weight is 1 or, checked on its graph,
    positive and finite, so unless 1 + S_k overflows (the one check, a
    ValueError naming node k) it lies in [1, inf), the diagonal in (0, 1],
    each entry is finite and nonnegative, and a row with j senders sums to
    1 within (j + 2) eps, one j-term sum and j + 1 quotients to first order
    (Higham, Accuracy and Stability of Numerical Algorithms, section 4.2).
    """
    n = g.n
    src, dst = g.arc_arrays
    w = g._weights if isinstance(g, WeightedDigraph) else np.ones(src.size)
    denom = 1.0 + np.bincount(dst, w, minlength=n)
    k = int(np.argmax(denom))  # the first infinite 1 + S_k, if any
    if denom[k] == math.inf:
        raise ValueError(f"the arc weights into node {k + 1} sum past the largest float")
    A = w / denom[dst]
    nz = A > 0.0  # a subnormal weight can round to 0 beside a heavier one
    return StochasticMatrix._own(n, 1.0 / denom, dst[nz], src[nz], A[nz])


def linear_step(matrix: StochasticMatrix, state: AgentState) -> AgentState:
    """One linear averaging step x -> A x (applied per coordinate), for a
    matrix from `build_update_matrix`.

    Evaluated in increment form, x_k + sum_l A[k, l] (x_l - x_k), which is
    the same product because rows sum to 1.  This way common-point states
    are bit-exact fixed points and adding a constant shifts the output by
    exactly that constant, even when a float row sum is off by an ulp.

    The sum runs over k's senders l in ascending order, starting from 0.0,
    as one gather and one `np.bincount` scatter per coordinate over the
    matrix's off-diagonal triples: O(n + m) per step.
    """
    if matrix.n != state.n:
        raise ValueError(f"matrix is {matrix.n}x{matrix.n} but state has n={state.n}")
    pts = state.points
    rows, cols, w = matrix.rows, matrix.cols, matrix.weights
    acc = np.empty_like(pts)
    for j in range(pts.shape[1]):
        x = pts[:, j]
        acc[:, j] = np.bincount(rows, w * (x[cols] - x[rows]), minlength=matrix.n)
    return AgentState._own(pts + acc)


# ---------------------------------------------------------------------------
# Generated RK4 kernels, shared by the two flow-based maps
#
# A flow map's step is straight-line Python over float locals, in two
# generated parts: one RK4 kernel per (n, substeps), shared by every map in
# the process, and one field function per graph.  The source holds only
# integer indices, fixed tokens and repr(1 / substeps): a library gain is
# written as its fixed expression template, any other gain is bound in the
# namespace by reference.

#: Terms per statement in a generated sum: a left-nested sum of thousands of
#: terms would nest the parser that deep.
_SUM_CHUNK = 64


def _kernel(source: str, namespace: dict, name: str) -> Callable:
    """Compile generated `source` into `namespace` and return its function `name`."""
    exec(compile(source, f"<generated {name}>", "exec"), namespace)
    return namespace.pop(name)


@functools.lru_cache(maxsize=8)
def _rk4_kernel(n: int, substeps: int) -> Callable:
    """`rk4(field, y)`: the flow of `field` from the n floats `y` over one
    time unit in `substeps` classical RK4 steps, as a list.

    `field(x0, ..., x{n-1})` returns the n rates as a tuple.  The stage
    sums round as numpy's do on arrays: v + (0.5 h) d, v + h d and
    v + (h / 6) (((p + 2 q) + 2 r) + s), with h = 1 / substeps.

    A kernel is a pure function of (n, substeps) over an empty namespace,
    so every map instance in the process shares it.  The cache keeps the 8
    most recently used kernels.  A kernel holds up to about 1.2 kB per
    agent (2.4 MB at n = 2000, measured with `tracemalloc`), so the cache
    holds at most about 19 MB while all eight are at n = 2000.  Compiling
    one briefly takes about 15 times what it keeps: at 4 substeps a peak
    of 35 MB for 2.4 MB held at n = 2000, 3.5 MB for 0.14 MB at n = 200.
    """
    ks = range(n)

    def names(v: str) -> str:
        return ", ".join(f"{v}{k}" for k in ks)

    def stage(coef: str, d: str) -> str:
        return ", ".join(f"y{k} + {coef} * {d}{k}" for k in ks)

    lines = [
        "def rk4(field, y):",
        f"    {names('y')}, = y",
        f"    h = {1.0 / substeps!r}",
        "    a = 0.5 * h",
        "    c = h / 6.0",
        f"    for _ in range({substeps}):",
        f"        {names('p')}, = field({names('y')})",
        f"        {names('q')}, = field({stage('a', 'p')})",
        f"        {names('r')}, = field({stage('a', 'q')})",
        f"        {names('s')}, = field({stage('h', 'r')})",
        *(f"        y{k} = y{k} + c * (((p{k} + 2.0 * q{k}) + 2.0 * r{k}) + s{k})" for k in ks),
        f"    return [{names('y')}]",
    ]
    return _kernel("\n".join(lines) + "\n", {}, "rk4")


def _field_kernel(graph: DirectedGraph, term: Callable, namespace: dict, prelude=None) -> Callable:
    """`field(x0, ..., x{n-1})` for one graph: one walk over its `arc_arrays`
    in key order calls `term(i, k)` for each 0-based arc i -> k, and receiver
    k's rate is 0.0 plus its terms in that order.  The lines `prelude(i)`, if
    given, run first, one per agent on an arc in ascending order, and one
    return tuple holds every rate's sum.  A receiver with more than
    `_SUM_CHUNK` terms gets one statement `f{k} = ...` for each leading chunk
    of that many, and its last chunk stays in the tuple; the terms are added
    in the same order either way."""
    src, dst = (a.tolist() for a in graph.arc_arrays)
    lines = [f"def field({', '.join(f'x{k}' for k in range(graph.n))}):"]
    if prelude is not None:
        lines += [f"    {prelude(i)}" for i in sorted({*src, *dst})]
    rates = ["0.0"] * graph.n
    for k, arcs in itertools.groupby(zip(src, dst), key=lambda arc: arc[1]):
        ts = [term(i, k) for i, _ in arcs]
        for c in range(0, len(ts), _SUM_CHUNK):
            rates[k] += " + " + " + ".join(ts[c : c + _SUM_CHUNK])
            if c + _SUM_CHUNK < len(ts):
                lines.append(f"    f{k} = {rates[k]}")
                rates[k] = f"f{k}"
    lines.append(f"    return ({', '.join(rates)},)")
    return _kernel("\n".join(lines) + "\n", namespace, "field")


_GAIN_GRID = np.linspace(0.125, 4.0, 32)


def validate_gain(gain: GainFn, label: str = "gain") -> None:
    """Sample a gain for oddness and strict monotonicity; raise ValueError if it fails.

    Checks gamma(0) = 0 exactly (a state at rest stays put), gamma(-s) =
    -gamma(s) exactly on a grid (odd float operations, as in `math.tanh`,
    meet it bit for bit), and strict increase across the grid.  Smoothness
    is taken on trust.
    """
    g0 = float(gain(0.0))
    if not g0 == 0.0:
        raise ValueError(f"{label}: gamma(0) = {g0!r}, expected 0")
    pos = np.array([float(gain(s)) for s in _GAIN_GRID])
    neg = np.array([float(gain(-s)) for s in _GAIN_GRID])
    asym = np.abs(pos + neg)
    if np.any(asym > 0.0):
        s = _GAIN_GRID[int(np.argmax(asym))]
        raise ValueError(f"{label}: not odd, gamma({s}) + gamma({-s}) != 0")
    seq = np.concatenate([-pos[::-1], [g0], pos])
    if np.any(np.diff(seq) <= 0.0):
        raise ValueError(f"{label}: not strictly increasing on the sample grid")


#: The library gains, each with the template of its term in a generated
#: field: the same float operation as a call of the gain, without its frame.
_LIBRARY_TERMS: tuple[tuple[str, GainFn, str], ...] = (
    ("identity", lambda s: s, "({})"),
    ("cubic", lambda s: s**3, "({}) ** 3"),
    ("arctan", math.atan, "atan({})"),
)

GAIN_LIBRARY: dict[str, GainFn] = {name: fn for name, fn, _ in _LIBRARY_TERMS}

_HALF_PI = math.pi / 2.0


# ---------------------------------------------------------------------------
# Update maps: each class is the one definition of its map


class UpdateMap(ABC):
    """One synchronous update x(t+1) = step(t, G(t), x(t)).

    `step`, the one home of this contract, `_check`s its input, returns
    the input state object on an arc-free graph (an agent with no senders
    stays where it is) and on a state at rest, all agents at one point bit
    for bit, no coordinate -0.0 (no conforming map moves it), and otherwise
    returns the map's `_move`.  The run engine, `simulator.iter_spans`,
    relies on this to skip arc-free stretches and all steps after rest,
    and checks the initial state with `_check` when the stream is made, so
    a run that is never stepped still rejects a state the map does not
    accept.  A map that overrides `step` whole must keep the contract itself.
    """

    name: str = "update"
    supported_dims: tuple[int, ...] = (1,)
    #: Open coordinate interval the map is defined on, or None for all reals.
    domain: Optional[tuple[float, float]] = None

    def _check(self, graph: Optional[DirectedGraph], state: AgentState) -> None:
        """Validate the state's d and coordinates for this map and, unless
        `graph` is None, the graph's node count against the state's."""
        if state.d not in self.supported_dims:
            raise ValueError(f"{self.name} does not support d={state.d}")
        if self.domain is not None:
            lo, hi = self.domain
            outside = np.argwhere((state.points <= lo) | (state.points >= hi))
            if outside.size:
                k, j = outside[0].tolist()
                raise ValueError(
                    f"{self.name}: agent {k + 1} is at {float(state.points[k, j])!r}, "
                    f"outside the open interval ({lo!r}, {hi!r})"
                )
        if graph is not None and graph.n != state.n:
            raise ValueError(f"graph has n={graph.n} but state has n={state.n}")

    def step(self, t: int, graph, state: AgentState) -> AgentState:
        self._check(graph, state)
        if not graph._keys.size or state._at_rest():
            return state
        return self._move(graph, state)

    def _move(self, graph: DirectedGraph, state: AgentState) -> AgentState:
        """The map's fresh output on a checked graph with arcs and state not at rest."""
        raise NotImplementedError


class LinearAverage(UpdateMap):
    """Weighted averaging through the stochastic update matrix.

    Weighted graphs use their own weights; unweighted graphs get
    weight 1 on every arc.  Matrices are cached per graph under a
    weak key, shared by equal graphs and dropped with the graph they were
    built for, so a generator that returns equal graphs as fresh objects
    gets a matrix built for each, as it gets their views rebuilt.  An
    arc-free graph or a state at rest is an exact no-op.
    """

    name = "linear"
    supported_dims = (1, 2)

    def __init__(self):
        self._cache = weakref.WeakKeyDictionary()

    def matrix_for(self, graph) -> StochasticMatrix:
        M = self._cache.get(graph)
        if M is None:
            M = self._cache[graph] = build_update_matrix(graph)
        return M

    step = UpdateMap.step  # perfbench's tracer wraps each class's own `step`

    def _move(self, graph: DirectedGraph, state: AgentState) -> AgentState:
        return linear_step(self.matrix_for(graph), state)


class _FlowMap(UpdateMap):
    """Time-1 map of a coupled flow dx_k/dt = sum over senders i of a term,
    by `substeps` classical RK4 steps in generated straight-line code.

    The map compiles one field function per graph on first use and keeps
    each as `LinearAverage` keeps its matrices, under a weak key; its RK4
    kernel comes from `_rk4_kernel`, compiled once per (n, substeps) in the
    process and shared by every flow map.  A subclass's `_field` gives
    `_field_kernel` its term rules, and only that kernel walks the arcs.
    Compiling is O(n + m) for m arcs, like a step, with a larger constant:
    on a few agents a graph's field repays its compile within its first
    100-substep step, while a first step on thousands of agents mostly
    compiles.  A term that raises `OverflowError` (as `s**3` and
    `math.sinh` do past the largest float) fails the step as a non-finite
    state would.
    """

    def __init__(self, substeps: int = 100):
        self.substeps = _valid_count(substeps, 1, "substeps")
        self._fields = weakref.WeakKeyDictionary()

    @abstractmethod
    def _field(self, graph: DirectedGraph) -> Callable:
        """Compile `graph`'s field: `_field_kernel` with this map's rules."""

    def _move(self, graph: DirectedGraph, state: AgentState) -> AgentState:
        """The flow of `graph`'s field from `state` over one time unit."""
        field = self._fields.get(graph)
        if field is None:
            field = self._fields[graph] = self._field(graph)
        try:
            y = _rk4_kernel(graph.n, self.substeps)(field, state.values.tolist())
        except OverflowError:
            raise ValueError("state coordinates must be finite") from None
        return AgentState._own(np.array(y).reshape(-1, 1))


class KuramotoTime1(_FlowMap):
    """Time-1 map of coupled oscillators in chart coordinates.

    Integrates dx_k/dt = sum over senders i of
    (x_i - x_k) / (sqrt(1 + x_i^2) sqrt(1 + x_k^2)) over one time unit
    with `substeps` classical RK4 steps.  Coupling is unweighted; only the
    arc pattern of the graph matters.  The field has two one-line rules: a
    prelude r_i = 1 / sqrt(1 + x_i^2), computed once per agent on an arc,
    and the term (x_i - x_k) r_i r_k, each receiver's terms summed from 0.0
    in ascending sender order, all in Python floats: O(n + m) for m arcs.
    """

    name = "kuramoto"

    step = UpdateMap.step  # perfbench's tracer wraps each class's own `step`

    def _field(self, graph: DirectedGraph) -> Callable:
        return _field_kernel(
            graph,
            lambda i, k: f"(x{i} - x{k}) * r{i} * r{k}",
            {"sqrt": math.sqrt},
            lambda i: f"r{i} = 1.0 / sqrt(1.0 + x{i} * x{i})",
        )


class NonlinearConsensus(_FlowMap):
    """Time-1 map of dx_k/dt = sum over senders i of gamma_ik(x_i - x_k).

    Each arc (i, k) carries an odd, strictly increasing gain; a single
    callable is shared by all arcs.  Gains are validated once, at
    construction.  A mapping of per-arc gains must cover every arc of
    every graph the map is stepped with.  Integration is fixed-step RK4 in
    Python floats; a graph's field function sums each agent's terms from
    0.0 in ascending sender order.  The field's one rule is the arc's term:
    a library gain (the very object in `GAIN_LIBRARY`, matched with `is`)
    is written out as `(d)`, `(d) ** 3` or `atan(d)` for d = x_i - x_k,
    the float operation of a call without the call; any other gain is
    called by reference, as g0, g1, ... in the order the walk over the arcs
    first meets it.  A gain that raises `OverflowError` (as `s**3` and
    `math.sinh` do past the largest float) fails the step as a non-finite
    state would.
    """

    name = "nonlinear"

    def __init__(
        self,
        gains: Union[GainFn, Mapping[Arc, GainFn]] = GAIN_LIBRARY["identity"],
        substeps: int = 100,
    ):
        super().__init__(substeps)
        if callable(gains):
            validate_gain(gains)
        else:
            gains = dict(gains)
            for a, fn in sorted(gains.items()):
                validate_gain(fn, label=f"gain for arc {a}")
        self.gains = gains

    step = UpdateMap.step  # perfbench's tracer wraps each class's own `step`

    def _field(self, graph: DirectedGraph) -> Callable:
        gains = self.gains
        if not callable(gains) and (missing := graph.arcs.difference(gains)):
            raise ValueError(f"no gain supplied for arcs {sorted(missing)}")
        # one term template per distinct gain object, keyed by id: a gain is
        # matched to the library by identity, never by == or its hash
        templates = {id(lib): tpl for _, lib, tpl in _LIBRARY_TERMS}
        namespace: dict[str, Callable] = {"atan": math.atan}  # then g0, g1, ...

        def term(i: int, k: int) -> str:
            fn = gains if callable(gains) else gains[(i + 1, k + 1)]
            if id(fn) not in templates:
                name = f"g{len(namespace) - 1}"
                namespace[name], templates[id(fn)] = fn, name + "({})"
            return templates[id(fn)].format(f"x{i} - x{k}")

        return _field_kernel(graph, term, namespace)


class VicsekHeading(UpdateMap):
    """Heading update: each agent takes the angle of the summed unit vectors
    of itself and its senders.

    Headings must lie in the open interval (-pi/2, pi/2); inputs outside
    it are rejected rather than wrapped, and outputs use the principal
    arctangent branch so they stay in the same interval.  The angle is
    computed relative to each agent's own heading (the circular mean is
    rotation invariant), so a neighborhood at a common heading keeps that
    heading bit-exactly.  Each agent's sines and cosines are summed left
    to right, from its own 0.0 and 1.0 through its senders in ascending
    order, by `np.add.at` over the graph's `arc_arrays`, as `linear_step`
    sums; the angle is `math.atan2` of the two sums.
    """

    name = "vicsek"
    domain = (-_HALF_PI, _HALF_PI)

    def _move(self, graph: DirectedGraph, state: AgentState) -> AgentState:
        theta = state.values
        src, dst = graph.arc_arrays
        rel = theta[src] - theta[dst]
        y, x = np.zeros_like(theta), np.ones_like(theta)
        np.add.at(y, dst, np.sin(rel))
        np.add.at(x, dst, np.cos(rel))
        turn = np.array(list(map(math.atan2, y.tolist(), x.tolist())))
        return AgentState._own((theta + turn).reshape(-1, 1))


class MaxUpdate(UpdateMap):
    """Coordinate-wise maximum over each agent's closed in-neighborhood.

    A reference map that respects the communication pattern but sits on
    the boundary of the neighborhood hull instead of strictly inside it;
    useful as a negative example for the convexity checker.  Each maximum
    runs left to right, from the agent through its senders in ascending
    order, by `np.maximum.at` over the graph's `arc_arrays`, so of equal
    values (0.0 and -0.0) the last one wins.
    """

    name = "max"
    supported_dims = (1, 2)

    def _move(self, graph: DirectedGraph, state: AgentState) -> AgentState:
        out = state.points.copy()
        src, dst = graph.arc_arrays
        np.maximum.at(out, dst, state.points[src])
        return AgentState._own(out)


# ---------------------------------------------------------------------------
# Assumption checkers


def _checker_rules(update_map: UpdateMap) -> Optional[tuple[float, float]]:
    """The checkers' sampling box: the map's domain cut to (-10, 10), then
    shrunk by 1% of the cut's width at each end (None for all reals); a
    domain that misses (-10, 10) raises ValueError.  No map reads the
    time argument of `step`, so the checkers step at t = 0."""
    if update_map.domain is None:
        return None
    lo, hi = max(-10.0, update_map.domain[0]), min(10.0, update_map.domain[1])
    if not lo < hi:
        raise ValueError(f"empty sampling box ({lo}, {hi})")
    span = hi - lo
    return lo + 0.01 * span, hi - 0.01 * span


def _closed_neighborhoods(graph: DirectedGraph) -> list[list[int]]:
    """Each agent's closed in-neighborhood, 0-based: the agent, then its
    senders ascending."""
    return [[k, *graph._senders(k).tolist()] for k in range(graph.n)]


@dataclass(frozen=True)
class Violation:
    """A checker's witness: on draw `draw`, agent `agent` (1-based) gave
    `output`, for `reason`.  `neighborhood` holds the states of its closed
    in-neighborhood in that draw, the agent first, then its senders
    ascending.  A locality witness's output is the one after the states
    outside that neighborhood were redrawn, and its reason states the move
    and the baseline output exactly."""

    agent: int
    draw: int
    reason: str
    output: tuple[float, ...]
    neighborhood: tuple[tuple[float, ...], ...]


@dataclass(frozen=True)
class CheckReport:
    """A checker's verdict: every `Violation` of `draws` draws from `seed`."""

    map_name: str
    draws: int
    seed: int
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def _witness(k: int, draw: int, reason: str, out: np.ndarray, nb: np.ndarray) -> Violation:
    """Agent k's (0-based) `Violation` from its output row and neighborhood rows."""
    return Violation(k + 1, draw, reason, tuple(out.tolist()), tuple(map(tuple, nb.tolist())))


def check_communication_assumption(
    update_map: UpdateMap,
    graph,
    state: AgentState,
    trials: int = 20,
    seed: int = 0,
) -> CheckReport:
    """Probe whether each agent's update uses only its own and its senders' states.

    For every agent k, the states of all agents outside k's closed
    in-neighborhood are redrawn `trials` times, in the sampling box of
    `_checker_rules` (or, for a map on all reals, each moved by up to 1
    per coordinate); component k of the output must not move by a single
    bit.  That holds for the flow maps too: a generated field for agent k
    reads only k's senders, so an agent with no path to k never enters
    k's arithmetic.

    Note that time-1 maps of coupled flows genuinely fail this test on
    graphs with multi-hop paths: during the unit interval a sender's own
    motion relays information from further away.  The checker reports
    what the map actually does.
    """
    trials = _valid_count(trials, 1, "trials")
    seed = _valid_count(seed, 0, "seed")
    box = _checker_rules(update_map)
    baseline = update_map.step(0, graph, state).points
    rng = np.random.default_rng(seed)
    violations: list[Violation] = []
    for k, closed in enumerate(_closed_neighborhoods(graph)):
        outside = np.setdiff1d(np.arange(graph.n), closed)
        if not outside.size:
            continue
        for draw in range(trials):
            pts = state.points.copy()
            if box is None:
                pts[outside] += rng.uniform(-1.0, 1.0, size=(outside.size, state.d))
            else:
                pts[outside] = rng.uniform(*box, size=(outside.size, state.d))
            out = update_map.step(0, graph, AgentState(pts)).points[k]
            delta = float(np.max(np.abs(out - baseline[k])))
            if delta > 0.0:
                reason = f"output moved by {delta!r} from the baseline {baseline[k].tolist()!r}"
                violations.append(_witness(k, draw, reason, out, state.points[closed]))
    return CheckReport(update_map.name, trials, seed, tuple(violations))


def _strict_violation(out: np.ndarray, nb: np.ndarray) -> Optional[str]:
    """Why an agent's output `out` is not strictly inside the relative
    interior of the hull of its neighbors `nb`, or None, decided on the
    float values: a point neighborhood must be reproduced exactly, an
    interval or a segment needs each coordinate strictly between the ends'
    (or equal to both where they agree), and a polygon needs `_exact_cross`
    > 0 on every CCW edge.  No float point need lie on a segment, so the
    output may be off its line by the monitor's allowance, `_ROUNDING_ULPS`
    eps M, measured exactly on `_scaled` integers; an output on the line
    but outside the open box is at or beyond an endpoint."""
    if np.all(nb == nb[0]):
        delta = float(np.max(np.abs(out - nb[0])))
        return f"consensus neighborhood moved by {delta!r}" if delta > 0.0 else None
    h = hull(nb)
    if h.d == 1:
        x = float(out[0])
        if x <= h.lo:
            return f"output {x!r} not strictly above neighborhood min {h.lo!r}"
        if x >= h.hi:
            return f"output {x!r} not strictly below neighborhood max {h.hi!r}"
        return None
    if h.vertex_count == 2:
        lo, hi = h.vertices.min(axis=0), h.vertices.max(axis=0)
        flat = lo == hi
        # off the line: |e x (p - a)| / |e| > allowance, in exact arithmetic
        allow = _ROUNDING_ULPS * _EPS * h.magnitude
        ax, ay, bx, by, px, py, allow = _scaled(*h.vertices.ravel().tolist(), *out.tolist(), allow)
        ex, ey = bx - ax, by - ay
        cross = ex * (py - ay) - ey * (px - ax)
        off = cross * cross > allow * allow * (ex * ex + ey * ey)
        if off or np.any(flat & (out != lo)):
            return f"output {out.tolist()} off the segment spanned by the neighborhood"
        if not np.all(flat | ((lo < out) & (out < hi))):
            return f"output {out.tolist()} at or beyond a segment endpoint"
        return None
    p, ring = out.tolist(), h.vertices.tolist()
    for a, b in zip(ring, ring[1:] + ring[:1]):
        if not _exact_cross(a, b, p) > 0:
            return f"output {p} on or outside the neighborhood hull boundary at edge {a} to {b}"
    return None


def check_strict_convexity(
    update_map: UpdateMap,
    graph,
    samples: int = 100,
    seed: int = 0,
    d: int = 1,
) -> CheckReport:
    """Sample random states and test strict neighborhood-hull contraction.

    For each sampled state and each agent k, the updated position must lie
    strictly inside the relative interior of the convex hull of k's closed
    in-neighborhood, decided on the float values with no margin (see
    `_strict_violation`; only a segment, which no float point need lie on,
    allows rounding off its line).  If the neighborhood states all
    coincide the update must reproduce that value exactly.  States are
    sampled in the box of `_checker_rules`, or in (-10, 10)^d for a map on
    all reals; a d the map does not support fails the first `step`.
    """
    samples = _valid_count(samples, 1, "samples")
    seed = _valid_count(seed, 0, "seed")
    lo, hi = _checker_rules(update_map) or (-10.0, 10.0)
    rng = np.random.default_rng(seed)
    closed = _closed_neighborhoods(graph)
    violations: list[Violation] = []
    for draw in range(samples):
        pts = rng.uniform(lo, hi, size=(graph.n, d))
        out = update_map.step(0, graph, AgentState(pts)).points
        for k, idx in enumerate(closed):
            nb = pts[idx]
            reason = _strict_violation(out[k], nb)
            if reason is not None:
                violations.append(_witness(k, draw, reason, out[k], nb))
    return CheckReport(update_map.name, samples, seed, tuple(violations))
