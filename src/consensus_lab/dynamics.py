"""Update matrices and one-step update maps.

The discrete-time system acts on n agents whose states are points in R^d
with d in {1, 2}.  Each time step is driven by the current communication
graph: agent k hears from its in-senders (nodes with an arc into k) and
moves to a convex combination of what it hears.  The linear map is given
by a stochastic matrix built from arc weights; the other maps here are
classical nonlinear examples (coupled oscillators in chart coordinates,
odd-gain consensus flows, heading averaging) plus a deliberately
non-contracting reference map (coordinate-wise max).  Each map is one
`UpdateMap` subclass, and its `step` is the only definition of the map.

Two runtime checkers probe the structural assumptions the convergence
theory rests on: that an agent's update depends only on its own state and
its in-senders' states, and that the update lands strictly inside the
convex hull of those states unless they all coincide.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Union

import numpy as np

from .graphs import Arc, DirectedGraph, WeightedDigraph
from .lyapunov import AgentState, _edge_depths, _segment_offsets, diameter, hull

GainFn = Callable[[float], float]


class StochasticMatrix:
    """Row-stochastic matrix with strictly positive diagonal, stored sparsely.

    Holds the diagonal `diag` and the nonzero off-diagonal entries as
    0-based triples (`rows[i]`, `cols[i]`, `weights[i]`) sorted by
    (row, col); all arrays are read-only.  Validation and storage cost
    O(n + m) for m off-diagonal nonzeros.  `entries` builds the dense
    n x n array on demand.
    """

    __slots__ = ("n", "diag", "rows", "cols", "weights")

    _ROW_SUM_TOL = 1e-12

    def __init__(self, entries):
        arr = np.array(entries, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
            raise ValueError(f"matrix must be square, got shape {arr.shape}")
        off = arr != 0.0
        np.fill_diagonal(off, False)
        rows, cols = np.nonzero(off)
        M = self._from_triples(arr.shape[0], arr.diagonal(), rows, cols, arr[rows, cols])
        for name in self.__slots__:
            setattr(self, name, getattr(M, name))

    @classmethod
    def _from_triples(cls, n, diag, rows, cols, weights) -> "StochasticMatrix":
        """Validate and wrap off-diagonal triples already sorted by (row, col)."""
        diag = np.array(diag, dtype=float)
        weights = np.array(weights, dtype=float)
        if not (np.all(np.isfinite(diag)) and np.all(np.isfinite(weights))):
            raise ValueError("matrix entries must be finite")
        if np.any(diag < 0.0) or np.any(weights < 0.0):
            raise ValueError("matrix entries must be nonnegative")
        rows = np.array(rows, dtype=np.intp)
        sums = diag + np.bincount(rows, weights, minlength=n)
        bad = np.nonzero(np.abs(sums - 1.0) > cls._ROW_SUM_TOL)[0]
        if bad.size:
            k = int(bad[0])
            raise ValueError(f"row {k + 1} sums to {sums[k]!r}, not 1")
        if np.any(diag <= 0.0):
            raise ValueError("diagonal entries must be strictly positive")
        M = cls.__new__(cls)
        M.n = int(n)
        M.diag, M.rows, M.cols, M.weights = diag, rows, np.array(cols, dtype=np.intp), weights
        for arr in (M.diag, M.rows, M.cols, M.weights):
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


def build_update_matrix(g: DirectedGraph, weight: float = 1.0) -> StochasticMatrix:
    """Stochastic update matrix of a weighted communication graph.

    Row k averages agent k's own state with its in-senders' states:

        A[k, k] = 1 / (1 + S_k),   A[k, i] = w_ik / (1 + S_k)  for senders i,

    where S_k is the total weight into k, summed over senders in ascending
    order: the arcs are read from the graph's cached `arc_arrays`, which
    are sorted by (receiver, sender).  A `WeightedDigraph` uses its own
    weights (no update map reads them anywhere else); any other graph
    gets `weight` (positive and finite, default 1) on every arc.  The
    arc-free graph yields the identity.  Builds one triple per arc in
    O(n + m) and allocates no n x n array.
    """
    if not (weight > 0.0 and math.isfinite(weight)):
        raise ValueError(f"arc weight must be positive and finite, got {weight}")
    n = g.n
    src, dst = g.arc_arrays
    if isinstance(g, WeightedDigraph):
        pairs = zip(src.tolist(), dst.tolist())
        w = np.fromiter((g.weights[(k + 1, l + 1)] for k, l in pairs), float, src.size)
    else:
        w = np.full(src.size, float(weight))
    denom = 1.0 + np.bincount(dst, w, minlength=n)
    A = w / denom[dst]
    nz = A > 0.0  # a subnormal weight can round to 0 beside a heavier one
    return StochasticMatrix._from_triples(n, 1.0 / denom, dst[nz], src[nz], A[nz])


def linear_step(matrix: StochasticMatrix, state: AgentState) -> AgentState:
    """One linear averaging step x -> A x (applied per coordinate).

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
# Fixed-step RK4, shared by the two flow-based maps


def _rk4(field: Callable[[list], list], x: np.ndarray, substeps: int) -> np.ndarray:
    """The flow from the flat array `x` over one time unit in `substeps` RK4
    steps, as an (n, 1) array.  The steps run in Python floats: on a few
    agents numpy's fixed cost per call would be most of a substep.  The
    stage sums round as numpy's do: v + (0.5 h) d, v + h d and
    v + (h / 6) (((p + 2 q) + 2 r) + s).  The maps validate `substeps`."""
    h = 1.0 / substeps
    a, c = 0.5 * h, h / 6.0
    y = x.tolist()
    for _ in range(substeps):
        k1 = field(y)
        k2 = field([v + a * d for v, d in zip(y, k1)])
        k3 = field([v + a * d for v, d in zip(y, k2)])
        k4 = field([v + h * d for v, d in zip(y, k3)])
        y = [v + c * (((p + 2.0 * q) + 2.0 * r) + s) for v, p, q, r, s in zip(y, k1, k2, k3, k4)]
    return np.array(y).reshape(-1, 1)


_GAIN_GRID = np.linspace(0.125, 4.0, 32)


def validate_gain(gain: GainFn, label: str = "gain") -> None:
    """Sample a gain for oddness and strict monotonicity; raise ValueError if it fails.

    Checks gamma(0) = 0 exactly (a state at rest stays put), gamma(-s) =
    -gamma(s) on a grid, and strict increase across the grid.  Smoothness
    is taken on trust.
    """
    g0 = float(gain(0.0))
    if not g0 == 0.0:
        raise ValueError(f"{label}: gamma(0) = {g0!r}, expected 0")
    pos = np.array([float(gain(s)) for s in _GAIN_GRID])
    neg = np.array([float(gain(-s)) for s in _GAIN_GRID])
    asym = np.abs(pos + neg)
    if np.any(asym > 1e-9 * np.maximum(1.0, np.abs(pos))):
        s = _GAIN_GRID[int(np.argmax(asym))]
        raise ValueError(f"{label}: not odd, gamma({s}) + gamma({-s}) != 0")
    seq = np.concatenate([-pos[::-1], [g0], pos])
    if np.any(np.diff(seq) <= 0.0):
        raise ValueError(f"{label}: not strictly increasing on the sample grid")


GAIN_LIBRARY: dict[str, GainFn] = {
    "identity": lambda s: s,
    "cubic": lambda s: s**3,
    "arctan": math.atan,
}

_HALF_PI = math.pi / 2.0


# ---------------------------------------------------------------------------
# Update maps: each class is the one definition of its map


class UpdateMap(ABC):
    """One synchronous update x(t+1) = step(t, G(t), x(t)).

    `step` returns its input state object on an arc-free graph (an agent
    with no senders stays where it is) and on a state at rest, all agents
    at one point bit for bit, no coordinate -0.0: no conforming map
    enlarges the hull, and each map's arithmetic keeps that point's bits.
    The run engine, `simulator.iter_spans`, relies on this to skip
    arc-free stretches and all steps after rest, and checks the initial
    state with `_check` when the stream is made, so a run that is never
    stepped still rejects a state the map does not accept.
    """

    name: str = "update"
    supported_dims: tuple[int, ...] = (1,)
    #: True when the map is produced by numerical integration, in which
    #: case equality-style checks allow a small tolerance instead of
    #: bit-identical agreement.
    integrator_backed: bool = False
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

    def _idle(self, graph: DirectedGraph, state: AgentState) -> bool:
        """`_check` the graph and state, then answer whether `step` returns
        its input: the graph is arc-free or the state is at rest."""
        self._check(graph, state)
        return not graph.arcs or state._at_rest()

    @abstractmethod
    def step(self, t: int, graph, state: AgentState) -> AgentState:
        raise NotImplementedError


class LinearAverage(UpdateMap):
    """Weighted averaging through the stochastic update matrix.

    Weighted graphs use their own weights; unweighted graphs get
    `default_weight` on every arc.  Matrices are cached per graph, and an
    arc-free graph or a state at rest is an exact no-op.
    """

    name = "linear"
    supported_dims = (1, 2)

    def __init__(self, default_weight: float = 1.0):
        if not (default_weight > 0.0 and math.isfinite(default_weight)):
            raise ValueError(f"default weight must be positive, got {default_weight}")
        self.default_weight = default_weight
        self._cache: dict = {}

    def matrix_for(self, graph) -> StochasticMatrix:
        M = self._cache.get(graph)
        if M is None:
            M = self._cache[graph] = build_update_matrix(graph, self.default_weight)
        return M

    def step(self, t: int, graph, state: AgentState) -> AgentState:
        if self._idle(graph, state):
            return state
        return linear_step(self.matrix_for(graph), state)


class KuramotoTime1(UpdateMap):
    """Time-1 map of coupled oscillators in chart coordinates.

    Integrates dx_k/dt = sum over senders i of
    (x_i - x_k) / (sqrt(1 + x_i^2) sqrt(1 + x_k^2)) over one time unit
    with `substeps` classical RK4 steps.  Coupling is unweighted; only the
    arc pattern of the graph matters.  Each field evaluation computes the
    n factors 1 / sqrt(1 + x_k^2) and then adds each arc's term to its
    receiver in the order of the graph's cached `arc_arrays`, sorted by
    (receiver, sender), all in Python floats: O(n + m) for m arcs.
    """

    name = "kuramoto"
    integrator_backed = True

    def __init__(self, substeps: int = 100):
        if substeps < 1:
            raise ValueError(f"substeps must be at least 1, got {substeps}")
        self.substeps = substeps

    def step(self, t: int, graph, state: AgentState) -> AgentState:
        if self._idle(graph, state):
            return state
        src, dst = graph.arc_arrays
        arcs = list(zip(src.tolist(), dst.tolist()))

        def field(x: list) -> list:
            r = [1.0 / math.sqrt(1.0 + v * v) for v in x]
            f = [0.0] * len(x)
            for i, k in arcs:
                f[k] += (x[i] - x[k]) * r[i] * r[k]
            return f

        return AgentState._own(_rk4(field, state.values, self.substeps))


class NonlinearConsensus(UpdateMap):
    """Time-1 map of dx_k/dt = sum over senders i of gamma_ik(x_i - x_k).

    Each arc (i, k) carries an odd, strictly increasing gain; a single
    callable is shared by all arcs.  Gains are validated once, at
    construction.  A mapping of per-arc gains must cover every arc of
    every graph the map is stepped with.  Integration is fixed-step RK4 in
    Python floats; the field sums each agent's terms in ascending sender
    order, reading the graph's cached `arc_arrays`.  A gain that raises
    `OverflowError` (as `s**3` and `math.sinh` do past the largest float)
    fails the step as a non-finite state would.
    """

    name = "nonlinear"
    integrator_backed = True

    def __init__(
        self,
        gains: Union[GainFn, Mapping[Arc, GainFn]] = GAIN_LIBRARY["identity"],
        substeps: int = 100,
    ):
        if substeps < 1:
            raise ValueError(f"substeps must be at least 1, got {substeps}")
        if callable(gains):
            validate_gain(gains)
        else:
            gains = dict(gains)
            for a, fn in sorted(gains.items()):
                validate_gain(fn, label=f"gain for arc {a}")
        self.gains = gains
        self.substeps = substeps

    def step(self, t: int, graph, state: AgentState) -> AgentState:
        if self._idle(graph, state):
            return state
        src, dst = graph.arc_arrays
        pairs = zip(src.tolist(), dst.tolist())
        if callable(self.gains):
            terms = [(i, k, self.gains) for i, k in pairs]
        else:
            missing = graph.arcs.difference(self.gains)
            if missing:
                raise ValueError(f"no gain supplied for arcs {sorted(missing)}")
            terms = [(i, k, self.gains[(i + 1, k + 1)]) for i, k in pairs]

        def field(x: list) -> list:
            f = [0.0] * len(x)
            for i, k, gamma in terms:
                f[k] += gamma(x[i] - x[k])
            return f

        try:
            y = _rk4(field, state.values, self.substeps)
        except OverflowError:
            raise ValueError("state coordinates must be finite") from None
        return AgentState._own(y)


class VicsekHeading(UpdateMap):
    """Heading update: each agent takes the angle of the summed unit vectors
    of itself and its senders.

    Headings must lie in the open interval (-pi/2, pi/2); inputs outside
    it are rejected rather than wrapped, and outputs use the principal
    arctangent branch so they stay in the same interval.  The angle is
    computed relative to each agent's own heading (the circular mean is
    rotation invariant), so a neighborhood at a common heading keeps that
    heading bit-exactly.  The sines and cosines are summed over the agent
    itself, then its senders in ascending order, read from the graph's
    cached in-adjacency.
    """

    name = "vicsek"
    domain = (-_HALF_PI, _HALF_PI)

    def step(self, t: int, graph, state: AgentState) -> AgentState:
        if self._idle(graph, state):
            return state
        theta = state.values
        out = np.empty_like(theta)
        ptr, src = graph._in_csr
        for k in range(graph.n):
            rel = theta[[k, *src[ptr[k] : ptr[k + 1]]]] - theta[k]
            out[k] = theta[k] + math.atan2(np.sin(rel).sum(), np.cos(rel).sum())
        return AgentState._own(out.reshape(-1, 1))


class MaxUpdate(UpdateMap):
    """Coordinate-wise maximum over each agent's closed in-neighborhood.

    A reference map that respects the communication pattern but sits on
    the boundary of the neighborhood hull instead of strictly inside it;
    useful as a negative example for the convexity checker.
    """

    name = "max"
    supported_dims = (1, 2)

    def step(self, t: int, graph, state: AgentState) -> AgentState:
        if self._idle(graph, state):
            return state
        out = np.empty_like(state.points)
        ptr, src = graph._in_csr
        for k in range(graph.n):
            out[k] = state.points[[k, *src[ptr[k] : ptr[k + 1]]]].max(axis=0)
        return AgentState._own(out)


# ---------------------------------------------------------------------------
# Assumption checkers


@dataclass(frozen=True)
class LocalityViolation:
    agent: int
    trial: int
    delta: float
    baseline: tuple[float, ...]
    perturbed: tuple[float, ...]


@dataclass(frozen=True)
class LocalityReport:
    map_name: str
    trials: int
    seed: int
    tol: float
    violations: tuple[LocalityViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def check_communication_assumption(
    update_map: UpdateMap,
    graph,
    state: AgentState,
    trials: int = 20,
    seed: int = 0,
    t: int = 0,
) -> LocalityReport:
    """Probe whether each agent's update uses only its own and its senders' states.

    For every agent k, the states of all agents outside k's closed
    in-neighborhood are randomized `trials` times; component k of the
    output must not move.  Deterministic algebraic maps are held to
    bit-identical agreement, integrator-backed maps to 1e-12.

    Note that time-1 maps of coupled flows genuinely fail this test on
    graphs with multi-hop paths: during the unit interval a sender's own
    motion relays information from further away.  The checker reports
    what the map actually does.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    tol = 1e-12 if update_map.integrator_backed else 0.0
    baseline = update_map.step(t, graph, state).points
    rng = np.random.default_rng(seed)
    if update_map.domain is not None:
        lo, hi = update_map.domain
        span = hi - lo
        lo, hi = lo + 0.01 * span, hi - 0.01 * span
    violations: list[LocalityViolation] = []
    for k in graph.nodes:
        closed = {k} | set(graph.in_sources(k))
        outside = [j - 1 for j in graph.nodes if j not in closed]
        if not outside:
            continue
        for trial in range(trials):
            pts = state.points.copy()
            if update_map.domain is not None:
                pts[outside] = rng.uniform(lo, hi, size=(len(outside), state.d))
            else:
                pts[outside] += rng.uniform(-1.0, 1.0, size=(len(outside), state.d))
            out = update_map.step(t, graph, AgentState(pts)).points
            delta = float(np.max(np.abs(out[k - 1] - baseline[k - 1])))
            if delta > tol:
                violations.append(
                    LocalityViolation(
                        agent=k,
                        trial=trial,
                        delta=delta,
                        baseline=tuple(map(float, baseline[k - 1])),
                        perturbed=tuple(map(float, out[k - 1])),
                    )
                )
    return LocalityReport(
        map_name=update_map.name,
        trials=trials,
        seed=seed,
        tol=tol,
        violations=tuple(violations),
    )


@dataclass(frozen=True)
class ConvexityViolation:
    agent: int
    sample: int
    reason: str
    output: tuple[float, ...]
    neighborhood: tuple[tuple[float, ...], ...]


@dataclass(frozen=True)
class ConvexityReport:
    map_name: str
    samples: int
    seed: int
    violations: tuple[ConvexityViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


_STRICT_MARGIN = 1e-9


def _strict_violation(out: np.ndarray, nb: np.ndarray, eq_tol: float) -> Optional[str]:
    """Why an agent's output is not strictly inside the hull of its neighbors
    `nb` by the margin (for coincident ones: within `eq_tol`), or None."""
    if np.all(nb == nb[0]):
        delta = float(np.max(np.abs(out - nb[0])))
        return f"consensus neighborhood moved by {delta!r}" if delta > eq_tol else None
    h = hull(nb)
    eps = _STRICT_MARGIN * diameter(h)
    if h.d == 1:
        x = float(out[0])
        if x <= h.lo + eps:
            return f"output {x!r} not strictly above neighborhood min {h.lo!r}"
        if x >= h.hi - eps:
            return f"output {x!r} not strictly below neighborhood max {h.hi!r}"
        return None
    if h.vertex_count == 2:
        # relative interior of a segment
        perp, from_a, from_b = _segment_offsets(h, out)
        if perp > eps:
            return f"output {out.tolist()} off the segment spanned by the neighborhood"
        if from_a <= eps or from_b <= eps:
            return f"output {out.tolist()} at or beyond a segment endpoint"
        return None
    # inward depth > eps at every edge of the polygon
    for depth in _edge_depths(h, out).tolist():
        if depth <= eps:
            return (
                f"output {out.tolist()} within {eps!r} of the neighborhood hull "
                f"boundary (edge depth {depth!r})"
            )
    return None


def check_strict_convexity(
    update_map: UpdateMap,
    graph,
    samples: int = 100,
    seed: int = 0,
    d: int = 1,
    box: tuple[float, float] = (-10.0, 10.0),
    t: int = 0,
) -> ConvexityReport:
    """Sample random states and test strict neighborhood-hull contraction.

    For each sampled state and each agent k, the updated position must lie
    strictly inside the relative interior of the convex hull of k's closed
    in-neighborhood (within a margin of 1e-9 of the neighborhood diameter,
    so honest strict interiority is not flagged over rounding).  If the
    neighborhood states all coincide the update must reproduce that value
    exactly (1e-12 for integrator-backed maps).
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    if d not in update_map.supported_dims:
        raise ValueError(f"{update_map.name} does not support d={d}")
    lo, hi = float(box[0]), float(box[1])
    if update_map.domain is not None:
        dlo, dhi = update_map.domain
        span = dhi - dlo
        lo, hi = max(lo, dlo + 0.01 * span), min(hi, dhi - 0.01 * span)
    if not lo < hi:
        raise ValueError(f"empty sampling box ({lo}, {hi})")
    eq_tol = 1e-12 if update_map.integrator_backed else 0.0
    rng = np.random.default_rng(seed)
    ptr, src = graph._in_csr
    closed_idx = {k: [k - 1, *src[ptr[k - 1] : ptr[k]]] for k in graph.nodes}
    violations: list[ConvexityViolation] = []
    for s in range(samples):
        pts = rng.uniform(lo, hi, size=(graph.n, d))
        out = update_map.step(t, graph, AgentState(pts)).points
        for k in graph.nodes:
            nb = pts[closed_idx[k]]
            reason = _strict_violation(out[k - 1], nb, eq_tol)
            if reason is not None:
                violations.append(
                    ConvexityViolation(
                        agent=k,
                        sample=s,
                        reason=reason,
                        output=tuple(map(float, out[k - 1])),
                        neighborhood=tuple(tuple(map(float, row)) for row in nb),
                    )
                )
    return ConvexityReport(
        map_name=update_map.name,
        samples=samples,
        seed=seed,
        violations=tuple(violations),
    )
