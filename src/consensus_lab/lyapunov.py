"""Convex-hull disagreement monitoring.

The convex hull of the agent positions acts as a set-valued measure of
disagreement: conforming update maps can never enlarge it, and its
diameter shrinks to zero exactly when the group approaches consensus.
`AgentState`, the immutable snapshot of agent positions that every other
module passes around, lives here beside `_as_points`, which validates it,
so that each state can carry its own hull, computed at most once.
This module computes hulls in dimension 1 (intervals) and 2 (monotone-chain
polygons, prefiltered on large inputs) and measures points and hulls against
them, in the plane with one kernel and in a power-of-two frame at any scale.
`disagreement`, a state's hull diameter, is the measure that every run,
probe and report reads.
`monitor_stream` watches (time, state) pairs, such as the span starts of
`simulator.iter_spans`, recording diameter and containment per pair, and
`summarize` folds its records into a run's verdict.  A containment failure
is the smoking gun that an update map moved an agent outside the group's
previous span.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, NamedTuple, Optional

import numpy as np


_SHAPE_RULE = "expected (n,) or (n, d) points with n >= 1 and d in {1, 2}"


def _as_points(x) -> np.ndarray:
    """A raw array or nested list as a fresh, validated (n, d) float array."""
    try:
        pts = np.array(x, dtype=float)
    except ValueError as e:  # ragged rows at any depth, or a coordinate not a number
        if str(e).startswith("setting an array element with a sequence"):
            raise ValueError(f"{_SHAPE_RULE}, got rows of different lengths") from None
        raise
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    if not np.all(np.isfinite(pts)):
        raise ValueError("state coordinates must be finite")
    if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] not in (1, 2):
        raise ValueError(f"{_SHAPE_RULE}, got shape {pts.shape}")
    return pts


class AgentState:
    """Immutable snapshot of n agent positions in R^d, d in {1, 2}.

    Accepts a length-n sequence (d = 1) or an (n, d) array.  Coordinates
    must be finite.  The stored array is read-only, so the state's convex
    hull never changes: a scalar map output is born with it (`_own`), any
    other state gets it from `hull` on first use, and every later `hull`,
    `disagreement` or monitor record of the same state object reads it,
    and its kept diameter, from there.
    """

    __slots__ = ("points", "_hull")

    def __init__(self, points):
        arr = _as_points(points)
        arr.flags.writeable = False
        self.points = arr
        self._hull: Optional[HullPolytope] = None

    @classmethod
    def _own(cls, arr: np.ndarray) -> "AgentState":
        """Wrap an (n, d) float array that an update map has just made and
        no one else holds, without the copy and the shape checks of
        `AgentState(...)`; its coordinates are still checked finite.  A
        scalar state is born with its hull, whose ends are the array's min
        and max: these carry a NaN through and show an infinity, so checking
        them is the finiteness check.  A planar state is hulled on first use.
        """
        h = None
        if arr.shape[1] == 1:
            h = _hull_of(arr)
            if not -math.inf < h.lo <= h.hi < math.inf:
                raise ValueError("state coordinates must be finite")
        elif not np.isfinite(arr).all():
            raise ValueError("state coordinates must be finite")
        arr.flags.writeable = False
        st = cls.__new__(cls)
        st.points, st._hull = arr, h
        return st

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]

    @property
    def values(self) -> np.ndarray:
        """The scalar states as a flat array (d = 1 only)."""
        if self.d != 1:
            raise ValueError(f"values is for scalar states, this one has d={self.d}")
        return self.points[:, 0]

    def _at_rest(self) -> bool:
        """All agents at one point, bit for bit, with no -0.0 (which a step
        may turn into +0.0); the bits are read only if the hull is a point."""
        pts = self.points
        return hull(self).vertex_count == 1 and pts.tobytes() == (pts[0] + 0.0).tobytes() * self.n

    def __repr__(self) -> str:
        return f"AgentState({self.points.tolist()!r})"


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


# Directions of the prefilter's extreme points, counterclockwise from +x,
# the diagonals halved so that no projection of a finite point overflows.
_OCTAGON = 0.5 * np.array(
    [[2, 0], [1, 1], [0, 2], [-1, 1], [-2, 0], [-1, -1], [0, -2], [1, -1]], dtype=float
)

# Below this many points the prefilter's fixed numpy cost exceeds what it
# saves the chain, and fewer left uncertified end its passes (measured
# crossover: 48-56 points for uniform square, disk and Gaussian clouds; as
# the stop threshold, 48, 64 and 96 tie within noise at 200-10^4 points).
_PREFILTER_MIN_POINTS = 64

# Refinements of the prefilter's ring: each at most doubles it, so a pass
# tests at most 8 * 2**_PREFILTER_ROUNDS edges (see `_prefilter`).
_PREFILTER_ROUNDS = 3

_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)
_MAX = float(np.finfo(float).max)


def _prefilter(pts: np.ndarray, picks: np.ndarray) -> np.ndarray:
    """The rows of the (m, 2) points `pts`, in their frame (`_frame_shift`),
    not certified strictly inside a ring of input points, in input order.

    Akl & Toussaint's prefilter, refined quickhull-style.  The ring starts
    as the `picks`, the input rows extreme in the 8 `_OCTAGON` directions,
    in CCW order, without repeated consecutive points (a zero-length edge
    certifies nothing).  Each pass is one matrix product of the ring's edge
    rows with the points still uncertified, and certifies each point left
    of every edge by more than a rounding bound B.  The passes end when
    fewer than `_PREFILTER_MIN_POINTS` points are left, after
    `_PREFILTER_ROUNDS` refinements, or when the ring cannot grow; else the
    same product puts after every ring point o the point farthest right of
    the edge from o to its successor, if one lies right of it.

    Any closed ring of input points certifies: a point strictly left of
    every edge sees the ring's vertices at strictly increasing angles all
    the way round, which no point outside their convex hull does, so it
    lies in the open interior of the hull, whatever ring a later pass uses.

    The test evaluates n . q - t per edge as one matrix product, with
    e = a - o the rounded edge vector, n = (-ey, ex), q = p - c the point
    moved by the input point c of least x (so |q| <= W per coordinate, W
    the larger side of the bounding box), and t = n . q_o + B.  In units
    of eps W (|ex| + |ey|), rounding e costs at most 1/2, moving p and o
    1, n . q_o 1, adding B 1/2, and the three-term product 3, so the
    value is within 6 units of det - B, det = (a - o) x (p - o) exactly.
    With B = 12 units plus the smallest normal float (which covers
    products that underflow), a certified point has det > 6 units on every
    edge, so it is no vertex of the exact hull that the chain finds.  A
    grown point has a value below -2 B, so det < 6 units - B < 0: it lies
    strictly right of its edge.  A ring vertex, det = 0 on its own edges,
    is never certified.
    """
    xmax, _, ymax, _, xmin, _, ymin, _ = picks.tolist()
    span = max(pts.item(xmax, 0) - pts.item(xmin, 0), pts.item(ymax, 1) - pts.item(ymin, 1))
    # 4 W^2 bounds every term, and the frame keeps it finite; positive means
    # the points neither coincide nor lie too close for products of their
    # differences (in Python floats, which underflow silently, as the chain's do)
    if not 0.0 < 4.0 * span * span:
        return np.arange(pts.shape[0])
    q = np.empty((3, pts.shape[0]))  # columns (qx, qy, 1)
    np.subtract(pts.T, pts[xmin, :, None], out=q[:2])
    q[2] = 1.0
    ring, cut = _distinct(picks), 12.0 * _EPS * span
    live, q_live = np.arange(pts.shape[0]), q  # the points not yet certified
    for rounds_left in range(_PREFILTER_ROUNDS, -1, -1):
        rows, bound = _edge_rows(pts, q, ring, cut)
        s = rows @ q_live
        keep = np.flatnonzero(s.min(axis=0) <= 0.0)
        if not rounds_left or keep.shape[0] < _PREFILTER_MIN_POINTS:
            break
        far = s.argmin(axis=1)
        grow = s[np.arange(ring.shape[0]), far] < -2.0 * bound
        if not grow.any():  # the same ring would certify nothing more
            break
        grown = np.empty(2 * ring.shape[0], dtype=ring.dtype)
        grown[0::2] = ring
        grown[1::2] = np.where(grow, live[far], ring)
        ring = _distinct(grown)
        live, q_live = live[keep], q_live.take(keep, axis=1)
    return live[keep]


def _distinct(ring: np.ndarray) -> np.ndarray:
    """The cyclic ring without repeated consecutive points, whose
    zero-length edges would certify nothing."""
    return ring[ring != np.concatenate((ring[1:], ring[:1]))]


def _edge_rows(pts: np.ndarray, q: np.ndarray, ring: np.ndarray, cut: float):
    """Rows (n, -n . q_o - B), n = (-ey, ex), for the ring's edges (o, a)
    with e = a - o and B = cut (|ex| + |ey|) plus the smallest normal float,
    so that rows @ q is det (a - o) x (p - o) - B evaluated at every point;
    and B."""
    o = pts[ring]
    e = np.concatenate((o[1:], o[:1])) - o
    qo = q[:2, ring]
    bound = cut * np.abs(e).sum(axis=1) + _TINY
    rows = np.empty((ring.shape[0], 3))
    rows[:, 0] = -e[:, 1]
    rows[:, 1] = e[:, 0]
    rows[:, 2] = -(rows[:, 0] * qo[0] + rows[:, 1] * qo[1]) - bound
    return rows, bound


_FRAME_LO, _FRAME_HI = -400, 500


def _frame_shift(magnitude: float) -> int:
    """0 when the largest coordinate magnitude M lies in the frame, 2**-401
    <= M < 2**500, where products of coordinate differences (at most 8 M^2)
    stay below 2**1003 and those of differences down to 2**-100 M normal;
    else the s for which 2**s M lies in [2**499, 2**500).  Scaling by 2**s
    keeps orientation signs and scales lengths by 2**s wherever nothing
    over- or underflows; scaling down rounds only coordinates under
    2**-1022 in the frame, far below M's ulp, and scaling up is exact."""
    e = math.frexp(magnitude)[1]  # magnitude < 2**e
    return 0 if _FRAME_LO <= e <= _FRAME_HI else _FRAME_HI - e


def _scaled(*values: float) -> list[int]:
    """The floats `values`, each times the one power of two that makes
    them all integers.  A sign or a comparison of two homogeneous
    polynomials of equal degree in them is then decided exactly, as it
    would be on the floats' exact values."""
    ratios = [v.as_integer_ratio() for v in values]
    den = max([d for _, d in ratios])
    return [k * (den // d) for k, d in ratios]


def _exact_cross(o, a, b) -> int:
    """`_cross` without rounding, times a positive integer."""
    x = _scaled(*o, *a, *b)
    return (x[2] - x[0]) * (x[5] - x[1]) - (x[3] - x[1]) * (x[4] - x[0])


def _hull_vertices_2d(pts: np.ndarray, magnitude: float) -> list:
    """Counterclockwise extreme points of validated (m, 2) points in their
    frame (`_frame_shift`), whose largest coordinate magnitude is
    `magnitude`, as tuples, by the monotone chain.  Collinear
    boundary points are dropped, so the vertex list is minimal: one point for
    a coincident set, two for a collinear set, otherwise a strictly convex CCW
    polygon from the lexicographically smallest vertex.  Among equal points
    (0.0 equals -0.0) the first row is the vertex.

    The chain pops a unless det = (a - o) x (b - o) > 0.  `_cross` rounds
    the four differences (at most 2M, M the largest coordinate magnitude),
    the two products (at most 4 M^2) and their difference by at most eps/2
    relative each: to first order, by 2 eps 8 M^2 = 16 eps M^2 in all.  In
    the frame nothing overflows and an underflow costs at most 2**-1075 <<
    eps M^2, so `_exact_cross` decides only the turns within B = 17 eps M^2.
    """
    ordered = sorted(set(map(tuple, pts.tolist())))
    if len(ordered) == 1:
        return ordered
    bound = 17.0 * _EPS * magnitude**2
    verts: list = []
    for sweep in (ordered, ordered[::-1]):  # the lower hull, then the upper one
        chain: list = []
        for p in sweep:
            while len(chain) >= 2 and (c := _cross(chain[-2], chain[-1], p)) <= bound:
                if c >= -bound and _exact_cross(chain[-2], chain[-1], p) > 0:
                    break
                chain.pop()
            chain.append(p)
        verts += chain[:-1]
    return verts


_DIAMETER_BLOCK = 1 << 20


class HullPolytope:
    """Convex hull snapshot: an interval (d=1) or CCW polygon (d=2).

    `vertices` is an (m, d) read-only array; m = 1 encodes a single
    point, and for d = 2, m = 2 encodes a segment.  `magnitude`, the
    largest coordinate magnitude of the vertices, sets the hull's scale.
    An interval also holds its least and greatest vertex as the floats `lo`
    and `hi` (None when d = 2), which is all that `contains`, `diameter`
    and `point_distance` read of it; the hull of a scalar state is made
    from these two floats alone and builds its `vertices` on first access.

    The hull is made with its diameter, which it keeps in `_diameter`.

    `hull()` is the one constructor: `HullPolytope(...)` raises TypeError.
    """

    __slots__ = ("d", "vertex_count", "lo", "hi", "magnitude", "_vertices", "_diameter")

    @classmethod
    def _interval(cls, lo: float, hi: float) -> "HullPolytope":
        """The interval [lo, hi], lo <= hi, as a single point when lo == hi."""
        h = cls.__new__(cls)
        h.d, h._vertices = 1, None
        h.vertex_count = 1 if lo == hi else 2
        # equal endpoints are one float, so that hi - lo is +0.0 even for -0.0 and 0.0
        h.lo, h.hi = lo, (lo if lo == hi else hi)
        h.magnitude = max(-lo, hi)
        h._diameter = h.hi - h.lo
        return h

    @classmethod
    def _polygon(cls, v: np.ndarray, magnitude: float) -> "HullPolytope":
        """The planar hull on the (m, 2) vertices `v` that `_hull_of` picks,
        whose largest coordinate magnitude is `magnitude`, and its diameter:
        the largest `np.hypot` over all vertex pairs: one array of at most
        `_DIAMETER_BLOCK` entries below magnitude 2^1022, where no hypot of
        two differences can overflow, else blocks of rows of about as many."""
        h = cls.__new__(cls)
        v.flags.writeable = False
        m = v.shape[0]
        h.d, h.vertex_count, h.lo, h.hi, h._vertices = 2, m, None, None, v
        h.magnitude = magnitude
        x, y = v[:, 0], v[:, 1]
        if m * m <= _DIAMETER_BLOCK and magnitude < 2.0**1022:
            h._diameter = float(np.hypot(x[:, None] - x, y[:, None] - y).max())
            return h
        rows = max(1, _DIAMETER_BLOCK // m)
        with np.errstate(over="ignore"):
            h._diameter = max(
                float(np.hypot(x[i : i + rows, None] - x, y[i : i + rows, None] - y).max())
                for i in range(0, m, rows)
            )
        return h

    @property
    def vertices(self) -> np.ndarray:
        if self._vertices is None:
            v = np.array([[self.lo], [self.hi]][: self.vertex_count])
            v.flags.writeable = False
            self._vertices = v
        return self._vertices

    def __repr__(self) -> str:
        return f"HullPolytope(d={self.d}, vertices={self.vertices.tolist()!r})"


def hull(x) -> HullPolytope:
    """Convex hull of an agent state (or raw point array).

    An `AgentState` is hulled at most once: the hull is stored in the state
    on the first call and returned by every later one.  Raw arrays and
    lists are hulled afresh on every call, since their owner may edit them
    in place.
    """
    if isinstance(x, AgentState):
        if x._hull is None:
            x._hull = _hull_of(x.points)
        return x._hull
    return _hull_of(_as_points(x))


def _hull_of(pts: np.ndarray) -> HullPolytope:
    """The hull of validated (m, d) points.  A planar input is hulled once,
    in the frame (`_frame_shift`) of its largest coordinate magnitude, which
    the rows extreme in x and in y hold: they are among the `_OCTAGON` picks
    that the prefilter starts from.  That magnitude is also the chain's
    scale and the hull's `magnitude`, since the chain's exact turns keep a
    row with an extreme coordinate as a vertex.  Out of the frame the
    vertices map back to input rows, read only from the rows the prefilter
    kept: the first of those equal in the frame, as the chain keeps the
    first of equal rows."""
    if pts.shape[1] == 1:
        return HullPolytope._interval(float(pts.min()), float(pts.max()))
    picks = (_OCTAGON @ pts.T).argmax(axis=1)
    xmax, _, ymax, _, xmin, _, ymin, _ = picks.tolist()
    magnitude = max(pts.item(xmax, 0), pts.item(ymax, 1), -pts.item(xmin, 0), -pts.item(ymin, 1))
    shift = _frame_shift(magnitude)
    q = np.ldexp(pts, shift) if shift else pts
    if pts.shape[0] >= _PREFILTER_MIN_POINTS:
        rows = _prefilter(q, picks)
        pts, q = pts[rows], q[rows]
    v = _hull_vertices_2d(q, math.ldexp(magnitude, shift))
    if shift:
        first = dict(zip(map(tuple, q[::-1].tolist()), pts[::-1].tolist()))
        v = [first[u] for u in v]
    return HullPolytope._polygon(np.array(v), magnitude + 0.0)  # +0.0, never -0.0


def _framed(h: HullPolytope, pts: np.ndarray, magnitude: float):
    """The vertices of `h` and the (k, 2) `pts`, whose largest coordinate
    magnitude is `magnitude`, in the frame of the larger magnitude
    (`_frame_shift`), and its s: lengths there are 2**s times the true ones."""
    shift = _frame_shift(max(h.magnitude, magnitude))
    if shift:
        return np.ldexp(h.vertices, shift), np.ldexp(pts, shift), shift
    return h.vertices, pts, 0


def _edge_distances(a: np.ndarray, b: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """(k, m) distances from the (k, 2) `pts` to the points a + t (b - a)
    of the m segments from a[j] to b[j], t the foot point's parameter
    clamped to [0, 1] (0 on a zero-length segment).  Its stacked `@` dot
    products equal single ones."""
    ab = b - a
    denom = (ab[:, None, :] @ ab[:, :, None])[:, 0, 0]
    num = ((pts[:, None, :] - a)[:, :, None, :] @ ab[:, :, None])[..., 0, 0]
    t = np.zeros_like(num)
    np.divide(num, denom, out=t, where=denom != 0.0)
    q = a + np.clip(t, 0.0, 1.0)[..., None] * ab
    return np.hypot(pts[:, None, 0] - q[..., 0], pts[:, None, 1] - q[..., 1])


def _edge_crosses(v: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """(m, k) values of `_cross(v[i], v[i + 1], p)` for every edge of the
    polygon `v` and every one of the (k, 2) `pts`, in one numpy expression
    with the same roundings: positive left of the edge."""
    o, a = v[:, :, None], np.concatenate((v[1:], v[:1]))[:, :, None]
    x, y = pts[:, 0], pts[:, 1]
    return (a[:, 0] - o[:, 0]) * (y - o[:, 1]) - (a[:, 1] - o[:, 1]) * (x - o[:, 0])


def _planar_gap(h: HullPolytope, pts: np.ndarray, magnitude: float) -> float:
    """The largest distance from the (k, 2) `pts`, whose largest coordinate
    magnitude is `magnitude`, to the planar hull `h` (0 inside), measured in
    their frame: the one planar measurement.  A point or segment hull is the
    segment from its first to its last vertex; a polygon clears the points
    left of or on all its CCW edges and measures the others against each."""
    v, pts, shift = _framed(h, pts, magnitude)
    if v.shape[0] < 3:
        gap = _edge_distances(v[:1], v[-1:], pts).max()
    else:
        out = ~(_edge_crosses(v, pts) >= 0.0).all(axis=0)
        if not out.any():
            return 0.0
        gap = _edge_distances(v, np.concatenate((v[1:], v[:1])), pts[out]).min(axis=1).max()
    return math.ldexp(gap, -shift)


def point_distance(h: HullPolytope, point) -> float:
    """Euclidean distance from a point to the hull (0 inside).  The point
    must have the hull's dimension and finite coordinates."""
    p = np.asarray(point, dtype=float).reshape(-1)
    if p.shape[0] != h.d:
        raise ValueError(f"point has dimension {p.shape[0]}, hull has d={h.d}")
    if not np.isfinite(p).all():
        raise ValueError(f"point coordinates must be finite, got {p.tolist()}")
    if h.d == 1:
        return max(h.lo - float(p[0]), float(p[0]) - h.hi, 0.0)
    return _planar_gap(h, p[None, :], float(np.abs(p).max()))


def _check_distance(value: float, what: str) -> None:
    """The rule for a slack or a radius: nonnegative and finite."""
    if not 0.0 <= value < math.inf:
        raise ValueError(f"{what} must be nonnegative and finite, got {value}")


def contains(outer: HullPolytope, inner: HullPolytope, slack: float = 0.0) -> bool:
    """True when every vertex of `inner` is within `slack` of `outer`.

    For intervals this compares the endpoints, with the subtractions that
    `point_distance` makes.  In the plane it measures all inner vertices
    at once, as `point_distance` measures one.
    """
    if outer.d != inner.d:
        raise ValueError(f"dimension mismatch: outer d={outer.d}, inner d={inner.d}")
    _check_distance(slack, "slack")
    if outer.d == 1:
        return outer.lo - inner.lo <= slack and inner.hi - outer.hi <= slack
    return _planar_gap(outer, inner.vertices, inner.magnitude) <= slack


def diameter(h: HullPolytope) -> float:
    """Largest distance between two hull vertices (0 for a point), which
    the hull keeps from when it is made: an interval's `hi - lo`, a
    polygon's largest `np.hypot` over all vertex pairs (`_polygon`), where
    an overflow is a quiet `inf`.  So a caller who builds a large planar
    hull only to test containment pays that O(m^2) scan too.
    """
    return h._diameter


def disagreement(state) -> float:
    """Hull diameter of the agent positions: 0 exactly at consensus.

    An `AgentState` is hulled once, so this reads the hull that the state
    holds and that hull's diameter: it calls `hull` only for a state that
    holds none or a raw array.
    """
    h = state._hull if isinstance(state, AgentState) else None
    return (hull(state) if h is None else h)._diameter


class MonitorRecord(NamedTuple):
    """One monitored step: time, hull diameter (bit-identical to the
    state's `disagreement`), containment in the previous recorded hull,
    hull vertex count, and the state itself.  A named tuple, because a
    long run makes one per time step."""

    t: int
    diameter: float
    contained: bool
    vertex_count: int
    state: object


DEFAULT_SLACK = 1e-9

# Rounding allowance of the monitor's containment test, in units of eps * M,
# where M is the largest coordinate magnitude of the previous hull's vertices.  A
# conforming step at best stores the nearest float to a point of that hull:
# up to eps/2 * M per coordinate, sqrt(2)/2 in the plane.  `point_distance`
# then forms the foot point a + t (b - a) on an edge near the point: t
# carries 9 relative roundings and t (b - a) 2 more, on differences of at
# most 2M, and the sum rounds once at magnitude M: 23/2 per coordinate,
# 23 sqrt(2)/2 in the plane.  To first order in eps the total is under 17.
# `dynamics._strict_violation` reads the same allowance for an output on a
# segment neighborhood, which a float point need not lie on exactly.
_ROUNDING_ULPS = 17.0


def monitor_stream(
    items: Iterable[tuple[int, object]], slack: float = DEFAULT_SLACK
) -> Iterator[MonitorRecord]:
    """Walk (time, state) pairs, yielding a MonitorRecord per state.

    `contained` reports whether the current hull sits inside the
    previously *recorded* hull, within (slack + 17 eps) times that hull's
    largest coordinate magnitude M.  So `slack` is relative to the scale
    of the states, and 17 eps M is the rounding a conforming step can show
    at that scale: the verdict does not depend on the scale of the states.
    The first record is vacuously contained.
    Because hull shrinkage composes, the check remains meaningful when
    the stream samples a trajectory sparsely.  Records carry their state
    and its disagreement as `diameter`, so over the span starts of
    `iter_spans` it is a whole monitored run loop, and `summarize` its verdict.

    `slack` must be nonnegative and finite, and is checked when the stream
    is made.  A new `AgentState` is measured by the hull that it holds or
    that `hull` makes and keeps in it, and that hull's kept diameter; a
    diameter that overflows a float raises ValueError, since no verdict
    or report could use it (a map whose outputs leave the input's hull,
    as the coordinate-wise max does, can overflow it from a finite one).  A
    state that is the previous record's state object, and an immutable
    `AgentState`, gets the previous record's fields at the new time,
    contained, with no hull and no containment test: a hull contains
    itself.  Per-step expansions repeat a state.  Raw arrays and lists are
    always hulled afresh, since their caller may edit them.
    """
    _check_distance(slack, "slack")
    return _monitor(items, slack + _ROUNDING_ULPS * _EPS)


def _monitor(items, rel: float) -> Iterator[MonitorRecord]:
    prev: Optional[HullPolytope] = None  # the hull of the last record
    allow = 0.0  # its containment slack, rel times its magnitude
    nothing = object()
    same = nothing  # the last record's state when it is immutable
    for t, st in items:
        if st is same:
            # the last record's fields at the new time, made by tuple.__new__
            # and not by the named tuple's own __new__, which runs in Python
            rec = tuple.__new__(MonitorRecord, (int(t), rec.diameter, True, rec.vertex_count, st))
        else:
            h = hull(st)
            ok = prev is None or contains(prev, h, allow)
            rec = MonitorRecord(int(t), diameter(h), ok, h.vertex_count, st)
            if rec.diameter == math.inf:
                raise ValueError(f"state at time {rec.t}: its disagreement overflows a float")
            prev, allow = h, min(rel * h.magnitude, _MAX)
            same = st if isinstance(st, AgentState) else nothing
        yield rec


class RunSummary(NamedTuple):
    """A monitored run in brief: its last record, the first time its
    diameter fell below the tolerance (None if it never did), how many
    records were not contained in the previous hull, how many it folded
    (one per span on span starts), and `peak`, the largest diameter."""

    final: MonitorRecord
    consensus_time: Optional[int]
    violations: int
    records: int
    peak: float


def summarize(records: Iterable[MonitorRecord], tol: float) -> RunSummary:
    """Fold a nonempty stream of monitor records in one pass.

    `tol` must be positive and finite, a rule checked here alone;
    `consensus_time` is the first record time with `diameter < tol`, the
    time a per-step stream would report when the records are span starts.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    final: Optional[MonitorRecord] = None
    consensus_time: Optional[int] = None
    violations = count = 0
    peak = 0.0
    for count, final in enumerate(records, 1):
        if consensus_time is None and final.diameter < tol:
            consensus_time = final.t
        peak = max(peak, final.diameter)
        violations += not final.contained
    if final is None:
        raise ValueError("no records to summarize")
    return RunSummary(final, consensus_time, violations, count, peak)


def _through_consensus(records: Iterable[MonitorRecord], tol: float) -> Iterator[MonitorRecord]:
    """The records through the first one whose diameter is below tol."""
    for rec in records:
        yield rec
        if rec.diameter < tol:
            return
