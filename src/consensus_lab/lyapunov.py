"""Convex-hull disagreement monitoring.

The convex hull of the agent positions acts as a set-valued measure of
disagreement: conforming update maps can never enlarge it, and its
diameter shrinks to zero exactly when the group approaches consensus.
This module computes hulls in dimension 1 (intervals) and 2 (convex
polygons via the monotone chain), tests hull-in-hull containment with a
slack, and walks trajectories recording diameter and containment per
step.  A containment failure is the smoking gun that an update map moved
an agent outside the group's previous span.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

import numpy as np


def _as_points(x) -> np.ndarray:
    pts = getattr(x, "points", None)
    if pts is None:
        pts = np.asarray(x, dtype=float)
        if pts.ndim == 1:
            pts = pts.reshape(-1, 1)
        if not np.all(np.isfinite(pts)):
            raise ValueError("state coordinates must be finite")
    if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] not in (1, 2):
        raise ValueError(f"expected (n,) or (n, d) points with d in {{1, 2}}")
    return pts


def _cross(o, a, b) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def hull_vertices_2d(points: np.ndarray) -> np.ndarray:
    """Counterclockwise extreme points of a planar point set (monotone chain).

    Collinear boundary points are dropped, so the vertex list is minimal:
    one point for a coincident set, two for a collinear set, otherwise a
    simple CCW polygon.  Orientation tests use the sign of the double
    cross product directly.
    """
    pts = sorted(set(map(tuple, np.asarray(points, dtype=float))))
    if len(pts) == 1:
        return np.array(pts)
    lower: list = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0.0:
            lower.pop()
        lower.append(p)
    upper: list = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0.0:
            upper.pop()
        upper.append(p)
    return np.array(lower[:-1] + upper[:-1])


class HullPolytope:
    """Convex hull snapshot: an interval (d=1) or CCW polygon (d=2).

    `vertices` is an (m, d) read-only array; m = 1 encodes a single
    point, and for d = 2, m = 2 encodes a segment.
    """

    __slots__ = ("d", "vertices")

    def __init__(self, vertices: np.ndarray):
        arr = np.array(vertices, dtype=float)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] not in (1, 2):
            raise ValueError(f"vertices must be (m, d) with d in {{1, 2}}")
        arr.flags.writeable = False
        self.d = arr.shape[1]
        self.vertices = arr

    @property
    def vertex_count(self) -> int:
        return self.vertices.shape[0]

    def __repr__(self) -> str:
        return f"HullPolytope(d={self.d}, vertices={self.vertices.tolist()!r})"


def hull(x) -> HullPolytope:
    """Convex hull of an agent state (or raw point array)."""
    pts = _as_points(x)
    if pts.shape[1] == 1:
        lo, hi = float(pts.min()), float(pts.max())
        if lo == hi:
            return HullPolytope(np.array([[lo]]))
        return HullPolytope(np.array([[lo], [hi]]))
    return HullPolytope(hull_vertices_2d(pts))


def _segment_distance(a: np.ndarray, b: np.ndarray, p: np.ndarray) -> float:
    ab = b - a
    denom = float(ab @ ab)
    t = 0.0 if denom == 0.0 else min(1.0, max(0.0, float((p - a) @ ab) / denom))
    q = a + t * ab
    return float(np.hypot(p[0] - q[0], p[1] - q[1]))


def point_distance(h: HullPolytope, point) -> float:
    """Euclidean distance from a point to the hull (0 inside)."""
    p = np.asarray(point, dtype=float).reshape(-1)
    if p.shape[0] != h.d:
        raise ValueError(f"point has dimension {p.shape[0]}, hull has d={h.d}")
    v = h.vertices
    if h.d == 1:
        lo, hi = float(v[0, 0]), float(v[-1, 0])
        return max(lo - float(p[0]), float(p[0]) - hi, 0.0)
    m = v.shape[0]
    if m == 1:
        return float(np.hypot(p[0] - v[0, 0], p[1] - v[0, 1]))
    if m == 2:
        return _segment_distance(v[0], v[1], p)
    inside = all(
        _cross(v[i], v[(i + 1) % m], p) >= 0.0 for i in range(m)
    )  # CCW polygon: left of every edge
    if inside:
        return 0.0
    return min(_segment_distance(v[i], v[(i + 1) % m], p) for i in range(m))


def contains(outer: HullPolytope, inner: HullPolytope, slack: float = 0.0) -> bool:
    """True when every vertex of `inner` is within `slack` of `outer`."""
    if outer.d != inner.d:
        raise ValueError(f"dimension mismatch: outer d={outer.d}, inner d={inner.d}")
    if slack < 0.0:
        raise ValueError(f"slack must be nonnegative, got {slack}")
    return all(point_distance(outer, p) <= slack for p in inner.vertices)


def diameter(h: HullPolytope) -> float:
    """Largest distance between two hull vertices (0 for a point)."""
    v = h.vertices
    m = v.shape[0]
    if m == 1:
        return 0.0
    if h.d == 1:
        return float(v[-1, 0] - v[0, 0])
    best = 0.0
    for i in range(m):
        for j in range(i + 1, m):
            best = max(best, float(np.hypot(v[i, 0] - v[j, 0], v[i, 1] - v[j, 1])))
    return best


@dataclass(frozen=True)
class MonitorRecord:
    """One monitored step: time, hull diameter (bit-identical to the
    state's `disagreement`), containment in the previous recorded hull,
    hull vertex count, and the state itself."""

    t: int
    diameter: float
    contained: bool
    vertex_count: int
    state: object


DEFAULT_SLACK = 1e-9

# Rounding allowance of the containment test, in units of eps * M, where M is
# the largest coordinate magnitude of the previous hull's vertices.  A
# conforming step at best stores the nearest float to a point of that hull:
# up to eps/2 * M per coordinate, sqrt(2)/2 in the plane.  `point_distance`
# then forms the foot point a + t (b - a) on an edge near the point: t
# carries 9 relative roundings and t (b - a) 2 more, on differences of at
# most 2M, and the sum rounds once at magnitude M: 23/2 per coordinate,
# 23 sqrt(2)/2 in the plane.  To first order in eps the total is under 17.
_ROUNDING_ULPS = 17.0
_EPS = float(np.finfo(float).eps)


def monitor_stream(
    items: Iterable[tuple[int, object]], slack: float = DEFAULT_SLACK
) -> Iterator[MonitorRecord]:
    """Walk (time, state) pairs, yielding a MonitorRecord per state.

    `contained` reports whether the current hull sits inside the
    previously *recorded* hull, within `slack` plus the rounding a
    conforming step can show at that hull's scale (17 eps times its
    largest coordinate magnitude), so the verdict does not depend on the
    scale of the states.  The first record is vacuously contained.
    Because hull shrinkage composes, the check remains meaningful when
    the stream samples a trajectory sparsely.  Records carry their state
    and its disagreement as `diameter`, so `monitor_stream(iter_states(...))`
    is a whole monitored run loop.
    """
    prev: Optional[HullPolytope] = None
    for t, st in items:
        h = hull(st)
        ok = prev is None or contains(prev, h, slack)
        if not ok:  # only failing steps pay for the scale term
            scale = float(np.abs(prev.vertices).max())
            ok = contains(prev, h, slack + _ROUNDING_ULPS * _EPS * scale)
        yield MonitorRecord(int(t), diameter(h), ok, h.vertex_count, st)
        prev = h


def monitor_trajectory(traj, slack: float = DEFAULT_SLACK) -> list[MonitorRecord]:
    """Monitor every stored state of a trajectory (see monitor_stream)."""
    return list(monitor_stream(zip(traj.times, traj.states), slack))


def decrease_over_window(traj, t0: int, window: int) -> float:
    """Hull-diameter decrease from time t0 to t0 + window (positive = shrank).

    Both endpoints must be stored in the trajectory.
    """
    if window < 1:
        raise ValueError(f"window must be at least 1, got {window}")
    a = traj.state_at(t0)
    b = traj.state_at(t0 + window)
    return diameter(hull(a)) - diameter(hull(b))
