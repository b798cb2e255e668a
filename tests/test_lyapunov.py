"""Hull computation, containment, and streamed run monitoring."""

import math
import warnings
from fractions import Fraction
from operator import attrgetter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from consensus_lab import dynamics, lyapunov
from consensus_lab import (
    AgentState,
    DirectedGraph,
    FiniteSchedule,
    HullPolytope,
    LinearAverage,
    MaxUpdate,
    PeriodicSchedule,
    WeightedDigraph,
    contains,
    diameter,
    disagreement,
    hull,
    monitor_stream,
    parse_graph_text,
    point_distance,
    random_windowed_schedule,
    summarize,
)
from consensus_lab.simulator import iter_spans, iter_states

UNIT_SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


# ---------------------------------------------------------------------------
# Hull vertices


def test_unit_square_with_interior_and_edge_points():
    pts = np.vstack([UNIT_SQUARE, [[0.5, 0.5], [0.5, 0.0], [0.25, 0.25]]])
    verts = hull(pts).vertices
    assert sorted(map(tuple, verts)) == sorted(map(tuple, UNIT_SQUARE))


def test_hull_vertices_are_counterclockwise():
    verts = hull(UNIT_SQUARE).vertices
    area2 = 0.0
    m = len(verts)
    for i in range(m):
        x0, y0 = verts[i]
        x1, y1 = verts[(i + 1) % m]
        area2 += x0 * y1 - x1 * y0
    assert area2 > 0.0  # positive signed area = CCW


def test_degenerate_hulls():
    assert hull(np.array([[2.0, 3.0], [2.0, 3.0]])).vertices.shape == (1, 2)
    collinear = np.array([[0.0, 0.0], [2.0, 2.0], [1.0, 1.0]])
    seg = hull(collinear).vertices
    assert sorted(map(tuple, seg)) == [(0.0, 0.0), (2.0, 2.0)]


@pytest.mark.parametrize("bad,message", [
    (np.array([[0.0, 0.0], [1.0, 1.0], [np.nan, 1.0]]), "must be finite"),
    (np.zeros((3, 3)), r"got shape \(3, 3\)"),
    (np.zeros((0, 2)), r"got shape \(0, 2\)"),
], ids=["nan", "3-columns", "empty"])
def test_hull_rejects_bad_input(bad, message):
    with pytest.raises(ValueError, match=message):
        hull(bad)


@pytest.mark.parametrize("points", [
    np.array([1.0, 2.0, 3.0]), np.array([[1.0], [3.0], [2.0]]),
], ids=["1-d", "1-column"])
def test_hull_of_one_column_is_an_interval(points):
    h = hull(points)
    assert (h.d, h.lo, h.hi) == (1, 1.0, 3.0)


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _reference_hull(points):
    """The unfiltered monotone chain over np.float64 tuples, every turn
    decided exactly: on the points as `Fraction`s, scaled to integers by
    their common denominator, so no turn rounds."""
    pts = sorted(set(map(tuple, np.asarray(points, dtype=float))))
    if len(pts) == 1:
        return np.array(pts)
    exact = [(Fraction(float(x)), Fraction(float(y))) for x, y in pts]
    den = math.lcm(*(c.denominator for p in exact for c in p))
    ints = [(int(x * den), int(y * den)) for x, y in exact]
    back = dict(zip(ints, pts))
    lower: list = []
    for p in ints:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list = []
    for p in reversed(ints):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return np.array([back[p] for p in lower[:-1] + upper[:-1]])


def _near_pick_edges(rng, offset, scale, ulps):
    """A cloud plus points on the edges of its extreme-point polygon, moved
    a few ulps: the points the prefilter's rounding bound must keep."""
    cloud = offset + scale * rng.uniform(-1.0, 1.0, (60, 2))
    picks = [int(np.argmax(cloud @ u)) for u in ([1, 0], [1, 1], [0, 1], [-1, 1],
                                                [-1, 0], [-1, -1], [0, -1], [1, -1])]
    o = cloud[picks]
    e = np.roll(o, -1, axis=0) - o
    i = rng.integers(0, 8, 300)
    on_edge = o[i] + rng.uniform(0.02, 0.98, (300, 1)) * e[i]
    steps = rng.integers(-ulps, ulps + 1, on_edge.shape)
    return np.vstack([cloud, on_edge + steps * np.spacing(np.abs(on_edge))])


# Four points within rounding of the line through the first two, and one
# above it.  The third lies 1.8e-15 below that line, so it is a vertex; the
# fourth lies 5e-16 above it, inside the hull, so it is no vertex of the
# exact hull, though a chain on float turns, which judges it against the
# third point, keeps it.
_SUB_ULP_INSIDE = np.array([
    [55.084523180666224, 0.1864195255723189],
    [1929.4473009803028, 12.225814575295999],
    [389.24523300751696, 2.3327984674462865],
    [1608.967281994, 10.167309359646922],
    [1938.208111009544, 280.03210858688004],
])


def _hull_corpus():
    rng = np.random.default_rng(2024)
    for n in (3, 12, 39, 40, 41, 100, 1000, 5000):
        yield f"uniform-{n}", rng.uniform(-1.0, 1.0, (n, 2))
    for n in (50, 400):
        yield f"grid-{n}", rng.integers(-3, 4, (n, 2)).astype(float)
    t = rng.uniform(-1.0, 1.0, (300, 1))
    yield "collinear", np.hstack([t, 3.0 * t - 0.5])
    yield "axis-collinear", np.hstack([t, np.full_like(t, 2.0)])
    yield "coincident", np.ones((60, 2))
    yield "coincident-filtered", np.ones((2 * lyapunov._PREFILTER_MIN_POINTS, 2))
    for scale in (1e-12, 1e-6, 1.0, 1e6, 1e12):
        yield f"scale-{scale:g}", scale * rng.normal(size=(500, 2))
    for n in (60, 2000):
        a = rng.uniform(0.0, 2 * np.pi, n)
        r = rng.uniform(0.99, 1.0, (n, 1))
        yield f"ring-offset-{n}", 1e9 + r * np.c_[np.cos(a), np.sin(a)]
    for k in (1, 3):
        cluster = 1.0 + 1e-9 * rng.normal(size=(800, 2))
        yield f"cluster-outliers-{k}", np.vstack([cluster, rng.uniform(-1e3, 1e3, (k, 2))])
    for seed, (offset, scale, ulps) in enumerate(
        [(0.0, 1.0, 1), (0.0, 1.0, 4), (1e3, 1e3, 2), (1.0, 1e-3, 3), (-5e6, 1e2, 1)]
    ):
        yield f"pick-edges-{seed}", _near_pick_edges(
            np.random.default_rng(seed), offset, scale, ulps
        )
    # padded with an interior point up to the prefilter's size
    pad = lyapunov._PREFILTER_MIN_POINTS - len(_SUB_ULP_INSIDE)
    yield "sub-ulp-inside-edge", np.vstack(
        [_SUB_ULP_INSIDE, np.repeat([[1184.19, 60.99]], pad, axis=0)]
    )
    # uniform clouds around 96 points and around the prefilter's size
    rng = np.random.default_rng(7)
    size = lyapunov._PREFILTER_MIN_POINTS
    for n in (95, 96, 97, size - 1, size, size + 1):
        yield f"uniform-{n}", rng.uniform(-1.0, 1.0, (n, 2))


_HULL_CORPUS = dict(_hull_corpus())


@pytest.mark.parametrize("name", list(_HULL_CORPUS))
def test_hull_vertices_match_unfiltered_chain(name):
    points = _HULL_CORPUS[name]
    assert np.array_equal(hull(points).vertices, _reference_hull(points))


def _octagon_picks(points):
    """The rows extreme in the 8 directions the prefilter's ring starts from."""
    return (lyapunov._OCTAGON @ points.T).argmax(axis=1)


def test_prefilter_skips_repeated_picks():
    # A right triangle with its corners first: several of the 8 directions
    # pick the same corner.  Dropping the zero-length edges between them
    # leaves a triangle that still certifies the interior.
    rng = np.random.default_rng(3)
    u = rng.uniform(0.0, 1.0, (1000, 2))
    inside = u[u.sum(axis=1) < 1.0]
    pts = np.vstack([[[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]], inside])
    assert len(lyapunov._prefilter(pts, _octagon_picks(pts))) < len(pts) // 10


def _prefilter_passes(monkeypatch, points) -> list:
    """The ring of each pass the prefilter makes over `points`, as points."""
    rings = []
    edge_rows = lyapunov._edge_rows

    def counted(pts, q, ring, cut):
        rings.append(pts[ring])
        return edge_rows(pts, q, ring, cut)

    with monkeypatch.context() as m:
        m.setattr(lyapunov, "_edge_rows", counted)
        lyapunov._prefilter(points, _octagon_picks(points))
    return rings


def _disk(rng, m):
    """m points uniform in the unit disk."""
    angle, radius = rng.uniform(0.0, 2 * np.pi, m), np.sqrt(rng.uniform(0.0, 1.0, m))
    return np.c_[radius * np.cos(angle), radius * np.sin(angle)]


def test_prefilter_passes_stop_once_few_points_are_left(monkeypatch):
    rng = np.random.default_rng(36)
    disk, t = _disk(rng, 1000), rng.uniform(-1.0, 1.0, 1000)
    # the octagon leaves a few dozen of a Gaussian's points uncertified, and
    # about a tenth (1 - 2 sqrt(2) / pi) of a disk's
    assert len(_prefilter_passes(monkeypatch, rng.normal(size=(1000, 2)))) == 1
    assert len(_prefilter_passes(monkeypatch, _HULL_CORPUS["cluster-outliers-3"])) == 1
    assert len(_prefilter_passes(monkeypatch, disk)) == 2
    # each ring point is extreme in some direction, so it is a hull vertex,
    # on later passes too, which read only the points still uncertified
    big_disk = _disk(rng, 10**4)
    rings = _prefilter_passes(monkeypatch, big_disk)
    vertices = set(map(tuple, _reference_hull(big_disk).tolist()))
    assert len(rings) == 4 and {tuple(p) for r in rings for p in r.tolist()} <= vertices
    # slivers refine: the first ring of a near-collinear cloud has two points
    near_collinear = np.c_[t, 0.5 * t + 1e-12 * rng.normal(size=1000)]
    assert len(_prefilter_passes(monkeypatch, near_collinear)[0]) == 2
    assert len(_prefilter_passes(monkeypatch, near_collinear)) > 1
    assert len(_prefilter_passes(monkeypatch, _HULL_CORPUS["cluster-outliers-1"])) > 1
    # a ring that cannot grow ends the passes: no grid point lies outside it
    assert len(_prefilter_passes(monkeypatch, _HULL_CORPUS["grid-400"])) == 1
    for name, points in _HULL_CORPUS.items():
        assert len(_prefilter_passes(monkeypatch, points)) <= lyapunov._PREFILTER_ROUNDS + 1, name


def _sliver(kind, n, seed, size):
    """n points of a thin rotated segment of width `size`, a tight cluster of
    radius `size` with 1-3 far outliers, or two far clusters of that radius."""
    rng = np.random.default_rng(seed)
    if kind == "segment":
        a = rng.uniform(0.0, np.pi)
        t, w = rng.uniform(-1.0, 1.0, n), size * rng.uniform(-1.0, 1.0, n)
        return np.c_[t * np.cos(a) - w * np.sin(a), t * np.sin(a) + w * np.cos(a)]
    if kind == "outliers":
        k = int(rng.integers(1, 4))
        cluster = rng.uniform(-5.0, 5.0, 2) + size * rng.normal(size=(n - k, 2))
        return np.vstack([cluster, rng.uniform(-1e3, 1e3, (k, 2))])
    centers = rng.uniform(-1e3, 1e3, (2, 2))
    return centers[rng.integers(0, 2, n)] + size * rng.normal(size=(n, 2))


@given(
    st.sampled_from(["segment", "outliers", "two-clusters"]),
    st.integers(96, 1500),
    st.integers(0, 2**32 - 1),
    st.integers(-15, -2),
)
@settings(max_examples=60, deadline=None)
def test_prefiltered_slivers_keep_the_unfiltered_vertices(kind, n, seed, exponent):
    points = _sliver(kind, n, seed, 10.0**exponent)
    assert np.array_equal(hull(points).vertices, _reference_hull(points))


# Eleven agents whose float turns keep (-1.9999999999999996,
# -0.9999999999999998), a point that is no vertex of the exact hull, so the
# hull's tiny edge there pointed the wrong way and cut off its interior.
_ELEVEN = np.array([
    [2.000000000000001, 2.000000000000001], [2.000000000000001, -2.0],
    [1.9999999999999991, 1.0000000000000004], [1.0, 1.9999999999999996],
    [2.0000000000000004, -0.9999999999999998], [-1.9999999999999998, -0.9999999999999999],
    [8.881784197001252e-16, -1.0000000000000004], [0.9999999999999996, 1.0],
    [2.0, -0.9999999999999999], [2.0, 1.9999999999999998],
    [-1.9999999999999996, -0.9999999999999998],
])


def test_exact_turns_keep_no_point_that_is_not_a_vertex():
    # 0.01 s
    h = hull(_ELEVEN)
    assert h.vertices.tolist() == [
        [-1.9999999999999998, -0.9999999999999999], [2.000000000000001, -2.0],
        [2.000000000000001, 2.000000000000001], [1.0, 1.9999999999999996],
    ]
    assert point_distance(h, (1.0, 1.0)) == 0.0
    assert point_distance(h, (1.5, 1.0)) == 0.0
    assert dynamics._strict_violation(np.array([1.0, 1.0]), _ELEVEN) is None
    g = parse_graph_text("n=11\narc 2 3\narc 8 4\narc 10 3\narc 11 3\n")
    spans = iter_spans(PeriodicSchedule([g]), LinearAverage(), AgentState(_ELEVEN), 3)
    run = summarize(monitor_stream((t, x) for t, _, x in spans), 1e-6)
    assert run.violations == 0


def test_exact_turns_keep_the_point_extreme_in_y():
    # 0.001 s; float turns popped (0, 1), since 1.75 - 2**-53 rounds to 1.75
    h = hull([[0.0, 1.0], [0.0, 1.0 - 2.0**-53], [0.5, -0.75]])
    assert h.vertex_count == 3 and h.magnitude == 1.0
    assert point_distance(h, (0.0, 1.0)) == 0.0


def _near_degenerate_cloud(rng, kind):
    """Points that float turns get wrong, scaled by a power of two: grid
    points moved by a few ulps, points rounded onto a line and moved by a
    few ulps, or a point with its `nextafter` neighbours and a few far ones."""
    if kind == "grid":
        pts = rng.integers(-1, 2, (int(rng.integers(3, 12)), 2)).astype(float)
    elif kind == "collinear":
        a, b = rng.uniform(-1.0, 1.0, (2, 2))
        pts = a + rng.uniform(-1.0, 1.0, (int(rng.integers(3, 40)), 1)) * (b - a)
    else:
        p, far = rng.uniform(-1.0, 1.0, 2), rng.uniform(-1.0, 1.0, (int(rng.integers(0, 3)), 2))
        steps = [np.nextafter(p, p + s) for s in ([1, 1], [1, -1], [-1, 1], [-1, -1])]
        pts = np.vstack([[p], steps, [[steps[0][0], p[1]], [p[0], steps[3][1]]], far])
    pts = np.ldexp(pts, int(rng.integers(-20, 21)))
    ulps = rng.integers(-2, 3, pts.shape) * (kind != "neighbours")
    return pts + ulps * np.spacing(pts)


@pytest.mark.parametrize("kind", ["grid", "collinear", "neighbours"])
def test_hulls_of_near_degenerate_clouds_are_exactly_convex(kind):
    # 0.1-0.2 s each: every vertex triple turns strictly left in rationals,
    # and every input point lies within 17 eps M of its own hull
    rng = np.random.default_rng(["grid", "collinear", "neighbours"].index(kind))
    for _ in range(300):
        pts = _near_degenerate_cloud(rng, kind)
        h = hull(pts)
        v = [(Fraction(x), Fraction(y)) for x, y in h.vertices.tolist()]
        if len(v) >= 3:
            assert all(_cross(v[i - 2], v[i - 1], v[i]) > 0 for i in range(len(v))), pts
        magnitude = float(np.abs(pts).max())
        assert lyapunov._planar_gap(h, pts, magnitude) <= 17.0 * lyapunov._EPS * magnitude, pts


@given(
    st.lists(
        st.tuples(st.integers(-5, 5), st.integers(-5, 5)), min_size=1, max_size=30
    )
)
@settings(max_examples=150)
def test_hull_contains_all_generating_points(pts):
    arr = np.array(pts, dtype=float)
    h = hull(arr)
    assert all(point_distance(h, p) <= 1e-9 for p in arr)


def test_interval_hull():
    h = hull(AgentState([3.0, -1.0, 2.0]))
    assert h.d == 1
    assert h.vertices.tolist() == [[-1.0], [3.0]]
    point = hull(AgentState([2.0, 2.0]))
    assert point.vertices.tolist() == [[2.0]]


def _array_interval(x):
    """The vertex array of the hull of scalars x: [[lo]] for a point,
    [[lo], [hi]] otherwise."""
    lo, hi = float(np.min(x)), float(np.max(x))
    return np.array([[lo]] if lo == hi else [[lo], [hi]])


def _array_point_distance(v, p):
    lo, hi = float(v[0, 0]), float(v[-1, 0])
    return max(lo - p, p - hi, 0.0)


_INTERVAL_SPECIALS = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1.0, -1.0, 1e300, -1e300]


def _interval_states(rng):
    yield from ([s] for s in _INTERVAL_SPECIALS)  # equal endpoints
    for _ in range(300):
        n = int(rng.integers(1, 6))
        scale = 10.0 ** rng.choice([-320, -300, -10, 0, 10, 300])
        pool = np.concatenate([rng.standard_normal(n) * scale, _INTERVAL_SPECIALS])
        yield rng.choice(pool, size=n).tolist()


def test_interval_hulls_agree_with_the_array_formulas():
    rng = np.random.default_rng(17)
    states = list(_interval_states(rng))
    for x, y in zip(states, states[1:] + states[:1]):
        outer, inner = hull(AgentState(x)), hull(AgentState(y))
        ov, iv = _array_interval(x), _array_interval(y)
        assert outer.vertices.tobytes() == ov.tobytes() and not outer.vertices.flags.writeable
        assert outer.vertex_count == ov.shape[0]
        assert outer.vertices is outer.vertices  # built once
        want = 0.0 if ov.shape[0] == 1 else float(ov[-1, 0] - ov[0, 0])
        assert str(diameter(outer)) == str(want)  # the sign of a zero too
        for p in (*y, 0.5, -7.0):
            assert point_distance(outer, [p]) == _array_point_distance(ov, p)
        dists = [_array_point_distance(ov, float(p)) for p in iv[:, 0]]
        gap = max(dists)
        for slack in {0.0, gap, float(np.nextafter(gap, np.inf)), float(np.nextafter(gap, 0.0))}:
            assert contains(outer, inner, slack) == all(d <= slack for d in dists)
        assert contains(outer, inner, gap)  # slack exactly at the gap
        if gap > 0.0:
            assert not contains(outer, inner, float(np.nextafter(gap, 0.0)))


def test_hulls_are_made_only_by_hull():
    # listed clockwise: taken as vertices, this square would put its own
    # centre outside itself
    square = [[0.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 0.0]]
    with pytest.raises(TypeError):
        HullPolytope(square)
    with pytest.raises(TypeError):
        HullPolytope([[0.0], [5.0], [3.0]])
    h = hull(square)
    assert point_distance(h, [0.5, 0.5]) == 0.0
    assert contains(h, hull([[0.5, 0.5]]))
    assert hull([[0.0], [5.0], [3.0]]).vertex_count == 2


def test_interval_hull_of_a_state_equals_the_constructed_polytope():
    for lo, hi in [(-1.0, 3.0), (-0.0, 5e-324), (-1e300, 1e300), (2.0, 2.0), (-0.0, -0.0)]:
        made = hull(AgentState([hi, lo, hi]))
        built = hull([[lo], [hi]] if lo != hi else [[lo]])
        assert made.vertices.tobytes() == built.vertices.tobytes()
        assert made.vertex_count == built.vertex_count
        assert (made.lo, made.hi) == (built.lo, built.hi)
        assert diameter(made) == diameter(built)
        assert repr(made) == repr(built)


# ---------------------------------------------------------------------------
# Distance, containment, diameter


def test_point_distance_interval():
    h = hull(AgentState([0.0, 2.0]))
    assert point_distance(h, [1.0]) == 0.0
    assert point_distance(h, [3.5]) == 1.5
    assert point_distance(h, [-0.25]) == 0.25


def test_point_distance_polygon():
    h = hull(UNIT_SQUARE)
    assert point_distance(h, [0.5, 0.5]) == 0.0
    assert point_distance(h, [1.0, 1.0]) == 0.0  # vertex is on the hull
    assert point_distance(h, [2.0, 0.5]) == 1.0
    assert point_distance(h, [2.0, 2.0]) == pytest.approx(np.sqrt(2.0))


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_point_distance_refuses_a_non_finite_point(bad):
    interval = hull(AgentState([0.0, 2.0]))
    triangle = hull(AgentState([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="point coordinates must be finite"):
        point_distance(interval, [bad])
    for point in ([bad, 0.0], [0.0, bad]):
        with pytest.raises(ValueError, match="point coordinates must be finite"):
            point_distance(triangle, point)
    assert point_distance(interval, [3.5]) == 1.5
    assert point_distance(triangle, [2.0, 0.0]) == 1.0


def _reference_point_distance(h, p):
    """point_distance as a per-edge Python loop over scalar dot products:
    the reference for the vectorised distances."""
    v, m = h.vertices, h.vertices.shape[0]

    def seg(a, b):
        ab = b - a
        denom = float(ab @ ab)
        t = 0.0 if denom == 0.0 else min(1.0, max(0.0, float((p - a) @ ab) / denom))
        q = a + t * ab
        return float(np.hypot(p[0] - q[0], p[1] - q[1]))

    if m == 2:
        return seg(v[0], v[1])
    if all(_cross(v[i], v[(i + 1) % m], p) >= 0.0 for i in range(m)):
        return 0.0
    return min(seg(v[i], v[(i + 1) % m]) for i in range(m))


@pytest.mark.parametrize("offset,scale", [(0.0, 1.0), (0.0, 1e-9), (1e9, 1.0), (-3e4, 1e3)])
def test_distances_match_per_edge_reference(offset, scale):
    rng = np.random.default_rng(41)
    for k in range(40):
        if k % 4 == 0:  # a segment hull
            t = rng.normal(size=(5, 1))
            outer = hull(offset + scale * np.hstack([t, 0.5 * t]))
        else:
            outer = hull(offset + scale * rng.normal(size=(int(rng.integers(3, 40)), 2)))
        pts = offset + scale * 1.5 * rng.normal(size=(12, 2))
        ref = [_reference_point_distance(outer, p) for p in pts]
        assert [point_distance(outer, p) for p in pts] == ref
        inner = hull(pts)
        for slack in (0.0, float(np.median(ref)), max(ref)):
            assert contains(outer, inner, slack) == all(d <= slack for d in ref)
        assert not contains(outer, inner, float(np.nextafter(max(ref), 0.0)))



def _scale_cloud(rng, shape, n):
    """n points of the shape, and hull points duplicated with the sign of a
    zero coordinate flipped: for a cloud in the square [-1, 1]^2, (1.5, 0)
    and (0, 2) outside it; for a segment through the origin, the origin
    (a vertex when the segment ends there); an axis point is one nonzero
    point on the x axis, the sign of its zero random in each row."""
    if shape == "point":
        return np.repeat(rng.uniform(-1.0, 1.0, (1, 2)), n, axis=0)
    if shape == "axis point":
        return np.c_[np.full(n, rng.uniform(-1.0, 1.0)), np.copysign(0.0, rng.uniform(-1.0, 1.0, n))]
    if shape == "segment":
        pts = rng.uniform(-1.0, 1.0, (n, 1)) * rng.uniform(-1.0, 1.0, 2)
        zeros = [[0.0, -0.0], [-0.0, 0.0]]
    else:
        pts = rng.uniform(-1.0, 1.0, (n, 2))
        zeros = [[1.5, -0.0], [0.0, 2.0], [1.5, 0.0], [-0.0, 2.0]]
    return np.vstack([pts, zeros])


@given(
    st.integers(0, 2**32 - 1),
    st.integers(-900, 900),
    st.sampled_from(["cloud", "segment", "point", "axis point"]),
    st.sampled_from([1, 3, 12, 95, 96, 400]),
)
@settings(max_examples=200, deadline=None)
def test_hulls_distances_and_verdicts_are_scale_equivariant(seed, k, shape, n):
    # scaling by 2**k is exact here, so the hull, the distances and the
    # containment verdicts must scale with it, far past where products of
    # coordinates would over- or underflow
    rng = np.random.default_rng(seed)
    pts = _scale_cloud(rng, shape, n)
    probes = rng.uniform(-1.5, 1.5, (6, 2))
    h, hk = hull(pts), hull(np.ldexp(pts, k))
    assert hk.vertices.tobytes() == np.ldexp(h.vertices, k).tobytes()
    # among equal points the first row is the vertex, the sign of a zero too
    first = {}
    for p in pts:
        first.setdefault(tuple(p), p.tobytes())
    assert [first[tuple(v)] for v in h.vertices] == [v.tobytes() for v in h.vertices]
    assert hk.magnitude == np.ldexp(h.magnitude, k)
    dists = [point_distance(h, p) for p in probes]
    assert [point_distance(hk, np.ldexp(p, k)) for p in probes] == list(np.ldexp(dists, k))
    for inner in (0.5 * pts, probes):
        ih, ihk = hull(inner), hull(np.ldexp(inner, k))
        gap = max(point_distance(h, p) for p in ih.vertices)
        for slack in (0.0, gap, float(np.nextafter(gap, 0.0))):
            assert contains(hk, ihk, float(np.ldexp(slack, k))) == contains(h, ih, slack)


@pytest.mark.parametrize("scale", [1.0, 1e300, 1e-300])
def test_a_planar_hull_runs_one_prefiltered_chain_at_every_scale(monkeypatch, scale):
    # the frame is picked before the hull, so an input outside it is not
    # first hulled unfiltered and then again in the frame
    pts = scale * np.random.default_rng(37).uniform(-1.0, 1.0, (10**4, 2))
    chained, kept = [], []
    chain, prefilter = lyapunov._hull_vertices_2d, lyapunov._prefilter

    def counted_chain(points, magnitude):
        chained.append(len(points))
        return chain(points, magnitude)

    def counted_prefilter(*args):
        rows = prefilter(*args)
        kept.append(len(rows))
        return rows

    monkeypatch.setattr(lyapunov, "_hull_vertices_2d", counted_chain)
    monkeypatch.setattr(lyapunov, "_prefilter", counted_prefilter)
    hull(pts)
    assert len(kept) == 1 and kept[0] < len(pts) // 100
    assert chained == [kept[0]]


@pytest.mark.parametrize("scale", [1e-200, 1e155, 1e300])
def test_a_hull_contains_itself_at_extreme_scales(scale):
    # the unit square and two interior points
    h = hull(scale * np.vstack([UNIT_SQUARE, [[0.5, 0.5], [0.25, 0.75]]]))
    assert sorted(map(tuple, h.vertices)) == sorted(map(tuple, scale * UNIT_SQUARE))
    assert contains(h, h)
    assert point_distance(h, [2.0 * scale, 0.5 * scale]) == scale


@pytest.mark.parametrize("n", [96, 100, 400])
def test_prefiltered_hull_near_the_largest_float(n):
    # |x| + |y| passes the largest float here, so the prefilter's diagonal
    # picks must not sum coordinates; the hull is the unscaled one's points,
    # scaled
    pts = np.random.default_rng(0).uniform(-1.0, 1.0, (n, 2))
    rows = {p: j for j, p in enumerate(map(tuple, pts.tolist()))}
    picked = [rows[v] for v in map(tuple, hull(pts).vertices.tolist())]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        h = hull(pts * 1.5e308)
    assert np.array_equal(h.vertices, pts[picked] * 1.5e308)


def test_point_distance_segment_and_point_hulls():
    seg = hull([[0.0, 0.0], [2.0, 0.0]])
    assert point_distance(seg, [1.0, 0.0]) == 0.0
    assert point_distance(seg, [1.0, 0.5]) == 0.5
    assert point_distance(seg, [3.0, 0.0]) == 1.0
    pt = hull([[1.0, 1.0]])
    assert point_distance(pt, [1.0, 1.0]) == 0.0
    assert point_distance(pt, [4.0, 5.0]) == 5.0


def test_point_distance_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension"):
        point_distance(hull(AgentState([0.0, 1.0])), [0.0, 1.0])


def test_contains_basic():
    outer = hull(UNIT_SQUARE)
    inner = hull(UNIT_SQUARE * 0.5 + 0.25)
    assert contains(outer, inner)
    assert not contains(inner, outer)
    assert contains(outer, outer)  # reflexive


def test_contains_rejects_hulls_of_different_dimensions():
    with pytest.raises(ValueError, match="dimension mismatch: outer d=1, inner d=2"):
        contains(hull([0.0, 1.0]), hull(UNIT_SQUARE))


def test_hull_rejects_ragged_rows_with_the_shape_message():
    ragged = r"^expected \(n,\) or \(n, d\) points .*, got rows of different lengths$"
    with pytest.raises(ValueError, match=ragged):
        hull([[0.0, 0.0], [1.0]])


def test_contains_slack():
    outer = hull(UNIT_SQUARE)
    nudged = hull(UNIT_SQUARE * (1.0 + 1e-12))
    assert not contains(outer, nudged)
    assert contains(outer, nudged, slack=1e-9)
    with pytest.raises(ValueError, match="nonnegative"):
        contains(outer, nudged, slack=-1.0)


@given(
    st.lists(
        st.tuples(st.floats(-5, 5), st.floats(-5, 5)), min_size=1, max_size=15
    ),
    st.permutations(range(15)),
)
@settings(max_examples=100)
def test_hull_is_permutation_invariant(pts, perm):
    arr = np.array(pts, dtype=float)
    shuffled = arr[[i for i in perm if i < len(arr)]] if len(arr) > 1 else arr
    if shuffled.shape[0] != arr.shape[0]:
        shuffled = arr
    a = hull(arr).vertices
    b = hull(shuffled).vertices
    assert sorted(map(tuple, a)) == sorted(map(tuple, b))


def test_diameter():
    assert diameter(hull(AgentState([4.0, 1.0, 3.0]))) == 3.0
    assert diameter(hull(AgentState([2.0, 2.0]))) == 0.0
    assert diameter(hull(UNIT_SQUARE)) == pytest.approx(np.sqrt(2.0))


def test_planar_diameter_matches_pairwise_loop():
    rng = np.random.default_rng(11)
    for m in (2, 3, 17, 300):
        a = np.sort(rng.uniform(0.0, 2 * np.pi, m))
        v = 1e3 + rng.uniform(0.5, 2.0, (m, 1)) * np.c_[np.cos(a), np.sin(a)]
        best = 0.0
        for i in range(m):
            for j in range(i + 1, m):
                best = max(best, float(np.hypot(v[i, 0] - v[j, 0], v[i, 1] - v[j, 1])))
        assert diameter(hull(v)) == best


def _bits(x: float) -> bytes:
    return np.float64(x).tobytes()


@pytest.mark.parametrize("values", [
    [0.0, -0.0], [-0.0, 0.0], [-0.0, -0.0, -0.0], [0.0, -0.0, 1.0], [-0.0, 2.5, 0.0, -1.0],
    [3.0, 3.0], [-1e300, 1e300, 5e-324], [7.0],
])
def test_a_scalar_map_output_is_born_with_the_hull_of_its_points(values):
    pts = np.array(values).reshape(-1, 1)
    born = AgentState._own(pts.copy())._hull
    made = lyapunov._hull_of(pts)
    for key in ("lo", "hi", "magnitude", "vertex_count"):
        assert _bits(getattr(born, key)) == _bits(getattr(made, key)), key
    assert _bits(diameter(born)) == _bits(diameter(made)) == _bits(born._diameter)
    assert born.vertices.tobytes() == made.vertices.tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", [0, 1, 2])
def test_a_scalar_map_output_that_is_not_finite_is_rejected(bad, where):
    arr = np.zeros((3, 1))
    arr[where, 0] = bad
    with pytest.raises(ValueError, match="^state coordinates must be finite$"):
        AgentState._own(arr)


def test_a_polygon_keeps_the_diameter_of_the_blockwise_formula(monkeypatch):
    # points on a circle are all vertices; blocks of 280 // m rows: six
    # with a short last one for m = 40, and 49 for m = 97
    monkeypatch.setattr(lyapunov, "_DIAMETER_BLOCK", 280)
    rng = np.random.default_rng(23)
    for m in (1, 2, 3, 40, 97):
        a = np.sort(rng.uniform(0.0, 2 * np.pi, m))
        h = hull(1e3 + np.c_[np.cos(a), np.sin(a)])
        assert h.vertex_count == m
        assert type(h._diameter) is float  # made with the hull
        v = h.vertices
        full = np.hypot(v[:, None, 0] - v[:, 0], v[:, None, 1] - v[:, 1]).max()
        assert _bits(diameter(h)) == _bits(full) == _bits(h._diameter)
        assert diameter(h) is h._diameter  # the kept float, not a recomputation


def _blockwise_diameter(v: np.ndarray, block: int) -> float:
    """The largest vertex-pair `np.hypot` over blocks of block // m rows."""
    m = v.shape[0]
    rows = max(1, block // m)
    return max(
        float(np.hypot(v[i : i + rows, None, 0] - v[:, 0], v[i : i + rows, None, 1] - v[:, 1]).max())
        for i in range(0, m, rows)
    )


@pytest.mark.parametrize("block", [280, lyapunov._DIAMETER_BLOCK])
def test_a_planar_hull_holds_its_diameter_as_soon_as_it_is_built(monkeypatch, block):
    # blocks of one row for m >= 141 at 280; one block at the default
    monkeypatch.setattr(lyapunov, "_DIAMETER_BLOCK", block)
    rng = np.random.default_rng(29)
    for m in (1, 2, 3, 40, 97, 300):
        a = np.sort(rng.uniform(0.0, 2 * np.pi, m))
        h = lyapunov._hull_of(-5e2 + np.c_[np.cos(a), np.sin(a)])
        assert h.vertex_count == m
        assert _bits(h._diameter) == _bits(_blockwise_diameter(h.vertices, block))
    st = AgentState(rng.normal(size=(500, 2)))  # prefiltered: fewer vertices than points
    held = hull(st)._diameter
    assert _bits(held) == _bits(_blockwise_diameter(hull(st).vertices, block))
    assert disagreement(st) is held


@pytest.mark.parametrize("half", [math.nextafter(2.0**1022, 0.0), 2.0**1022, 2.0**1023])
def test_a_small_polygon_near_the_largest_float_keeps_the_blockwise_diameter(half):
    # below magnitude 2^1022 one array of vertex pairs cannot overflow; from
    # it on the blockwise scan runs, and a diameter past the largest float
    # is a quiet inf, with warnings as errors
    pts = half * np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0], [0.0, 0.5]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        h = hull(pts)
    assert h.vertex_count == 4 and h.magnitude == half
    with np.errstate(over="ignore"):
        want = _blockwise_diameter(h.vertices, lyapunov._DIAMETER_BLOCK)
    assert _bits(h._diameter) == _bits(want)
    assert math.isfinite(want) == (half < 2.0**1023)


@pytest.mark.parametrize("scale", [1e160, 1e-200])
def test_a_hull_out_of_the_frame_scans_only_the_polygon_it_returns(monkeypatch, scale):
    pts = scale * np.array([[0.0, 0.0], [1.0, 0.0], [0.3, 0.2], [1.0, 1.0], [0.0, 1.0]])
    assert lyapunov._frame_shift(float(np.abs(pts).max()))  # hulled in a scaled frame
    scans = []
    hypot = np.hypot
    monkeypatch.setattr(np, "hypot", lambda *a: scans.append(a) or hypot(*a))
    st = AgentState(pts)
    d = disagreement(st)
    assert len(scans) == 1  # one block: the returned polygon's vertex pairs
    v = hull(st).vertices
    assert sorted(v.tolist()) == sorted(pts[[0, 1, 3, 4]].tolist())  # input points
    assert scans[0][0].shape == (4, 4)
    assert diameter(hull(st)) is d and len(scans) == 1
    assert _bits(d) == _bits(_blockwise_diameter(v, lyapunov._DIAMETER_BLOCK))
    assert d == pytest.approx(np.sqrt(2.0) * scale)


def test_a_repeated_state_record_is_the_record_its_constructor_builds():
    a = AgentState([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    recs = list(monitor_stream([(0, a), (np.int64(1), a), (2, a)]))
    for t, rec in enumerate(recs[1:], 1):
        want = lyapunov.MonitorRecord(t, recs[0].diameter, True, recs[0].vertex_count, a)
        assert type(rec) is lyapunov.MonitorRecord and type(rec.t) is int
        assert rec == want and rec._asdict() == want._asdict()


def test_diameter_zero_iff_coincident():
    assert diameter(hull(np.array([[1.0, 2.0], [1.0, 2.0], [1.0, 2.0]]))) == 0.0
    assert diameter(hull(np.array([[1.0, 2.0], [1.0, 2.0 + 1e-12]]))) > 0.0


# ---------------------------------------------------------------------------
# Monitoring


@pytest.mark.parametrize("points", [
    [[0.0, 1.0], [0.25, 0.75], [0.2, 1.5]],
    [[[0, 0], [1, 0], [0.3, 0.4]], [[0.2, 0.1], [0.6, 0.2], [0.6, 0.2]],
     [[0.2, 0.1], [1.5, 0.2], [0.6, 0.2]]],
], ids=["d1", "d2"])
def test_monitor_stream_flags_expansion(points):
    items = [(t, AgentState(p)) for t, p in enumerate(points)]  # the last one escapes
    recs = list(monitor_stream(items))
    assert [r.contained for r in recs] == [True, True, False]
    assert [r.t for r in recs] == [0, 1, 2]
    assert recs[0].diameter == 1.0
    assert recs[1].vertex_count == 2
    assert all(r.state is st for r, (_, st) in zip(recs, items))
    assert [r.diameter for r in recs] == [disagreement(st) for _, st in items]


def test_raw_points_must_be_finite():
    with pytest.raises(ValueError, match="must be finite"):
        hull([np.nan, 1.0])
    with pytest.raises(ValueError, match="must be finite"):
        list(monitor_stream([(0, [0.0, 1.0]), (1, [np.nan, 0.5])]))


def test_monitor_stream_linear_averaging_never_expands():
    g = DirectedGraph(3, {(1, 2), (2, 1), (3, 2), (2, 3)})
    x0 = AgentState([0.0, 1.0, 0.5])
    states = iter_states(PeriodicSchedule([g]), LinearAverage(), x0, steps=40)
    recs = list(monitor_stream(states))
    assert len(recs) == 41
    assert all(r.contained for r in recs)
    diam = [r.diameter for r in recs]
    assert all(b <= a + 1e-12 for a, b in zip(diam, diam[1:]))
    assert diam[-1] < 1e-6


@pytest.mark.xfail(
    strict=True,
    reason="a hub's linear step rounds off its hull by more than the monitor's 17 eps M",
)
def test_monitor_keeps_a_hub_of_many_senders_inside_its_hull():
    # 0.04 s.  A hub at (0.1, 1) hears 17,211 agents at (1, 0.3); one more
    # agent sits at (0, 0), heard by nobody.  The hub's output lies on the
    # hull's edge from (1, 0.3) to (0.1, 1) in exact arithmetic, and its
    # 17,211-term sum rounds it 161.9 eps M outside, where the monitor
    # allows 17.  The default slack of 1e-9 hides this.
    j = 17_211
    x = AgentState([(0.1, 1.0)] + [(1.0, 0.3)] * j + [(0.0, 0.0)])
    g = DirectedGraph(j + 2, {(k, 1) for k in range(2, j + 2)})
    y = LinearAverage().step(0, g, x)
    assert all(r.contained for r in monitor_stream([(0, x), (1, y)], slack=0.0))


def test_monitor_composes_across_sparse_sampling():
    # keeping only every 7th state must not create false violations
    g = DirectedGraph(3, {(1, 2), (2, 1), (3, 2), (2, 3)})
    x0 = AgentState([0.0, 1.0, 0.5])
    states = iter_states(PeriodicSchedule([g]), LinearAverage(), x0, steps=42)
    sparse = ((t, s) for t, s in states if t % 7 == 0)
    assert all(r.contained for r in monitor_stream(sparse))


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("magnitude", [1e9, 1e12])
def test_monitor_verdict_does_not_depend_on_scale(magnitude, d):
    # Conforming averaging far from the origin: rounding at the scale of the
    # coordinates exceeds the fixed 1e-9 slack but is not a hull escape.
    for seed in range(40):
        schedule = random_windowed_schedule(6, 1, 4, seed)
        x0 = np.random.default_rng(seed).uniform(0.0, 1.0, (6, d)) * magnitude
        recs = monitor_stream(iter_states(schedule, LinearAverage(), x0, 60))
        assert all(r.contained for r in recs)
    # growing the hull by a relative 1e-12 is still an escape at that scale
    # for the rounding allowance alone (the slack is relative to the scale,
    # so the default 1e-9 would cover it at every scale)
    grown = x0 + 1e-12 * (x0 - x0.mean(axis=0))
    recs = monitor_stream([(0, AgentState(x0)), (1, AgentState(grown))], slack=0.0)
    assert [r.contained for r in recs] == [True, False]


@pytest.mark.parametrize("magnitude", [1e-12, 1e-10, 1e-6, 1.0, 1e9])
def test_monitor_flags_a_max_map_escape_at_every_scale(magnitude):
    # on the 2-cycle from (0, M), (M, 0) the max map moves both agents to
    # (M, M), 0.7 M outside the previous hull, whatever the scale M
    cycle = DirectedGraph(2, {(1, 2), (2, 1)})
    x0 = [[0.0, magnitude], [magnitude, 0.0]]
    recs = list(monitor_stream(iter_states(PeriodicSchedule([cycle]), MaxUpdate(), x0, 2)))
    assert [r.contained for r in recs] == [True, False, True]
    assert recs[1].state.points.tolist() == [[magnitude, magnitude]] * 2


def test_a_huge_slack_contains_every_step_without_overflowing():
    items = [(0, AgentState([0.0, 1e10])), (1, AgentState([-1e10, 2e10]))]
    assert [r.contained for r in monitor_stream(items, slack=1e300)] == [True, True]


def test_monitor_max_map_stays_contained():
    # the max map rides the hull boundary but never leaves it
    g = DirectedGraph(3, {(1, 2), (2, 3), (3, 1)})
    states = iter_states(PeriodicSchedule([g]), MaxUpdate(), AgentState([0.0, 1.0, 0.5]), steps=10)
    assert all(r.contained for r in monitor_stream(states))


def test_half_weight_pair_diameter_contracts_by_a_third_per_step():
    g = WeightedDigraph(2, {(1, 2): 0.5, (2, 1): 0.5})
    states = iter_states(PeriodicSchedule([g]), LinearAverage(), AgentState([0.0, 1.0]), steps=10)
    recs = list(monitor_stream(states))
    # each step the gap contracts by (2/3 - 1/3) = 1/3
    d = recs[0].diameter - recs[5].diameter
    assert d == pytest.approx(1.0 - (1.0 / 3.0) ** 5, abs=1e-12)


# ---------------------------------------------------------------------------
# Record reuse, slack checks, and run summaries


def _escape_stream():
    # a hand-made planar stream: the second state leaves the first hull,
    # then stays put
    a = AgentState([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    b = AgentState([[0.0, 0.0], [2.0, 0.0], [0.0, 1.0]])
    return [(0, a), (1, b), (2, b), (3, b)]


def _silent_run():
    # one round of averaging on a chain, then silence: every arc-free step
    # returns its input state
    chain = DirectedGraph(3, {(1, 2), (2, 1), (2, 3), (3, 2)})
    return list(iter_states(FiniteSchedule([chain]), LinearAverage(), [0.0, 1.0, 5.0], steps=6))


@pytest.mark.parametrize("make_items", [_silent_run, _escape_stream], ids=["silent", "escape"])
def test_monitor_hulls_each_distinct_state_once(make_items, monkeypatch):
    items = make_items()
    fresh = list(monitor_stream((t, AgentState(st.points)) for t, st in items))
    hulled = []
    real_hull = lyapunov.hull
    monkeypatch.setattr(lyapunov, "hull", lambda x: hulled.append(x) or real_hull(x))
    recs = list(monitor_stream(items))
    assert len(hulled) == len({id(st) for _, st in items}) == 2
    # the same records as for a stream of copies, which are all hulled
    fields = attrgetter("t", "diameter", "contained", "vertex_count")
    assert [fields(r) for r in recs] == [fields(r) for r in fresh]
    assert all(r.state is st for r, (_, st) in zip(recs, items))


def test_a_state_is_hulled_once_and_a_raw_array_every_time():
    for pts in (UNIT_SQUARE, UNIT_SQUARE[:, :1]):
        s = AgentState(pts)
        h = hull(s)
        assert hull(s) is h
        assert disagreement(s) == diameter(h)
        raw = pts.copy()
        assert hull(raw) is not hull(raw)


def test_monitor_rehulls_a_raw_array_edited_in_place():
    x = np.array([0.0, 1.0])

    def stream():
        yield 0, x
        x[1] = 2.0  # the same object, edited between yields
        yield 1, x

    recs = list(monitor_stream(stream()))
    assert [r.contained for r in recs] == [True, False]
    assert [r.diameter for r in recs] == [1.0, 2.0]


@pytest.mark.parametrize("slack", [-1.0, float("nan"), float("inf")])
def test_bad_slack_is_rejected_when_the_monitor_is_made(slack):
    h = hull([0.0, 1.0])
    with pytest.raises(ValueError, match="slack must be nonnegative and finite"):
        contains(h, h, slack)
    with pytest.raises(ValueError, match="slack must be nonnegative and finite"):
        monitor_stream([], slack)  # before any item is asked for


def test_summarize_folds_the_records():
    items = _escape_stream()
    run = summarize(monitor_stream(items), tol=0.5)
    assert run.final.t == 3 and run.final.state is items[-1][1]
    assert run.final.diameter == diameter(hull(items[-1][1]))
    assert run.violations == 1
    assert run.consensus_time is None
    assert summarize(monitor_stream(_escape_stream()), tol=3.0).consensus_time == 0
    for tol in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            summarize(monitor_stream(_escape_stream()), tol)
    with pytest.raises(ValueError, match="no records"):
        summarize([], 1e-9)


def test_summarize_keeps_the_peak_diameter():
    # the peak is the largest record diameter, wherever it falls in the run
    a = AgentState([[0.0, 0.0], [1.0, 0.0]])
    b = AgentState([[0.0, 0.0], [3.0, 4.0]])
    c = AgentState([[0.0, 0.0], [0.0, 2.0]])
    assert summarize(monitor_stream([(0, a), (1, b), (2, c)]), tol=1e-9).peak == 5.0
    assert summarize(monitor_stream(_escape_stream()), tol=0.5).peak == float(np.hypot(2.0, 1.0))
    # a run at consensus throughout peaks at zero
    assert summarize(monitor_stream([(0, [2.0, 2.0])]), tol=1e-9).peak == 0.0


def test_monitor_refuses_a_state_whose_disagreement_overflows():
    # the max map's output leaves the input's hull: from a finite
    # disagreement, agent 3 moves to (1.3e308, 1.3e308), 1.8e308 from agent 1
    chain = DirectedGraph(3, {(1, 2), (2, 3)})
    x0 = [[0.0, 0.0], [1.3e308, 0.5e308], [0.5e308, 1.3e308]]
    recs = monitor_stream(iter_states(PeriodicSchedule([chain]), MaxUpdate(), x0, 2))
    assert next(recs).diameter < math.inf
    with pytest.raises(ValueError, match="^state at time 1: its disagreement overflows a float$"):
        next(recs)
    # the planar diameter past the largest float is a quiet inf, with no
    # numpy overflow warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert disagreement(AgentState([[0, 0], [1.3e308, 1.3e308], [0.5e308, 1.3e308]])) == math.inf
    # a scalar state's spread overflows as well
    with pytest.raises(ValueError, match="^state at time 0: its disagreement overflows"):
        list(monitor_stream([(0, AgentState([-1.7e308, 1.7e308]))]))
