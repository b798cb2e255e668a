"""Hull computation, containment, and trajectory monitoring."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from consensus_lab import (
    AgentState,
    DirectedGraph,
    HullPolytope,
    LinearAverage,
    MaxUpdate,
    constant_schedule,
    contains,
    decrease_over_window,
    diameter,
    disagreement,
    hull,
    hull_vertices_2d,
    iter_states,
    monitor_stream,
    monitor_trajectory,
    point_distance,
    random_windowed_schedule,
    simulate,
)

UNIT_SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


# ---------------------------------------------------------------------------
# Hull vertices


def test_unit_square_with_interior_and_edge_points():
    pts = np.vstack([UNIT_SQUARE, [[0.5, 0.5], [0.5, 0.0], [0.25, 0.25]]])
    verts = hull_vertices_2d(pts)
    assert sorted(map(tuple, verts)) == sorted(map(tuple, UNIT_SQUARE))


def test_hull_vertices_are_counterclockwise():
    verts = hull_vertices_2d(UNIT_SQUARE)
    area2 = 0.0
    m = len(verts)
    for i in range(m):
        x0, y0 = verts[i]
        x1, y1 = verts[(i + 1) % m]
        area2 += x0 * y1 - x1 * y0
    assert area2 > 0.0  # positive signed area = CCW


def test_degenerate_hulls():
    assert hull_vertices_2d(np.array([[2.0, 3.0], [2.0, 3.0]])).shape == (1, 2)
    collinear = np.array([[0.0, 0.0], [2.0, 2.0], [1.0, 1.0]])
    seg = hull_vertices_2d(collinear)
    assert sorted(map(tuple, seg)) == [(0.0, 0.0), (2.0, 2.0)]


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


# ---------------------------------------------------------------------------
# Distance, containment, diameter


def test_point_distance_interval():
    h = hull(AgentState([0.0, 2.0]))
    assert point_distance(h, [1.0]) == 0.0
    assert point_distance(h, [3.5]) == 1.5
    assert point_distance(h, [-0.25]) == 0.25


def test_point_distance_polygon():
    h = HullPolytope(hull_vertices_2d(UNIT_SQUARE))
    assert point_distance(h, [0.5, 0.5]) == 0.0
    assert point_distance(h, [1.0, 1.0]) == 0.0  # vertex is on the hull
    assert point_distance(h, [2.0, 0.5]) == 1.0
    assert point_distance(h, [2.0, 2.0]) == pytest.approx(np.sqrt(2.0))


def test_point_distance_segment_and_point_hulls():
    seg = HullPolytope([[0.0, 0.0], [2.0, 0.0]])
    assert point_distance(seg, [1.0, 0.0]) == 0.0
    assert point_distance(seg, [1.0, 0.5]) == 0.5
    assert point_distance(seg, [3.0, 0.0]) == 1.0
    pt = HullPolytope([[1.0, 1.0]])
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


def test_monitor_trajectory_linear_averaging_never_expands():
    g = DirectedGraph(3, {(1, 2), (2, 1), (3, 2), (2, 3)})
    traj = simulate(constant_schedule(g), LinearAverage(), AgentState([0.0, 1.0, 0.5]), steps=40)
    recs = monitor_trajectory(traj)
    assert len(recs) == 41
    assert all(r.contained for r in recs)
    diam = [r.diameter for r in recs]
    assert all(b <= a + 1e-12 for a, b in zip(diam, diam[1:]))
    assert diam[-1] < 1e-6


def test_monitor_composes_across_sparse_sampling():
    # keeping only every 7th state must not create false violations
    g = DirectedGraph(3, {(1, 2), (2, 1), (3, 2), (2, 3)})
    traj = simulate(constant_schedule(g), LinearAverage(), AgentState([0.0, 1.0, 0.5]), steps=42)
    sparse = [(t, s) for t, s in zip(traj.times, traj.states) if t % 7 == 0]
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
    grown = x0 + 1e-12 * (x0 - x0.mean(axis=0))
    recs = monitor_stream([(0, AgentState(x0)), (1, AgentState(grown))])
    assert [r.contained for r in recs] == [True, False]


def test_monitor_max_map_stays_contained():
    # the max map rides the hull boundary but never leaves it
    g = DirectedGraph(3, {(1, 2), (2, 3), (3, 1)})
    traj = simulate(constant_schedule(g), MaxUpdate(), AgentState([0.0, 1.0, 0.5]), steps=10)
    assert all(r.contained for r in monitor_trajectory(traj))


def test_decrease_over_window():
    from consensus_lab import WeightedDigraph

    g = WeightedDigraph(
        DirectedGraph(2, {(1, 2), (2, 1)}), {(1, 2): 0.5, (2, 1): 0.5}
    )
    traj = simulate(constant_schedule(g), LinearAverage(), AgentState([0.0, 1.0]), steps=10)
    # each step the gap contracts by (2/3 - 1/3) = 1/3
    d = decrease_over_window(traj, 0, 5)
    assert d == pytest.approx(1.0 - (1.0 / 3.0) ** 5, abs=1e-12)
    with pytest.raises(ValueError, match="window"):
        decrease_over_window(traj, 0, 0)
    with pytest.raises(ValueError, match="not stored"):
        decrease_over_window(traj, 0, 99)
