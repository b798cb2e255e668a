"""State containers, update matrices, nonlinear maps, and assumption checkers."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from consensus_lab import (
    AgentState,
    DirectedGraph,
    KuramotoTime1,
    LinearAverage,
    MaxUpdate,
    NonlinearConsensus,
    StochasticMatrix,
    VicsekHeading,
    WeightedDigraph,
    build_update_matrix,
    check_communication_assumption,
    check_strict_convexity,
    diameter,
    empty_graph,
    hull,
    linear_step,
    random_windowed_schedule,
    validate_gain,
)
from consensus_lab import dynamics
from consensus_lab.dynamics import GAIN_LIBRARY, UpdateMap

WORKED_GRAPH = WeightedDigraph(
    DirectedGraph(4, {(2, 1), (1, 2), (3, 2)}),
    {(2, 1): 0.5, (1, 2): 1.0, (3, 2): 5.0},
)


# ---------------------------------------------------------------------------
# AgentState and StochasticMatrix


def test_state_accepts_flat_and_planar_input():
    s = AgentState([0.0, 1.0, 2.0])
    assert s.n == 3 and s.d == 1
    assert s.values.tolist() == [0.0, 1.0, 2.0]
    assert s.point(2).tolist() == [1.0]
    p = AgentState([[0.0, 1.0], [2.0, 3.0]])
    assert p.n == 2 and p.d == 2
    assert p.point(1).tolist() == [0.0, 1.0]


def test_state_rejects_bad_input():
    with pytest.raises(ValueError, match="shape"):
        AgentState([[[1.0]]])
    with pytest.raises(ValueError, match="d in"):
        AgentState(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="finite"):
        AgentState([0.0, float("nan")])
    with pytest.raises(ValueError, match="scalar"):
        AgentState([[0.0, 1.0]]).values


def test_state_is_read_only():
    s = AgentState([0.0, 1.0])
    with pytest.raises(ValueError):
        s.points[0] = 5.0


def test_stochastic_matrix_validation():
    StochasticMatrix([[0.5, 0.5], [0.0, 1.0]])
    with pytest.raises(ValueError, match="square"):
        StochasticMatrix([[0.5, 0.5]])
    with pytest.raises(ValueError, match="nonnegative"):
        StochasticMatrix([[1.5, -0.5], [0.0, 1.0]])
    with pytest.raises(ValueError, match="row 1 sums"):
        StochasticMatrix([[0.5, 0.6], [0.0, 1.0]])
    with pytest.raises(ValueError, match="diagonal"):
        StochasticMatrix([[0.0, 1.0], [0.0, 1.0]])


# ---------------------------------------------------------------------------
# Update matrix and linear stepping


def test_update_matrix_worked_example():
    A = build_update_matrix(WORKED_GRAPH).entries
    expected = np.array(
        [
            [2 / 3, 1 / 3, 0.0, 0.0],
            [1 / 7, 1 / 7, 5 / 7, 0.0],
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )
    assert np.array_equal(A, expected)


def test_update_matrix_unit_weights_for_bare_graph():
    A = build_update_matrix(DirectedGraph(3, {(1, 2), (3, 2)})).entries
    expected = np.array([[1.0, 0.0, 0.0], [1 / 3, 1 / 3, 1 / 3], [0.0, 0.0, 1.0]])
    assert np.array_equal(A, expected)


def test_update_matrix_of_arc_free_graph_is_identity():
    assert np.array_equal(build_update_matrix(empty_graph(3)).entries, np.eye(3))


def test_linear_step_worked_example():
    m = build_update_matrix(WORKED_GRAPH)
    out = linear_step(m, AgentState([0.0, 1.0, 1.0, 1.0]))
    assert np.allclose(out.values, [1 / 3, 6 / 7, 1.0, 1.0], rtol=0, atol=1e-15)


def test_linear_step_dimension_mismatch():
    m = build_update_matrix(empty_graph(3))
    with pytest.raises(ValueError, match="n=2"):
        linear_step(m, AgentState([0.0, 1.0]))


@given(
    st.lists(st.floats(-50, 50), min_size=3, max_size=3),
    st.floats(-100, 100),
)
def test_linear_step_translation_invariance(xs, c):
    m = build_update_matrix(DirectedGraph(3, {(1, 2), (2, 3), (3, 1)}))
    base = linear_step(m, AgentState(xs)).values
    shifted = linear_step(m, AgentState([x + c for x in xs])).values
    assert np.allclose(shifted, base + c, rtol=0, atol=1e-9)


def test_linear_step_preserves_consensus_exactly():
    m = build_update_matrix(WORKED_GRAPH)
    out = linear_step(m, AgentState([0.7, 0.7, 0.7, 0.7]))
    # rows sum to 1 exactly for these rational weights
    assert out.values.tolist() == [0.7, 0.7, 0.7, 0.7]


def _random_weighted_graph(rng, n):
    pairs = [(k, l) for k in range(1, n + 1) for l in range(1, n + 1) if k != l]
    arcs = [p for p in pairs if rng.random() < 0.3]
    return WeightedDigraph(
        DirectedGraph(n, arcs), {a: float(rng.uniform(0.1, 5.0)) for a in arcs}
    )


def test_update_matrix_and_linear_step_match_python_reference():
    # The contract fixes the summation order: in-weights and increments are
    # summed over senders in ascending order, starting from 0.0.
    rng = np.random.default_rng(42)
    for _ in range(200):
        n = int(rng.integers(1, 13))
        g = _random_weighted_graph(rng, n)
        M = build_update_matrix(g)
        A = M.entries.tolist()
        for k in g.graph.nodes:
            senders = sorted(g.graph.in_sources(k))
            s = 0.0
            for i in senders:
                s += g.weight(i, k)
            assert A[k - 1][k - 1] == 1.0 / (1.0 + s)
            for i in senders:
                assert A[k - 1][i - 1] == g.weight(i, k) / (1.0 + s)
        for d in (1, 2):
            pts = rng.uniform(-10.0, 10.0, (n, d))
            out = linear_step(M, AgentState(pts)).points.tolist()
            x = pts.tolist()
            for k in g.graph.nodes:
                for j in range(d):
                    acc = 0.0
                    for i in sorted(g.graph.in_sources(k)):
                        acc += A[k - 1][i - 1] * (x[i - 1][j] - x[k - 1][j])
                    assert out[k - 1][j] == x[k - 1][j] + acc


def test_update_matrix_stores_one_triple_per_arc():
    rng = np.random.default_rng(5)
    for n in (1, 4, 12):
        g = _random_weighted_graph(rng, n)
        M = build_update_matrix(g)
        assert M.n == n and M.rows.size == len(g.arcs)
        dense = StochasticMatrix(M.entries)
        for name in ("diag", "rows", "cols", "weights"):
            assert np.array_equal(getattr(dense, name), getattr(M, name))
            with pytest.raises(ValueError):
                getattr(M, name)[...] = 0
        with pytest.raises(ValueError):
            M.entries[0, 0] = 0.5


def test_update_matrix_drops_entries_that_round_to_zero():
    # 5e-324 / 2 rounds to 0: the stored triples stay the nonzero entries.
    g = WeightedDigraph(DirectedGraph(3, {(1, 3), (2, 3)}), {(1, 3): 5e-324, (2, 3): 1.0})
    M = build_update_matrix(g)
    assert M.rows.tolist() == [2] and M.cols.tolist() == [1]
    assert M.entries.tolist() == [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.5, 0.5]]


def test_update_matrix_arc_weight_matches_unit_weighted_graph():
    rng = np.random.default_rng(8)
    graphs = [empty_graph(3)] + [_random_weighted_graph(rng, n).graph for n in (2, 5, 12)]
    for g in graphs:
        for w in (1.0, 0.25, 3.0, 1e-3, 1e6, 5e-324):
            direct = build_update_matrix(g, w)
            via_weights = build_update_matrix(WeightedDigraph(g, {a: w for a in g.arcs}, (w, w)))
            assert direct.n == via_weights.n
            for name in ("diag", "rows", "cols", "weights"):
                assert np.array_equal(getattr(direct, name), getattr(via_weights, name))
        assert LinearAverage(0.25).matrix_for(g).weights.tolist() == (
            build_update_matrix(g, 0.25).weights.tolist()
        )
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="arc weight must be positive and finite"):
            build_update_matrix(graphs[1], bad)


def test_linear_step_on_a_large_ring():
    n = 5000
    ring = DirectedGraph(n, {(k, k % n + 1) for k in range(1, n + 1)})
    x = np.random.default_rng(1).uniform(-1.0, 1.0, (n, 2))
    update = LinearAverage()
    out = update.step(0, ring, AgentState(x)).points
    assert update.matrix_for(ring).rows.size == n
    assert np.array_equal(out, x + 0.5 * (np.roll(x, 1, axis=0) - x))


# ---------------------------------------------------------------------------
# Oscillator time-1 map


def test_kuramoto_pair_regression():
    g = DirectedGraph(2, {(1, 2), (2, 1)})
    out = KuramotoTime1(substeps=1000).step(0, g, AgentState([0.0, 1.0]))
    assert out.values[0] == pytest.approx(0.39278887371618926, abs=1e-12)
    assert out.values[1] == pytest.approx(0.6072111262838092, abs=1e-12)


def test_kuramoto_consensus_is_exact_fixed_point():
    g = DirectedGraph(3, {(1, 2), (2, 1), (2, 3), (3, 2)})
    x = AgentState([1.3, 1.3, 1.3])
    out = KuramotoTime1(substeps=50).step(0, g, x)
    assert out.values.tolist() == [1.3, 1.3, 1.3]


def test_kuramoto_symmetric_coupling_conserves_sum():
    g = DirectedGraph(3, {(1, 2), (2, 1), (2, 3), (3, 2)})
    x = AgentState([-1.0, 0.25, 2.0])
    out = KuramotoTime1(substeps=200).step(0, g, x)
    assert sum(out.values) == pytest.approx(sum(x.values), abs=1e-12)


def test_kuramoto_isolated_agent_is_frozen():
    g = DirectedGraph(3, {(1, 2), (2, 1)})
    out = KuramotoTime1(substeps=100).step(0, g, AgentState([0.0, 1.0, 5.0]))
    assert out.values[2] == 5.0


def _dense_kuramoto_reference(g, x, substeps):
    # The field through an n x n 0/1 in-adjacency, A[k-1, i-1] = 1 when i
    # sends to k, with row sums; then classical RK4 over one time unit.
    A = np.zeros((g.n, g.n))
    for i, k in g.arcs:
        A[k - 1, i - 1] = 1.0

    def field(y):
        r = 1.0 / np.sqrt(1.0 + y * y)
        diff = y[None, :] - y[:, None]  # diff[k, i] = y_i - y_k
        return (A * (diff * r[None, :] * r[:, None])).sum(axis=1)

    h = 1.0 / substeps
    y = x
    for _ in range(substeps):
        k1 = field(y)
        k2 = field(y + 0.5 * h * k1)
        k3 = field(y + 0.5 * h * k2)
        k4 = field(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y


def test_kuramoto_matches_dense_reference():
    # For rows shorter than 8 (n <= 7) numpy's row sum adds in ascending
    # sender order, as the sparse field does, so the maps agree bit for bit;
    # from n = 8 numpy's unrolled row sum reorders the terms by ulps.
    rng = np.random.default_rng(7)
    update = KuramotoTime1(substeps=10)
    for _ in range(200):
        n = int(rng.integers(1, 41))
        g = _random_weighted_graph(rng, n)
        x = rng.uniform(-3.0, 3.0, n)
        out = update.step(0, g, AgentState(x)).values
        ref = _dense_kuramoto_reference(g.graph, x, 10)
        if n <= 7:
            assert np.array_equal(out, ref)
        else:
            assert np.max(np.abs(out - ref)) <= 4 * np.finfo(float).eps * np.max(np.abs(x))


def test_kuramoto_on_a_large_ring():
    n = 2000
    forward = {(k, k % n + 1) for k in range(1, n + 1)}
    ring = DirectedGraph(n, forward | {(l, k) for k, l in forward})
    update = KuramotoTime1(substeps=4)
    x = np.random.default_rng(3).uniform(-1.0, 1.0, n)
    out = update.step(0, ring, AgentState(x)).values
    assert abs(out.sum() - x.sum()) <= 1e-9
    assert np.array_equal(update.step(0, ring, AgentState(np.full(n, 0.7))).values, np.full(n, 0.7))


# ---------------------------------------------------------------------------
# Gain validation and the nonlinear consensus flow


def test_validate_gain_accepts_standard_gains():
    validate_gain(lambda s: s)
    validate_gain(lambda s: s**3)
    validate_gain(math.atan)


def test_validate_gain_rejects_offset():
    with pytest.raises(ValueError, match="gamma\\(0\\)"):
        validate_gain(lambda s: s + 0.1)


def test_validate_gain_requires_gamma_of_zero_to_be_exactly_zero():
    # an offset of 1e-13 moves a consensus state by about 6e-14 per step
    with pytest.raises(ValueError, match=r"^gain: gamma\(0\) = 1e-13, expected 0$"):
        validate_gain(lambda s: s + 1e-13)
    validate_gain(lambda s: -0.0 if s == 0.0 else s)  # -0.0 is 0


def test_validate_gain_rejects_even_function():
    with pytest.raises(ValueError, match="not odd"):
        validate_gain(lambda s: s * s)


def test_validate_gain_rejects_non_monotone():
    with pytest.raises(ValueError, match="strictly increasing"):
        validate_gain(math.sin)


def test_nonlinear_identity_gain_closed_form():
    g = DirectedGraph(2, {(1, 2), (2, 1)})
    out = NonlinearConsensus(gains=lambda s: s).step(0, g, AgentState([0.0, 1.0]))
    lo = (1.0 - math.exp(-2.0)) / 2.0
    assert out.values[0] == pytest.approx(lo, abs=1e-8)
    assert out.values[1] == pytest.approx(1.0 - lo, abs=1e-8)


def test_nonlinear_per_arc_gains():
    g = DirectedGraph(2, {(1, 2), (2, 1)})
    gains = {(1, 2): lambda s: s, (2, 1): lambda s: 3.0 * s}
    out = NonlinearConsensus(gains=gains).step(0, g, AgentState([0.0, 1.0]))
    # agent 1 is pulled three times harder, so the pair settles above 1/2
    assert out.values[0] > 0.5
    assert out.values[0] < out.values[1]


def test_nonlinear_missing_arc_gain():
    g = DirectedGraph(2, {(1, 2), (2, 1)})
    with pytest.raises(ValueError, match="no gain supplied"):
        NonlinearConsensus(gains={(1, 2): lambda s: s}).step(0, g, AgentState([0.0, 1.0]))


def test_nonlinear_missing_arc_gain_message_lists_sorted_arcs():
    g = DirectedGraph(3, {(1, 2), (2, 1), (3, 2), (2, 3)})
    gains = {(2, 1): math.atan, (3, 2): math.atan}
    with pytest.raises(ValueError) as err:
        NonlinearConsensus(gains=gains).step(0, g, AgentState([0.0, 1.0, 2.0]))
    assert str(err.value) == "no gain supplied for arcs [(1, 2), (2, 3)]"


def _rk4_reference(field, y, substeps):
    h = 1.0 / substeps
    for _ in range(substeps):
        k1 = field(y)
        k2 = field(y + 0.5 * h * k1)
        k3 = field(y + 0.5 * h * k2)
        k4 = field(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y


def _kuramoto_sorting_reference(g, x, substeps):
    # The field as it reads when the arcs are sorted by (receiver, sender)
    # on every step.
    arcs = sorted(g.arcs, key=lambda a: (a[1], a[0]))
    src, dst = np.array(arcs, dtype=np.intp).T - 1

    def field(y):
        r = 1.0 / np.sqrt(1.0 + y * y)
        return np.bincount(dst, (y[src] - y[dst]) * r[src] * r[dst], minlength=y.size)

    return _rk4_reference(field, x, substeps)


def _nonlinear_sorting_reference(g, gains, x, substeps):
    # The field as it reads when the arcs are sorted on every step.
    arcs = [(a, gains if callable(gains) else gains[a]) for a in sorted(g.arcs)]

    def field(y):
        f = np.zeros_like(y)
        for (i, k), gamma in arcs:
            f[k - 1] += gamma(y[i - 1] - y[k - 1])
        return f

    return _rk4_reference(field, x, substeps)


def _random_arc_graphs(seed, count, max_n):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(2, max_n + 1))
        m = int(rng.integers(1, 3 * n))
        arcs = {(int(k), int(l)) for k, l in rng.integers(1, n + 1, (m, 2)) if k != l}
        yield DirectedGraph(n, arcs or {(1, 2)}), rng.uniform(-1.0, 1.0, n)


def test_kuramoto_is_bit_identical_to_sorting_reference():
    for g, x in _random_arc_graphs(seed=11, count=25, max_n=14):
        out = KuramotoTime1(substeps=20).step(0, g, AgentState(x))
        assert out.values.tobytes() == _kuramoto_sorting_reference(g, x, 20).tobytes()


@pytest.mark.parametrize("per_arc", [False, True])
def test_nonlinear_is_bit_identical_to_sorting_reference(per_arc):
    library = [math.atan, lambda s: s**3, lambda s: s]
    for j, (g, x) in enumerate(_random_arc_graphs(seed=12, count=20, max_n=12)):
        if per_arc:
            gains = {a: library[(a[0] + 2 * a[1] + j) % 3] for a in g.arcs}
        else:
            gains = library[j % 3]
        out = NonlinearConsensus(gains=gains, substeps=10).step(0, g, AgentState(x))
        ref = _nonlinear_sorting_reference(g, gains, x, 10)
        assert out.values.tobytes() == ref.tobytes()


@pytest.mark.parametrize("seed", [3, 17, 40])
@pytest.mark.parametrize("spec", ["kuramoto", "arctan", "cubic"])
def test_flow_maps_are_bit_identical_on_probe_traffic(spec, seed):
    # what the probe benchmark steps: n = 6, every slot of a 16-slot
    # windowed schedule, 100 substeps, states in [-1, 1]
    schedule = random_windowed_schedule(6, 1, 16, seed)
    if spec == "kuramoto":
        update = KuramotoTime1(substeps=100)
        reference = lambda g, x: _kuramoto_sorting_reference(g, x, 100)
    else:
        gain = GAIN_LIBRARY[spec]
        update = NonlinearConsensus(gains=gain, substeps=100)
        reference = lambda g, x: _nonlinear_sorting_reference(g, gain, x, 100)
    x = np.random.default_rng(seed).uniform(-1.0, 1.0, 6)
    for t in range(16):
        g = schedule.graph_at(t)
        out = update.step(t, g, AgentState(x)).values
        assert out.tobytes() == reference(g, x).tobytes()
        x = out


@pytest.mark.parametrize("gain,spread", [(math.sinh, 1e3), (GAIN_LIBRARY["cubic"], 1e200)])
def test_nonlinear_gain_overflow_fails_as_a_non_finite_state(gain, spread):
    # float gains raise OverflowError past the largest float, where numpy
    # would have returned inf; the step reports it as a non-finite output
    g = DirectedGraph(2, {(1, 2), (2, 1)})
    with pytest.raises(ValueError, match="^state coordinates must be finite$"):
        NonlinearConsensus(gains=gain).step(0, g, AgentState([0.0, spread]))


def test_nonlinear_consensus_exact_fixed_point():
    g = DirectedGraph(2, {(1, 2), (2, 1)})
    out = NonlinearConsensus(gains=lambda s: s**3).step(0, g, AgentState([2.0, 2.0]))
    assert out.values.tolist() == [2.0, 2.0]


# ---------------------------------------------------------------------------
# Heading averaging and the max map


def test_vicsek_pair_bisects():
    g = DirectedGraph(2, {(1, 2), (2, 1)})
    out = VicsekHeading().step(0, g, AgentState([0.0, math.pi / 4]))
    assert out.values[0] == pytest.approx(math.pi / 8, abs=1e-15)
    assert out.values[1] == pytest.approx(math.pi / 8, abs=1e-15)


def test_vicsek_no_senders_keeps_heading():
    g = DirectedGraph(2, {(1, 2)})
    out = VicsekHeading().step(0, g, AgentState([0.3, 1.2]))
    assert out.values[0] == 0.3
    # agent 2 averages its heading with agent 1's
    assert out.values[1] == pytest.approx(math.atan2(math.sin(0.3) + math.sin(1.2), math.cos(0.3) + math.cos(1.2)))


def test_vicsek_rejects_out_of_domain():
    g = DirectedGraph(2, {(1, 2), (2, 1)})
    with pytest.raises(ValueError, match="agent 2 is at 1.5707963267948966, outside"):
        VicsekHeading().step(0, g, AgentState([0.0, math.pi / 2]))
    # also where nothing moves: the check does not depend on the graph
    with pytest.raises(ValueError, match=r"agent 1 is at -2.0, outside the open interval \(-1.57"):
        VicsekHeading().step(0, empty_graph(2), AgentState([-2.0, 3.0]))


def test_vicsek_and_max_read_self_then_ascending_senders():
    # From n = 9 labels collide in a set's hash table, so iterating the
    # senders as a set would not visit them in ascending order.
    for g, x in _random_arc_graphs(seed=13, count=40, max_n=40):
        x = 1.5 * x
        ref = np.empty_like(x)
        for k in g.nodes:
            rel = x[[k - 1, *sorted(i - 1 for i, l in g.arcs if l == k)]] - x[k - 1]
            ref[k - 1] = x[k - 1] + math.atan2(np.sin(rel).sum(), np.cos(rel).sum())
        assert VicsekHeading().step(0, g, AgentState(x)).values.tobytes() == ref.tobytes()
        closed_max = [max([x[k - 1], *(x[i - 1] for i, l in g.arcs if l == k)]) for k in g.nodes]
        assert MaxUpdate().step(0, g, AgentState(x)).values.tolist() == closed_max


def test_max_step_scalar():
    g = DirectedGraph(3, {(1, 2), (3, 2)})
    out = MaxUpdate().step(0, g, AgentState([3.0, 1.0, 2.0]))
    assert out.values.tolist() == [3.0, 3.0, 2.0]


def test_max_step_planar_is_coordinatewise():
    g = DirectedGraph(2, {(1, 2), (2, 1)})
    out = MaxUpdate().step(0, g, AgentState([[0.0, 5.0], [4.0, 1.0]]))
    assert out.points.tolist() == [[4.0, 5.0], [4.0, 5.0]]


# ---------------------------------------------------------------------------
# UpdateMap wrappers


def test_linear_average_matches_matrix_and_caches():
    lam = LinearAverage()
    g = DirectedGraph(3, {(1, 2), (2, 3)})
    x = AgentState([0.0, 1.0, 1.0])
    out = lam.step(0, g, x)
    direct = linear_step(build_update_matrix(g), x)
    assert np.array_equal(out.points, direct.points)
    assert lam.matrix_for(g) is lam.matrix_for(g)


def test_linear_average_weighted_graph_uses_given_weights():
    lam = LinearAverage()
    out = lam.step(0, WORKED_GRAPH, AgentState([0.0, 1.0, 1.0, 1.0]))
    assert np.allclose(out.values, [1 / 3, 6 / 7, 1.0, 1.0], rtol=0, atol=1e-15)


def test_linear_average_arc_free_graph_is_identity_object():
    lam = LinearAverage()
    x = AgentState([1.0, 2.0])
    assert lam.step(0, empty_graph(2), x) is x


@pytest.mark.parametrize(
    "update_map",
    [LinearAverage(), KuramotoTime1(), NonlinearConsensus(), VicsekHeading(), MaxUpdate()],
    ids=lambda m: m.name,
)
def test_every_map_returns_its_input_on_an_arc_free_graph(update_map):
    # the UpdateMap contract that iter_states relies on to skip silent steps
    for x in ([1.0, -0.5, 0.25], [[1.0, 2.0], [0.0, -1.0], [3.0, 3.0]]):
        x = AgentState(x)
        if x.d in update_map.supported_dims:
            assert update_map.step(0, empty_graph(3), x) is x


@pytest.mark.parametrize(
    "update_map",
    [LinearAverage(), KuramotoTime1(), NonlinearConsensus(), VicsekHeading(), MaxUpdate()],
    ids=lambda m: m.name,
)
def test_every_map_returns_a_fresh_read_only_state(update_map):
    g = DirectedGraph(3, {(1, 2), (2, 3), (3, 1)})
    for x in ([1.0, -0.5, 0.25], [[1.0, 2.0], [0.0, -1.0], [3.0, 3.0]]):
        x = AgentState(x)
        if x.d in update_map.supported_dims:
            out = update_map.step(0, g, x)
            assert (out.n, out.d) == (x.n, x.d)
            assert out.points.dtype == float and not out.points.flags.writeable
            assert not np.shares_memory(out.points, x.points)
            with pytest.raises(ValueError):
                out.points[0, 0] = 5.0


@pytest.mark.parametrize(
    "update_map",
    [LinearAverage(), KuramotoTime1(substeps=1), NonlinearConsensus(substeps=1)],
    ids=lambda m: m.name,
)
def test_maps_reject_an_overflowing_output(update_map):
    # the spread of the input overflows, and so does the step's arithmetic
    x = AgentState([-1.7e308, 1.7e308, 0.0])
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="state coordinates must be finite"):
        update_map.step(0, DirectedGraph(3, {(1, 2), (2, 1), (3, 1)}), x)


def test_a_map_output_is_wrapped_without_a_copy_but_checked_finite():
    # the vicsek and max maps cannot overflow on valid input; all five maps
    # wrap their output this way
    for bad in ([[np.inf], [0.0]], [[0.0, 1.0], [np.nan, 0.0]]):
        with pytest.raises(ValueError, match="state coordinates must be finite"):
            AgentState._own(np.array(bad))
    arr = np.array([[0.5, 1.0], [2.0, -3.0]])
    s = AgentState._own(arr)
    assert s.points is arr and not arr.flags.writeable
    assert (s.n, s.d) == (2, 2) and s._hull is None


def test_update_map_rejects_unsupported_dim():
    planar = AgentState([[0.0, 0.0], [1.0, 1.0]])
    with pytest.raises(ValueError, match="does not support d=2"):
        KuramotoTime1().step(0, empty_graph(2), planar)
    with pytest.raises(ValueError, match="does not support d=2"):
        VicsekHeading().step(0, empty_graph(2), planar)
    # the linear and max maps accept planar states
    LinearAverage().step(0, empty_graph(2), planar)
    MaxUpdate().step(0, empty_graph(2), planar)


def test_nonlinear_consensus_validates_at_construction():
    with pytest.raises(ValueError, match="not odd"):
        NonlinearConsensus(gains=lambda s: abs(s))


@pytest.mark.parametrize(
    "update_map",
    [LinearAverage(), KuramotoTime1(substeps=10), NonlinearConsensus(substeps=10), VicsekHeading(), MaxUpdate()],
    ids=lambda m: m.name,
)
@given(c=st.floats(-1.5, 1.5))
@settings(max_examples=25, deadline=None)
def test_consensus_is_fixed_point_for_every_map(update_map, c):
    # the 1/3-1/3-1/3 row of the star graph makes float row sums land off 1
    g = DirectedGraph(3, {(1, 2), (3, 2)})
    out = update_map.step(0, g, AgentState([c, c, c]))
    tol = 1e-12 if update_map.integrator_backed else 0.0
    assert np.max(np.abs(out.values - c)) <= tol


# ---------------------------------------------------------------------------
# Locality checker


def test_locality_linear_average_is_bit_exact():
    g = DirectedGraph(4, {(1, 2), (2, 3), (3, 4)})
    rep = check_communication_assumption(LinearAverage(), g, AgentState([0.0, 1.0, 2.0, 3.0]))
    assert rep.ok
    assert rep.tol == 0.0


def test_locality_kuramoto_star_passes():
    # both senders point at agent 3; nobody is more than one hop away
    g = DirectedGraph(3, {(1, 3), (2, 3)})
    rep = check_communication_assumption(
        KuramotoTime1(substeps=20), g, AgentState([0.5, -0.5, 1.0]), trials=5
    )
    assert rep.ok
    assert rep.tol == 1e-12


def test_locality_kuramoto_chain_relays_information():
    # agent 1 reaches agent 3 through agent 2's motion during the unit interval
    g = DirectedGraph(3, {(1, 2), (2, 3)})
    rep = check_communication_assumption(
        KuramotoTime1(substeps=20), g, AgentState([0.5, -0.5, 1.0]), trials=5
    )
    assert not rep.ok
    assert all(v.agent == 3 for v in rep.violations)
    assert all(v.delta > 1e-12 for v in rep.violations)


def test_locality_vicsek_resamples_inside_domain():
    g = DirectedGraph(3, {(1, 2), (2, 1)})
    rep = check_communication_assumption(
        VicsekHeading(), g, AgentState([0.1, -0.2, 0.4]), trials=50
    )
    assert rep.ok


# ---------------------------------------------------------------------------
# Strict convexity checker


def test_convexity_linear_average_passes():
    g = DirectedGraph(3, {(1, 2), (2, 1), (3, 2)})
    rep = check_strict_convexity(LinearAverage(), g, samples=300)
    assert rep.ok
    assert rep.samples == 300


def test_convexity_linear_average_passes_planar():
    g = DirectedGraph(3, {(1, 2), (2, 1), (3, 2)})
    rep = check_strict_convexity(LinearAverage(), g, samples=150, d=2)
    assert rep.ok


def test_convexity_vicsek_passes_within_domain():
    g = DirectedGraph(3, {(1, 2), (2, 1), (3, 2)})
    rep = check_strict_convexity(VicsekHeading(), g, samples=200)
    assert rep.ok


def test_convexity_max_map_fails_with_witness():
    g = DirectedGraph(3, {(1, 2), (2, 1), (3, 2)})
    rep = check_strict_convexity(MaxUpdate(), g, samples=50)
    assert not rep.ok
    w = rep.violations[0]
    assert w.reason
    assert len(w.neighborhood) >= 2


def test_convexity_rejects_unsupported_dim():
    with pytest.raises(ValueError, match="does not support d=2"):
        check_strict_convexity(KuramotoTime1(), empty_graph(2), d=2)


# The checker's arithmetic as it stood before its geometry moved to the hull
# module: the reference that the policy-only checker must reproduce.

def _reference_violation_1d(out, nb):
    lo, hi = float(nb.min()), float(nb.max())
    eps = 1e-9 * (hi - lo)
    if out <= lo + eps:
        return f"output {out!r} not strictly above neighborhood min {lo!r}"
    if out >= hi - eps:
        return f"output {out!r} not strictly below neighborhood max {hi!r}"
    return None


def _reference_violation_2d(out, nb):
    h = hull(nb)
    verts = h.vertices
    eps = 1e-9 * diameter(h)
    if len(verts) == 2:
        a, b = verts
        ab = b - a
        L2 = float(ab @ ab)
        s = float((out - a) @ ab) / L2
        perp = float(np.hypot(*(out - (a + s * ab))))
        if perp > eps:
            return f"output {out.tolist()} off the segment spanned by the neighborhood"
        if s * math.sqrt(L2) <= eps or (1.0 - s) * math.sqrt(L2) <= eps:
            return f"output {out.tolist()} at or beyond a segment endpoint"
        return None
    m = len(verts)
    for a in range(m):
        p, q = verts[a], verts[(a + 1) % m]
        edge = q - p
        depth = float(edge[0] * (out[1] - p[1]) - edge[1] * (out[0] - p[0])) / float(
            np.hypot(*edge)
        )
        if depth <= eps:
            return (
                f"output {out.tolist()} within {eps!r} of the neighborhood hull "
                f"boundary (edge depth {depth!r})"
            )
    return None


def _neighborhoods(rng, d):
    """Small neighbourhoods, not all coincident: grid points (repeats,
    segments and collinear runs are common) or random floats."""
    while True:
        k = int(rng.integers(2, 8))
        if rng.random() < 0.6:
            nb = rng.integers(-3, 4, (k, d)).astype(float)
        else:
            nb = rng.uniform(-10.0, 10.0, (k, d))
        if not np.all(nb == nb[0]):
            yield nb


def _outputs(rng, nb):
    """Outputs on every vertex, on every edge or segment (midpoints of grid
    points are exact), on the lines beyond the ends, inside and outside."""
    v = hull(nb).vertices
    w = np.roll(v, -1, axis=0)
    yield from v
    yield from (v + w) / 2.0
    yield from 2.0 * w - v
    yield nb.mean(axis=0)
    yield from rng.uniform(-12.0, 12.0, (4, nb.shape[1]))


_REASON_WORDS = ("above", "below", "off the segment", "endpoint", "boundary")


@pytest.mark.parametrize("d", [1, 2])
def test_convexity_verdicts_match_the_reference_arithmetic(d):
    rng = np.random.default_rng(31 + d)
    reference = _reference_violation_1d if d == 1 else _reference_violation_2d
    kinds = set()
    for _, nb in zip(range(400), _neighborhoods(rng, d)):
        for out in _outputs(rng, nb):
            want = reference(float(out[0]), nb[:, 0]) if d == 1 else reference(out, nb)
            assert dynamics._strict_violation(out, nb, 0.0) == want, (out, nb)
            kinds.add(want and next(w for w in _REASON_WORDS if w in want))
    # every verdict of the reference occurs
    assert kinds == ({None, "above", "below"} if d == 1 else {None, *_REASON_WORDS[2:]})


def test_convexity_consensus_neighborhood_must_stay_put():
    nb = np.array([[1.5, 0.0], [1.5, -0.0], [1.5, 0.0]])
    assert dynamics._strict_violation(np.array([1.5, 0.0]), nb, 0.0) is None
    moved = np.array([1.5, 0.25])
    assert dynamics._strict_violation(moved, nb, 0.0) == "consensus neighborhood moved by 0.25"
    assert dynamics._strict_violation(moved, nb, 0.5) is None


# ---------------------------------------------------------------------------
# States at rest


def test_a_state_is_at_rest_when_its_rows_share_their_bits_and_none_is_minus_zero():
    for x in ([2.5], [2.5, 2.5, 2.5], [0.0, 0.0], [[1.0, -3.0]] * 4, [[0.0, 0.0]] * 2):
        assert AgentState(x)._at_rest()
    for x in (
        [2.5, 2.5, np.nextafter(2.5, 3.0)],
        [0.0, -0.0],  # one point to the hull, two bit patterns
        [-0.0, -0.0],  # a step may turn -0.0 into +0.0
        [-0.0],
        [[1.0, 0.0], [1.0, -0.0]],
        [[1.0, 2.0], [1.0, 3.0]],
    ):
        assert not AgentState(x)._at_rest()


def test_at_rest_reads_the_state_hull_once():
    x = AgentState([4.0, 4.0, 4.0])
    assert x._at_rest()
    h = x._hull
    assert h is not None and h.vertex_count == 1
    assert x._at_rest() and hull(x) is h


# every substep keeps a point at rest, so a few show what a hundred would
_ALL_MAPS = [
    LinearAverage(), KuramotoTime1(substeps=8), NonlinearConsensus(substeps=8), VicsekHeading(),
    MaxUpdate(),
]

_REST_GRAPHS = [
    DirectedGraph(3, {(1, 2)}),
    DirectedGraph(3, {(1, 2), (2, 3), (3, 1)}),
    DirectedGraph(3, {(k, l) for k in (1, 2, 3) for l in (1, 2, 3) if k != l}),
    WeightedDigraph(DirectedGraph(3, {(2, 1), (3, 1)}), {(2, 1): 0.25, (3, 1): 7.0}),
]


def _rest_state(d, c):
    """Three agents at the point (c, -2 c) + 0.0 (its first d coordinates)."""
    return AgentState(np.tile(np.array([c, -2.0 * c])[:d] + 0.0, (3, 1)))


def _arithmetic(update_map, g, x):
    """What the map's own arithmetic makes of `x`, with the at-rest skip off."""
    with mock.patch.object(AgentState, "_at_rest", lambda self: False):
        out = update_map.step(0, g, x)
    assert out is not x
    return out.points


def _references(update_map, g, x):
    """Independent evaluations of the map's arithmetic on `x`."""
    if isinstance(update_map, LinearAverage):
        yield linear_step(build_update_matrix(g), x).points
    elif isinstance(update_map, KuramotoTime1):
        yield _kuramoto_sorting_reference(g, x.values, update_map.substeps)
    elif isinstance(update_map, NonlinearConsensus):
        for gain in GAIN_LIBRARY.values():
            yield _nonlinear_sorting_reference(g, gain, x.values, update_map.substeps)


def _assert_kept_at_rest(update_map, g, x):
    assert x._at_rest()
    assert update_map.step(0, g, x) is x
    want = x.points.tobytes()
    assert _arithmetic(update_map, g, x).tobytes() == want
    with np.errstate(over="ignore"):  # the numpy field squares huge points
        refs = list(_references(update_map, g, x))
    for ref in refs:
        assert ref.tobytes() == want


@pytest.mark.parametrize(
    "update_map,d",
    [(m, d) for m in _ALL_MAPS for d in m.supported_dims],
    ids=lambda v: v.name if isinstance(v, UpdateMap) else f"d={v}",
)
def test_every_map_returns_a_state_at_rest(update_map, d):
    # the UpdateMap contract that iter_states relies on to stop stepping
    for c in (0.75, -1.25, 0.0, 1e-310):
        x = _rest_state(d, c)
        for g in _REST_GRAPHS:
            _assert_kept_at_rest(update_map, g, x)


@pytest.mark.parametrize("update_map", _ALL_MAPS, ids=lambda m: m.name)
@settings(max_examples=40, deadline=None)
@given(c=st.floats(allow_nan=False, allow_infinity=False))
@example(c=0.0)
@example(c=-0.0)
@example(c=-1.5e308)
def test_every_map_keeps_any_common_point_bit_for_bit(update_map, c):
    if update_map.domain is not None:
        c = math.atan(c)  # into vicsek's headings, once halved
    for d in update_map.supported_dims:
        x = _rest_state(d, c / 2.0)
        for g in _REST_GRAPHS:
            _assert_kept_at_rest(update_map, g, x)
