"""State containers, update matrices, nonlinear maps, and assumption checkers."""

import functools
import gc
import hashlib
import math
from fractions import Fraction
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
    StretchingSchedule,
    VicsekHeading,
    WeightedDigraph,
    build_update_matrix,
    check_communication_assumption,
    check_strict_convexity,
    diameter,
    hull,
    linear_step,
    random_windowed_schedule,
    validate_gain,
)
from consensus_lab import dynamics
from consensus_lab.dynamics import GAIN_LIBRARY, UpdateMap
from consensus_lab.simulator import iter_spans

WORKED_GRAPH = WeightedDigraph(4, {(2, 1): 0.5, (1, 2): 1.0, (3, 2): 5.0})


# ---------------------------------------------------------------------------
# AgentState and StochasticMatrix


def test_state_accepts_flat_and_planar_input():
    s = AgentState([0.0, 1.0, 2.0])
    assert s.n == 3 and s.d == 1
    assert s.values.tolist() == [0.0, 1.0, 2.0]
    assert s.points[1].tolist() == [1.0]
    p = AgentState([[0.0, 1.0], [2.0, 3.0]])
    assert p.n == 2 and p.d == 2
    assert p.points[0].tolist() == [0.0, 1.0]


def test_state_rejects_bad_input():
    with pytest.raises(ValueError, match="shape"):
        AgentState([[[1.0]]])
    with pytest.raises(ValueError, match="d in"):
        AgentState(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="finite"):
        AgentState([0.0, float("nan")])
    with pytest.raises(ValueError, match="scalar"):
        AgentState([[0.0, 1.0]]).values


def test_state_rejects_ragged_rows_with_the_shape_message():
    ragged = r"^expected \(n,\) or \(n, d\) points .*, got rows of different lengths$"
    with pytest.raises(ValueError, match=ragged):
        AgentState([[0.0, 0.0], [1.0]])
    with pytest.raises(ValueError, match=ragged):
        AgentState([[[0.0], [1.0, 2.0]], [[0.0], [1.0, 2.0]]])
    with pytest.raises(ValueError, match="could not convert"):
        AgentState([[0.0, "x"], [1.0, 2.0]])


def test_state_and_matrix_reprs():
    assert repr(AgentState([[0, 1.5], [2, -3]])) == "AgentState([[0.0, 1.5], [2.0, -3.0]])"
    assert repr(AgentState([1, 2])) == "AgentState([[1.0], [2.0]])"
    M = build_update_matrix(DirectedGraph(2, {(1, 2)}))
    assert repr(M) == "StochasticMatrix([[1.0, 0.0], [0.5, 0.5]])"


def test_state_is_read_only():
    s = AgentState([0.0, 1.0])
    with pytest.raises(ValueError):
        s.points[0] = 5.0


def test_stochastic_matrix_is_made_only_by_build_update_matrix():
    with pytest.raises(TypeError):
        StochasticMatrix([[1.0]])


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
    assert np.array_equal(build_update_matrix(DirectedGraph(3)).entries, np.eye(3))


def test_linear_step_worked_example():
    m = build_update_matrix(WORKED_GRAPH)
    out = linear_step(m, AgentState([0.0, 1.0, 1.0, 1.0]))
    assert np.allclose(out.values, [1 / 3, 6 / 7, 1.0, 1.0], rtol=0, atol=1e-15)


def test_linear_step_dimension_mismatch():
    m = build_update_matrix(DirectedGraph(3))
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
    return WeightedDigraph(n, {a: float(rng.uniform(0.1, 5.0)) for a in arcs})


def test_update_matrix_and_linear_step_match_python_reference():
    # The contract fixes the summation order: in-weights and increments are
    # summed over senders in ascending order, starting from 0.0.
    rng = np.random.default_rng(42)
    for _ in range(200):
        n = int(rng.integers(1, 13))
        g = _random_weighted_graph(rng, n)
        M = build_update_matrix(g)
        A = M.entries.tolist()
        for k in g.nodes:
            senders = sorted(g.in_sources(k))
            s = 0.0
            for i in senders:
                s += g.weights[(i, k)]
            assert A[k - 1][k - 1] == 1.0 / (1.0 + s)
            for i in senders:
                assert A[k - 1][i - 1] == g.weights[(i, k)] / (1.0 + s)
        for d in (1, 2):
            pts = rng.uniform(-10.0, 10.0, (n, d))
            out = linear_step(M, AgentState(pts)).points.tolist()
            x = pts.tolist()
            for k in g.nodes:
                for j in range(d):
                    acc = 0.0
                    for i in sorted(g.in_sources(k)):
                        acc += A[k - 1][i - 1] * (x[i - 1][j] - x[k - 1][j])
                    assert out[k - 1][j] == x[k - 1][j] + acc


def test_update_matrix_stores_one_triple_per_arc():
    rng = np.random.default_rng(5)
    for n in (1, 4, 12):
        g = _random_weighted_graph(rng, n)
        M = build_update_matrix(g)
        assert M.n == n and M.rows.size == len(g.arcs)
        assert np.all(np.diff(M.rows * n + M.cols) > 0)  # sorted by (row, col)
        assert np.array_equal(M.entries[M.rows, M.cols], M.weights)
        assert np.array_equal(M.entries.diagonal(), M.diag)
        for name in ("diag", "rows", "cols", "weights"):
            with pytest.raises(ValueError):
                getattr(M, name)[...] = 0
        with pytest.raises(ValueError):
            M.entries[0, 0] = 0.5


def test_update_matrix_drops_entries_that_round_to_zero():
    # 5e-324 / 2 rounds to 0: the stored triples stay the nonzero entries.
    g = WeightedDigraph(3, {(1, 3): 5e-324, (2, 3): 1.0})
    M = build_update_matrix(g)
    assert M.rows.tolist() == [2] and M.cols.tolist() == [1]
    assert M.entries.tolist() == [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.5, 0.5]]


STAR_WEIGHTS = (1.0, 0.3, 3.0, 1e-300, 1e300)


def _star(senders):
    """Nodes 2..senders+1 each send one arc into node 1."""
    return DirectedGraph(senders + 1, [(i, 1) for i in range(2, senders + 2)])


@functools.lru_cache(maxsize=None)
def _weighted_star(senders, w):
    """`_star(senders)` with weight w on every arc, built once per (senders, w):
    a 10^5-arc one takes about 0.2 s."""
    g = _star(senders)
    return WeightedDigraph(g.n, dict.fromkeys(g.arcs, w))


def _assert_stochastic_by_construction(M, g):
    """Finite nonnegative entries, a positive diagonal, and each row with k
    senders summing to 1 within (k + 2) eps, the first-order rounding bound
    of its one k-term sum and k + 1 quotients."""
    eps = np.finfo(float).eps
    assert np.all(np.isfinite(M.diag)) and np.all(M.diag > 0.0)
    assert np.all(np.isfinite(M.weights)) and np.all(M.weights >= 0.0)
    rows = [[d] for d in M.diag.tolist()]
    for r, w in zip(M.rows.tolist(), M.weights.tolist()):
        rows[r].append(w)
    senders = np.bincount(g.arc_arrays[1], minlength=g.n).tolist()
    for row, k in zip(rows, senders):
        assert abs(math.fsum(row) - 1.0) <= (k + 2) * eps


def test_built_matrices_are_stochastic_by_construction():
    # about 0.4 s
    rng = np.random.default_rng(24)
    for _ in range(300):
        n = int(rng.integers(1, 41))
        density = rng.uniform(0.05, 0.9)
        pairs = [(k, l) for k in range(1, n + 1) for l in range(1, n + 1) if k != l]
        arcs = [p for p in pairs if rng.random() < density]
        weights = {a: float(10.0 ** rng.uniform(-12.0, 12.0)) for a in arcs}
        g = WeightedDigraph(n, weights)
        _assert_stochastic_by_construction(build_update_matrix(g), g)
    for w in STAR_WEIGHTS:
        g = _weighted_star(1_000, w)
        _assert_stochastic_by_construction(build_update_matrix(g), g)


def test_a_hundred_thousand_senders_get_their_matrix_and_step():
    # a fixed 1e-12 bound on the float row sum rejected these matrices; about
    # 1.6-2.0 s, 0.9-1.1 s of it building the five weighted stars
    for w in STAR_WEIGHTS:
        g = _weighted_star(100_000, w)
        _assert_stochastic_by_construction(build_update_matrix(g), g)
    g = _star(100_000)
    M = build_update_matrix(g)
    assert M.rows.size == 100_000 and M.diag[0] == 1.0 / 100_001.0
    x = np.ones(g.n)
    x[0] = 0.0
    out = LinearAverage().step(0, g, AgentState(x)).values
    assert 0.0 < out[0] < 1.0 and np.all(out[1:] == 1.0)


def test_overflowing_in_weight_names_its_node():
    # under 0.01 s
    message = "^the arc weights into node 3 sum past the largest float$"
    with pytest.raises(ValueError, match=message):
        build_update_matrix(WeightedDigraph(3, {(1, 3): 1e308, (2, 3): 1e308}))


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
        ref = _dense_kuramoto_reference(g, x, 10)
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


def test_validate_gain_decides_oddness_on_the_float_values():
    # an even part of 1e-12 s^2 is under a relative 1e-9 slack, but not odd
    with pytest.raises(ValueError, match=r"not odd, gamma\(4\.0\) \+ gamma\(-4\.0\) != 0"):
        validate_gain(lambda s: s + 1e-12 * s * s)
    # odd gains written with odd float operations are odd bit for bit
    for gain in (math.tanh, math.sinh, math.erf, np.tanh, np.arctan):
        validate_gain(gain)


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
# Generated flow kernels


def _scaled_gains(arcs, seed):
    """A distinct odd, increasing gain c * atan(s) per arc."""
    scales = np.random.default_rng(seed).uniform(0.5, 2.0, len(arcs)).tolist()
    return {a: (lambda s, c=c: c * math.atan(s)) for a, c in zip(sorted(arcs), scales)}


def _kernel_graphs(seed):
    """Graphs with n from 2 to 40 in which the upper third of the agents
    receive from no one."""
    rng = np.random.default_rng(seed)
    for n in (2, 3, 5, 8, 13, 21, 40):
        m = int(rng.integers(1, 3 * n))
        arcs = {(int(k), int(l)) for k, l in rng.integers(1, n + 1, (m, 2)) if k != l}
        arcs = {(k, l) for k, l in arcs if l <= max(1, 2 * n // 3)} or {(2, 1)}
        yield DirectedGraph(n, arcs), rng.uniform(-1.0, 1.0, n)


def _mixed_gains(arcs):
    """Per-arc gains that cycle through the three library gains and one
    user callable, so one field holds written-out and called terms."""
    cycle = [*GAIN_LIBRARY.values(), lambda s: 2.0 * math.atan(s)]
    return {a: cycle[j % 4] for j, a in enumerate(sorted(arcs))}


def _assert_flow_kernels_match_the_references(graphs, substeps):
    """Compare each flow map with its reference, bit for bit, and return how
    many nonlinear steps overflowed: a stiff gain past RK4's stability
    (ROADMAP item 6) must fail its step where the reference is not finite."""
    overflows = 0
    for j, (g, x) in enumerate(graphs):
        assert any(not g.in_sources(k) for k in g.nodes)
        out = KuramotoTime1(substeps=substeps).step(0, g, AgentState(x)).values
        assert out.tobytes() == _kuramoto_sorting_reference(g, x, substeps).tobytes()
        per_arc = (_scaled_gains(g.arcs, seed=j), _mixed_gains(g.arcs))
        for gains in (*GAIN_LIBRARY.values(), *per_arc):
            update = NonlinearConsensus(gains, substeps=substeps)
            with np.errstate(over="ignore", invalid="ignore"):
                ref = _nonlinear_sorting_reference(g, gains, x, substeps)
            if np.all(np.isfinite(ref)):
                assert update.step(0, g, AgentState(x)).values.tobytes() == ref.tobytes()
            else:
                overflows += 1
                with pytest.raises(ValueError, match="^state coordinates must be finite$"):
                    update.step(0, g, AgentState(x))
    return overflows


@pytest.mark.parametrize("substeps", [1, 2, 7])
def test_flow_kernels_are_bit_identical_to_the_references(substeps):
    # every library gain, written out, and per-arc gains that mix written-out
    # and called terms in one field; at 2 substeps the cubic gain overflows
    # on the 40-agent graph, as its reference does (about 0.2 s for all three)
    overflows = _assert_flow_kernels_match_the_references(_kernel_graphs(seed=substeps), substeps)
    assert overflows == (1 if substeps == 2 else 0)
    # each sum starts from 0.0, which turns a sum of -0.0 terms into +0.0
    signed = NonlinearConsensus(lambda s: -0.0 if s == 0.0 else s, substeps=substeps)
    pair = DirectedGraph(2, {(1, 2), (2, 1)})
    assert signed.step(0, pair, AgentState([-0.0, -0.0])).values.tobytes() == bytes(16)


def test_flow_kernels_sum_a_hub_of_3000_senders_in_order():
    # one sum of 3000 terms nests too deep for the compiler, so the field
    # adds it in chunks of `_SUM_CHUNK` terms, in the same order, for the
    # Kuramoto map and each gain; the mixed gains overflow at the hub, whose
    # identity terms make 2 substeps unstable and feed the cubic ones
    # (about 1 s)
    star = DirectedGraph(3001, {(k, 1) for k in range(2, 3002)})
    x = np.random.default_rng(5).uniform(-1.0, 1.0, 3001) * 1e-3
    assert _assert_flow_kernels_match_the_references([(star, x)], substeps=2) == 1


def _compiled(kernel_spy, name):
    return [c.args[0] for c in kernel_spy.call_args_list if c.args[2] == name]


@pytest.mark.parametrize(
    "make",
    [KuramotoTime1, lambda: NonlinearConsensus(math.atan), lambda: NonlinearConsensus(
        _scaled_gains({(1, 2), (2, 3), (3, 1), (1, 3)}, seed=0))],
    ids=["kuramoto", "one-gain", "per-arc"],
)
def test_each_map_compiles_one_field_per_graph_and_one_kernel_per_n(make):
    g = DirectedGraph(3, {(1, 2), (2, 3), (3, 1)})
    twin = DirectedGraph(3, {(3, 1), (2, 3), (1, 2)})
    assert twin == g and twin is not g
    other = DirectedGraph(3, {(1, 3)})
    x = np.array([0.5, -0.25, 0.75])
    dynamics._rk4_kernel.cache_clear()
    with mock.patch.object(dynamics, "_kernel", wraps=dynamics._kernel) as spy:
        for _ in range(2):  # two map instances compile their fields apart
            update = make()
            for t in range(5):
                update.step(t, g, AgentState(x + t))
            update.step(5, twin, AgentState(x))
            assert update.step(6, twin, AgentState(x)).values.tobytes() == (
                update.step(6, g, AgentState(x)).values.tobytes()
            )
            update.step(7, other, AgentState(x))
    assert len(_compiled(spy, "field")) == 2 * 2
    assert len(_compiled(spy, "rk4")) == 1  # and share one RK4 kernel


def test_per_graph_caches_die_with_their_graphs():
    # a run that meets a fresh graph at every step keeps no matrix and no field
    rng = np.random.default_rng(8)
    pairs = [(k, l) for k in range(1, 7) for l in range(1, 7) if k != l]
    linear, kuramoto = LinearAverage(), KuramotoTime1(substeps=2)
    x = AgentState([0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
    dynamics._rk4_kernel.cache_clear()
    for t in range(300):
        g = DirectedGraph(6, [pairs[i] for i in rng.permutation(len(pairs))[:8]])
        linear.step(t, g, x)
        kuramoto.step(t, g, x)
    assert len(linear._cache) == len(kuramoto._fields) == 1  # the live g
    twin = DirectedGraph(6, g.arcs)
    assert linear.matrix_for(twin) is linear.matrix_for(g)
    del g, twin
    gc.collect()
    assert len(linear._cache) == len(kuramoto._fields) == 0
    assert dynamics._rk4_kernel.cache_info().currsize == 1


def test_a_missing_per_arc_gain_fails_every_step_of_its_graph():
    g = DirectedGraph(3, {(1, 2), (2, 3), (3, 2)})
    update = NonlinearConsensus({(1, 2): math.atan, (3, 2): math.atan})
    for t in range(2):
        with pytest.raises(ValueError, match=r"^no gain supplied for arcs \[\(2, 3\)\]$"):
            update.step(t, g, AgentState([0.0, 1.0, 2.0]))
    ok = DirectedGraph(3, {(1, 2), (3, 2)})
    assert update.step(2, ok, AgentState([0.0, 1.0, 1.5])).values[1] < 1.0


class _SourceNamedGain:
    """An odd gain whose name and repr read as Python source."""

    __name__ = __qualname__ = "__import__('sys').exit(3)"

    def __init__(self):
        self.calls = 0

    def __call__(self, s):
        self.calls += 1
        return math.atan(s)

    def __repr__(self):
        return "(lambda: __import__('sys').exit(4))()"


def _assert_called_by_reference(gain, per_arc):
    g = DirectedGraph(3, {(1, 2), (2, 3), (3, 1)})
    gains = {a: gain for a in g.arcs} if per_arc else gain
    x = np.array([0.5, -0.25, 0.75])
    dynamics._rk4_kernel.cache_clear()
    with mock.patch.object(dynamics, "_kernel", wraps=dynamics._kernel) as spy:
        update = NonlinearConsensus(gains, substeps=3)
        before = gain.calls
        out = update.step(0, g, AgentState(x)).values
    assert gain.calls - before == 3 * 4 * len(g.arcs)
    assert out.tobytes() == _nonlinear_sorting_reference(g, gains, x, 3).tobytes()
    sources = [c.args[0] for c in spy.call_args_list]
    assert len(sources) == 2
    for text in (gain.__name__, repr(gain), "sys", "exit"):
        assert all(text not in source for source in sources)


@pytest.mark.parametrize("per_arc", [False, True])
def test_gains_are_called_by_reference_and_their_text_stays_out_of_the_source(per_arc):
    _assert_called_by_reference(_SourceNamedGain(), per_arc)


class _UnhashableGain(_SourceNamedGain):
    """A gain with `__eq__` and no `__hash__`, so no dict can hold it as a key."""

    def __eq__(self, other):
        return other is self


class _AtanLookalike(_SourceNamedGain):
    """A gain that claims to be `math.atan` to `==` and to hashing."""

    def __eq__(self, other):
        return other is self or other is math.atan

    def __hash__(self):
        return hash(math.atan)


@pytest.mark.parametrize("per_arc", [False, True])
@pytest.mark.parametrize("make", [_UnhashableGain, _AtanLookalike])
def test_gains_are_matched_to_the_library_by_identity(make, per_arc):
    # only the library's own objects are written out; these two are called
    gain = make()
    if make is _AtanLookalike:
        assert gain == math.atan and hash(gain) == hash(math.atan)
    else:
        with pytest.raises(TypeError, match="unhashable"):
            hash(gain)
    _assert_called_by_reference(gain, per_arc)


def test_one_field_writes_library_gains_out_and_calls_the_others():
    g = DirectedGraph(3, {(1, 2), (1, 3), (2, 1), (2, 3), (3, 1)})
    gains = _mixed_gains(g.arcs)
    with mock.patch.object(dynamics, "_kernel", wraps=dynamics._kernel) as spy:
        NonlinearConsensus(gains, substeps=2).step(0, g, AgentState([0.5, -0.25, 0.75]))
    (source,) = _compiled(spy, "field")
    # sorted arcs (1, 2), (1, 3), (2, 1), (2, 3), (3, 1) take identity,
    # cubic, arctan, the user gain and identity again
    assert source.splitlines()[1:] == [
        "    return (0.0 + atan(x1 - x0) + (x2 - x0), "
        "0.0 + (x0 - x1), 0.0 + (x0 - x2) ** 3 + g0(x1 - x2),)"
    ]


def _twice_atan(s):
    return 2.0 * math.atan(s)


def _soft_sign(s):
    return s / (1.0 + abs(s))


def test_generated_field_sources_are_pinned():
    # every field source and the names its namespace binds, for Kuramoto,
    # the three library gains, one custom gain and a per-arc mapping of two
    # custom gains and `math.atan`, on eight windowed graphs and a hub
    # graph whose receivers hear 150, 65 and 64 senders (three, two and one
    # chunks of `_SUM_CHUNK`); names first met along the arcs in key order
    # become g0, g1, ... (about 0.05 s)
    schedule = random_windowed_schedule(6, 1, 8, seed=3)
    hub_arcs = [(k, 1) for k in range(2, 152)] + [(k, 2) for k in range(3, 68)]
    hub = DirectedGraph(151, hub_arcs + [(k, 3) for k in range(4, 68)])
    graphs = [schedule.graph_at(t) for t in range(8)] + [hub]
    cycle = [_twice_atan, math.atan, _soft_sign]
    arcs = sorted(set().union(*(g.arcs for g in graphs)))
    per_arc = {a: cycle[j % 3] for j, a in enumerate(arcs)}
    maps = [KuramotoTime1(substeps=1)] + [
        NonlinearConsensus(gains, substeps=1)
        for gains in (*GAIN_LIBRARY.values(), _twice_atan, per_arc)
    ]
    labels = {id(fn): fn.__name__ for fn in (math.atan, math.sqrt, _twice_atan, _soft_sign)}
    with mock.patch.object(dynamics, "_kernel", wraps=dynamics._kernel) as spy:
        for update in maps:
            for g in graphs:
                x = np.linspace(-0.5, 0.5, g.n)
                assert np.all(np.isfinite(update.step(0, g, AgentState(x)).values))
    fields = []
    for source, namespace, name in (c.args for c in spy.call_args_list):
        if name == "field":
            bound = sorted((k, labels[id(v)]) for k, v in namespace.items() if k != "__builtins__")
            fields.append((source, bound))
    assert len(fields) == len(maps) * len(graphs)
    assert hashlib.sha256(repr(fields).encode()).hexdigest() == (
        "04d84057a82e5b6f73f66fca3665b4aa367bc1a26c04a585c77ed0f559eb73de"
    )


def test_flow_maps_share_one_rk4_kernel_per_n_and_substeps():
    g = DirectedGraph(3, {(1, 2), (2, 3), (3, 1)})
    x = AgentState([0.5, -0.25, 0.75])
    rk4 = dynamics._rk4_kernel
    rk4.cache_clear()
    kernels = []

    def spy(n, substeps):
        kernels.append(rk4(n, substeps))
        return kernels[-1]

    with mock.patch.object(dynamics, "_rk4_kernel", spy):
        KuramotoTime1(substeps=5).step(0, g, x)
        NonlinearConsensus(math.atan, substeps=5).step(0, g, x)
        NonlinearConsensus(substeps=6).step(0, g, x)
    assert kernels[0] is kernels[1] and kernels[2] is not kernels[0]
    assert rk4.cache_info().misses == 2
    bound = rk4.cache_info().maxsize
    assert bound == 8
    for substeps in range(1, bound + 3):
        KuramotoTime1(substeps=substeps).step(0, g, x)
        assert rk4.cache_info().currsize <= bound
    assert rk4.cache_info().currsize == bound


@pytest.mark.parametrize(
    "name,scale,coarse,ref_substeps",
    [("arctan", 3.0, 8, 256), ("cubic", 1.0, 100, 1600)],
    ids=["arctan", "cubic"],
)
def test_library_gains_halve_their_error_as_a_fourth_order_method(name, scale, coarse, ref_substeps):
    # criterion 8's step-halving check, for the library gains: the cubic
    # gain is stiff for wide states (ROADMAP item 6), so it is checked on
    # states in [-1, 1], the probe benchmark's scale, at 100 and 200
    # substeps (about 0.1 s for both gains)
    g = DirectedGraph(4, {(1, 2), (2, 1), (2, 3), (3, 2), (3, 4), (4, 3), (1, 4)})
    rng = np.random.default_rng(20260815)
    gain = GAIN_LIBRARY[name]
    for _ in range(10):
        x = AgentState(rng.uniform(-scale, scale, 4))
        ref = NonlinearConsensus(gain, ref_substeps).step(0, g, x).points
        err = [
            float(np.max(np.abs(NonlinearConsensus(gain, k).step(0, g, x).points - ref)))
            for k in (coarse, 2 * coarse)
        ]
        assert 12.0 <= err[0] / err[1] <= 20.0


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
        VicsekHeading().step(0, DirectedGraph(2), AgentState([-2.0, 3.0]))


def test_vicsek_and_max_read_self_then_ascending_senders():
    # From n = 9 labels collide in a set's hash table, so iterating the
    # senders as a set would not visit them in ascending order.
    for g, x in _random_arc_graphs(seed=13, count=40, max_n=40):
        x = 1.5 * x
        ref = np.empty_like(x)
        for k in g.nodes:
            rel = x[[k - 1, *sorted(i - 1 for i, l in g.arcs if l == k)]] - x[k - 1]
            ref[k - 1] = x[k - 1] + math.atan2(np.cumsum(np.sin(rel))[-1], np.cumsum(np.cos(rel))[-1])
        assert VicsekHeading().step(0, g, AgentState(x)).values.tobytes() == ref.tobytes()
        closed_max = [max([x[k - 1], *(x[i - 1] for i, l in g.arcs if l == k)]) for k in g.nodes]
        assert MaxUpdate().step(0, g, AgentState(x)).values.tolist() == closed_max


def test_vicsek_and_max_on_a_3000_sender_hub_go_left_to_right():
    # Agent 1 hears 3000 senders, agent 3002 four, and agent 3002's closed
    # neighbourhood mixes 0.0 and -0.0 in both coordinates.  Vicsek sums left
    # to right (`np.cumsum`; Python's `sum` compensates from 3.12 on, numpy's
    # is pairwise from 8 terms).  Max keeps the later of equal values, as the
    # per-agent `max(axis=0)` does in d = 2, where the hub's second column
    # ties 0.0 and -0.0 at its maximum, and below 9 rows in d = 1, where the
    # hub's maximum is unique (about 0.01 s)
    rng = np.random.default_rng(21)
    n = 3006
    senders = {1: range(2, 3002), 3002: range(3003, n + 1)}
    g = DirectedGraph(n, [(i, k) for k, ins in senders.items() for i in ins])
    x = np.c_[rng.uniform(-1.0, 1.0, n), rng.choice([-1.0, 0.0, -0.0], n)]
    x[3001:] = [[0.0, -0.0], [-0.0, 0.0], [0.0, 0.0], [-0.0, -0.0], [-0.0, 0.0]]
    theta = 1.5 * x[:, 0]
    ref = theta + 0.0  # an agent with no senders turns by atan2(0.0, 1.0)
    for k, ins in senders.items():
        rel = theta[[k - 1, *(i - 1 for i in ins)]] - theta[k - 1]
        ref[k - 1] = theta[k - 1] + math.atan2(np.cumsum(np.sin(rel))[-1], np.cumsum(np.cos(rel))[-1])
    assert VicsekHeading().step(0, g, AgentState(theta)).values.tobytes() == ref.tobytes()
    for pts in (x[:, :1], x):
        ref = pts.copy()
        for k, ins in senders.items():
            ref[k - 1] = pts[[k - 1, *(i - 1 for i in ins)]].max(axis=0)
        assert MaxUpdate().step(0, g, AgentState(pts)).points.tobytes() == ref.tobytes()
    assert np.signbit(ref[3001]).tolist() == [True, False]
    assert ref[0, 1] == 0.0


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


def test_linear_average_rejects_a_graph_of_another_size():
    with pytest.raises(ValueError, match="graph has n=4 but state has n=3"):
        LinearAverage().step(0, DirectedGraph(4, {(1, 2)}), AgentState([0.0, 1.0, 2.0]))


def test_linear_average_arc_free_graph_is_identity_object():
    lam = LinearAverage()
    x = AgentState([1.0, 2.0])
    assert lam.step(0, DirectedGraph(2), x) is x


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
            assert update_map.step(0, DirectedGraph(3), x) is x


class _AverageMove(UpdateMap):
    """A map that defines only its move, linear averaging on (-10, 10),
    and keeps the graph of each `_move` call."""

    name = "average-move"
    domain = (-10.0, 10.0)

    def __init__(self):
        self.moved = []

    def _move(self, graph, state):
        self.moved.append(graph)
        return linear_step(build_update_matrix(graph), state)


def test_the_one_step_moves_only_a_state_off_rest_on_a_graph_with_arcs():
    m, g = _AverageMove(), DirectedGraph(3, {(1, 2), (2, 3)})
    x, rest = AgentState([0.0, 1.0, 4.0]), AgentState([2.5, 2.5, 2.5])
    assert m.step(0, DirectedGraph(3), x) is x
    assert m.step(0, g, rest) is rest
    assert m.moved == []
    out = m.step(0, g, x)
    assert m.moved == [g]
    assert out.points.tobytes() == linear_step(build_update_matrix(g), x).points.tobytes()
    # the base move is no map's
    with pytest.raises(NotImplementedError):
        UpdateMap().step(0, g, x)


def test_the_one_step_checks_before_it_skips():
    m = _AverageMove()
    for g in (DirectedGraph(4), DirectedGraph(4, {(1, 2)})):
        with pytest.raises(ValueError, match="^graph has n=4 but state has n=3$"):
            m.step(0, g, AgentState([0.0, 1.0, 4.0]))
    for g in (DirectedGraph(2), DirectedGraph(2, {(1, 2)})):
        with pytest.raises(ValueError, match="^average-move does not support d=2$"):
            m.step(0, g, AgentState([[0.0, 0.0], [0.0, 0.0]]))
        with pytest.raises(
            ValueError,
            match=r"^average-move: agent 2 is at 10\.0, outside the open interval \(-10\.0, 10\.0\)$",
        ):
            m.step(0, g, AgentState([0.0, 10.0]))
    assert m.moved == []


def test_the_one_step_moves_at_the_active_times_of_a_stretching_run():
    sched = StretchingSchedule(3)
    active = [sched.active_position(g) for g in range(1, 31)]
    m = _AverageMove()
    spans = list(iter_spans(sched, m, [0.0, 1.0, 4.0], active[-1] + 5))
    assert [end for _, end, _ in spans[:-1]] == active
    assert m.moved == [sched.graph_at(t) for t in active]


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
        KuramotoTime1().step(0, DirectedGraph(2), planar)
    with pytest.raises(ValueError, match="does not support d=2"):
        VicsekHeading().step(0, DirectedGraph(2), planar)
    # the linear and max maps accept planar states
    LinearAverage().step(0, DirectedGraph(2), planar)
    MaxUpdate().step(0, DirectedGraph(2), planar)


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
    assert np.all(out.values == c)


# ---------------------------------------------------------------------------
# Locality checker


def test_locality_linear_average_is_bit_exact():
    g = DirectedGraph(4, {(1, 2), (2, 3), (3, 4)})
    rep = check_communication_assumption(LinearAverage(), g, AgentState([0.0, 1.0, 2.0, 3.0]))
    assert rep.ok


def test_locality_kuramoto_star_passes():
    # both senders point at agent 3; nobody is more than one hop away
    g = DirectedGraph(3, {(1, 3), (2, 3)})
    rep = check_communication_assumption(
        KuramotoTime1(substeps=20), g, AgentState([0.5, -0.5, 1.0]), trials=5
    )
    assert rep.ok


def test_locality_kuramoto_chain_relays_information():
    # agent 1 reaches agent 3 through agent 2's motion during the unit interval
    g = DirectedGraph(3, {(1, 2), (2, 3)})
    x = AgentState([0.5, -0.5, 1.0])
    rep = check_communication_assumption(KuramotoTime1(substeps=20), g, x, trials=5)
    baseline = float(KuramotoTime1(substeps=20).step(0, g, x).values[2])
    assert not rep.ok
    assert [v.draw for v in rep.violations] == [0, 1, 2, 3, 4]
    for v in rep.violations:
        # the witness: agent 3 and its sender 2 as they were, and the moved output
        assert (v.agent, v.neighborhood) == (3, ((1.0,), (-0.5,)))
        delta = abs(v.output[0] - baseline)
        assert delta > 1e-12
        assert v.reason.startswith(f"output moved by {delta!r} from the baseline [{baseline!r}]")


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
    assert rep.draws == 300


def test_convexity_linear_average_passes_planar():
    g = DirectedGraph(3, {(1, 2), (2, 1), (3, 2)})
    rep = check_strict_convexity(LinearAverage(), g, samples=150, d=2)
    assert rep.ok


def test_convexity_vicsek_passes_within_domain():
    g = DirectedGraph(3, {(1, 2), (2, 1), (3, 2)})
    rep = check_strict_convexity(VicsekHeading(), g, samples=200)
    assert rep.ok


@pytest.mark.parametrize("d", [1, 2])
def test_convexity_passes_an_output_a_hair_inside_its_neighborhood(d):
    # 0.01 s.  At weight 1e-10 agent 2's output sits about 1e-10 of the
    # diameter inside the segment to agent 1: strictly inside, though a
    # margin of 1e-9 of the diameter flagged all 50 samples.
    g = WeightedDigraph(2, {(1, 2): 1e-10})
    assert check_strict_convexity(LinearAverage(), g, samples=50, d=d).violations == ()


def test_convexity_max_map_fails_with_witness():
    g = DirectedGraph(3, {(1, 2), (2, 1), (3, 2)})
    rep = check_strict_convexity(MaxUpdate(), g, samples=50)
    assert not rep.ok
    w = rep.violations[0]
    assert w.reason
    assert len(w.neighborhood) >= 2


def test_convexity_rejects_a_domain_outside_the_sampling_box():
    class FarMax(MaxUpdate):
        domain = (20.0, 30.0)

    g = DirectedGraph(2, {(1, 2)})
    with pytest.raises(ValueError, match=r"empty sampling box \(20.0, 10.0\)"):
        check_strict_convexity(FarMax(), g)
    with pytest.raises(ValueError, match="empty sampling box"):
        check_communication_assumption(FarMax(), g, AgentState([21.0, 22.0]))


@pytest.mark.parametrize(
    "domain, box", [((0.0, math.inf), (0.1, 9.9)), ((-math.inf, math.inf), (-9.8, 9.8))]
)
def test_checkers_sample_an_infinite_domain_cut_to_ten(domain, box):
    # 0.01 s.  The domain is cut to (-10, 10), then shrunk by 1% of the
    # cut's width at each end; the max map's witnesses show the samples.
    class CutMax(MaxUpdate):
        pass

    class CutLinear(LinearAverage):
        pass

    CutMax.domain = CutLinear.domain = domain
    assert dynamics._checker_rules(CutMax()) == box
    chain = DirectedGraph(3, {(1, 2), (2, 3)})
    rep = check_strict_convexity(CutMax(), chain, samples=20)
    assert len(rep.violations) == 40
    assert all(box[0] <= x <= box[1] for v in rep.violations for (x,) in v.neighborhood)
    assert check_strict_convexity(CutLinear(), chain, samples=20, d=2).ok
    x = AgentState([1.0, 2.0, 3.0])
    assert check_communication_assumption(CutLinear(), chain, x).ok
    assert check_communication_assumption(CutMax(), DirectedGraph(3, {(1, 2)}), x).ok


class _MaxOnUnitInterval(MaxUpdate):
    domain = (-1.0, 1.0)


class _KuramotoOnTwo(KuramotoTime1):
    domain = (-2.0, 2.0)


_CHECKED_MAPS = {
    "linear": LinearAverage,
    "kuramoto": KuramotoTime1,
    "nonlinear arctan": lambda: NonlinearConsensus(GAIN_LIBRARY["arctan"]),
    "vicsek": VicsekHeading,
    "max": MaxUpdate,
    "max on (-1, 1)": _MaxOnUnitInterval,
    "kuramoto on (-2, 2)": _KuramotoOnTwo,
}

# Both checkers' reports on the chain 1 -> 2 -> 3 at the default seeds:
# (map, d, checker, violation count, first 32 hex digits of the sha256 of
# the report's repr, which covers every field bit for bit).  The counts
# date from before the checkers lost their `box` and `t` options; the
# digests were re-recorded when the witnesses became `Violation`s in a
# `CheckReport`, whose fields matched the old types' field for field.  The
# maps on a narrowed domain pin where the checkers sample: the domain
# shrunk by 1% of its width at each end.  The digest is not in a test's
# id, so a re-recorded digest renames no test.
_PINNED_REPORTS = [
    ("linear", 1, "locality", 0, "eb449c36ae4b3e9704acec1ec9a292df"),
    ("linear", 1, "convexity", 0, "9adb182c96b8410d48a34368d8965735"),
    ("linear", 2, "locality", 0, "eb449c36ae4b3e9704acec1ec9a292df"),
    ("linear", 2, "convexity", 0, "9adb182c96b8410d48a34368d8965735"),
    ("kuramoto", 1, "locality", 20, "a3c213a22631dffa9ca830c490021e9f"),
    ("kuramoto", 1, "convexity", 0, "b7dcf0603398678a1d90dd80c2c1cfec"),
    ("nonlinear arctan", 1, "locality", 20, "e62d844dccfb11f4a1958e37fee967d5"),
    ("nonlinear arctan", 1, "convexity", 7, "80040168dfca6956e5e919a6de676602"),
    ("vicsek", 1, "locality", 0, "8569b9f28e44f45aa9ba325a06154e28"),
    ("vicsek", 1, "convexity", 0, "1b463e4aefd86985cfc8ce02be20ec7c"),
    ("max", 1, "locality", 0, "e10d2adea4d8b1fbf169899693a7eb31"),
    ("max", 1, "convexity", 200, "86199669082a137b5a5ad9aad81983a2"),
    ("max", 2, "locality", 0, "e10d2adea4d8b1fbf169899693a7eb31"),
    ("max", 2, "convexity", 200, "aaf3c711ccdba32e3abf04befb8651c2"),
    ("max on (-1, 1)", 1, "locality", 0, "e10d2adea4d8b1fbf169899693a7eb31"),
    ("max on (-1, 1)", 1, "convexity", 200, "b193950c7666c5ad51e8921ffbe360b5"),
    ("max on (-1, 1)", 2, "locality", 0, "e10d2adea4d8b1fbf169899693a7eb31"),
    ("max on (-1, 1)", 2, "convexity", 200, "6393f2c81fe8929cc04c1d877c7f3f31"),
    ("kuramoto on (-2, 2)", 1, "locality", 20, "211a924d11a0f38573754bdd13c02ac8"),
    ("kuramoto on (-2, 2)", 1, "convexity", 17, "f614bfb70f401f7cfb065f680d519125"),
]


@pytest.mark.parametrize(
    "name, d, checker, count, digest",
    [pytest.param(*row, id="-".join(map(str, row[:4]))) for row in _PINNED_REPORTS],
)
def test_checker_reports_are_pinned(name, d, checker, count, digest):
    update_map = _CHECKED_MAPS[name]()
    chain = DirectedGraph(3, {(1, 2), (2, 3)})
    if checker == "locality":
        x = [0.5, -0.5, 0.75] if d == 1 else [[0.5, 0.25], [-0.5, 0.75], [0.75, -0.25]]
        rep = check_communication_assumption(update_map, chain, AgentState(x))
    else:
        rep = check_strict_convexity(update_map, chain, d=d)
    assert len(rep.violations) == count
    assert hashlib.sha256(repr(rep).encode()).hexdigest()[:32] == digest


def test_convexity_rejects_unsupported_dim():
    with pytest.raises(ValueError, match="does not support d=2"):
        check_strict_convexity(KuramotoTime1(), DirectedGraph(2), d=2)


# The checker's verdicts in exact integer arithmetic, which shares no code
# with the hull module's integer cross products: a case's floats (its
# neighbourhood, all its outputs and the allowance) are integers over one
# power-of-two denominator, 2**-low, taken from frexp.  Only a segment
# allows an output off it, by the monitor's rounding allowance of 17 eps M.

def _dyadic(xs):
    """The floats xs times one power of two, as integers: each x is
    m 2**e with m, frexp's mantissa times 2**53, an integer, and every m is
    shifted to the least e, so order and sign are those of the floats."""
    parts = [(int(m * 2.0**53), e - 53) for m, e in map(math.frexp, xs)]
    low = min(e for _, e in parts)
    return [m << (e - low) for m, e in parts]


def _reference_violations_1d(outs, values):
    """The verdict on each (1,) output in outs for the neighbourhood values."""
    lo, hi = float(values.min()), float(values.max())
    a, b, *ps = _dyadic([lo, hi, *(float(out[0]) for out in outs)])
    return [
        f"output {float(out[0])!r} not strictly above neighborhood min {lo!r}" if p <= a
        else f"output {float(out[0])!r} not strictly below neighborhood max {hi!r}" if p >= b
        else None
        for out, p in zip(outs, ps)
    ]


def _reference_violations_2d(outs, h):
    """The verdict on each (2,) output in outs for the neighbourhood hull h."""
    ring = h.vertices.tolist()
    allow = 17.0 * np.finfo(float).eps * h.magnitude
    coords = [c for v in ring + [out.tolist() for out in outs] for c in v]
    allow, *x = _dyadic([allow, *coords])
    pairs = list(zip(x[::2], x[1::2]))
    verts, points = pairs[: len(ring)], pairs[len(ring) :]
    return [_reference_violation_2d(out, p, verts, ring, allow) for out, p in zip(outs, points)]


def _reference_violation_2d(out, p, verts, ring, allow):
    px, py = p
    if len(verts) == 2:
        (ax, ay), (bx, by) = verts
        ex, ey = bx - ax, by - ay
        den = ex * ex + ey * ey
        t = (px - ax) * ex + (py - ay) * ey  # the foot on the line is a + (t / den) e
        fx, fy = (px - ax) * den - t * ex, (py - ay) * den - t * ey  # den (p - foot)
        boxes = [sorted(pair) for pair in ((ax, bx), (ay, by))]
        if fx * fx + fy * fy > (allow * den) ** 2 or any(
            lo == hi != q for (lo, hi), q in zip(boxes, p)
        ):
            return f"output {out.tolist()} off the segment spanned by the neighborhood"
        if not all(lo == hi or lo < q < hi for (lo, hi), q in zip(boxes, p)):
            return f"output {out.tolist()} at or beyond a segment endpoint"
        return None
    for j, ((ox, oy), (ax, ay)) in enumerate(zip(verts, verts[1:] + verts[:1])):
        if not (ax - ox) * (py - oy) - (ay - oy) * (px - ox) > 0:
            return (
                f"output {out.tolist()} on or outside the neighborhood hull boundary "
                f"at edge {ring[j]} to {ring[(j + 1) % len(ring)]}"
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
    points are exact), on the lines beyond the ends, inside and outside,
    and a 2**-40 step from each vertex towards the vertices' centroid:
    strictly inside, though within a margin of 1e-9 of the diameter."""
    v = hull(nb).vertices
    w = np.roll(v, -1, axis=0)
    yield from v
    yield from (v + w) / 2.0
    yield from 2.0 * w - v
    yield nb.mean(axis=0)
    yield from rng.uniform(-12.0, 12.0, (4, nb.shape[1]))
    yield from v + 2.0**-40 * (v.mean(axis=0) - v)


_REASON_WORDS = ("above", "below", "off the segment", "endpoint", "boundary")


@pytest.mark.parametrize("d", [1, 2])
def test_convexity_verdicts_match_the_reference_arithmetic(d):
    # 0.3 s (d = 1), 1.8 s (d = 2).  The same cases at three scales, each
    # exact: verdicts that depend on the scale would differ between them.
    rng = np.random.default_rng(31 + d)
    reference = _reference_violations_1d if d == 1 else _reference_violations_2d
    cases = [(nb, list(_outputs(rng, nb))) for _, nb in zip(range(400), _neighborhoods(rng, d))]
    for scale in (2.0**-900, 1.0, 2.0**900):
        kinds = set()
        for nb, outs in cases:
            nb, outs = scale * nb, [scale * out for out in outs]
            shape = nb[:, 0] if d == 1 else hull(nb)
            for out, want in zip(outs, reference(outs, shape)):
                assert dynamics._strict_violation(out, nb) == want, (scale, out, nb)
                kinds.add(want and next(w for w in _REASON_WORDS if w in want))
        # every verdict of the reference occurs
        assert kinds == ({None, "above", "below"} if d == 1 else {None, *_REASON_WORDS[2:]})


def test_convexity_allows_a_segment_output_off_its_line_by_the_allowance_alone():
    # A slanted segment, so that no coordinate is flat, and two outputs off
    # its line by about 1.5 and 0.5 allowances of 17 eps M (M = 1 at scale
    # 1).  Each distance is measured here in exact rationals: |e x (p - a)|
    # over |e| = 1.25, in units of the allowance.
    allow = Fraction(17.0 * np.finfo(float).eps)
    mid, normal = np.array([0.5, 0.375]), np.array([-0.6, 0.8])
    for scale in (2.0**-900, 1.0, 2.0**900):
        nb = scale * np.array([[0.0, 0.0], [1.0, 0.75], [0.5, 0.375]])
        ax, ay, bx, by = map(Fraction, nb[:2].ravel().tolist())
        for k, want_flagged in ((1.5, True), (0.5, False)):
            out = scale * (mid + k * float(allow) * normal)
            px, py = map(Fraction, out.tolist())
            off = abs((bx - ax) * (py - ay) - (by - ay) * (px - ax)) / Fraction(1.25 * scale)
            ratio = off / (allow * Fraction(scale))
            assert (1 < ratio < 2) if want_flagged else (ratio < 1), (scale, k, float(ratio))
            verdict = dynamics._strict_violation(out, nb)
            if want_flagged:
                assert verdict == f"output {out.tolist()} off the segment spanned by the neighborhood"
            else:
                assert verdict is None, (scale, k, verdict)


def test_convexity_consensus_neighborhood_must_stay_put():
    nb = np.array([[1.5, 0.0], [1.5, -0.0], [1.5, 0.0]])
    assert dynamics._strict_violation(np.array([1.5, 0.0]), nb) is None
    moved = np.array([1.5, 0.25])
    assert dynamics._strict_violation(moved, nb) == "consensus neighborhood moved by 0.25"


def test_convexity_labels_an_output_on_a_segment_line_beyond_an_endpoint_by_the_endpoint():
    # the output's distance is measured to the segment's line, not to the segment
    nb = np.array([[0.0, -1.0], [1.0, 0.0]])
    on_line, off_line = np.array([2.0, 1.0]), np.array([2.0, 1.5])
    assert dynamics._strict_violation(on_line, nb) == "output [2.0, 1.0] at or beyond a segment endpoint"
    assert dynamics._strict_violation(off_line, nb) == (
        "output [2.0, 1.5] off the segment spanned by the neighborhood"
    )


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
    WeightedDigraph(3, {(2, 1): 0.25, (3, 1): 7.0}),
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
