"""Named schedules: the non-converging construction, random windowed
schedules, and the stretching bidirectional schedule."""

import math
import time

import numpy as np
import pytest

from consensus_lab import scenarios
from consensus_lab import (
    DirectedGraph,
    IntervalSpec,
    LinearAverage,
    counterexample_initial_state,
    counterexample_limit,
    counterexample_sample_times,
    counterexample_schedule,
    disagreement,
    find_root,
    is_connected_from,
    is_weakly_connected,
    random_windowed_schedule,
    stretching_bidirectional_schedule,
    union_across,
    verify_counterexample,
    weakly_connected_oracle,
)
from consensus_lab.simulator import iter_states

G12 = DirectedGraph(3, {(1, 2)})
G12_21 = DirectedGraph(3, {(1, 2), (2, 1)})
G32 = DirectedGraph(3, {(3, 2)})
G23_32 = DirectedGraph(3, {(2, 3), (3, 2)})


def literal_block_sequence(s_max):
    """The schedule's graphs written out block by block, as a flat list."""
    out = []
    for s in range(s_max + 1):
        out += [G12] * (2 * s) + [G12_21] + [G32] * (2 * s + 1) + [G23_32]
    return out


# ---------------------------------------------------------------------------
# The non-converging construction


def test_block_layout_matches_literal_sequence():
    sched = counterexample_schedule()
    literal = literal_block_sequence(12)
    for i, g in enumerate(literal):
        assert sched.graph_at(sched.first_time + i) == g, f"offset {i}"


def test_block_lengths_and_starts():
    sched = counterexample_schedule()
    # block s spans 4s + 3 times, so block s starts at 1 + sum = 2s^2 + s + 1
    for s in range(8):
        assert sched.block_start(s) == 2 * s * s + s + 1
        assert sched.block_start(s + 1) - sched.block_start(s) == 4 * s + 3
        assert sched.block_of(sched.block_start(s)) == (s, 0)
        assert sched.block_of(sched.block_start(s + 1) - 1) == (s, 4 * s + 2)


def test_no_single_graph_is_weakly_connected():
    # one agent is always silent; connectivity only emerges across time
    sched = counterexample_schedule()
    for t in range(1, 200):
        assert not is_weakly_connected(sched.graph_at(t))


def test_unbounded_tail_union_is_connected():
    sched = counterexample_schedule()
    tail = union_across(sched, IntervalSpec(10**9))
    assert tail.arcs == {(1, 2), (2, 1), (3, 2), (2, 3)}
    assert is_weakly_connected(union_across(sched, IntervalSpec(1)))


def _run_ends(sched, t):
    """The first time after t whose graph is not the one at t, by a scan."""
    g, u = sched.graph_at(t), t + 1
    while sched.graph_at(u) is g:
        u += 1
    return u


def test_next_change_is_the_end_of_the_run_holding_t():
    sched = counterexample_schedule()
    for t in range(1, sched.block_start(9)):
        assert sched.next_change(t) == _run_ends(sched, t), t


def _boundaries(sched, blocks):
    """Every run boundary of the given blocks: offsets 0, 2s, 2s + 1 and 4s + 2."""
    for s in blocks:
        b = sched.block_start(s)
        yield from (b, b + 2 * s, b + 2 * s + 1, b + 4 * s + 2)


def test_bounded_counterexample_unions_match_the_per_time_walk():
    # every window of up to 12 times that starts within 6 of a run boundary
    sched = counterexample_schedule()
    for edge in _boundaries(sched, (0, 1, 2, 3, 7, 40)):
        for a in range(max(1, edge - 6), edge + 7):
            want, seen = set(), set()  # each distinct graph's arcs are read once
            for b in range(a, a + 12):
                g = sched.graph_at(b)
                if g not in seen:
                    seen.add(g)
                    want |= g.arcs
                assert union_across(sched, IntervalSpec(a, b)).arcs == want, (a, b)


def test_a_far_counterexample_window_answers_at_once():
    sched = counterexample_schedule()
    start = time.perf_counter()
    union = union_across(sched, IntervalSpec(10**12, 2 * 10**12))
    assert time.perf_counter() - start < 0.1
    assert union == sched.tail_union(10**12) and is_weakly_connected(union)


def test_initial_state_and_sample_times():
    x0 = counterexample_initial_state()
    assert x0.values.tolist() == [0.0, 1.0, 1.0]
    assert counterexample_sample_times(4) == (2, 4, 7, 11)
    with pytest.raises(ValueError):
        counterexample_sample_times(0)


def test_limit_value():
    # product form: (1/2) * prod_{j>=2} (1 - 2^-j), converged at j = 64
    prod = 0.5
    for j in range(2, 65):
        prod *= 1.0 - 0.5**j
    assert counterexample_limit() == prod
    assert 0.2887 < counterexample_limit() < 0.2889


def test_verification_report_small():
    rep = verify_counterexample(8)
    assert rep.ok
    assert rep.p_max == 8
    assert len(rep.rows) == 8
    assert rep.rows[0].p == 1
    assert rep.rows[0].predicted == 0.5
    assert rep.rows[0].gap == 0.5
    assert all(abs(r.residual) <= r.tol for r in rep.rows)
    assert rep.first_failure is None
    # gaps decrease but stay above the limit
    gaps = [r.gap for r in rep.rows]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert all(g > counterexample_limit() for g in gaps)


def test_verification_report_of_a_numpy_count_is_the_int_report():
    # the report keeps the checked count, not the numpy integer it was given
    rep = verify_counterexample(np.int64(8))
    assert type(rep.p_max) is int and type(rep.limit_lower_bound) is float
    assert repr(rep) == repr(verify_counterexample(8))


def test_verification_exact_early_gaps():
    rep = verify_counterexample(5)
    expected = [0.5, 0.375, 0.328125, 0.3076171875, 0.298004150390625]
    assert [r.gap for r in rep.rows] == expected


def test_verification_flags_bad_rows():
    rep = verify_counterexample(6)
    bad_row = rep.rows[3].__class__(
        p=4, t=11, gap=0.9, predicted=0.3, residual=0.6, tol=1e-12
    )
    tampered = rep.__class__(
        p_max=rep.p_max,
        rows=rep.rows[:3] + (bad_row,) + rep.rows[4:],
        final_gap=rep.final_gap,
        recursion_gap=rep.recursion_gap,
        limit_lower_bound=rep.limit_lower_bound,
    )
    assert not tampered.ok
    assert tampered.first_failure == 4


def test_verification_rejects_small_pmax():
    with pytest.raises(ValueError):
        verify_counterexample(0)


def test_disagreement_never_falls_below_limit_along_whole_run():
    sched = counterexample_schedule()
    lo = counterexample_limit() * (1.0 - 1e-9)
    for t, x in iter_states(sched, LinearAverage(), counterexample_initial_state(), steps=500, t0=1):
        assert disagreement(x) > lo


# ---------------------------------------------------------------------------
# Random windowed schedules


def test_windowed_schedule_every_window_connected():
    sched = random_windowed_schedule(n=4, T=2, length=9, seed=5)
    assert sched.period == 9
    for t0 in range(sched.first_time, sched.first_time + 9):
        assert is_weakly_connected(union_across(sched, IntervalSpec(t0, t0 + 2)))


def test_windowed_schedule_is_deterministic_in_seed():
    a = random_windowed_schedule(n=5, T=1, length=6, seed=7)
    b = random_windowed_schedule(n=5, T=1, length=6, seed=7)
    c = random_windowed_schedule(n=5, T=1, length=6, seed=8)
    assert a.graphs == b.graphs
    assert a.name == b.name
    assert a.graphs != c.graphs  # overwhelmingly likely and fixed by the seeds


def _scalar_windowed_arcs(n, T, length, seed):
    """The schedule's arcs, slot by slot, from the generator seeded with
    `SeedSequence(entropy=(seed, 0))`, drawing one coin per ordered pair
    with its own `rng.random()` call."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, 0)))
    out = []
    for slot in range(length):
        arcs = set()
        if slot % (T + 1) == 0:
            arcs |= scenarios._random_arborescence(n, rng)
        for k in range(1, n + 1):
            for l in range(1, n + 1):
                if k != l and rng.random() < scenarios._EXTRA_ARC_RATE:
                    arcs.add((k, l))
        out.append(frozenset(arcs))
    return out


@pytest.mark.parametrize("n", [1, 2, 6, 12])
@pytest.mark.parametrize("T", [0, 2])
@pytest.mark.parametrize("length", [1, 7])
@pytest.mark.parametrize("seed", [0, 31])
def test_windowed_schedule_coins_drawn_in_one_call_match_one_draw_per_pair(n, T, length, seed):
    sched = random_windowed_schedule(n, T, length, seed)
    assert [g.arcs for g in sched.graphs] == _scalar_windowed_arcs(n, T, length, seed)


def _windowed_grid_lengths(T):
    # one period, a period shorter than the window, and periods that are
    # not multiples of T + 1 (every period is a multiple when T = 0)
    return sorted({1, max(1, T), T + 2, 3 * T + 4})


@pytest.mark.parametrize("n", range(1, 13))
def test_windowed_schedule_every_cyclic_window_is_rooted_by_construction(n):
    # The library plants arborescences and checks nothing; the union of each
    # cyclic window is taken here from the period's own graphs.
    cases = 0
    for T in range(5):
        for length in _windowed_grid_lengths(T):
            for seed in (n * 100 + T * 10 + length, 7):
                graph_arcs = [g.arcs for g in random_windowed_schedule(n, T, length, seed).graphs]
                for t in range(length):
                    arcs = set()
                    for s in range(t, t + T + 1):
                        arcs |= graph_arcs[s % length]
                    union = DirectedGraph(n, arcs)
                    r = find_root(union)
                    assert r is not None and is_connected_from(union, r), (n, T, length, seed, t)
                    if n <= 7:
                        assert weakly_connected_oracle(union)
                cases += 1
    assert cases == 36


@pytest.mark.parametrize("k", [0, 1, 2, 132])
def test_one_call_of_k_doubles_equals_k_scalar_draws(k):
    a, b = np.random.default_rng(9), np.random.default_rng(9)
    assert a.random(k).tolist() == [b.random() for _ in range(k)]
    assert a.bit_generator.state == b.bit_generator.state


def test_windowed_schedule_validation():
    with pytest.raises(ValueError, match="node"):
        random_windowed_schedule(n=0, T=1, length=2)
    with pytest.raises(ValueError, match="nonnegative"):
        random_windowed_schedule(n=3, T=-1, length=2)
    with pytest.raises(ValueError, match="length"):
        random_windowed_schedule(n=3, T=1, length=0)


def test_windowed_schedule_short_period_still_covers_window():
    # a period shorter than the window is fine: the wrap repeats the plant
    sched = random_windowed_schedule(n=3, T=3, length=2, seed=0)
    assert is_weakly_connected(union_across(sched, IntervalSpec(0, 3)))


def test_windowed_schedule_converges_under_averaging():
    sched = random_windowed_schedule(n=4, T=2, length=6, seed=1)
    rng = np.random.default_rng(2)
    for _, final in iter_states(sched, LinearAverage(), rng.uniform(0.0, 1.0, 4), steps=600):
        pass
    assert disagreement(final) < 1e-6


# ---------------------------------------------------------------------------
# Stretching bidirectional schedule


def test_stretching_active_positions_and_silence():
    sched = stretching_bidirectional_schedule(3)
    # the g-th active graph sits at position (g-1)(g+2)/2, gaps stretch by one
    positions = [sched.active_position(g) for g in range(1, 7)]
    assert positions == [0, 2, 5, 9, 14, 20]
    for g, pos in enumerate(positions, start=1):
        assert sched.graph_at(pos)._keys.size, f"active graph {g} missing"
    active = set(positions)
    for t in range(21):
        assert bool(sched.graph_at(t)._keys.size) == (t in active)


def test_stretching_cycles_path_edges():
    sched = stretching_bidirectional_schedule(4)
    # path edges (1-2), (2-3), (3-4) appear cyclically at active positions
    expected = [
        {(1, 2), (2, 1)},
        {(2, 3), (3, 2)},
        {(3, 4), (4, 3)},
        {(1, 2), (2, 1)},
    ]
    for g, arcs in enumerate(expected, start=1):
        assert sched.graph_at(sched.active_position(g)).arcs == arcs


def test_stretching_arc_free_windows_grow_without_bound():
    sched = stretching_bidirectional_schedule(5)
    for T in (1, 2, 3, 10, 40):
        win = sched.arc_free_window(T)
        assert win.end - win.start + 1 == T
        for t in range(win.start, win.end + 1):
            assert not sched.graph_at(t)._keys.size
        assert not is_weakly_connected(union_across(sched, win))


def test_stretching_tail_union_is_full_path():
    sched = stretching_bidirectional_schedule(4)
    tail = union_across(sched, IntervalSpec(1000))
    assert tail.arcs == {(1, 2), (2, 1), (2, 3), (3, 2), (3, 4), (4, 3)}
    assert is_weakly_connected(union_across(sched, IntervalSpec(0)))


def test_stretching_converges_under_averaging():
    sched = stretching_bidirectional_schedule(3)
    steps = sched.active_position(60) + 1
    for _, final in iter_states(sched, LinearAverage(), [0.0, 1.0, 0.25], steps=steps):
        pass
    assert disagreement(final) < 1e-6


def test_stretching_rejects_tiny_n():
    with pytest.raises(ValueError):
        stretching_bidirectional_schedule(1)


@pytest.mark.parametrize(
    "schedule", [counterexample_schedule(), stretching_bidirectional_schedule(4)],
    ids=["counterexample", "stretching"],
)
def test_closed_form_schedules_check_the_time(schedule):
    with pytest.raises(ValueError, match="before the schedule's first time"):
        schedule.graph_at(schedule.first_time - 1)
    assert schedule.graph_at(np.int64(schedule.first_time)) == schedule.graph_at(
        schedule.first_time
    )


def _tuple_windowed_schedule(n, T, length, seed):
    """The generator as it was written on Python tuples: a plant at every
    multiple of T + 1, then one coin per ordered pair drawn per slot in one
    call, and each slot's arcs as a validated graph."""
    pairs = [(k, l) for k in range(1, n + 1) for l in range(1, n + 1) if k != l]
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, 0)))
    graphs = []
    for slot in range(length):
        arcs = set()
        if slot % (T + 1) == 0:
            arcs |= scenarios._random_arborescence(n, rng)
        coins = rng.random(len(pairs)).tolist()
        arcs.update(pair for pair, u in zip(pairs, coins) if u < scenarios._EXTRA_ARC_RATE)
        graphs.append(DirectedGraph(n, arcs))
    return tuple(graphs)


def test_windowed_schedule_matches_the_tuple_generator():
    # 2,600 schedules: every node count up to 13, every T up to 4, periods
    # shorter than, equal to and longer than the window
    for n in range(1, 14):
        for T in range(5):
            for length in (1, 2, 5, 16):
                for seed in range(10):
                    got = random_windowed_schedule(n, T, length, seed).graphs
                    assert got == _tuple_windowed_schedule(n, T, length, seed), (n, T, length, seed)


@pytest.mark.parametrize("n, T, length", [(300, 2, 4), (100, 3, 16)])
def test_windowed_schedule_matches_the_tuple_generator_across_passes(n, T, length):
    # at n = 300 one slot's coins fill a pass; at n = 100 a pass holds six
    # slots, so passes start at plants and between them
    got = random_windowed_schedule(n, T, length, seed=3).graphs
    want = _tuple_windowed_schedule(n, T, length, seed=3)
    assert [g.arcs for g in got] == [g.arcs for g in want]
    assert got == want
