"""End-to-end acceptance gate.

Eight criteria covering the worked update matrix, the non-convergence
construction and its gap recursion, convergence under windowed and
stretching schedules, the frozen-sets necessity construction, the
connectivity oracle, hull-containment monitoring, and integrator
integrity.  Each criterion prints one visible PASS/FAIL line.
"""

import math
import time
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace
from typing import Optional

import numpy as np
import pytest

from consensus_lab import (
    AgentState,
    DirectedGraph,
    IntervalSpec,
    KuramotoTime1,
    LinearAverage,
    MaxUpdate,
    NonlinearConsensus,
    VicsekHeading,
    check_strict_convexity,
    cli,
    constant_schedule,
    counterexample_initial_state,
    counterexample_schedule,
    find_root,
    is_connected_from,
    is_weakly_connected,
    monitor_stream,
    neighbors,
    random_windowed_schedule,
    stretching_bidirectional_schedule,
    summarize,
    union_across,
    verify_counterexample,
    weakly_connected_oracle,
)
from consensus_lab.simulator import iter_spans

MASTER_SEED = 20260815


def _report(capsys, num, label, ok, elapsed, cap=None):
    stamp = f"{elapsed:.2f}s" + (f" (cap {cap:g}s)" if cap else "")
    with capsys.disabled():
        print(f"[acceptance {num}/8] {'PASS' if ok else 'FAIL'}: {label} [{stamp}]")
    assert ok, f"acceptance criterion {num} failed: {label}"
    if cap is not None:
        assert elapsed < cap, f"criterion {num} took {elapsed:.2f}s, cap {cap}s"


@dataclass
class MonitoredRun:
    label: str
    steps: int
    violations: int
    final_disagreement: float
    consensus_time: Optional[int]
    disagreements: Optional[list] = None


def run_monitored(schedule, update_map, x0, steps, t0=None, tol=1e-6,
                  slack=1e-9, label="", collect=False):
    """Stream a run's span starts through the hull monitor without storing
    states.  With `collect`, each record's diameter is kept once for every
    time step of its span."""
    ends = deque() if collect else None
    spans = _span_starts(iter_spans(schedule, update_map, x0, steps, t0), ends)
    records = monitor_stream(spans, slack)
    collected = [] if collect else None
    if collect:
        records = _diameters_into(collected, records, ends)
    run = summarize(records, tol)
    return MonitoredRun(
        label=label,
        steps=steps,
        violations=run.violations,
        final_disagreement=run.final.diameter,
        consensus_time=run.consensus_time,
        disagreements=collected,
    )


def _span_starts(spans, ends):
    for t, end, x in spans:
        if ends is not None:
            ends.append(end)
        yield t, x


def _diameters_into(out, records, ends):
    for rec in records:
        out.extend([rec.diameter] * (ends.popleft() - rec.t + 1))
        yield rec


# ---------------------------------------------------------------------------
# Shared fixtures (criterion 7 reuses the runs of criteria 2-5)


@pytest.fixture(scope="module")
def counterexample_results():
    start = time.perf_counter()
    report = verify_counterexample(64)
    t_last = 1 + 64 * 65 // 2
    run = run_monitored(
        counterexample_schedule(), LinearAverage(), counterexample_initial_state(),
        steps=t_last - 1, t0=1, tol=1e-9, label="counterexample",
    )
    return SimpleNamespace(report=report, run=run, elapsed=time.perf_counter() - start)


@pytest.fixture(scope="module")
def windowed_results():
    start = time.perf_counter()
    seeds = np.random.SeedSequence(MASTER_SEED).generate_state(50)
    cases = []
    for i in range(50):
        n = 3 + i % 4
        T = i % 5
        length = (T + 1) * (1 + i % 3)
        seed = int(seeds[i] % 2**31)
        sched = random_windowed_schedule(n, T, length, seed)
        windows_ok = all(
            is_weakly_connected(union_across(sched, IntervalSpec(t0, t0 + T)))
            for t0 in range(length)
        )
        x0 = np.random.default_rng(seed + 1).uniform(0.0, 1.0, n)
        run = run_monitored(
            sched, LinearAverage(), x0, steps=200 * n * (T + 1),
            label=f"windowed[{i}]",
        )
        cases.append(SimpleNamespace(n=n, T=T, windows_ok=windows_ok, run=run))
    return SimpleNamespace(cases=cases, elapsed=time.perf_counter() - start)


NECESSITY_GRAPH = DirectedGraph(5, {(1, 2), (2, 1), (3, 4), (4, 3), (1, 5), (3, 5)})


@pytest.fixture(scope="module")
def necessity_results():
    start = time.perf_counter()
    runs = {
        W: run_monitored(
            constant_schedule(NECESSITY_GRAPH), LinearAverage(),
            [0.0, 0.0, 1.0, 1.0, 0.4], steps=W, tol=1e-9,
            label=f"necessity[W={W}]", collect=True,
        )
        for W in (10, 100, 1000)
    }
    return SimpleNamespace(runs=runs, elapsed=time.perf_counter() - start)


@pytest.fixture(scope="module")
def stretching_results():
    start = time.perf_counter()
    cases = []
    for n in (3, 4, 5):
        sched = stretching_bidirectional_schedule(n)
        steps = sched.active_position(200 * n) + 1 - sched.first_time
        x0 = np.linspace(0.0, 1.0, n)
        run = run_monitored(sched, LinearAverage(), x0, steps=steps, label=f"stretching[n={n}]")
        cases.append(SimpleNamespace(n=n, sched=sched, run=run))
    return SimpleNamespace(cases=cases, elapsed=time.perf_counter() - start)


# ---------------------------------------------------------------------------
# Criterion 1: worked-example update matrix through the CLI


def test_criterion_1_worked_matrix(tmp_path, capsys):
    start = time.perf_counter()
    path = tmp_path / "worked.graph"
    path.write_text("n=4\narc 2 1 0.5\narc 1 2 1\narc 3 2 5\n")
    assert cli.main(["matrix", "--graph", str(path)]) == 0
    out = capsys.readouterr().out.splitlines()

    expected_rational = [
        "2/3 1/3 0 0",
        "1/7 1/7 5/7 0",
        "0 0 1 0",
        "0 0 0 1",
    ]
    r = out.index("rational:")
    rational_ok = out[r + 1 : r + 5] == expected_rational

    d = out.index("decimal:")
    decimal_ok = True
    for row_text, frac_row in zip(out[d + 1 : d + 5], expected_rational):
        for val_text, frac_text in zip(row_text.split(), frac_row.split()):
            if abs(float(val_text) - float(Fraction(frac_text))) > 1e-15:
                decimal_ok = False

    elapsed = time.perf_counter() - start
    _report(capsys, 1, "worked-example update matrix exact in rational and decimal form",
            rational_ok and decimal_ok, elapsed, cap=1.0)


# ---------------------------------------------------------------------------
# Criterion 2: the gap recursion of the non-convergence construction


def test_criterion_2_gap_recursion(counterexample_results, capsys):
    start = time.perf_counter()
    report = counterexample_results.report

    # independent oracle: iterate the product recursion directly
    oracle = [0.5]
    for p in range(2, 65):
        oracle.append(oracle[-1] * (2.0**p - 1.0) / 2.0**p)

    gaps = [row.gap for row in report.rows]
    ok = gaps[0] == 0.5
    for p in range(1, 21):  # residual < 1e-12 for p <= 20
        ok = ok and abs(gaps[p - 1] - oracle[p - 1]) < 1e-12
    ok = ok and all(g > 0.25 for g in gaps)  # v(p) > 1/4 for all p <= 64
    ok = ok and all(v > 0.25 for v in oracle)
    ok = ok and abs(gaps[63] - 0.288788) <= 1e-5  # limit estimate at p = 64
    ok = ok and report.ok

    elapsed = time.perf_counter() - start + counterexample_results.elapsed
    _report(capsys, 2, "disagreement gap follows the halving-product recursion and "
            "stays above 1/4 through p=64", ok, elapsed, cap=10.0)


# ---------------------------------------------------------------------------
# Criterion 3: convergence under connected-window schedules


def test_criterion_3_windowed_convergence(windowed_results, capsys):
    start = time.perf_counter()
    cases = windowed_results.cases
    ok = len(cases) == 50
    converged = 0
    for case in cases:
        ok = ok and case.windows_ok
        if case.run.consensus_time is not None:
            converged += 1
        ok = ok and case.run.final_disagreement < 1e-6
    ok = ok and converged == 50

    elapsed = time.perf_counter() - start + windowed_results.elapsed
    _report(capsys, 3, "averaging reached consensus in 50/50 seeded schedules with "
            "weakly connected windows", ok, elapsed, cap=60.0)


# ---------------------------------------------------------------------------
# Criterion 4: frozen disjoint sets block consensus exactly


def test_criterion_4_frozen_sets(necessity_results, capsys):
    start = time.perf_counter()
    # the defining property: neither set hears from outside itself
    ok = neighbors(NECESSITY_GRAPH, {1, 2}) == frozenset()
    ok = ok and neighbors(NECESSITY_GRAPH, {3, 4}) == frozenset()
    for W in (10, 100, 1000):
        run = necessity_results.runs[W]
        ok = ok and len(run.disagreements) == W + 1
        # the inter-set gap is 1; pure averaging keeps it bit-exactly
        ok = ok and all(d == 1.0 for d in run.disagreements)

    elapsed = time.perf_counter() - start + necessity_results.elapsed
    _report(capsys, 4, "disagreement never drops below the frozen inter-set gap "
            "(exactly, over windows of 10/100/1000)", ok, elapsed, cap=10.0)


# ---------------------------------------------------------------------------
# Criterion 5: stretching bidirectional schedule still converges


def test_criterion_5_stretching(stretching_results, capsys):
    start = time.perf_counter()
    ok = True
    for case in stretching_results.cases:
        ok = ok and case.run.consensus_time is not None
        ok = ok and case.run.final_disagreement < 1e-6
        for T in list(range(1, 101)) + [1000]:
            win = case.sched.arc_free_window(T)
            ok = ok and win.end - win.start + 1 == T
            ok = ok and all(
                not case.sched.graph_at(t)._keys.size for t in range(win.start, win.end + 1)
            )

    elapsed = time.perf_counter() - start + stretching_results.elapsed
    _report(capsys, 5, "bidirectional schedule with unbounded silent gaps converges; "
            "arc-free windows exist at every tested length", ok, elapsed, cap=60.0)


# ---------------------------------------------------------------------------
# Criterion 6: connectivity oracle equivalence and root soundness


def _agrees(g):
    fast = is_weakly_connected(g)
    if weakly_connected_oracle(g) != fast:
        return False
    root = find_root(g)
    if fast:
        return root is not None and is_connected_from(g, root)
    return root is None


def test_criterion_6_connectivity_oracle(capsys):
    start = time.perf_counter()
    ok = True
    checked = 0
    for n in (1, 2, 3, 4):
        pairs = [(k, l) for k in range(1, n + 1) for l in range(1, n + 1) if k != l]
        for mask in range(1 << len(pairs)):
            arcs = {p for i, p in enumerate(pairs) if mask >> i & 1}
            ok = ok and _agrees(DirectedGraph(n, arcs))
            checked += 1
    exhaustive_total = checked  # 1 + 4 + 64 + 4096 arc subsets for n = 1..4
    for n in (5, 6, 7):
        rng = np.random.default_rng(MASTER_SEED + n)
        pairs = [(k, l) for k in range(1, n + 1) for l in range(1, n + 1) if k != l]
        for _ in range(500):
            density = rng.uniform(0.05, 0.95)
            arcs = {p for p in pairs if rng.random() < density}
            ok = ok and _agrees(DirectedGraph(n, arcs))
            checked += 1
    ok = ok and exhaustive_total == 1 + 4 + 64 + 4096 and checked == exhaustive_total + 1500

    elapsed = time.perf_counter() - start
    _report(capsys, 6, "reachability and pair-splitting connectivity tests agree on "
            "4165 exhaustive + 1500 random digraphs; roots are sound", ok, elapsed, cap=120.0)


# ---------------------------------------------------------------------------
# Criterion 7: hull containment across all runs; max map as the negative


@pytest.fixture(scope="module")
def flow_runs():
    start = time.perf_counter()
    path5 = DirectedGraph(5, {(k, k + 1) for k in range(1, 5)} | {(k + 1, k) for k in range(1, 5)})
    ring5 = DirectedGraph(5, {(k, k % 5 + 1) for k in range(1, 6)} | {(k % 5 + 1, k) for k in range(1, 6)})
    runs = [
        run_monitored(constant_schedule(path5), KuramotoTime1(),
                      np.linspace(-2.0, 2.0, 5), steps=100, label="kuramoto"),
        run_monitored(constant_schedule(ring5), NonlinearConsensus(gains=lambda s: s**3),
                      np.linspace(-1.0, 1.5, 5), steps=100, label="nonlinear"),
        run_monitored(constant_schedule(path5), VicsekHeading(),
                      np.linspace(-1.2, 1.3, 5), steps=100, label="vicsek"),
        run_monitored(constant_schedule(path5), MaxUpdate(),
                      np.linspace(0.0, 1.0, 5), steps=100, label="max"),
    ]
    return SimpleNamespace(runs=runs, elapsed=time.perf_counter() - start)


def test_criterion_7_hull_monitor(counterexample_results, windowed_results,
                                  necessity_results, stretching_results,
                                  flow_runs, capsys):
    start = time.perf_counter()
    summaries = [counterexample_results.run]
    summaries += [c.run for c in windowed_results.cases]
    summaries += list(necessity_results.runs.values())
    summaries += [c.run for c in stretching_results.cases]
    summaries += flow_runs.runs
    ok = all(s.violations == 0 for s in summaries)

    convexity = check_strict_convexity(
        MaxUpdate(), DirectedGraph(3, {(1, 2), (2, 1), (3, 2)}), samples=50, seed=0
    )
    ok = ok and not convexity.ok and len(convexity.violations) > 0
    ok = ok and bool(convexity.violations[0].reason)

    elapsed = time.perf_counter() - start + flow_runs.elapsed
    _report(capsys, 7, f"zero hull-containment violations across {len(summaries)} "
            "monitored runs; max map fails strict convexity with a witness",
            ok, elapsed, cap=60.0)


# ---------------------------------------------------------------------------
# Criterion 8: integrator integrity


def test_criterion_8_integrator(capsys):
    start = time.perf_counter()
    g = DirectedGraph(4, {(1, 2), (2, 1), (2, 3), (3, 2), (3, 4), (4, 3), (1, 4)})
    rng = np.random.default_rng(MASTER_SEED)
    ok = True
    for _ in range(10):
        x = AgentState(rng.uniform(-3.0, 3.0, 4))
        ref = KuramotoTime1(substeps=256).step(0, g, x).points
        err_h = float(np.max(np.abs(KuramotoTime1(substeps=8).step(0, g, x).points - ref)))
        err_h2 = float(np.max(np.abs(KuramotoTime1(substeps=16).step(0, g, x).points - ref)))
        ratio = err_h / err_h2
        ok = ok and 12.0 <= ratio <= 20.0  # fourth-order step halving

    path4 = DirectedGraph(4, {(1, 2), (2, 1), (2, 3), (3, 2), (3, 4), (4, 3)})
    x = AgentState([0.5, -1.2, 2.0, 0.1])
    total0 = float(x.values.sum())
    for _ in range(100):
        x = KuramotoTime1(substeps=100).step(0, path4, x)
    ok = ok and abs(float(x.values.sum()) - total0) < 1e-9

    pair = DirectedGraph(2, {(1, 2), (2, 1)})
    out = NonlinearConsensus(gains=lambda s: s).step(0, pair, AgentState([0.0, 1.0]))
    closed = (1.0 - math.exp(-2.0)) / 2.0
    ok = ok and abs(out.values[0] - closed) < 1e-8
    ok = ok and abs(out.values[1] - (1.0 - closed)) < 1e-8

    elapsed = time.perf_counter() - start
    _report(capsys, 8, "step-halving ratios in [12, 20], symmetric-coupling sum "
            "conserved to 1e-9 over 100 maps, identity-gain closed form to 1e-8",
            ok, elapsed)
