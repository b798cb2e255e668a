"""The benchmark's four workloads.

Each workload has `setup(seed, size, scratch)`, which generates every input
from the seed and builds what the run needs, `verify(inputs)`, which checks
the set-up's own results once and is not timed, and `rep(inputs)`, which does
the workload's fixed work once and checks its outputs.  `size` is "full" for
the benchmark and "tiny" for the smoke test.

Every call into consensus_lab goes through a module attribute
(`simulator.iter_states`, not a name imported here), so the tracer's wrappers
are the ones called.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from consensus_lab import cli, dynamics, graphs, lyapunov, scenarios, simulator
from consensus_lab.graphs import IntervalSpec

TOL = 1e-6  # consensus tolerance, the CLI's default
SLACK = lyapunov.DEFAULT_SLACK


@dataclass
class Inputs:
    payload: object
    sha256: str
    schedules: list = field(default_factory=list)  # instances whose graph_at is traced
    problems: list[str] = field(default_factory=list)  # set by verify


@dataclass
class RepOutcome:
    ops: int
    failures: list[str]
    agent_steps: int  # sum of n x steps actually stepped
    sha256: str  # hash of every output, for bit-identity across runs
    csv_bytes: int = 0


@dataclass(frozen=True)
class Workload:
    setup: Callable[[int, str, Path], Inputs]
    verify: Callable[[Inputs], list[str]]
    rep: Callable[[Inputs], RepOutcome]


def _sha(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


def _no_problems(inputs: Inputs) -> list[str]:
    return []


@dataclass
class MonitoredRun:
    final: dynamics.AgentState
    final_disagreement: float
    consensus_time: int | None
    violations: int
    diameter_increases: int

    def sha(self) -> str:
        return _sha(
            self.final.points.tobytes(),
            (self.final_disagreement, self.consensus_time, self.violations,
             self.diameter_increases),
        )


def monitored_run(schedule, update, x0, steps) -> MonitoredRun:
    """The library streaming path: `iter_states` teed into `monitor_stream`,
    with `disagreement` per state, as `simulate` and the acceptance tests do.

    A diameter counts as increased only beyond the monitor's own slack, the
    rounding allowance hull containment already gets.
    """
    violations = increases = 0
    consensus_time = None
    prev = math.inf
    s1, s2 = itertools.tee(simulator.iter_states(schedule, update, x0, steps))
    for (t, x), rec in zip(s1, lyapunov.monitor_stream(s2, SLACK)):
        dis = simulator.disagreement(x)
        if consensus_time is None and dis < TOL:
            consensus_time = t
        violations += not rec.contained
        increases += rec.diameter > prev + SLACK
        prev = rec.diameter
    return MonitoredRun(x, dis, consensus_time, violations, increases)


# ---------------------------------------------------------------------------
# stretching-stream: ~99% arc-free steps at n <= 5, so per-step overhead of
# lookup, hull monitor and disagreement is nearly all the time.

# Active steps per node count.  Consensus (tol 1e-6) from x0 in [0, 1]^n
# took at most 21, 61 and 133 active steps over 150 seeds.
STRETCHING_ACTIVE = {"full": {3: 60, 4: 120, 5: 220}, "tiny": {3: 60, 4: 120}}


def stretching_setup(seed: int, size: str, scratch: Path) -> Inputs:
    rng = np.random.default_rng(seed)
    cases = []
    for n, active in STRETCHING_ACTIVE[size].items():
        schedule = scenarios.stretching_bidirectional_schedule(n)
        steps = schedule.active_position(active) + 1 - schedule.first_time
        cases.append((schedule, dynamics.AgentState(rng.uniform(0.0, 1.0, n)), steps))
    sha = _sha(*[(s.name, steps, x0.points.tobytes()) for s, x0, steps in cases])
    return Inputs(cases, sha, schedules=[s for s, _, _ in cases])


def stretching_rep(inputs: Inputs) -> RepOutcome:
    failures, agent_steps, shas = [], 0, []
    for schedule, x0, steps in inputs.payload:
        run = monitored_run(schedule, dynamics.LinearAverage(), x0, steps)
        if run.consensus_time is None or run.violations:
            failures.append(
                f"{schedule.name}: consensus_time={run.consensus_time} "
                f"violations={run.violations}"
            )
        agent_steps += x0.n * steps
        shas.append(run.sha())
    return RepOutcome(len(inputs.payload), failures, agent_steps, _sha(*shas))


# ---------------------------------------------------------------------------
# sparse-planar-certify: failing connectivity queries on ~1000-node unions
# dominate set-up; the O(n^2 d) linear step dominates the run.

SPARSE = {
    "full": dict(n=1000, period=16, parts=4, periods=2),
    "tiny": dict(n=60, period=8, parts=4, periods=2),
}


def sparse_graphs(n: int, period: int, parts: int, rng) -> list[graphs.DirectedGraph]:
    """Sparse snapshots whose `parts`-slot windows are rooted and no shorter one is.

    A random spanning tree directed away from node 1 is cut into `parts`
    parts; slot s carries part s mod parts plus n random arcs.  Node 1 and one
    guard node per part get no random arcs, so a window missing a part leaves
    two nodes without senders and cannot be rooted, while a window holding
    every part contains the whole tree.  With `period` a multiple of `parts`,
    the smallest certified T is parts - 1 on every seed, which keeps set-up
    work the same across seeds.
    """
    order = rng.permutation(np.arange(2, n + 1))
    parents = np.concatenate(([1], order))[rng.integers(0, np.arange(1, n))]
    part = rng.permutation(np.arange(n - 1) % parts)
    guards = {int(order[np.flatnonzero(part == j)[0]]) for j in range(parts)}
    eligible = np.array([v for v in range(2, n + 1) if v not in guards])
    out = []
    for slot in range(period):
        mine = part == slot % parts
        arcs = set(zip(parents[mine].tolist(), order[mine].tolist()))
        src = rng.integers(1, n + 1, n)
        dst = rng.choice(eligible, n)
        arcs.update((k, l) for k, l in zip(src.tolist(), dst.tolist()) if k != l)
        out.append(graphs.DirectedGraph(n, arcs))
    return out


def certify(schedule):
    """Smallest T whose every cyclic (T+1)-window union is weakly connected,
    and the (T - 1, start) of the window that failed before it.

    Returns (None, failing) when not even the whole period is connected.
    """
    failing = None
    for T in range(schedule.period):
        for start in range(schedule.period):
            union = graphs.union_across(schedule, IntervalSpec(start, start + T))
            if not graphs.is_weakly_connected(union):
                failing = (T, start)
                break
        else:
            return T, failing
    return None, failing


@dataclass
class SparsePayload:
    schedule: simulator.PeriodicSchedule
    x0: dynamics.AgentState
    steps: int
    T: int | None
    failing: tuple[int, int] | None
    root: int | None


def sparse_setup(seed: int, size: str, scratch: Path) -> Inputs:
    p = SPARSE[size]
    rng = np.random.default_rng(seed)
    snapshots = sparse_graphs(p["n"], p["period"], p["parts"], rng)
    schedule = simulator.PeriodicSchedule(snapshots, name=f"sparse-planar:n={p['n']}")
    T, failing = certify(schedule)
    root = None
    if T is not None:
        root = graphs.find_root(graphs.union_across(schedule, IntervalSpec(0, T)))
    x0 = dynamics.AgentState(rng.uniform(0.0, 1.0, (p["n"], 2)))
    payload = SparsePayload(schedule, x0, p["periods"] * p["period"], T, failing, root)
    sha = _sha(*[sorted(g.arcs) for g in snapshots], x0.points.tobytes())
    return Inputs(payload, sha, schedules=[schedule])


def _has_root(n: int, arcs) -> bool:
    """Rootedness by a method that shares no code with consensus_lab.graphs.

    The vertex that finishes last in a depth-first search of the whole graph
    lies in a source strongly connected component, so the graph has a root
    exactly when that vertex reaches every vertex.
    """
    out = [[] for _ in range(n + 1)]
    for k, l in arcs:
        out[k].append(l)
    seen = [False] * (n + 1)
    last = 1
    for s in range(1, n + 1):
        if seen[s]:
            continue
        seen[s] = True
        stack = [iter(out[s])]
        while stack:
            for w in stack[-1]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(iter(out[w]))
                    break
            else:
                stack.pop()
        last = s  # the start of a search tree finishes after its tree
    reached = {last}
    frontier = [last]
    while frontier:
        v = frontier.pop()
        for w in out[v]:
            if w not in reached:
                reached.add(w)
                frontier.append(w)
    return len(reached) == n


def sparse_verify(inputs: Inputs) -> list[str]:
    p = inputs.payload
    s = p.schedule
    if p.T is None:
        return ["no window length certified"]

    def window(T, start):
        arcs = set()
        for t in range(start, start + T + 1):
            arcs |= s.graphs[t % s.period].arcs
        return arcs

    problems = [
        f"certified window T={p.T} start={start} has no root"
        for start in range(s.period)
        if not _has_root(s.n, window(p.T, start))
    ]
    if p.T > 0:
        if p.failing is None or p.failing[0] != p.T - 1:
            problems.append(f"no failing window recorded for T={p.T - 1}: {p.failing}")
        elif _has_root(s.n, window(*p.failing)):
            problems.append(f"window {p.failing} was reported unconnected but has a root")
    union = graphs.union_across(s, IntervalSpec(0, p.T))
    if p.root is None or not graphs.is_connected_from(union, p.root):
        problems.append(f"find_root returned {p.root}, which does not reach every node")
    return problems


def sparse_rep(inputs: Inputs) -> RepOutcome:
    p = inputs.payload
    run = monitored_run(p.schedule, dynamics.LinearAverage(), p.x0, p.steps)
    problems = list(inputs.problems)
    if run.violations or run.diameter_increases:
        problems.append(
            f"violations={run.violations} diameter_increases={run.diameter_increases}"
        )
    failures = ["; ".join(problems)] if problems else []
    return RepOutcome(1, failures, p.x0.n * p.steps, run.sha())


# ---------------------------------------------------------------------------
# CLI workloads: in-process cli.main calls with captured stdout.


@dataclass(frozen=True)
class CliCall:
    argv: tuple[str, ...]
    n: int
    expect: dict  # fields the JSON output must carry


def _call(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _floats(values) -> str:
    return ",".join(repr(float(v)) for v in values)


# cli-windowed-csv: every state is formatted and written; small n, so
# per-call and per-step overhead dominate arithmetic.
#
# Steps per call: over 15000 random (n, T, seed) cases the slowest
# consensus took 247 steps, with about one case in a thousand above 107.
WINDOWED = {
    "full": dict(ns=range(3, 13), Ts=range(5), steps=500),
    "tiny": dict(ns=(3, 4), Ts=(0, 1), steps=300),
}


def windowed_setup(seed: int, size: str, scratch: Path) -> Inputs:
    p = WINDOWED[size]
    rng = np.random.default_rng(seed)
    csv_path = scratch / "cli-windowed.csv"
    calls = []
    for n, T in itertools.product(p["ns"], p["Ts"]):
        sseed = int(rng.integers(0, 2**31))
        # The same schedule the CLI will build; its name is checked in the output.
        schedule = scenarios.random_windowed_schedule(n, T, 2 * (T + 1), sseed)
        argv = (
            "simulate", "--scenario", f"windowed:n={n},T={T},seed={sseed}",
            f"--x0={_floats(rng.uniform(0.0, 1.0, n))}",
            "--steps", str(p["steps"]), "--csv", str(csv_path),
        )
        calls.append(CliCall(argv, n, {"schedule": schedule.name, "steps": p["steps"]}))
    sha = _sha(*[c.argv[:-1] for c in calls])  # the CSV path is not an input
    return Inputs((csv_path, calls), sha)


def windowed_rep(inputs: Inputs) -> RepOutcome:
    csv_path, calls = inputs.payload
    failures, agent_steps, csv_bytes = [], 0, 0
    h = hashlib.sha256()
    for call in calls:
        csv_path.unlink(missing_ok=True)
        code, out, err = _call(call.argv)
        data = csv_path.read_bytes() if csv_path.exists() else b""
        h.update(out.encode())
        h.update(data)
        csv_bytes += len(data)
        steps = call.expect["steps"]
        agent_steps += call.n * steps
        try:
            summary = json.loads(out)
        except json.JSONDecodeError:
            summary = {}
        ok = (
            code == 0
            and summary.get("schedule") == call.expect["schedule"]
            and summary.get("monitor_violations") == 0
            and summary.get("consensus_time") is not None
            and data.count(b"\n") == steps + 2
        )
        if not ok:
            failures.append(f"{call.argv[2]}: exit {code}, {err.strip()[:200]} {summary}")
    return RepOutcome(len(calls), failures, agent_steps, h.hexdigest(), csv_bytes)


# cli-probe-flows: fixed-step RK4 time-1 maps; cubic-gain samples never
# reach tolerance and run to the horizon.  No hull monitor runs here.
#
# On 4-slot schedules, kuramoto and arctan samples from centers in
# [-0.5, 0.5]^6 converged within 36 steps over 40 seeds; their horizon leaves
# room for slow schedules.  The
# time a call takes depends on its schedule: the nonlinear field loops over
# arcs, and converging samples stop early.  So every map runs on several
# schedules with a 16-slot period, which keeps the work per rep about the
# same across seeds.
PROBE_N, PROBE_T, PROBE_LENGTH = 6, 1, 16
PROBE = {  # (map spec, every sample must converge, schedules, horizon)
    "full": (
        ("kuramoto", True, 6, 300),
        ("nonlinear:gain=arctan", True, 6, 300),
        ("nonlinear:gain=cubic", False, 8, 25),
    ),
    "tiny": (
        ("kuramoto", True, 1, 80),
        ("nonlinear:gain=arctan", True, 1, 80),
        ("nonlinear:gain=cubic", False, 1, 20),
    ),
}


def probe_setup(seed: int, size: str, scratch: Path) -> Inputs:
    n = PROBE_N
    rng = np.random.default_rng(seed)
    calls = []
    for spec, must_converge, schedules, horizon in PROBE[size]:
        update = cli.make_map(spec)
        for _ in range(schedules):
            sseed = int(rng.integers(0, 2**31))
            # The CLI builds this same schedule; its name is checked in the output.
            schedule = scenarios.random_windowed_schedule(n, PROBE_T, PROBE_LENGTH, sseed)
            argv = (
                "probe", "--scenario",
                f"windowed:n={n},T={PROBE_T},length={PROBE_LENGTH},seed={sseed}",
                "--map", spec, f"--center={_floats(rng.uniform(-0.5, 0.5, n))}",
                "--radius", "0.5", "--samples", "1", "--horizon", str(horizon),
                "--seed", str(int(rng.integers(0, 2**31))),
            )
            expect = {
                "schedule": schedule.name, "map": update.name,
                "samples": 1, "must_converge": must_converge,
            }
            calls.append(CliCall(argv, n, expect))
    return Inputs(calls, _sha(*[c.argv for c in calls]))


def probe_rep(inputs: Inputs) -> RepOutcome:
    failures, ops, agent_steps = [], 0, 0
    h = hashlib.sha256()
    for call in inputs.payload:
        code, out, err = _call(call.argv)
        h.update(out.encode())
        samples = call.expect["samples"]
        ops += samples
        try:
            report = json.loads(out)
        except json.JSONDecodeError:
            report = {}
        if code != 0 or any(
            report.get(k) != call.expect[k] for k in ("schedule", "map", "samples")
        ):
            failures += [f"{call.argv[4]}: exit {code}, {err.strip()[:200]}"] * samples
            continue
        for s in report["per_sample"]:
            ct = s["consensus_time"]
            agent_steps += call.n * (report["horizon"] if ct is None else ct - report["t0"])
            if (call.expect["must_converge"] and s["status"] != "converged") or not (
                s["final_disagreement"] <= s["max_excursion"]
            ):
                failures.append(f"{call.argv[4]} sample {s['index']}: {s}")
    return RepOutcome(ops, failures, agent_steps, h.hexdigest())


WORKLOADS = {
    "stretching-stream": Workload(stretching_setup, _no_problems, stretching_rep),
    "sparse-planar-certify": Workload(sparse_setup, sparse_verify, sparse_rep),
    "cli-windowed-csv": Workload(windowed_setup, _no_problems, windowed_rep),
    "cli-probe-flows": Workload(probe_setup, _no_problems, probe_rep),
}
