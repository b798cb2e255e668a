"""Command-line front end.

Subcommands: simulate, connectivity, counterexample, matrix, probe.
Exit codes: 0 success, 1 usage or input errors, 2 verification failure
(a monitored containment violation, a failed recursion check, or an
oracle disagreement), 141 (128 + SIGPIPE, as a shell reports a process
killed by SIGPIPE) when the reader of an output pipe closes it early, as
`| head` does; nothing is written to stderr then.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
from fractions import Fraction

import numpy as np

from .dynamics import (
    GAIN_LIBRARY,
    KuramotoTime1,
    LinearAverage,
    MaxUpdate,
    NonlinearConsensus,
    UpdateMap,
    VicsekHeading,
    build_update_matrix,
)
from .graphs import (
    _ORACLE_NODE_CAP,
    IntervalSpec,
    find_root,
    is_bidirectional,
    read_graph_file,
    union_across,
    weakly_connected_oracle,
)
from .lyapunov import DEFAULT_SLACK, AgentState, disagreement, monitor_stream, summarize
from .scenarios import (
    CounterexampleSchedule,
    StretchingSchedule,
    counterexample_limit,
    random_windowed_schedule,
    verify_counterexample,
)
from .simulator import (
    GraphSchedule,
    PeriodicSchedule,
    attractivity_probe,
    iter_spans,
)

class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route usage errors to exit code 1
        raise CliError(message)


_fmt = "{:.17g}".format


def _bool(v: bool) -> str:
    return "true" if v else "false"


# ---------------------------------------------------------------------------
# Spec-string parsing


def _pop(params: dict, spec: str, key: str, kind: type, default=None):
    """Remove and convert (int or str) a spec parameter; a None default
    makes it required."""
    if key not in params:
        if default is None:
            raise CliError(f"{spec}: missing required parameter {key}")
        return default
    raw = params.pop(key)
    try:
        return kind(raw)
    except ValueError:
        raise CliError(f"{spec}: {key} must be an integer, got {raw!r}")


def _build(spec: str, what: str, factories: dict):
    """Build the `what` that 'name:key=value,...' names with its factory,
    which reads its parameters with `pop(key, kind, default)`."""
    name, _, rest = spec.partition(":")
    params: dict[str, str] = {}
    for part in filter(None, rest.split(",")):
        key, eq, value = part.partition("=")
        if not eq:
            raise CliError(f"bad {what} {name!r} parameter {part!r}, expected key=value")
        params[key.strip()] = value.strip()
    if name not in factories:
        raise CliError(f"unknown {what} {name!r}; choose {', '.join(factories)}")
    built = factories[name](functools.partial(_pop, params, spec))
    if params:
        raise CliError(f"{what} {name!r} got unknown parameters {sorted(params)}")
    return built


def _windowed(pop) -> GraphSchedule:
    n, T = pop("n", int), pop("T", int)
    return random_windowed_schedule(n, T, pop("length", int, 2 * (T + 1)), pop("seed", int, 0))


def _nonlinear(pop) -> UpdateMap:
    gain_name = pop("gain", str, "identity")
    if gain_name not in GAIN_LIBRARY:
        raise CliError(f"unknown gain {gain_name!r}; choose from {sorted(GAIN_LIBRARY)}")
    return NonlinearConsensus(GAIN_LIBRARY[gain_name], pop("substeps", int, 100))


_SCENARIOS = {
    "counterexample": lambda pop: CounterexampleSchedule(),
    "windowed": _windowed,
    "stretching": lambda pop: StretchingSchedule(pop("n", int)),
}

_MAPS = {
    "linear": lambda pop: LinearAverage(),
    "kuramoto": lambda pop: KuramotoTime1(pop("substeps", int, 100)),
    "nonlinear": _nonlinear,
    "vicsek": lambda pop: VicsekHeading(),
    "max": lambda pop: MaxUpdate(),
}


def make_scenario(spec: str) -> GraphSchedule:
    """Build a schedule from 'counterexample', 'windowed:...', 'stretching:...'."""
    return _build(spec, "scenario", _SCENARIOS)


def make_map(spec: str) -> UpdateMap:
    """Build an update map from 'linear', 'kuramoto:substeps=200', etc."""
    return _build(spec, "map", _MAPS)


def parse_state(spec: str) -> AgentState:
    """'0,1,1' for scalar states; '0 0; 1 0; 0.5 1' for planar ones.

    A state whose disagreement overflows a float is rejected: no update
    map can step it without overflowing, and no report could print it.
    """
    try:
        if ";" in spec:
            rows = []
            for chunk in spec.split(";"):
                fields = chunk.replace(",", " ").split()
                rows.append([float(f) for f in fields])
            state = AgentState(rows)
        else:
            state = AgentState([float(f) for f in spec.split(",")])
    except ValueError as e:
        raise CliError(f"bad state {spec!r}: {e}")
    if not math.isfinite(disagreement(state)):
        raise CliError(f"bad state {spec!r}: its disagreement overflows a float")
    return state


def parse_interval(spec: str) -> IntervalSpec:
    """'a,b' bounded; 'a,inf' or 'a,' unbounded; 'a' alone means [a, a]."""
    try:
        head, sep, tail = spec.partition(",")
        start = int(head)
        if not sep or tail in ("inf", ""):
            end = None if sep else start
        else:
            end = int(tail)
        return IntervalSpec(start, end)
    except ValueError as e:
        raise CliError(f"bad interval {spec!r}: {e}")


def _resolve_schedule(args) -> GraphSchedule:
    if (args.graph is None) == (args.scenario is None):
        raise CliError("give exactly one of --graph or --scenario")
    if args.graph is not None:
        return PeriodicSchedule([read_graph_file(args.graph)], name="constant")
    return make_scenario(args.scenario)


# ---------------------------------------------------------------------------
# Subcommands


def cmd_simulate(args) -> int:
    schedule = _resolve_schedule(args)
    update = make_map(args.map)
    x0 = parse_state(args.x0)
    t0 = schedule.first_time if args.t0 is None else args.t0

    spans = iter_spans(schedule, update, x0, args.steps, t0)
    records = monitor_stream((t, x) for t, _, x in spans)
    if args.csv is not None:
        records = _write_csv(records, args.csv, x0, t0 + args.steps)
    run = summarize(records, args.tol)

    summary = {
        "schedule": schedule.name,
        "map": update.name,
        "t0": t0,
        "steps": args.steps,
        "spans": run.records,
        "n": x0.n,
        "d": x0.d,
        "final_disagreement": run.final.diameter,
        "consensus_time": run.consensus_time,
        "monitor_violations": run.violations,
        "tol": args.tol,
        "slack": DEFAULT_SLACK,
    }
    print(json.dumps(summary, indent=2))
    return 2 if run.violations else 0


def _write_csv(records, path: str, x0: AgentState, end: int):
    """Pass the records through, writing one CSV row per time step through
    `end`; the file is opened when the first record is asked for.

    Each record is a state that holds until the next record's time, or
    through `end` for the last one.  Its first row, with the record's
    verdict, is written when it arrives; the rest of its stretch, contained
    with the same diameter and vertex count, when the next record does.
    """
    with open(path, "w", encoding="utf-8") as fh:
        header = ["t"] + [f"{a}{k}" for a in "xy"[: x0.d] for k in range(1, x0.n + 1)]
        fh.write(",".join(header + ["diameter", "contained", "vertices"]) + "\n")
        values = ",%.17g" * (x0.n * x0.d + 1)  # the coordinates, then the diameter
        tail = None  # the last record's row after its time, for the rest of its stretch
        for rec in records:
            if tail is not None:
                _write_rows(fh, tail, since + 1, rec.t)
            row = values % (*rec.state.points.T.ravel().tolist(), rec.diameter)
            fh.write(f"{rec.t}{row},{_bool(rec.contained)},{rec.vertex_count}\n")
            tail, since = f"{row},true,{rec.vertex_count}\n", rec.t
            yield rec
        if tail is not None:
            _write_rows(fh, tail, since + 1, end + 1)


_CSV_CHUNK = 1024  # rows per write of a repeated state, so memory stays bounded


def _write_rows(fh, tail: str, start: int, stop: int) -> None:
    """Write the rows `{t}{tail}` for t in [start, stop)."""
    for lo in range(start, stop, _CSV_CHUNK):
        fh.write(tail.join(map(str, range(lo, min(lo + _CSV_CHUNK, stop)))) + tail)


def cmd_connectivity(args) -> int:
    schedule = _resolve_schedule(args)
    if not args.interval and args.scenario is not None:
        raise CliError("--scenario queries need --interval")
    # Any interval's union of a constant schedule is its graph.
    interval = parse_interval(args.interval) if args.interval else IntervalSpec(0)
    g = union_across(schedule, interval)

    root = find_root(g)
    wc = root is not None
    print(f"weakly_connected={_bool(wc)}")
    print(f"root={root if root is not None else 'none'}")
    print(f"bidirectional={_bool(is_bidirectional(g))}")
    code = 0
    if g.n <= _ORACLE_NODE_CAP:
        oracle = weakly_connected_oracle(g)
        agrees = oracle == wc
        print(f"oracle={_bool(oracle)}")
        print(f"oracle_agrees={_bool(agrees)}")
        if not agrees:
            code = 2
    return code


def cmd_counterexample(args) -> int:
    if args.pmax < 2:
        raise CliError(f"--pmax must be at least 2, got {args.pmax}")
    report = verify_counterexample(args.pmax)
    print(f"{'p':>4} {'t':>8} {'gap':>24} {'predicted':>24} {'residual':>12}")
    for row in report.rows:
        print(
            f"{row.p:>4} {row.t:>8} {_fmt(row.gap):>24} {_fmt(row.predicted):>24} "
            f"{row.residual:>12.3e}"
        )
    print(f"final_gap={_fmt(report.rows[-1].gap)}")
    print(f"recursion_gap={_fmt(report.rows[-1].predicted)}")
    print(f"limit={_fmt(counterexample_limit())}")
    print(f"limit_lower_bound={_fmt(report.limit_lower_bound)}")
    print(f"ok={_bool(report.ok)}")
    if not report.ok:
        print(f"first_failure=p{report.first_failure}", file=sys.stderr)
        return 2
    return 0


def cmd_matrix(args) -> int:
    M = build_update_matrix(read_graph_file(args.graph)).entries
    print(f"n={M.shape[0]}")
    print("decimal:")
    for row in M:
        print(" ".join(_fmt(v) for v in row))
    fracs = [[Fraction(v).limit_denominator(10**6) for v in row] for row in M]
    if all(float(f) == v for frow, row in zip(fracs, M) for f, v in zip(frow, row)):
        print("rational:")
        for frow in fracs:
            print(" ".join(map(str, frow)))
    return 0


def cmd_probe(args) -> int:
    schedule = _resolve_schedule(args)
    update = make_map(args.map)
    report = attractivity_probe(
        schedule,
        update,
        parse_state(args.center),
        radius=args.radius,
        samples=args.samples,
        horizon=args.horizon,
        tol=args.tol,
        seed=args.seed,
        t0=args.t0,
    )
    text = json.dumps(report.to_json_dict(), indent=2)
    if args.out is None or args.out == "-":
        print(text)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    """Build the parser of every subcommand; `main` parses with the one
    built at import."""
    parser = _Parser(prog="consensus-lab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    # Options that several subcommands share, each defined once; the
    # subcommands share their actions, so build the parents per parser.
    schedule = argparse.ArgumentParser(add_help=False)
    schedule.add_argument("--graph", help="graph file; used as a constant schedule")
    schedule.add_argument(
        "--scenario",
        help="scenario spec: counterexample | windowed:n=..,T=..[,length=..,seed=..] "
        "| stretching:n=..",
    )
    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("--map", default="linear", help="update map spec (default linear)")
    run.add_argument("--t0", type=int)
    run.add_argument("--tol", type=float, default=1e-6, help="consensus detection tolerance")

    p = sub.add_parser(
        "simulate", parents=[schedule, run], help="run a schedule and write trajectory CSV"
    )
    p.add_argument("--x0", required=True, help="initial state, e.g. '0,1,1' or '0 0; 1 0'")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--csv", help="write per-step CSV here")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser(
        "connectivity", parents=[schedule], help="connectivity queries on a graph or schedule"
    )
    p.add_argument("--interval", help="'a,b' bounded, 'a,inf' unbounded, 'a' single")
    p.set_defaults(func=cmd_connectivity)

    p = sub.add_parser("counterexample", help="verify the non-convergence recursion")
    p.add_argument("--pmax", type=int, default=64)
    p.set_defaults(func=cmd_counterexample)

    p = sub.add_parser("matrix", help="print the update matrix of a weighted graph")
    p.add_argument("--graph", required=True)
    p.set_defaults(func=cmd_matrix)

    p = sub.add_parser(
        "probe", parents=[schedule, run], help="attractivity probe from random initial states"
    )
    p.add_argument("--center", required=True, help="center state, e.g. '0,1,1'")
    p.add_argument("--radius", type=float, default=0.5)
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--horizon", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0, help="seed of the sampler")
    p.add_argument("--out", help="write the JSON report here ('-' for stdout)")
    p.set_defaults(func=cmd_probe)

    return parser


_PARSER = build_parser()  # parse_args leaves it unchanged, so every call shares it


def main(argv=None) -> int:
    """Run one command line and return its exit code."""
    try:
        args = _PARSER.parse_args(argv)
        # Every non-finite result fails a finiteness check with a clear
        # message, so numpy's floating-point warnings would only repeat it.
        with np.errstate(all="ignore"):
            code = args.func(args)
        sys.stdout.flush()  # a closed pipe fails here, not at interpreter exit
        return code
    except BrokenPipeError:
        # Point stdout at devnull, so the flush at exit cannot fail again;
        # an in-memory stdout has no descriptor.
        with contextlib.suppress(AttributeError, OSError, ValueError):
            fd, devnull = sys.stdout.fileno(), os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, fd)
            os.close(devnull)
        return 141  # 128 + SIGPIPE
    except (CliError, ValueError, OSError, MemoryError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
