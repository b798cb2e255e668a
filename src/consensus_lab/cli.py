"""Command-line front end.

Subcommands: simulate, connectivity, counterexample, matrix, probe.
Exit codes: 0 success, 1 usage or input errors, 2 verification failure
(a monitored containment violation, a failed recursion check, or an
oracle disagreement).

`simulate` and `probe` accept a flat key=value config file; command-line
flags override config values.  The CONSENSUS_LAB_SEED environment
variable supplies the default seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from typing import Optional

from .dynamics import (
    GAIN_LIBRARY,
    AgentState,
    KuramotoTime1,
    LinearAverage,
    MaxUpdate,
    NonlinearConsensus,
    UpdateMap,
    VicsekHeading,
    build_update_matrix,
)
from .graphs import (
    IntervalSpec,
    find_root,
    is_bidirectional,
    is_weakly_connected,
    read_graph_file,
    union_across,
    weakly_connected_oracle,
)
from .lyapunov import DEFAULT_SLACK, monitor_stream, summarize
from .scenarios import (
    counterexample_limit,
    counterexample_schedule,
    random_windowed_schedule,
    stretching_bidirectional_schedule,
    verify_counterexample,
)
from .simulator import (
    GraphSchedule,
    attractivity_probe,
    constant_schedule,
    iter_states,
)

SEED_ENV_VAR = "CONSENSUS_LAB_SEED"


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route usage errors to exit code 1
        raise CliError(message)


def _default_seed() -> int:
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise CliError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}")


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _bool(v: bool) -> str:
    return "true" if v else "false"


# ---------------------------------------------------------------------------
# Spec-string parsing


def _parse_params(text: str, what: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for part in text.split(","):
        if not part:
            continue
        if "=" not in part:
            raise CliError(f"bad {what} parameter {part!r}, expected key=value")
        key, value = part.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _pop_int(params: dict, key: str, what: str, default: Optional[int] = None) -> int:
    if key in params:
        raw = params.pop(key)
        try:
            return int(raw)
        except ValueError:
            raise CliError(f"{what}: {key} must be an integer, got {raw!r}")
    if default is None:
        raise CliError(f"{what}: missing required parameter {key}")
    return default


def make_scenario(spec: str, seed: int) -> GraphSchedule:
    """Build a schedule from 'counterexample', 'windowed:...', 'stretching:...'."""
    name, _, rest = spec.partition(":")
    params = _parse_params(rest, f"scenario {name!r}")
    if name == "counterexample":
        schedule = counterexample_schedule()
    elif name == "windowed":
        n = _pop_int(params, "n", spec)
        T = _pop_int(params, "T", spec)
        length = _pop_int(params, "length", spec, default=2 * (T + 1))
        sseed = _pop_int(params, "seed", spec, default=seed)
        schedule = random_windowed_schedule(n, T, length, sseed)
    elif name == "stretching":
        schedule = stretching_bidirectional_schedule(_pop_int(params, "n", spec))
    else:
        raise CliError(
            f"unknown scenario {name!r}; choose counterexample, windowed, stretching"
        )
    if params:
        raise CliError(f"scenario {name!r} got unknown parameters {sorted(params)}")
    return schedule


def make_map(spec: str) -> UpdateMap:
    """Build an update map from 'linear', 'kuramoto:substeps=200', etc."""
    name, _, rest = spec.partition(":")
    params = _parse_params(rest, f"map {name!r}")
    if name == "linear":
        weight = float(params.pop("weight", 1.0))
        update: UpdateMap = LinearAverage(weight)
    elif name == "kuramoto":
        update = KuramotoTime1(_pop_int(params, "substeps", spec, default=100))
    elif name == "nonlinear":
        gain_name = params.pop("gain", "identity")
        if gain_name not in GAIN_LIBRARY:
            raise CliError(
                f"unknown gain {gain_name!r}; choose from {sorted(GAIN_LIBRARY)}"
            )
        update = NonlinearConsensus(
            GAIN_LIBRARY[gain_name], _pop_int(params, "substeps", spec, default=100)
        )
    elif name == "vicsek":
        update = VicsekHeading()
    elif name == "max":
        update = MaxUpdate()
    else:
        raise CliError(
            f"unknown map {name!r}; choose linear, kuramoto, nonlinear, vicsek, max"
        )
    if params:
        raise CliError(f"map {name!r} got unknown parameters {sorted(params)}")
    return update


def parse_state(spec: str) -> AgentState:
    """'0,1,1' for scalar states; '0 0; 1 0; 0.5 1' for planar ones."""
    try:
        if ";" in spec:
            rows = []
            for chunk in spec.split(";"):
                fields = chunk.replace(",", " ").split()
                rows.append([float(f) for f in fields])
            return AgentState(rows)
        return AgentState([float(f) for f in spec.split(",")])
    except ValueError as e:
        raise CliError(f"bad state {spec!r}: {e}")


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


# ---------------------------------------------------------------------------
# Config files


def load_config(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise CliError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


def _resolved(args, key: str, default=None):
    """CLI flag if given, else config value, else default."""
    value = getattr(args, key, None)
    if value is not None:
        return value
    return args._config.get(key, default)


def _resolve_schedule(args, seed: int) -> GraphSchedule:
    graph_path = _resolved(args, "graph")
    scenario = _resolved(args, "scenario")
    if (graph_path is None) == (scenario is None):
        raise CliError("give exactly one of --graph or --scenario")
    if graph_path is not None:
        return constant_schedule(read_graph_file(graph_path))
    return make_scenario(scenario, seed)


def _add_schedule_args(sub) -> None:
    sub.add_argument("--graph", help="graph file; used as a constant schedule")
    sub.add_argument(
        "--scenario",
        help="scenario spec: counterexample | windowed:n=..,T=..[,length=..,seed=..] "
        "| stretching:n=..",
    )


# ---------------------------------------------------------------------------
# Subcommands


def cmd_simulate(args) -> int:
    seed = args.seed if args.seed is not None else int(args._config.get("seed", _default_seed()))
    schedule = _resolve_schedule(args, seed)
    update = make_map(_resolved(args, "map", "linear"))
    x0_spec = _resolved(args, "x0")
    if x0_spec is None:
        raise CliError("missing --x0")
    x0 = parse_state(x0_spec)
    steps = int(_resolved(args, "steps", -1))
    if steps < 0:
        raise CliError("missing or negative --steps")
    t0_raw = _resolved(args, "t0")
    t0 = schedule.first_time if t0_raw is None else int(t0_raw)
    tol = float(_resolved(args, "tol", 1e-6))
    slack = float(_resolved(args, "slack", DEFAULT_SLACK))
    csv_path = _resolved(args, "csv")

    records = monitor_stream(iter_states(schedule, update, x0, steps, t0), slack)
    if csv_path is not None:
        records = _write_csv(records, csv_path, x0)
    run = summarize(records, tol)

    summary = {
        "schedule": schedule.name,
        "map": update.name,
        "t0": t0,
        "steps": steps,
        "n": x0.n,
        "d": x0.d,
        "final_disagreement": run.final.diameter,
        "consensus_time": run.consensus_time,
        "monitor_violations": run.violations,
        "tol": tol,
        "slack": slack,
    }
    print(json.dumps(summary, indent=2))
    return 2 if run.violations else 0


def _write_csv(records, path: str, x0: AgentState):
    """Pass the records through, writing one CSV row per record; the file
    is opened when the first record is asked for."""
    with open(path, "w", encoding="utf-8") as fh:
        header = ["t"] + [f"{a}{k}" for a in "xy"[: x0.d] for k in range(1, x0.n + 1)]
        fh.write(",".join(header + ["diameter", "contained", "vertices"]) + "\n")
        for rec in records:
            row = [str(rec.t)] + [_fmt(v) for v in rec.state.points.T.ravel()]
            row += [_fmt(rec.diameter), _bool(rec.contained), str(rec.vertex_count)]
            fh.write(",".join(row) + "\n")
            yield rec


def cmd_connectivity(args) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    interval = parse_interval(args.interval) if args.interval else None
    graph_path = args.graph
    scenario = args.scenario
    if (graph_path is None) == (scenario is None):
        raise CliError("give exactly one of --graph or --scenario")
    if graph_path is not None:
        g = read_graph_file(graph_path)
        if interval is not None:
            g = union_across(constant_schedule(g), interval)
    else:
        if interval is None:
            raise CliError("--scenario queries need --interval")
        g = union_across(make_scenario(scenario, seed), interval)

    wc = is_weakly_connected(g)
    root = find_root(g)
    print(f"weakly_connected={_bool(wc)}")
    print(f"root={root if root is not None else 'none'}")
    print(f"bidirectional={_bool(is_bidirectional(g))}")
    code = 0
    if g.n <= 7:
        oracle = weakly_connected_oracle(g)
        agrees = oracle == wc and (root is not None) == wc
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
    print(f"final_gap={_fmt(report.final_gap)}")
    print(f"recursion_gap={_fmt(report.recursion_gap)}")
    print(f"limit={_fmt(counterexample_limit())}")
    print(f"limit_lower_bound={_fmt(report.limit_lower_bound)}")
    print(f"ok={_bool(report.ok)}")
    if not report.ok:
        print(f"first_failure=p{report.first_failure}", file=sys.stderr)
        return 2
    return 0


def cmd_matrix(args) -> int:
    bounds = None
    if (args.emin is None) != (args.emax is None):
        raise CliError("give both --emin and --emax, or neither")
    if args.emin is not None:
        bounds = (args.emin, args.emax)
    g = read_graph_file(args.graph, bounds)
    M = build_update_matrix(g).entries
    print(f"n={M.shape[0]}")
    print("decimal:")
    for row in M:
        print(" ".join(_fmt(v) for v in row))
    fracs = []
    exact = True
    for row in M:
        frow = []
        for v in row:
            f = Fraction(v).limit_denominator(10**6)
            if float(f) != v:
                exact = False
            frow.append(str(f))
        fracs.append(" ".join(frow))
    if exact:
        print("rational:")
        for line in fracs:
            print(line)
    return 0


def cmd_probe(args) -> int:
    seed = args.seed if args.seed is not None else int(args._config.get("seed", _default_seed()))
    schedule = _resolve_schedule(args, seed)
    update = make_map(_resolved(args, "map", "linear"))
    center_spec = _resolved(args, "center")
    if center_spec is None:
        raise CliError("missing --center")
    report = attractivity_probe(
        schedule,
        update,
        parse_state(center_spec),
        radius=float(_resolved(args, "radius", 0.5)),
        samples=int(_resolved(args, "samples", 20)),
        horizon=int(_resolved(args, "horizon", 1000)),
        tol=float(_resolved(args, "tol", 1e-6)),
        seed=seed,
        t0=None if _resolved(args, "t0") is None else int(_resolved(args, "t0")),
    )
    text = json.dumps(report.to_json_dict(), indent=2)
    out = _resolved(args, "out")
    if out is None or out == "-":
        print(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="consensus-lab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a schedule and write trajectory CSV")
    _add_schedule_args(p)
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--map", help="update map spec (default linear)")
    p.add_argument("--x0", help="initial state, e.g. '0,1,1' or '0 0; 1 0'")
    p.add_argument("--steps", type=int)
    p.add_argument("--t0", type=int)
    p.add_argument("--tol", type=float, help="consensus detection tolerance")
    p.add_argument("--slack", type=float, help="hull containment slack")
    p.add_argument("--csv", help="write per-step CSV here")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("connectivity", help="connectivity queries on a graph or schedule")
    _add_schedule_args(p)
    p.add_argument("--interval", help="'a,b' bounded, 'a,inf' unbounded, 'a' single")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_connectivity)

    p = sub.add_parser("counterexample", help="verify the non-convergence recursion")
    p.add_argument("--pmax", type=int, default=64)
    p.set_defaults(func=cmd_counterexample)

    p = sub.add_parser("matrix", help="print the update matrix of a weighted graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--emin", type=float, help="declared lower weight bound")
    p.add_argument("--emax", type=float, help="declared upper weight bound")
    p.set_defaults(func=cmd_matrix)

    p = sub.add_parser("probe", help="attractivity probe from random initial states")
    _add_schedule_args(p)
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--map", help="update map spec (default linear)")
    p.add_argument("--center", help="center state, e.g. '0,1,1'")
    p.add_argument("--radius", type=float)
    p.add_argument("--samples", type=int)
    p.add_argument("--horizon", type=int)
    p.add_argument("--tol", type=float)
    p.add_argument("--t0", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="write the JSON report here ('-' for stdout)")
    p.set_defaults(func=cmd_probe)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        config_path = getattr(args, "config", None)
        args._config = load_config(config_path) if config_path else {}
        return args.func(args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
