"""Command-line interface: parsing, subcommands, exit codes, file outputs."""

import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from consensus_lab import AgentState, LinearAverage, cli, monitor_stream
from consensus_lab.cli import main
from consensus_lab.lyapunov import MonitorRecord

WORKED = "n=4\narc 2 1 0.5\narc 1 2 1\narc 3 2 5\n"
CHAIN = "n=3\narc 1 2\narc 2 3\n"


@pytest.fixture
def worked_graph(tmp_path):
    path = tmp_path / "worked.graph"
    path.write_text(WORKED)
    return str(path)


@pytest.fixture
def chain_graph(tmp_path):
    path = tmp_path / "chain.graph"
    path.write_text(CHAIN)
    return str(path)


# ---------------------------------------------------------------------------
# Spec-string helpers


def test_make_map_specs():
    assert cli.make_map("linear").name == "linear"
    assert cli.make_map("linear:weight=2.5").default_weight == 2.5
    assert cli.make_map("kuramoto:substeps=7").substeps == 7
    assert cli.make_map("nonlinear:gain=cubic,substeps=12").substeps == 12
    assert cli.make_map("vicsek").name == "vicsek"
    assert cli.make_map("max").name == "max"
    with pytest.raises(cli.CliError, match="unknown map"):
        cli.make_map("bogus")
    with pytest.raises(cli.CliError, match="unknown gain"):
        cli.make_map("nonlinear:gain=square")
    with pytest.raises(cli.CliError, match="unknown parameters"):
        cli.make_map("linear:speed=3")


def test_make_scenario_specs():
    assert cli.make_scenario("counterexample").name == "counterexample"
    w = cli.make_scenario("windowed:n=4,T=1,seed=9")
    assert w.n == 4 and w.period == 4  # default length 2 (T + 1)
    assert "seed=9" in w.name
    s = cli.make_scenario("stretching:n=5")
    assert s.n == 5
    with pytest.raises(cli.CliError, match="unknown scenario"):
        cli.make_scenario("ring:n=3")
    with pytest.raises(cli.CliError, match="missing required"):
        cli.make_scenario("windowed:T=1")
    with pytest.raises(cli.CliError, match="must be an integer"):
        cli.make_scenario("windowed:n=four,T=1")



@pytest.mark.parametrize("build,spec,message", [
    (cli.make_map, "bogus", "unknown map 'bogus'; choose linear, kuramoto, nonlinear, vicsek, max"),
    (cli.make_scenario, "ring:n=3",
     "unknown scenario 'ring'; choose counterexample, windowed, stretching"),
    (cli.make_scenario, "windowed:n=3,T",
     "bad scenario 'windowed' parameter 'T', expected key=value"),
    (cli.make_map, "nonlinear:gain=square",
     "unknown gain 'square'; choose from ['arctan', 'cubic', 'identity']"),
    (cli.make_map, "linear:weight=heavy", "linear:weight=heavy: weight must be a number, got 'heavy'"),
], ids=["map", "scenario", "parameter", "gain", "number"])
def test_spec_errors_are_spelled_out(build, spec, message):
    with pytest.raises(cli.CliError) as info:
        build(spec)
    assert str(info.value) == message

def test_parse_state():
    assert cli.parse_state("0,1,1").values.tolist() == [0.0, 1.0, 1.0]
    planar = cli.parse_state("0 0; 1 0; 0.5 1")
    assert planar.d == 2 and planar.n == 3
    with pytest.raises(cli.CliError, match="bad state"):
        cli.parse_state("0,x,1")


@pytest.mark.parametrize("command,option,spec", [
    ("simulate", "--x0", "0 0; 1 0; 0.5"),
    ("simulate", "--x0", "0,1,1;"),
    ("probe", "--center", "0 0; 1 0; 0.5"),
], ids=["simulate-short-row", "simulate-empty-row", "probe-short-row"])
def test_ragged_state_fails_with_the_shape_message(chain_graph, capsys, command, option, spec):
    assert main([command, "--graph", chain_graph, option, spec]) == 1
    assert capsys.readouterr().err.startswith(
        f"error: bad state {spec!r}: expected (n,) or (n, d) points"
    )


def test_parse_interval():
    assert (cli.parse_interval("3,9").start, cli.parse_interval("3,9").end) == (3, 9)
    assert cli.parse_interval("4").end == 4
    assert cli.parse_interval("4,inf").end is None
    assert cli.parse_interval("4,").end is None
    with pytest.raises(cli.CliError, match="bad interval"):
        cli.parse_interval("a,b")


# ---------------------------------------------------------------------------
# matrix


def test_matrix_worked_example(worked_graph, capsys):
    assert main(["matrix", "--graph", worked_graph]) == 0
    out = capsys.readouterr().out
    assert out == (
        "n=4\n"
        "decimal:\n"
        "0.66666666666666663 0.33333333333333331 0 0\n"
        "0.14285714285714285 0.14285714285714285 0.7142857142857143 0\n"
        "0 0 1 0\n"
        "0 0 0 1\n"
        "rational:\n"
        "2/3 1/3 0 0\n"
        "1/7 1/7 5/7 0\n"
        "0 0 1 0\n"
        "0 0 0 1\n"
    )


def test_matrix_skips_rational_block_for_awkward_weights(tmp_path, capsys):
    path = tmp_path / "g.graph"
    path.write_text("n=2\narc 1 2 0.123456789012345\n")
    assert main(["matrix", "--graph", str(path)]) == 0
    out = capsys.readouterr().out
    assert "decimal:" in out
    assert "rational:" not in out


def test_matrix_skips_rational_block_for_tiny_diagonal(tmp_path, capsys):
    # The diagonal entries are 1/(1 + 1e308), about 1e-308, which no fraction
    # with a denominator up to 10**6 represents; a rational 0 would be wrong.
    path = tmp_path / "g.graph"
    path.write_text("n=2\narc 1 2 1e308\narc 2 1 1e308\n")
    assert main(["matrix", "--graph", str(path)]) == 0
    out = capsys.readouterr().out
    assert out == (
        "n=2\n"
        "decimal:\n"
        "9.9999999999999991e-309 1\n"
        "1 9.9999999999999991e-309\n"
    )


def test_matrix_bounds_flags(worked_graph, capsys):
    assert main(["matrix", "--graph", worked_graph, "--emin", "0.5", "--emax", "5"]) == 0
    capsys.readouterr()
    assert main(["matrix", "--graph", worked_graph, "--emin", "0.5"]) == 1
    assert "both --emin and --emax" in capsys.readouterr().err
    assert main(["matrix", "--graph", worked_graph, "--emin", "1", "--emax", "5"]) == 1
    assert "outside declared bounds" in capsys.readouterr().err


@pytest.mark.parametrize("emin, emax, fragment", [
    ("2", "1", "bounds must satisfy 0 < e_min <= e_max"),
    ("0", "5", "bounds must satisfy 0 < e_min <= e_max"),
    ("2", "5", "weight 1.0 for arc (1, 2) outside declared bounds [2.0, 5.0]"),
])
def test_matrix_bounds_on_an_unweighted_graph(chain_graph, capsys, emin, emax, fragment):
    assert main(["matrix", "--graph", chain_graph, "--emin", emin, "--emax", emax]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {fragment}")


def test_matrix_bounds_admitting_unit_weight_keep_the_unweighted_output(chain_graph, capsys):
    assert main(["matrix", "--graph", chain_graph]) == 0
    plain = capsys.readouterr().out
    assert main(["matrix", "--graph", chain_graph, "--emin", "0.5", "--emax", "1"]) == 0
    assert capsys.readouterr().out == plain


@pytest.mark.parametrize("weight", ["inf", "1e400"])
def test_matrix_names_the_line_of_a_non_finite_weight(tmp_path, capsys, weight):
    path = tmp_path / "g.graph"
    path.write_text(f"n=2\narc 1 2 {weight}\n")
    assert main(["matrix", "--graph", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: line 2: arc weight must be positive and finite")


def test_matrix_missing_file(tmp_path, capsys):
    assert main(["matrix", "--graph", str(tmp_path / "nope.graph")]) == 1
    assert "error:" in capsys.readouterr().err


def test_an_input_too_large_to_allocate_exits_1_with_numpy_s_message(tmp_path, monkeypatch, capsys):
    # n=1000000 is under the node cap, but the dense update matrix would take
    # 7.28 TiB: the allocation is refused here, as numpy refuses it, unmade
    path = tmp_path / "g.graph"
    path.write_text("n=1000000\n")
    message = (
        "Unable to allocate 7.28 TiB for an array with shape (1000000, 1000000)"
        " and data type float64"
    )
    zeros, asked = np.zeros, []

    def refuse_the_dense_matrix(shape, *args, **kwargs):
        if shape == (10**6, 10**6):
            asked.append(shape)
            raise MemoryError(message)
        return zeros(shape, *args, **kwargs)

    monkeypatch.setattr(np, "zeros", refuse_the_dense_matrix)
    assert main(["matrix", "--graph", str(path)]) == 1
    captured = capsys.readouterr()
    assert asked == [(10**6, 10**6)]
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_connectivity_names_the_line_of_a_node_count_past_the_cap(tmp_path, capsys):
    # an arc-free graph is capped too: its node count is refused on its line,
    # before any O(n) view is built
    path = tmp_path / "g.graph"
    path.write_text(f"n={2**63}\n")
    assert main(["connectivity", "--graph", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: line 1: a graph has at most 3037000499 nodes, got n={2**63}\n"


# ---------------------------------------------------------------------------
# connectivity


def test_connectivity_chain(chain_graph, capsys):
    assert main(["connectivity", "--graph", chain_graph]) == 0
    out = capsys.readouterr().out
    assert "weakly_connected=true" in out
    assert "root=1" in out
    assert "bidirectional=false" in out
    assert "oracle=true" in out
    assert "oracle_agrees=true" in out


def test_connectivity_disconnected_graph(worked_graph, capsys):
    assert main(["connectivity", "--graph", worked_graph]) == 0
    out = capsys.readouterr().out
    assert "weakly_connected=false" in out
    assert "root=none" in out


def test_connectivity_counterexample_tail(capsys):
    code = main(["connectivity", "--scenario", "counterexample", "--interval", "1,inf"])
    assert code == 0
    out = capsys.readouterr().out
    assert "weakly_connected=true" in out
    assert "bidirectional=true" in out
    assert "oracle_agrees=true" in out


def test_connectivity_stretching_arc_free_window(capsys):
    # times 6..8 of the three-agent stretching schedule carry no arcs
    code = main(["connectivity", "--scenario", "stretching:n=3", "--interval", "6,8"])
    assert code == 0
    assert "weakly_connected=false" in capsys.readouterr().out


def test_connectivity_exits_2_when_the_oracle_disagrees(chain_graph, monkeypatch, capsys):
    monkeypatch.setattr(cli, "weakly_connected_oracle", lambda g: False)
    assert main(["connectivity", "--graph", chain_graph]) == 2
    assert "oracle_agrees=false" in capsys.readouterr().out


def test_connectivity_usage_errors(chain_graph, capsys):
    assert main(["connectivity"]) == 1
    assert "exactly one" in capsys.readouterr().err
    assert main(["connectivity", "--graph", chain_graph, "--scenario", "counterexample"]) == 1
    capsys.readouterr()
    assert main(["connectivity", "--scenario", "counterexample"]) == 1
    assert "--interval" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# counterexample


def test_counterexample_table(capsys):
    assert main(["counterexample", "--pmax", "6"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0].split() == ["p", "t", "gap", "predicted", "residual"]
    assert len([l for l in lines if l.lstrip().startswith(("1 ", "2 ", "3 ", "4 ", "5 ", "6 "))]) == 6
    assert "final_gap=0.29334783554077148" in out
    assert "limit=0.2887880950866024" in out
    assert "ok=true" in out


def test_counterexample_rejects_tiny_pmax(capsys):
    assert main(["counterexample", "--pmax", "1"]) == 1
    assert "--pmax" in capsys.readouterr().err


def test_counterexample_failure_path(monkeypatch, capsys):
    # (under 0.01 s)
    real = cli.verify_counterexample(3)
    bad = dataclasses.replace(real.rows[1], gap=0.9, residual=0.525)
    tampered = dataclasses.replace(real, rows=(real.rows[0], bad, real.rows[2]))
    monkeypatch.setattr(cli, "verify_counterexample", lambda pmax: tampered)
    assert main(["counterexample", "--pmax", "3"]) == 2
    captured = capsys.readouterr()
    assert "ok=false" in captured.out
    assert "first_failure=p2" in captured.err


# ---------------------------------------------------------------------------
# simulate


def test_simulate_writes_csv_and_summary(chain_graph, tmp_path, capsys):
    csv_path = tmp_path / "run.csv"
    code = main(
        ["simulate", "--graph", chain_graph, "--x0", "0,1,1", "--steps", "3",
         "--csv", str(csv_path)]
    )
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["schedule"] == "constant"
    assert summary["map"] == "linear"
    assert summary["final_disagreement"] == 0.5
    assert summary["consensus_time"] is None
    assert summary["monitor_violations"] == 0
    assert csv_path.read_text() == (
        "t,x1,x2,x3,diameter,contained,vertices\n"
        "0,0,1,1,1,true,2\n"
        "1,0,0.5,1,1,true,2\n"
        "2,0,0.25,0.75,0.75,true,2\n"
        "3,0,0.125,0.5,0.5,true,2\n"
    )


def test_simulate_is_deterministic(chain_graph, tmp_path, capsys):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for p in paths:
        main(["simulate", "--graph", chain_graph, "--x0", "0.1,0.9,0.4",
              "--steps", "25", "--csv", str(p)])
        capsys.readouterr()
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_simulate_planar_max_map_flags_violation(tmp_path, capsys):
    path = tmp_path / "complete3.graph"
    path.write_text(
        "n=3\n" + "".join(f"arc {k} {l}\n" for k in (1, 2, 3) for l in (1, 2, 3) if k != l)
    )
    code = main(["simulate", "--graph", str(path), "--map", "max",
                 "--x0", "0 0; 1 0; 0.5 1", "--steps", "2"])
    assert code == 2
    summary = json.loads(capsys.readouterr().out)
    assert summary["d"] == 2
    assert summary["monitor_violations"] == 1


def test_simulate_planar_csv_rows(tmp_path):
    graph, csv_path = tmp_path / "complete3.graph", tmp_path / "run.csv"
    graph.write_text("n=3\narc 1 2\narc 1 3\narc 2 1\narc 2 3\narc 3 1\narc 3 2\n")
    assert main(["simulate", "--graph", str(graph), "--map", "max", "--x0", "0 0; 1 0; 0.5 1",
                 "--steps", "2", "--csv", str(csv_path)]) == 2
    assert csv_path.read_text() == (
        "t,x1,x2,x3,y1,y2,y3,diameter,contained,vertices\n"
        "0,0,1,0.5,0,0,1,1.1180339887498949,true,3\n"
        "1,1,1,1,1,1,1,0,false,1\n"
        "2,1,1,1,1,1,1,0,true,1\n"
    )


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("n", [1, 3, 7])
def test_csv_rows_format_each_numpy_value_as_before(tmp_path, d, n):
    # the reference formats the numpy scalars one value at a time
    rng = np.random.default_rng(10 * n + d)
    specials = [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.0 / 3.0, 1e-300]
    records = []
    for t in range(30):
        pool = np.concatenate([rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300), specials])
        state = AgentState(rng.choice(pool, size=(n, d)))
        dia = abs(float(rng.choice(pool)))
        records.append(MonitorRecord(t, dia, bool(t % 3), int(rng.integers(1, 4)), state))
    path = tmp_path / "rows.csv"
    assert list(cli._write_csv(iter(records), str(path), records[0].state, 29)) == records
    want = [
        ",".join(
            [str(r.t)]
            + [f"{v:.17g}" for v in r.state.points.T.ravel()]
            + [f"{r.diameter:.17g}", "true" if r.contained else "false", str(r.vertex_count)]
        )
        for r in records
    ]
    assert path.read_bytes().decode().split("\n")[1:] == want + [""]


def test_simulate_csv_keeps_minus_zero_until_the_first_step(chain_graph, tmp_path, capsys):
    # -0.0 is not at rest: the linear step turns it into +0.0
    csv_path = tmp_path / "run.csv"
    assert main(["simulate", "--graph", chain_graph, "--x0=-0,-0,-0", "--steps", "3",
                 "--csv", str(csv_path)]) == 0
    assert json.loads(capsys.readouterr().out)["consensus_time"] == 0
    assert csv_path.read_text().split("\n")[1:] == [
        "0,-0,-0,-0,0,true,1", "1,0,0,0,0,true,1", "2,0,0,0,0,true,1", "3,0,0,0,0,true,1", "",
    ]


@pytest.mark.parametrize("d", [1, 2])
def test_simulate_csv_after_rest_equals_a_row_by_row_reference(tmp_path, capsys, d):
    x0 = "0,1,-2.5,0.3" if d == 1 else "0 1; 1 -2.5; -2.5 0.3; 0.3 0"
    csv_path = tmp_path / "run.csv"
    assert main(["simulate", "--scenario", "windowed:n=4,T=1,seed=5", "--x0", x0,
                 "--steps", "150", "--csv", str(csv_path)]) == 0
    capsys.readouterr()
    # every record formatted on its own, from a loop that steps at every time
    schedule, update = cli.make_scenario("windowed:n=4,T=1,seed=5"), LinearAverage()
    x = cli.parse_state(x0)
    states = [(0, x)]
    for t in range(150):
        x = update.step(t, schedule.graph_at(t), x)
        states.append((t + 1, x))
    rest = next(t for t, s in states if s._at_rest())
    assert 0 < rest < 100  # the run reaches rest, and stays there for 50 rows
    header = ["t"] + [f"{a}{k}" for a in "xy"[:d] for k in range(1, 5)]
    want = [",".join(header + ["diameter", "contained", "vertices"])] + [
        ",".join(
            [str(r.t)]
            + [f"{v:.17g}" for v in r.state.points.T.ravel()]
            + [f"{r.diameter:.17g}", "true" if r.contained else "false", str(r.vertex_count)]
        )
        for r in monitor_stream(states)
    ]
    assert csv_path.read_bytes() == "\n".join(want + [""]).encode()


class _CountingAverage(LinearAverage):
    """Linear averaging that counts its `step` calls."""

    def __init__(self):
        super().__init__()
        self.calls = 0

    def step(self, t, graph, state):
        self.calls += 1
        return super().step(t, graph, state)


@pytest.mark.parametrize("scenario, x0, steps", [
    ("stretching:n=4", "0,1,0.25,0.5", "700"),
    ("windowed:n=5,T=2,seed=3", "0,1,0.25,0.5,0.75", "300"),
    ("counterexample", "0,1,1", "90"),
])
def test_simulate_reports_one_span_more_than_map_steps(monkeypatch, capsys, scenario, x0, steps):
    counting = _CountingAverage()
    monkeypatch.setitem(cli._MAPS, "linear", lambda pop: counting)
    assert main(["simulate", "--scenario", scenario, "--x0", x0, "--steps", steps]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert counting.calls > 0
    assert summary["spans"] == 1 + counting.calls


def test_simulate_reaches_a_horizon_of_10_to_the_15_in_two_spans(tmp_path, capsys):
    graph = tmp_path / "pair.graph"
    graph.write_text("n=2\narc 1 2\narc 2 1\n")
    steps = 10**15
    assert main(["simulate", "--graph", str(graph), "--x0", "0,1", "--steps", str(steps)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert (summary["spans"], summary["steps"], summary["consensus_time"]) == (2, steps, 1)


def test_simulate_csv_of_a_long_rest_is_written_in_bounded_memory(tmp_path, capsys):
    graph, csv_path = tmp_path / "pair.graph", tmp_path / "run.csv"
    graph.write_text("n=2\narc 1 2\narc 2 1\n")
    steps = 200_000
    tracemalloc.start()
    try:
        code = main(["simulate", "--graph", str(graph), "--x0", "0,1", "--steps", str(steps),
                     "--csv", str(csv_path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and json.loads(capsys.readouterr().out)["spans"] == 2
    assert peak < 4 * 2**20
    # every row formatted on its own, from a loop that steps at every time
    pair, update = cli.read_graph_file(str(graph)), LinearAverage()
    states = [(0, cli.parse_state("0,1"))]
    for t in range(steps):
        states.append((t + 1, update.step(t, pair, states[-1][1])))
    with open(csv_path, "rb") as fh:
        assert fh.readline() == b"t,x1,x2,diameter,contained,vertices\n"
        for r in monitor_stream(states):
            row = ",".join(
                [str(r.t)]
                + [f"{v:.17g}" for v in r.state.points.T.ravel().tolist()]
                + [f"{r.diameter:.17g}", "true" if r.contained else "false", str(r.vertex_count)]
            )
            assert fh.readline() == (row + "\n").encode()
        assert fh.read() == b""


@pytest.mark.parametrize("map_spec", ["linear", "kuramoto"])
@pytest.mark.parametrize("steps", ["0", "5"])
def test_simulate_rejects_an_overflowing_spread_with_one_line(capsys, map_spec, steps):
    code = main(["simulate", "--scenario", "windowed:n=3,T=0,seed=1", "--map", map_spec,
                 "--x0=-1.7e308,1.7e308,0", "--steps", steps])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == (
        "error: bad state '-1.7e308,1.7e308,0': its disagreement overflows a float\n"
    )


def test_overflow_inside_a_step_fails_with_one_line_and_no_numpy_warning(capsys):
    # the spread is finite, but the cubic gain of it overflows in the first
    # step; numpy's warnings (errors under pytest) stay silent
    before = np.geterr()
    code = main(["simulate", "--scenario", "windowed:n=3,T=0,seed=1",
                 "--map", "nonlinear:gain=cubic,substeps=1", "--x0=-1e200,1e200,0",
                 "--steps", "5"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: state coordinates must be finite\n"
    assert np.geterr() == before  # restored for the caller



@pytest.mark.parametrize("x0", [
    "-1e160 0; 1e160 1; 0 0", "-1e-200 0; 1e-200 1e-200; 0 -1e-200",
], ids=["1e160", "1e-200"])
def test_planar_averaging_stays_contained_at_extreme_scales(capsys, x0):
    # linear averaging never leaves the hull, however large or small the state
    code = main(["simulate", "--scenario", "windowed:n=3,T=0,seed=1", f"--x0={x0}",
                 "--steps", "5"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["monitor_violations"] == 0

def test_simulate_scenario_consensus(capsys):
    code = main(["simulate", "--scenario", "windowed:n=3,T=0,seed=4", "--x0", "0,1,0.5",
                 "--steps", "120"])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["final_disagreement"] < 1e-6
    assert summary["consensus_time"] is not None


@pytest.mark.parametrize(
    "flag, value",
    [("--slack", "nan"), ("--slack", "inf"), ("--slack", "-1"),
     ("--tol", "0"), ("--tol", "-1"), ("--tol", "nan"), ("--tol", "inf")],
)
@pytest.mark.parametrize("steps", ["0", "3"])
def test_simulate_rejects_bad_slack_and_tol(chain_graph, tmp_path, capsys, flag, value, steps):
    csv_path = tmp_path / "run.csv"
    code = main(["simulate", "--graph", chain_graph, "--x0", "0,1,1", "--steps", steps,
                 "--csv", str(csv_path), flag, value])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert f"error: {flag[2:]} must be" in captured.err
    assert "finite" in captured.err
    assert not csv_path.exists()


@pytest.mark.parametrize(
    "bad, fragment",
    [(["--x0", "0,1"], "state has n=2"),
     (["--x0", "0,1,1", "--t0", "-1"], "before the schedule's first time"),
     (["--map", "kuramoto", "--x0", "0 0; 1 0; 2 0"], "kuramoto does not support d=2"),
     (["--map", "vicsek", "--x0", "0,2,0"], "vicsek: agent 2 is at 2.0, outside")],
)
def test_simulate_bad_input_keeps_existing_csv(chain_graph, tmp_path, capsys, bad, fragment):
    csv_path = tmp_path / "run.csv"
    csv_path.write_text("old")
    code = main(["simulate", "--graph", chain_graph, "--steps", "3",
                 "--csv", str(csv_path)] + bad)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert fragment in captured.err
    assert csv_path.read_text() == "old"


def test_simulate_usage_errors(chain_graph, capsys):
    assert main(["simulate", "--graph", chain_graph, "--steps", "3"]) == 1
    assert "--x0" in capsys.readouterr().err
    assert main(["simulate", "--graph", chain_graph, "--x0", "0,1,1"]) == 1
    assert "--steps" in capsys.readouterr().err
    assert main(["simulate", "--x0", "0,1", "--steps", "1"]) == 1
    assert "exactly one" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# probe


def test_probe_stdout_json(capsys):
    code = main(["probe", "--scenario", "windowed:n=3,T=1,seed=2", "--center", "0,1,0.5",
                 "--radius", "0.1", "--samples", "3", "--horizon", "200"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["samples"] == 3
    assert report["converged_fraction"] == 1.0


def test_probe_out_file_and_determinism(tmp_path, capsys):
    args = ["probe", "--scenario", "windowed:n=3,T=1,seed=2", "--center", "0,1,0.5",
            "--radius", "0.1", "--samples", "2", "--horizon", "100", "--seed", "5"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    assert json.loads(a.read_text())["seed"] == 5


def test_probe_counterexample_never_converges(capsys):
    code = main(["probe", "--scenario", "counterexample", "--center", "0,1,1",
                 "--radius", "0.01", "--samples", "2", "--horizon", "300",
                 "--tol", "0.001"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["converged_fraction"] == 0.0


@pytest.mark.parametrize("value", ["inf", "0", "nan"])
def test_probe_rejects_bad_tol(chain_graph, capsys, value):
    code = main(["probe", "--graph", chain_graph, "--center", "0,1,1", "--samples", "2",
                 "--horizon", "5", "--tol", value])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "error: tol must be positive and finite" in captured.err


def test_a_graph_file_runs_as_the_constant_schedule(chain_graph, capsys):
    assert main(["simulate", "--graph", chain_graph, "--x0", "0,1,1", "--steps", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["schedule"] == "constant"
    assert main(["probe", "--graph", chain_graph, "--center", "0,1,1", "--samples", "1",
                 "--horizon", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["schedule"] == "constant"


# ---------------------------------------------------------------------------
# Config files and environment


def test_config_file_supplies_and_flags_override(chain_graph, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"graph = {chain_graph}\n"
        "x0 = 0,1,1  # initial data\n"
        "steps = 3\n"
        "\n"
        "# comment only\n"
    )
    assert main(["simulate", "--config", str(cfg)]) == 0
    assert json.loads(capsys.readouterr().out)["steps"] == 3
    assert main(["simulate", "--config", str(cfg), "--steps", "5"]) == 0
    assert json.loads(capsys.readouterr().out)["steps"] == 5


def test_config_file_bad_line(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("steps\n")
    assert main(["simulate", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "expected key=value" in err and ":1:" in err


def test_config_unknown_key_names_file_line_and_key(chain_graph, tmp_path, capsys):
    cfg, csv_path = tmp_path / "run.cfg", tmp_path / "run.csv"
    cfg.write_text(f"graph = {chain_graph}\nx0 = 0,1,1\nstesp = 3\ncsv = {csv_path}\n")
    assert main(["simulate", "--config", str(cfg), "--steps", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{cfg}:3:" in captured.err and "'stesp'" in captured.err
    assert not csv_path.exists()


@pytest.mark.parametrize("line", ["steps = 3", "csv = run.csv"])
def test_probe_config_rejects_simulate_keys(chain_graph, tmp_path, capsys, line):
    cfg = tmp_path / "probe.cfg"
    cfg.write_text(f"graph = {chain_graph}\ncenter = 0,1,1\nsamples = 1\n{line}\n")
    assert main(["probe", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert f"{cfg}:4:" in err and repr(line.split()[0]) in err


def test_config_values_are_checked_like_flags(chain_graph, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"graph = {chain_graph}\nx0 = 0,1,1\nsteps = 3.5\n")
    assert main(["simulate", "--config", str(cfg)]) == 1
    assert "argument --steps" in capsys.readouterr().err


@pytest.mark.parametrize("command, config, missing", [
    ("simulate", "x0 = 0,1,1\nsteps = 3\n", ["--x0", "0,1,1"]),
    ("probe", "center = 0,1,1\nsamples = 1\n", ["--samples", "1"]),
])
def test_config_values_do_not_reach_a_later_call(
    chain_graph, tmp_path, capsys, command, config, missing
):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    assert main([command, "--graph", chain_graph, "--config", str(cfg)]) == 0
    capsys.readouterr()
    assert main([command, "--graph", chain_graph] + missing) == 1
    flag = {"simulate": "--steps", "probe": "--center"}[command]
    assert capsys.readouterr().err == f"error: missing {flag}\n"


def test_a_usage_error_does_not_change_a_later_call(chain_graph, tmp_path, capsys):
    run = ["simulate", "--graph", chain_graph, "--x0", "0,1,1", "--steps", "3"]
    assert main(run + ["--csv", str(tmp_path / "alone.csv")]) == 0
    alone = capsys.readouterr()
    assert main(["simulate", "--bogus"]) == 1
    assert "--bogus" in capsys.readouterr().err
    assert main(run + ["--csv", str(tmp_path / "after.csv")]) == 0
    assert capsys.readouterr() == alone
    assert (tmp_path / "after.csv").read_bytes() == (tmp_path / "alone.csv").read_bytes()


def test_only_a_config_call_builds_a_parser(chain_graph, tmp_path, monkeypatch, capsys):
    def fail():
        raise AssertionError("build_parser called")

    monkeypatch.setattr(cli, "build_parser", fail)
    assert main(["simulate", "--graph", chain_graph, "--x0", "0,1,1", "--steps", "2"]) == 0
    assert main(["matrix", "--graph", chain_graph]) == 0
    cfg = tmp_path / "run.cfg"
    cfg.write_text("steps = 2\n")
    with pytest.raises(AssertionError, match="build_parser called"):
        main(["simulate", "--graph", chain_graph, "--x0", "0,1,1", "--config", str(cfg)])


# Each subcommand's long options, with their defaults and value types: a
# config file's keys are these names, so the table is the config surface too.
OPTION_TABLE = {
    "simulate": {
        "--graph": (None, None), "--scenario": (None, None),
        "--config": (None, None), "--map": ("linear", None), "--t0": (None, "int"),
        "--tol": (1e-6, "float"), "--x0": (None, None), "--steps": (None, "int"),
        "--slack": (1e-9, "float"), "--csv": (None, None),
    },
    "connectivity": {
        "--graph": (None, None), "--scenario": (None, None),
        "--interval": (None, None),
    },
    "counterexample": {"--pmax": (64, "int")},
    "matrix": {"--graph": (None, None), "--emin": (None, "float"), "--emax": (None, "float")},
    "probe": {
        "--graph": (None, None), "--scenario": (None, None),
        "--config": (None, None), "--map": ("linear", None), "--t0": (None, "int"),
        "--tol": (1e-6, "float"), "--center": (None, None), "--radius": (0.5, "float"),
        "--samples": (20, "int"), "--horizon": (1000, "int"), "--seed": (0, "int"),
        "--out": (None, None),
    },
}


def test_each_subcommand_keeps_its_options_and_defaults():
    parser = cli.build_parser()
    table = {
        name: {
            opt: (action.default, getattr(action.type, "__name__", None))
            for action in sub._actions
            for opt in action.option_strings
            if opt.startswith("--") and opt != "--help"
        }
        for name, sub in parser.subcommands.items()
    }
    assert table == OPTION_TABLE


def test_map_spec_bad_number_names_spec_and_key(chain_graph, capsys):
    code = main(["simulate", "--graph", chain_graph, "--x0", "0,1,1", "--steps", "1",
                 "--map", "linear:weight=abc"])
    assert code == 1
    err = capsys.readouterr().err
    assert "linear:weight=abc" in err and "weight must be a number" in err


def test_connectivity_graph_interval_does_not_change_output(worked_graph, capsys):
    assert main(["connectivity", "--graph", worked_graph]) == 0
    plain = capsys.readouterr().out
    assert main(["connectivity", "--graph", worked_graph, "--interval", "0,5"]) == 0
    assert capsys.readouterr().out == plain


@pytest.mark.parametrize("command", [
    ["simulate", "--scenario", "windowed:n=3,T=0", "--x0", "0,1,0.5", "--steps", "5"],
    ["connectivity", "--scenario", "windowed:n=5,T=2", "--interval", "0,2"],
    ["probe", "--scenario", "windowed:n=3,T=0", "--center", "0,1,0.5", "--radius", "0.05",
     "--samples", "1", "--horizon", "100"],
], ids=["simulate", "connectivity", "probe"])
@pytest.mark.parametrize("value", ["17", "abc"])
def test_a_stray_seed_variable_changes_no_output(monkeypatch, capsys, command, value):
    monkeypatch.delenv("CONSENSUS_LAB_SEED", raising=False)
    assert main(command) == 0
    alone = capsys.readouterr()
    monkeypatch.setenv("CONSENSUS_LAB_SEED", value)
    assert main(command) == 0
    assert capsys.readouterr() == alone


def test_probe_seed_seeds_the_sampler_and_not_the_schedule(capsys):
    args = ["probe", "--scenario", "windowed:n=3,T=0", "--center", "0,1,0.5",
            "--radius", "0.05", "--samples", "1", "--horizon", "100", "--seed", "5"]
    assert main(args) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["seed"] == 5
    assert report["schedule"] == cli.make_scenario("windowed:n=3,T=0,seed=0").name


@pytest.mark.parametrize("command", [
    ["simulate", "--graph", "g", "--x0", "0,1", "--steps", "1", "--seed", "3"],
    ["connectivity", "--graph", "g", "--seed", "3"],
], ids=["simulate", "connectivity"])
def test_seed_is_a_probe_option_only(capsys, command):
    assert main(command) == 1
    assert "unrecognized arguments: --seed 3" in capsys.readouterr().err


def test_seed_key_in_a_simulate_config_is_unknown(chain_graph, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 3\n")
    assert main(["simulate", "--graph", chain_graph, "--x0", "0,1,1", "--steps", "1",
                 "--config", str(cfg)]) == 1
    assert "unknown key 'seed'" in capsys.readouterr().err


def test_unknown_subcommand_exits_1(capsys):
    assert main(["frobnicate"]) == 1
    assert "error:" in capsys.readouterr().err


class _ClosedPipe:
    """A stdout whose reader has gone away, failing on `write` or on `flush`."""

    def __init__(self, failing):
        self.failing = failing

    def write(self, text):
        if self.failing == "write":
            raise BrokenPipeError(32, "Broken pipe")
        return len(text)

    def flush(self):
        if self.failing == "flush":
            raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("failing", ["write", "flush"])
def test_closed_stdout_exits_141_quietly(chain_graph, monkeypatch, capsys, failing):
    monkeypatch.setattr("sys.stdout", _ClosedPipe(failing))
    code = main(["simulate", "--graph", chain_graph, "--x0", "0,1,1", "--steps", "5"])
    assert code == 141
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("command", [
    ["simulate", "--x0", "0 0; 1.3e308 0.5e308; 0.5e308 1.3e308", "--steps", "2"],
    ["probe", "--center", "0 0; 1.3e308 0.5e308; 0.5e308 1.3e308", "--radius", "0",
     "--samples", "1", "--horizon", "3"],
])
def test_a_max_map_disagreement_that_overflows_fails_with_one_line(chain_graph, capsys, command):
    # the input's disagreement is a float, but the max map's first output
    # lies outside its hull and its disagreement is not
    code = main([*command, "--graph", chain_graph, "--map", "max"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: state at time 1: its disagreement overflows a float\n"
