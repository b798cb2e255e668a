"""Tiny-size smoke test of the benchmark: python -m pytest perfbench

Runs every workload once untraced and once traced at the "tiny" size and
checks that every metric BENCHMARK.json names is emitted with its unit, that
the outputs pass their checks, that traced and untraced runs give
bit-identical outputs, and that tracing leaves no consensus_lab attribute
patched.
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _package_attributes():
    """Identity of every module global and class attribute in consensus_lab."""
    out = {}
    for key, mod in sorted(sys.modules.items()):
        if key != "consensus_lab" and not key.startswith("consensus_lab."):
            continue
        for name, value in vars(mod).items():
            out[(key, name)] = id(value)
            if isinstance(value, type) and value.__module__ == key:
                for attr, member in vars(value).items():
                    out[(key, name, attr)] = id(member)
    return out


def test_workload_names_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_run_emits_every_metric(name, tmp_path):
    before = _package_attributes()
    plain = harness.measure(name, 7, 0.0, trace=False, size="tiny", scratch=tmp_path)
    traced = harness.measure(name, 7, 0.0, trace=True, size="tiny", scratch=tmp_path)
    assert _package_attributes() == before

    for record, kind in ((plain, "end_to_end"), (traced, "per_layer")):
        result = record["result"]
        assert result["correct"], record["failures"]
        assert result["attempted"] >= 1 and result["failed"] == 0
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        want = {m["name"]: m["unit"] for m in SPEC[kind]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == want

    assert all(v["value"] > 0 for v in plain["result"]["metrics"].values())
    assert plain["inputs_sha256"] == traced["inputs_sha256"]
    assert plain["outputs_sha256"] == traced["outputs_sha256"]
    assert (tmp_path / f"{name}.spans.jsonl").stat().st_size > 0


def test_tracer_restores_schedule_instances(tmp_path):
    inputs = workloads.WORKLOADS["stretching-stream"].setup(7, "tiny", tmp_path)
    tr = tracer.Tracer()
    with tr.installed(schedules=inputs.schedules):
        assert all("graph_at" in vars(s) for s in inputs.schedules)
        workloads.WORKLOADS["stretching-stream"].rep(inputs)
    assert not any("graph_at" in vars(s) for s in inputs.schedules)
    assert tr.totals()[0]["simulator.graph_at.calls"] > 0
