"""Every package attribute that the benchmark under `perfbench/` reads still
resolves.

The benchmark's own smoke test is collected apart from these tests, so a
rename in the package could break it without any failure here.  Its files
are read from their syntax trees: each `from consensus_lab... import` name,
and each attribute read through a package module it imported.  The tracer
is loaded to check its span lists, and the objects it reads with `vars`.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

from consensus_lab import dynamics, lyapunov, simulator

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
FILES = sorted(BENCH.glob("*.py"))


def _package_reads(tree: ast.Module):
    """(module, dotted attribute path) for every package name the file reads."""
    modules = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("consensus_lab"):
            for alias in node.names:
                if node.module == "consensus_lab":
                    modules[alias.asname or alias.name] = f"consensus_lab.{alias.name}"
                else:
                    yield node.module, alias.name
    for node in ast.walk(tree):
        path = []
        while isinstance(node, ast.Attribute):
            path.insert(0, node.attr)
            node = node.value
        if path and isinstance(node, ast.Name) and node.id in modules:
            yield modules[node.id], ".".join(path)


def _resolve(module: str, path: str):
    obj = importlib.import_module(module)
    for attr in path.split("."):
        obj = getattr(obj, attr)
    return obj


def test_benchmark_files_found():
    assert {p.name for p in FILES} >= {"tracer.py", "workloads.py"}


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.name)
def test_every_package_name_the_benchmark_reads_resolves(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    missing = []
    for module, attrs in set(_package_reads(tree)):
        try:
            _resolve(module, attrs)
        except AttributeError:
            missing.append(f"{module}.{attrs}")
    assert not missing, f"{path.name} reads names the package lacks: {sorted(missing)}"


def test_the_tracer_finds_every_object_it_wraps():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", BENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for name, owner, attr in tracer.FUNCTIONS + tracer.GENERATORS:
        assert callable(getattr(owner, attr)), name
    for name, cls in tracer.STEP_METHODS:
        assert "step" in vars(cls), name
    assert "matrix_for" in vars(dynamics.LinearAverage)
    assert dynamics.AgentState is lyapunov.AgentState
    # traced and called as simulator.disagreement, defined in lyapunov
    assert simulator.disagreement is lyapunov.disagreement
