"""Span tracing of consensus_lab from outside the package.

Installing a `Tracer` replaces each traced function wherever a caller looks
it up: every module global of a consensus_lab module that is bound to the
function object (so `cli`'s imported `iter_states` and `simulator`'s own
`hull` binding are both covered), and the class attribute for update-map
methods.  Schedules get an instance-level `graph_at` wrapper.  Leaving the
`installed()` block puts every original object back.

A span is (name, start, end, parent, run id).  Spans stay in memory in
compact arrays until `write_jsonl` is called.  Generator functions get one
span per `next()`, so a streaming stage is charged only for its own work.
"""

from __future__ import annotations

import functools
import statistics
import sys
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

from consensus_lab import cli, dynamics, graphs, lyapunov, scenarios, simulator
from consensus_lab.graphs import as_directed

# (span name, owner, attribute).  Each gets `<name>.calls` and `<name>.self_s`.
FUNCTIONS = (
    ("graphs.is_weakly_connected", graphs, "is_weakly_connected"),
    ("graphs.union_across", graphs, "union_across"),
    ("graphs.find_root", graphs, "find_root"),
    ("scenarios.random_windowed_schedule", scenarios, "random_windowed_schedule"),
    ("dynamics.build_update_matrix", dynamics, "build_update_matrix"),
    ("dynamics.linear_step", dynamics, "linear_step"),
    ("lyapunov.hull", lyapunov, "hull"),
    ("lyapunov.contains", lyapunov, "contains"),
    ("lyapunov.diameter", lyapunov, "diameter"),
    ("simulator.disagreement", simulator, "disagreement"),
    ("simulator.attractivity_probe", simulator, "attractivity_probe"),
    ("cli.main", cli, "main"),
)
GENERATORS = (
    ("lyapunov.monitor_stream", lyapunov, "monitor_stream"),
    ("simulator.iter_states", simulator, "iter_states"),
)
STEP_METHODS = (
    ("dynamics.step.linear", dynamics.LinearAverage),
    ("dynamics.step.kuramoto", dynamics.KuramotoTime1),
    ("dynamics.step.nonlinear", dynamics.NonlinearConsensus),
)
GRAPH_AT = "simulator.graph_at"

SPAN_NAMES = tuple(
    [name for name, _, _ in FUNCTIONS + GENERATORS]
    + [name for name, _ in STEP_METHODS]
    + [GRAPH_AT]
)

# Derived per-layer metrics: name -> (numerator counter, denominator counter).
RATIOS = {
    "graphs.connected_ratio": ("connected", "graphs.is_weakly_connected.calls"),
    "dynamics.matrix_cache_hit_ratio": ("matrix_hits", "matrix_for"),
    "dynamics.arc_free_ratio": ("arc_free_steps", "dynamics.step.calls"),
    "lyapunov.hull_vertices_mean": ("hull_vertices", "lyapunov.hull.calls"),
}

LAYER_METRICS = (
    tuple(f"{name}.{kind}" for name in SPAN_NAMES for kind in ("calls", "self_s"))
    + ("dynamics.step.calls",)
    + tuple(RATIOS)
)


def _package_modules():
    return [
        mod
        for key, mod in sorted(sys.modules.items())
        if key == "consensus_lab" or key.startswith("consensus_lab.")
    ]


class Tracer:
    """Records spans and counters while installed; see the module docstring."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._name = array("i")
        self._parent = array("i")
        self._run = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]
        self.run_id = 0
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self._patches: list[tuple[object, str, object]] = []
        self._watched: list[object] = []
        self._t0 = perf_counter()

    # -- span recording -------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        i = len(self._name)
        self._name.append(nid)
        self._parent.append(self._stack[-1])
        self._run.append(self.run_id)
        self._end.append(0.0)
        self._stack.append(i)
        self._start.append(perf_counter())
        return i

    def _close(self, i: int) -> None:
        self._end[i] = perf_counter()
        self._stack.pop()

    def _count(self, key: str, amount: int = 1) -> None:
        self.counts[self.run_id][key] += amount

    def _span(self, name, fn, observe=None):
        nid, opened, closed = self._id(name), self._open, self._close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = opened(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                closed(i)
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def _span_per_item(self, name, fn):
        nid, opened, closed = self._id(name), self._open, self._close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            try:
                while True:
                    i = opened(nid)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        closed(i)
                    yield item
            finally:
                it.close()

        return wrapper

    # -- observers feeding the ratio counters ----------------------------

    def _on_connected(self, args, result):
        if result:
            self._count("connected")

    def _on_hull(self, args, result):
        self._count("hull_vertices", result.vertex_count)

    def _on_step(self, args, result):
        if not as_directed(args[2]).arcs:
            self._count("arc_free_steps")

    def _on_schedule(self, args, result):
        self.watch(result)

    # -- installation -----------------------------------------------------

    def _replace_everywhere(self, original, wrapper) -> None:
        for mod in _package_modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._patches.append((mod, key, original))

    def _replace_attr(self, owner, key, wrapper) -> None:
        self._patches.append((owner, key, vars(owner)[key]))
        setattr(owner, key, wrapper)

    def watch(self, schedule) -> None:
        """Trace `graph_at` calls on this schedule instance."""
        if "graph_at" not in vars(schedule):
            schedule.graph_at = self._span(GRAPH_AT, schedule.graph_at)
            self._watched.append(schedule)

    @contextmanager
    def installed(self, schedules=()):
        observers = {
            "graphs.is_weakly_connected": self._on_connected,
            "lyapunov.hull": self._on_hull,
            "scenarios.random_windowed_schedule": self._on_schedule,
        }
        try:
            for name, owner, attr in FUNCTIONS:
                fn = getattr(owner, attr)
                self._replace_everywhere(fn, self._span(name, fn, observers.get(name)))
            for name, owner, attr in GENERATORS:
                fn = getattr(owner, attr)
                self._replace_everywhere(fn, self._span_per_item(name, fn))
            for name, cls in STEP_METHODS:
                self._replace_attr(cls, "step", self._span(name, vars(cls)["step"], self._on_step))
            matrix_for = vars(dynamics.LinearAverage)["matrix_for"]

            def counted_matrix_for(update, graph):
                self._count("matrix_for")
                return matrix_for(update, graph)

            self._replace_attr(dynamics.LinearAverage, "matrix_for", counted_matrix_for)
            for schedule in schedules:
                self.watch(schedule)
            yield self
        finally:
            for owner, key, original in reversed(self._patches):
                setattr(owner, key, original)
            for schedule in self._watched:
                del schedule.graph_at
            self._patches.clear()
            self._watched.clear()

    # -- results ------------------------------------------------------------

    def totals(self) -> dict[int, Counter]:
        """Per run id: `<span>.calls`, `<span>.self_s` and the raw counters.

        Self time is a span's duration minus the durations of its direct
        children; every wrapped call runs on this one thread, so children
        nest inside their parent.
        """
        dur = [e - s for s, e in zip(self._start, self._end)]
        child = [0.0] * len(dur)
        for i, p in enumerate(self._parent):
            if p >= 0:
                child[p] += dur[i]
        out: dict[int, Counter] = defaultdict(Counter)
        for i, (nid, run) in enumerate(zip(self._name, self._run)):
            acc = out[run]
            acc[self.names[nid] + ".calls"] += 1
            acc[self.names[nid] + ".self_s"] += dur[i] - child[i]
        for run, counts in self.counts.items():
            out[run].update(counts)
        for acc in out.values():
            acc["dynamics.step.calls"] = sum(
                acc[f"{name}.calls"] for name, _ in STEP_METHODS
            )
            acc["matrix_hits"] = acc["matrix_for"] - acc["dynamics.build_update_matrix.calls"]
        return out

    def layer_metrics(self, setup_run: int, rep_runs) -> dict[str, float]:
        """Per-layer values for one set-up plus one rep.

        Counts and self times are the set-up run's plus the median over the
        reps; ratios pool the set-up and every rep, and read 0 when their
        denominator is 0.
        """
        totals = self.totals()
        setup = totals.get(setup_run, Counter())
        reps = [totals.get(r, Counter()) for r in rep_runs]
        pooled = sum(reps, Counter(setup))
        out: dict[str, float] = {}
        for key in LAYER_METRICS:
            if key in RATIOS:
                num, den = RATIOS[key]
                out[key] = pooled[num] / pooled[den] if pooled[den] else 0.0
            else:
                out[key] = setup[key] + statistics.median(r[key] for r in reps)
        return out

    def write_jsonl(self, path) -> None:
        """One span per line, in the order spans opened; `parent` is the line
        index (from 0) of the parent span, or -1.  Times are integer
        nanoseconds since the tracer was created."""
        t0, names = self._t0, self.names
        with open(path, "w", encoding="utf-8") as fh:
            for nid, s, e, p, r in zip(self._name, self._start, self._end, self._parent, self._run):
                fh.write(
                    f'{{"name":"{names[nid]}","start":{round((s - t0) * 1e9)},'
                    f'"end":{round((e - t0) * 1e9)},"parent":{p},"run":{r}}}\n'
                )
