"""Measure one workload: repeated set-ups, timed reps, checks and metrics.

Untraced (`trace=False`): set-up runs at least SETUP_MIN times (in batches
when it is fast) and its median is `setup_s`; reps then run back to back for
`seconds` and their median is `run_s`.  Both are calibrated for machine
speed (see Clock).  Traced: one traced set-up, then untraced and traced reps
in turn, at most TRACED_REPS pairs within `seconds`; the per-layer metrics
come from the traced set-up and reps, in wall seconds, and
`trace.overhead_s` is the calibrated traced rep median minus the untraced
one.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import time
from pathlib import Path

import numpy as np

import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"

SETUP_MIN = 5  # set-up batches per run at least ...
SETUP_BUDGET_S = 0.5  # ... and more while they take less than this in total
SETUP_MAX = 50
SETUP_BATCH_S = 0.05  # set-ups faster than this are timed in batches
TRACED_REPS = 3  # bounds the spans kept in memory

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "agent_steps_per_s": "1/s",
    "peak_rss_mb": "MB",
}
EXTRA_LAYER_UNITS = {"cli.csv_bytes": "B", "trace.overhead_s": "s"}


def layer_unit(name: str) -> str:
    if name in EXTRA_LAYER_UNITS:
        return EXTRA_LAYER_UNITS[name]
    if name.endswith(".self_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


# ---------------------------------------------------------------------------
# Machine-speed calibration
#
# On a shared host the speed one process gets drifts by tens of percent over
# seconds to minutes: on a 2-vCPU shared VM, medians of ten-second blocks of
# the same reps varied by 27-44% (quartile spread over median).  So every
# timed item is bracketed by a fixed calibration kernel, and its wall time is
# rescaled to a machine on which the kernel takes CAL_NOMINAL_S:
#
#     reported = wall * CAL_NOMINAL_S / mean(kernel before, kernel after)
#
# With this, the same blocks varied by 5-7%.  The kernel mixes interpreter
# work with small numpy calls, as the workloads do, and uses nothing from
# consensus_lab.  It runs as CAL_PIECES short pieces and takes their median,
# so one burst of interference does not skew the estimate.  Raw wall times
# stay in the record.

CAL_NOMINAL_S = 0.03
CAL_PIECES = 3


def _calibration_piece() -> float:
    acc = 0.0
    for i in range(70_000):
        acc += i
    a = np.arange(8.0)
    seen = {}
    for i in range(1300):
        b = a * 0.5 + i
        acc += float(b.max() - b.min())
        seen[(i & 63, i)] = acc
        acc += len(tuple(sorted({i % 7, i % 5, i % 3})))
    return acc


class Clock:
    """Times calls, each bracketed by calibration kernels (see above)."""

    def __init__(self):
        self.kernel_s: list[float] = []
        self._last = self._kernel()

    def _kernel(self) -> float:
        pieces = []
        for _ in range(CAL_PIECES):
            t0 = time.perf_counter()
            _calibration_piece()
            pieces.append(time.perf_counter() - t0)
        dt = CAL_PIECES * statistics.median(pieces)
        self.kernel_s.append(dt)
        return dt

    def time(self, fn, *args):
        """(wall seconds, calibrated seconds, result) of fn(*args)."""
        before = self._last
        t0 = time.perf_counter()
        out = fn(*args)
        wall = time.perf_counter() - t0
        self._last = self._kernel()
        return wall, wall * CAL_NOMINAL_S / ((before + self._last) / 2), out


def _setups(clock, wl, seed, size, scratch):
    """Per-set-up (wall, calibrated) times, the last inputs, and whether every
    set-up generated the same inputs."""

    def batch(k):
        made = set()
        for _ in range(k):
            inputs = wl.setup(seed, size, scratch)
            made.add(inputs.sha256)
        return inputs, made

    walls, cals, shas = [], [], set()
    for _ in range(2):  # the first set-up also pays one-time costs
        wall, cal, (inputs, made) = clock.time(batch, 1)
        walls.append(wall)
        cals.append(cal)
        shas |= made
    k = max(1, math.ceil(SETUP_BATCH_S / min(walls)))
    spent = sum(walls)
    while len(walls) < SETUP_MIN or (spent < SETUP_BUDGET_S and len(walls) < SETUP_MAX):
        wall, cal, (inputs, made) = clock.time(batch, k)
        spent += wall
        walls.append(wall / k)
        cals.append(cal / k)
        shas |= made
    return inputs, walls, cals, len(shas) == 1


def _reps(clock, wl, inputs, seconds):
    walls, cals, outcomes = [], [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        wall, cal, outcome = clock.time(wl.rep, inputs)
        walls.append(wall)
        cals.append(cal)
        outcomes.append(outcome)
    return walls, cals, outcomes


def measure(name: str, seed: int, seconds: float, trace: bool, size: str = "full",
            scratch: Path = OUT_DIR) -> dict:
    """Run one workload; return the result line and the record behind it."""
    wl = workloads.WORKLOADS[name]
    scratch.mkdir(parents=True, exist_ok=True)
    record: dict = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
                    "size": size}
    clock = Clock()
    if trace:
        tr = tracer.Tracer()
        with tr.installed():
            setup_wall, _, inputs = clock.time(wl.setup, seed, size, scratch)
        record["traced_setup_wall_time"] = setup_wall
        deterministic_setup = True
        inputs.problems = wl.verify(inputs)
        # Untraced and traced reps alternate, so drift in machine speed
        # falls on both sides of the overhead.
        walls, cals, outcomes, traced_cals, traced = [], [], [], [], []
        start = time.perf_counter()
        for k in range(1, TRACED_REPS + 1):
            wall, cal, outcome = clock.time(wl.rep, inputs)
            walls.append(wall)
            cals.append(cal)
            outcomes.append(outcome)
            tr.run_id = k
            with tr.installed(schedules=inputs.schedules):
                _, cal, outcome = clock.time(wl.rep, inputs)
            traced_cals.append(cal)
            traced.append(outcome)
            if time.perf_counter() - start >= seconds:
                break
        values = tr.layer_metrics(0, range(1, len(traced) + 1))
        values["cli.csv_bytes"] = traced[0].csv_bytes
        values["trace.overhead_s"] = statistics.median(traced_cals) - statistics.median(cals)
        units = {k: layer_unit(k) for k in values}
        record["traced_rep_times"] = traced_cals
        tr.write_jsonl(scratch / f"{name}.spans.jsonl")
        outcomes = outcomes + traced
    else:
        inputs, setup_walls, setup_cals, deterministic_setup = _setups(
            clock, wl, seed, size, scratch
        )
        inputs.problems = wl.verify(inputs)
        walls, cals, outcomes = _reps(clock, wl, inputs, seconds)
        run_s = statistics.median(cals)
        values = {
            "setup_s": statistics.median(setup_cals),
            "run_s": run_s,
            "agent_steps_per_s": outcomes[0].agent_steps / run_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
        record.update(setup_times=setup_cals, setup_wall_times=setup_walls)

    attempted = sum(o.ops for o in outcomes)
    failures = [f for o in outcomes for f in o.failures]
    output_shas = sorted({o.sha256 for o in outcomes})
    correct = not failures and len(output_shas) == 1 and deterministic_setup
    record.update(
        inputs_sha256=inputs.sha256,
        outputs_sha256=output_shas,
        setup_problems=inputs.problems,
        failures=failures[:20],
        deterministic=len(output_shas) == 1 and deterministic_setup,
        rep_times=cals,
        rep_wall_times=walls,
        calibration_kernel_times=clock.kernel_s,
        agent_steps_per_rep=outcomes[0].agent_steps,
    )
    record["result"] = {
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    return record


# ---------------------------------------------------------------------------
# Machine and environment


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def _os_threads() -> int | None:
    try:
        with open("/proc/self/status", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def _git_revision() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(thread_caps: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "os_threads": _os_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "thread_caps": thread_caps,
        "git_revision": _git_revision(),
    }


def main(argv, thread_caps: dict) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    record["env"] = environment(thread_caps)
    with open(OUT_DIR / f"{args.workload}.trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    summary = {k: record[k] for k in ("env", "inputs_sha256", "outputs_sha256", "failures")}
    print(json.dumps(summary))
    print(json.dumps(record["result"]))
    return 0
