"""Connected windows force consensus; frozen sets forbid it.

Sufficiency: when every window of T + 1 consecutive times has a weakly
connected arc union, distributed averaging converges, whatever the
initial states.  Necessity: if two disjoint sets of agents both have
empty neighbor sets over a window, agents inside them cannot move toward
each other, so the disagreement cannot shrink below the inter-set gap.
"""

import numpy as np

from consensus_lab import (
    DirectedGraph,
    IntervalSpec,
    LinearAverage,
    constant_schedule,
    is_weakly_connected_across,
    iter_spans,
    monitor_stream,
    neighbors,
    random_windowed_schedule,
    summarize,
)


def main():
    n, T = 5, 2
    sched = random_windowed_schedule(n=n, T=T, length=9, seed=42)
    print(f"random periodic schedule: n={n}, window slack T={T}, period {sched.period}")
    for t0 in range(sched.period):
        ok = is_weakly_connected_across(sched, IntervalSpec(t0, t0 + T))
        print(f"  window [{t0}, {t0 + T}] weakly connected: {ok}")

    x0 = np.random.default_rng(1).uniform(0.0, 1.0, n)
    spans = iter_spans(sched, LinearAverage(), x0, steps=200 * n * (T + 1))
    run = summarize(monitor_stream((t, x) for t, _, x in spans), tol=1e-6)
    print(f"\nstart {np.round(x0, 3).tolist()}")
    print(f"disagreement < 1e-6 first at t = {run.consensus_time}")
    print(f"final disagreement: {run.final.diameter:.3e}\n")

    # Now the blocking construction: {1,2} and {3,4} never hear from outside.
    frozen = DirectedGraph(5, {(1, 2), (2, 1), (3, 4), (4, 3), (1, 5), (3, 5)})
    print("frozen-sets graph:", sorted(frozen.arcs))
    print(f"  neighbors of {{1, 2}}: {sorted(neighbors(frozen, {1, 2}))}")
    print(f"  neighbors of {{3, 4}}: {sorted(neighbors(frozen, {3, 4}))}")
    seen = set()
    x0 = [0.0, 0.0, 1.0, 1.0, 0.4]
    spans = iter_spans(constant_schedule(frozen), LinearAverage(), x0, 1000)
    for rec in monitor_stream((t, x) for t, _, x in spans):
        seen.add(rec.diameter)
    print(f"  disagreement after 1000 steps: {rec.diameter} (identical at every step: {len(seen) == 1})")
    print("  only agent 5 moves; it converges into the gap but cannot close it.")


if __name__ == "__main__":
    main()
