"""Convex-hull monitoring and attractivity probing.

The hull of the agent positions is the set-valued disagreement measure:
conforming maps never enlarge it and consensus means it collapses to a
point.  This script monitors a healthy averaging run, measures how much
the hull shrinks over a window, catches a nonconforming map red-handed
as it leaves the hull, and finishes with Monte Carlo probes of the
consensus set's basin.
"""

import numpy as np

from consensus_lab import (
    AgentState,
    CounterexampleSchedule,
    DirectedGraph,
    LinearAverage,
    MaxUpdate,
    PeriodicSchedule,
    WeightedDigraph,
    attractivity_probe,
    counterexample_initial_state,
    disagreement,
    hull,
    iter_spans,
    monitor_stream,
    point_distance,
    summarize,
)


def main():
    chain = DirectedGraph(3, {(1, 2), (2, 1), (2, 3), (3, 2)})
    print("monitored averaging on a bidirectional chain:")
    print("  t  diameter      contained  vertices")
    spans = iter_spans(PeriodicSchedule([chain]), LinearAverage(), [0.0, 1.0, 5.0], steps=8)
    for rec in monitor_stream((t, x) for t, _, x in spans):
        print(f"  {rec.t}  {rec.diameter:<12.8f}  {str(rec.contained):<9}  {rec.vertex_count}")
    print("  every step stays inside the previous hull and the diameter falls.\n")

    pair = WeightedDigraph(2, {(1, 2): 0.5, (2, 1): 0.5})
    x0 = AgentState([0.0, 1.0])
    spans = iter_spans(PeriodicSchedule([pair]), LinearAverage(), x0, steps=6)
    run = summarize(monitor_stream((t, x) for t, _, x in spans), tol=1e-9)
    d = disagreement(x0) - run.final.diameter
    print(f"half-weight pair: hull diameter shrinks by {d:.8f} over 6 steps")
    print(f"  (gap contracts by 1/3 per step; 1 - (1/3)^6 = {1 - (1 / 3) ** 6:.8f})\n")

    complete = DirectedGraph(3, {(1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2)})
    x0 = AgentState([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0]])
    spans = iter_spans(PeriodicSchedule([complete]), MaxUpdate(), x0, steps=1)
    _, rec = monitor_stream((t, x) for t, _, x in spans)
    corner = rec.state.points[0]
    print("coordinate-wise max on a planar triangle:")
    print(f"  after one step every agent sits at {corner.tolist()},")
    print(f"  a corner {point_distance(hull(x0), corner):.4f} outside the triangle.")
    print(f"  monitor record: contained = {rec.contained} (the map is not hull-preserving in d=2)\n")

    report = attractivity_probe(
        PeriodicSchedule([chain]),
        LinearAverage(),
        center=[0.0, 0.5, 1.0],
        radius=0.5,
        samples=8,
        horizon=200,
        tol=1e-9,
        seed=3,
    )
    times = [s.consensus_time for s in report.samples]
    print(f"probe around a chain-averaging run: converged {report.converged_fraction:.0%},")
    print(f"  consensus times {times}\n")

    report = attractivity_probe(
        CounterexampleSchedule(),
        LinearAverage(),
        center=counterexample_initial_state(),
        radius=0.05,
        samples=8,
        horizon=600,
        tol=1e-6,
        seed=3,
    )
    statuses = sorted({s.status for s in report.samples})
    lows = min(s.final_disagreement for s in report.samples)
    print("probe along the stubborn schedule (connected over every tail, yet")
    print(f"  never uniformly so): converged {report.converged_fraction:.0%}, statuses {statuses},")
    print(f"  smallest disagreement after 600 steps = {lows:.4f}")


if __name__ == "__main__":
    main()
