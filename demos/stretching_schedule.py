"""Bidirectional gossip with ever-longer silences still reaches consensus.

One bidirectional path edge switches on at a time, and the silent gaps
between activations grow without bound: no fixed window length keeps the
schedule connected, but every infinite tail does.  For bidirectional
communication that weaker property is enough, and averaging converges
anyway.  Compare with non_convergence.py, where unidirectional arcs
under the same kind of stretching defeat consensus.
"""

from consensus_lab import (
    LinearAverage,
    StretchingSchedule,
    iter_spans,
    monitor_stream,
    summarize,
)


def timeline(sched, upto):
    marks = []
    for t in range(upto):
        arcs = sched.graph_at(t).arcs
        if arcs:
            edge = min(k for k, _ in arcs)
            marks.append(str(edge))
        else:
            marks.append(".")
    return "".join(marks)


def main():
    sched = StretchingSchedule(4)
    print("activity timeline for n=4 (digit = lower end of the active edge):")
    print("  " + timeline(sched, 70))
    print("silent gaps after the g-th active step have length g.\n")

    for T in (3, 10, 50):
        win = sched.arc_free_window(T)
        print(f"arc-free window of length {T}: [{win.start}, {win.end}]")
    print()

    for n in (3, 4, 5):
        sched = StretchingSchedule(n)
        steps = sched.active_position(200 * n) + 1
        x0 = [float(k % 2) for k in range(n)]
        spans = iter_spans(sched, LinearAverage(), x0, steps)
        run = summarize(monitor_stream((t, x) for t, _, x in spans), tol=1e-6)
        print(
            f"n={n}: {steps} steps cover {200 * n} active graphs; "
            f"disagreement < 1e-6 first at t = {run.consensus_time}, "
            f"final {run.final.diameter:.2e}"
        )


if __name__ == "__main__":
    main()
