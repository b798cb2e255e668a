"""Connectivity across every tail, yet no consensus.

Three agents communicate through four tiny arc sets arranged in blocks
that stretch over time.  Every tail of the schedule uses all four arc
sets (so its arc union is weakly connected, even bidirectional), but the
windows needed grow so fast that unit-weight averaging keeps a positive
disagreement forever.  The gap between agents 3 and 1 at sample times
t_p = 1 + p(p+1)/2 is exactly v(p) = prod_{j<=p} (2^j - 1) / 2^(p(p+1)/2),
the solution of the halving-product recursion v(p) = v(p-1) (1 - 2^-p).
This demo checks the simulated gap against v(p), correctly rounded,
within the bound eps (1.5 (t_p - 1) + 0.5) derived for float rounding
(eps = 2^-52).  The largest residual measured is 2.8e-16, at p = 52.
From about p = 40 on, the step v(p-1) 2^-p is below that bound, so there
the float run confirms the gap's value but not each step of the recursion.
"""

from consensus_lab import (
    CounterexampleSchedule,
    IntervalSpec,
    counterexample_limit,
    is_weakly_connected,
    union_across,
    verify_counterexample,
)


def main():
    sched = CounterexampleSchedule()

    print("the first 22 graphs of the schedule (t = 1 ...):")
    for t in range(1, 23):
        arcs = " ".join(f"{k}->{l}" for k, l in sorted(sched.graph_at(t).arcs))
        s, r = sched.block_of(t)
        print(f"  t={t:>3}  block {s} offset {r}:  {arcs}")
    print("block s holds 4s + 3 graphs, so blocks stretch out quadratically.\n")

    print("no single graph is weakly connected (one agent is always silent):")
    print(f"  t=1 connected? {is_weakly_connected(sched.graph_at(1))}")
    tail = union_across(sched, IntervalSpec(10**6))
    print(f"but the arc union over [10^6, infinity) is {sorted(tail.arcs)}")
    print(f"  connected? {is_weakly_connected(tail)}\n")

    report = verify_counterexample(16)
    print(" p     t        gap (x3 - x1)      exact v(p), rounded    residual    bound")
    for row in report.rows:
        print(
            f"{row.p:>2} {row.t:>6}  {row.gap:.15f}    {row.predicted:.15f}    "
            f"{row.residual:.1e}    {row.bound:.1e}"
        )
    print(f"\nrecursion verified: {report.ok}")
    print(f"limiting gap: {counterexample_limit():.12f} (never reaches 0)")
    print(f"rigorous lower bound from p=16: {report.limit_lower_bound:.12f}")


if __name__ == "__main__":
    main()
