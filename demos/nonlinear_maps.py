"""The nonlinear update maps and the two assumption checkers.

Four maps beyond plain averaging: a coupled-oscillator time-1 map in
chart coordinates, a consensus flow with per-arc gain functions, heading
averaging on (-pi/2, pi/2), and a coordinate-wise max.  Two checkers
probe the assumptions the convergence theory rests on: does each agent
use only its senders' states, and does each update land strictly inside
the neighborhood's convex hull?
"""

import math

import numpy as np

from consensus_lab import (
    AgentState,
    DirectedGraph,
    KuramotoTime1,
    LinearAverage,
    MaxUpdate,
    NonlinearConsensus,
    VicsekHeading,
    check_communication_assumption,
    check_strict_convexity,
)


def main():
    pair = DirectedGraph(2, {(1, 2), (2, 1)})

    out = KuramotoTime1().step(0, pair, AgentState([0.0, 1.0]))
    print(f"oscillator pair (0, 1) after one time unit: {np.round(out.values, 6).tolist()}")
    print("  (sum conserved: coupling is antisymmetric)\n")

    out = NonlinearConsensus(gains=lambda s: s).step(0, pair, AgentState([0.0, 1.0]))
    closed = (1.0 - math.exp(-2.0)) / 2.0
    print(f"identity-gain flow pair: {out.values.tolist()}")
    print(f"  closed form ((1 - e^-2)/2, ...): ({closed}, {1.0 - closed})\n")

    out = VicsekHeading().step(0, pair, AgentState([0.0, math.pi / 4]))
    print(f"heading pair (0, pi/4) -> {out.values.tolist()} (both pi/8 = {math.pi / 8})\n")

    chain = DirectedGraph(3, {(1, 2), (2, 3)})
    out = MaxUpdate().step(0, chain, AgentState([3.0, 1.0, 2.0]))
    print(f"max map on chain, (3, 1, 2) -> {out.values.tolist()}\n")

    print("communication check (does agent k depend only on its senders?):")
    star = DirectedGraph(3, {(1, 3), (2, 3)})
    rep = check_communication_assumption(KuramotoTime1(substeps=20), star, AgentState([0.5, -0.5, 1.0]))
    print(f"  oscillator map on a star (all senders one hop): ok = {rep.ok}")
    rep = check_communication_assumption(KuramotoTime1(substeps=20), chain, AgentState([0.5, -0.5, 1.0]))
    print(f"  oscillator map on a chain: ok = {rep.ok}")
    if not rep.ok:
        v = rep.violations[0]
        print(f"    agent {v.agent} moved by {v.delta:.2e} when a two-hop state changed;")
        print("    during the unit interval its sender relays information onward.")
    rep = check_communication_assumption(LinearAverage(), chain, AgentState([0.5, -0.5, 1.0]))
    print(f"  one-shot averaging on the same chain: ok = {rep.ok}\n")

    print("strict convexity check (updates strictly inside the neighborhood hull):")
    g = DirectedGraph(3, {(1, 2), (2, 1), (3, 2)})
    for update in (LinearAverage(), VicsekHeading(), MaxUpdate()):
        rep = check_strict_convexity(update, g, samples=200)
        line = f"  {update.name}: ok = {rep.ok}"
        if not rep.ok:
            w = rep.violations[0]
            line += f"  (witness: agent {w.agent}, {w.reason})"
        print(line)


if __name__ == "__main__":
    main()
