"""Weak connectivity, neighbor sets, and the lowest root.

A digraph is weakly connected here when some node (a root) has directed
paths to every other node.  Two independent deciders are compared: a
depth-first search over all nodes, and an oracle that checks the
neighbor condition on every ordered pair of disjoint node sets.  The
same search names the lowest root.
"""

import numpy as np

from consensus_lab import (
    DirectedGraph,
    find_root,
    is_connected_from,
    is_weakly_connected,
    neighbors,
    weakly_connected_oracle,
)

EXAMPLES = {
    "chain 1 -> 2 -> 3": DirectedGraph(3, {(1, 2), (2, 3)}),
    "cycle of four": DirectedGraph(4, {(1, 2), (2, 3), (3, 4), (4, 1)}),
    "two mutual pairs, no bridge": DirectedGraph(4, {(1, 2), (2, 1), (3, 4), (4, 3)}),
    "star into the hub": DirectedGraph(4, {(1, 4), (2, 4), (3, 4)}),
    "star out of the hub": DirectedGraph(4, {(4, 1), (4, 2), (4, 3)}),
}


def main():
    g = DirectedGraph(4, {(2, 1), (1, 2), (3, 2)})
    print("neighbor sets (senders from outside the set) in the 4-node example:")
    for L in ({1}, {2}, {1, 2}, {3, 4}):
        print(f"  neighbors({sorted(L)}) = {sorted(neighbors(g, L))}")
    print()

    for label, graph in EXAMPLES.items():
        wc = is_weakly_connected(graph)
        root = find_root(graph)
        agree = weakly_connected_oracle(graph) == wc
        print(f"{label}:")
        print(f"  weakly connected: {wc}   root: {root}   oracle agrees: {agree}")
        if root is not None:
            assert is_connected_from(graph, root)
            print(f"  (checked: node {root} reaches every node)")
    print()

    rng = np.random.default_rng(7)
    n, trials = 6, 2000
    mismatches = 0
    for _ in range(trials):
        density = rng.uniform(0.05, 0.5)
        arcs = {
            (k, l)
            for k in range(1, n + 1)
            for l in range(1, n + 1)
            if k != l and rng.random() < density
        }
        graph = DirectedGraph(n, arcs)
        if weakly_connected_oracle(graph) != is_weakly_connected(graph):
            mismatches += 1
    print(f"random cross-check on {trials} graphs with n={n}: {mismatches} mismatches")


if __name__ == "__main__":
    main()
