"""Build the stochastic update matrix of a weighted digraph and watch
one averaging step move the states.

Each agent k averages its own state with everything its senders show it,
weighted by arc weight: row k has 1/(1 + S_k) on the diagonal and
w_ik/(1 + S_k) for each sender i, where S_k is the total weight into k.
"""

from fractions import Fraction

from consensus_lab import (
    AgentState,
    WeightedDigraph,
    build_update_matrix,
    linear_step,
)


def main():
    # the arcs are the keys of the weight mapping
    graph = WeightedDigraph(4, {(2, 1): 0.5, (1, 2): 1.0, (3, 2): 5.0})
    print("arcs and weights:")
    for (k, l), w in sorted(graph.weights.items()):
        print(f"  {k} -> {l}   weight {w}")
    print("agent 4 neither sends nor receives; agent 3 only sends.\n")

    matrix = build_update_matrix(graph)
    print("update matrix (as exact-looking rationals):")
    for row in matrix.entries:
        print("  " + "  ".join(str(Fraction(v).limit_denominator(10**6)) for v in row))

    x = AgentState([0.0, 1.0, 1.0, 1.0])
    print(f"\nstart:        {x.values.tolist()}")
    for step in range(1, 4):
        x = linear_step(matrix, x)
        print(f"after step {step}: {x.values.round(6).tolist()}")

    print(
        "\nagent 1 is pulled toward agent 2, agent 2 mostly toward agent 3\n"
        "(its in-weight 5 dominates), and agents 3 and 4 never move: nobody\n"
        "sends to them."
    )


if __name__ == "__main__":
    main()
