"""The package root exports exactly the names its docs, demos and tests use."""

import consensus_lab

PUBLIC_NAMES = [
    "AgentState",
    "CounterexampleSchedule",
    "DirectedGraph",
    "FiniteSchedule",
    "GeneratedSchedule",
    "GraphFormatError",
    "HullPolytope",
    "IntervalSpec",
    "KuramotoTime1",
    "LinearAverage",
    "MaxUpdate",
    "NonlinearConsensus",
    "PeriodicSchedule",
    "StochasticMatrix",
    "StretchingSchedule",
    "UnsupportedQueryError",
    "VicsekHeading",
    "WeightedDigraph",
    "attractivity_probe",
    "build_update_matrix",
    "check_communication_assumption",
    "check_strict_convexity",
    "contains",
    "counterexample_initial_state",
    "counterexample_limit",
    "counterexample_sample_times",
    "diameter",
    "disagreement",
    "find_root",
    "format_graph_text",
    "hull",
    "is_bidirectional",
    "is_connected_from",
    "is_weakly_connected",
    "iter_spans",
    "linear_step",
    "monitor_stream",
    "neighbors",
    "parse_graph_text",
    "point_distance",
    "random_windowed_schedule",
    "relabel",
    "summarize",
    "union_across",
    "validate_gain",
    "verify_counterexample",
    "weakly_connected_oracle",
]


def test_package_root_exports_the_pinned_names():
    assert sorted(consensus_lab.__all__) == PUBLIC_NAMES


def test_every_exported_name_resolves():
    for name in PUBLIC_NAMES:
        assert getattr(consensus_lab, name) is not None
