"""Consensus dynamics under time-dependent unidirectional communication.

A small laboratory for multi-agent averaging: directed communication
graphs and their connectivity theory, one-step update maps (linear and
nonlinear), convex-hull disagreement monitoring, graph schedules with
streamed runs and attractivity probing, and named scenario families whose
convergence or divergence is known exactly.
"""

from .graphs import (
    DirectedGraph,
    GraphFormatError,
    IntervalSpec,
    UnsupportedQueryError,
    WeightedDigraph,
    empty_graph,
    find_root,
    format_graph_text,
    is_bidirectional,
    is_connected_from,
    is_weakly_connected,
    is_weakly_connected_across,
    neighbors,
    parse_graph_text,
    relabel,
    union_across,
    weakly_connected_oracle,
)
from .dynamics import (
    KuramotoTime1,
    LinearAverage,
    MaxUpdate,
    NonlinearConsensus,
    StochasticMatrix,
    VicsekHeading,
    build_update_matrix,
    check_communication_assumption,
    check_strict_convexity,
    linear_step,
    validate_gain,
)
from .lyapunov import (
    AgentState,
    HullPolytope,
    contains,
    diameter,
    hull,
    monitor_stream,
    point_distance,
    summarize,
)
from .simulator import (
    FiniteSchedule,
    GeneratedSchedule,
    PeriodicSchedule,
    attractivity_probe,
    constant_schedule,
    disagreement,
    iter_spans,
)
from .scenarios import (
    counterexample_initial_state,
    counterexample_limit,
    counterexample_sample_times,
    counterexample_schedule,
    random_windowed_schedule,
    stretching_bidirectional_schedule,
    verify_counterexample,
)

__version__ = "0.1.0"

__all__ = [
    "DirectedGraph",
    "GraphFormatError",
    "IntervalSpec",
    "UnsupportedQueryError",
    "WeightedDigraph",
    "empty_graph",
    "find_root",
    "format_graph_text",
    "is_bidirectional",
    "is_connected_from",
    "is_weakly_connected",
    "is_weakly_connected_across",
    "neighbors",
    "parse_graph_text",
    "relabel",
    "union_across",
    "weakly_connected_oracle",
    "KuramotoTime1",
    "LinearAverage",
    "MaxUpdate",
    "NonlinearConsensus",
    "StochasticMatrix",
    "VicsekHeading",
    "build_update_matrix",
    "check_communication_assumption",
    "check_strict_convexity",
    "linear_step",
    "validate_gain",
    "AgentState",
    "HullPolytope",
    "contains",
    "diameter",
    "hull",
    "monitor_stream",
    "point_distance",
    "summarize",
    "FiniteSchedule",
    "GeneratedSchedule",
    "PeriodicSchedule",
    "attractivity_probe",
    "constant_schedule",
    "disagreement",
    "iter_spans",
    "counterexample_initial_state",
    "counterexample_limit",
    "counterexample_sample_times",
    "counterexample_schedule",
    "random_windowed_schedule",
    "stretching_bidirectional_schedule",
    "verify_counterexample",
]
