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
    find_root,
    format_graph_text,
    is_bidirectional,
    is_connected_from,
    is_weakly_connected,
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
    disagreement,
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
    iter_spans,
)
from .scenarios import (
    CounterexampleSchedule,
    StretchingSchedule,
    counterexample_initial_state,
    counterexample_limit,
    counterexample_sample_times,
    random_windowed_schedule,
    verify_counterexample,
)

__version__ = "0.1.0"

__all__ = [
    "DirectedGraph",
    "GraphFormatError",
    "IntervalSpec",
    "UnsupportedQueryError",
    "WeightedDigraph",
    "find_root",
    "format_graph_text",
    "is_bidirectional",
    "is_connected_from",
    "is_weakly_connected",
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
    "disagreement",
    "hull",
    "monitor_stream",
    "point_distance",
    "summarize",
    "FiniteSchedule",
    "GeneratedSchedule",
    "PeriodicSchedule",
    "attractivity_probe",
    "iter_spans",
    "CounterexampleSchedule",
    "StretchingSchedule",
    "counterexample_initial_state",
    "counterexample_limit",
    "counterexample_sample_times",
    "random_windowed_schedule",
    "verify_counterexample",
]
