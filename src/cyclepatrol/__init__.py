"""Deterministic simulator and analysis toolkit for heterogeneous
intermittent-connectivity patrolling on a 1D cycle graph."""

from .engine import (
    AssumptionError,
    DeadlockError,
    Simulation,
    Trace,
    TraceEvent,
    random_initial_state,
)
from .fleet import (
    FleetConfig,
    GoalPartition,
    RobotParams,
    StaticallyCoverableError,
    compute_goal_partition,
    compute_t_star,
)
from .scenario import (
    CycleGraph,
    TaskSet,
    build_tour_mst,
    build_tour_nn,
    map_1d_to_2d,
)
from .words import Word, decompose, is_interlaced, step_word

__all__ = [
    "AssumptionError",
    "CycleGraph",
    "DeadlockError",
    "FleetConfig",
    "GoalPartition",
    "RobotParams",
    "Simulation",
    "StaticallyCoverableError",
    "TaskSet",
    "Trace",
    "TraceEvent",
    "Word",
    "build_tour_mst",
    "build_tour_nn",
    "compute_goal_partition",
    "compute_t_star",
    "decompose",
    "is_interlaced",
    "map_1d_to_2d",
    "random_initial_state",
    "step_word",
]

__version__ = "0.1.0"
