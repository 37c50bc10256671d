"""Skeleton abstraction: dependency graphs, OCC, scheduling (paper V)."""

from .depgraph import (
    DepGraph,
    DepKind,
    GraphNode,
    NodeKind,
    Scope,
    build_dependency_graph,
    containers_to_nodes,
)
from .executor import DependencyViolation, check_trace_dependencies
from .fusion import FUSION, FusedStep, fuse_program
from .mgraph import build_multi_gpu_graph, expand_with_halo_nodes
from .occ import Occ, OccReport, apply_occ
from .scheduler import CompiledProgram, ExecutionResult, Plan, ScheduleStats
from .skeleton import Skeleton

__all__ = [
    "FUSION",
    "CompiledProgram",
    "DepGraph",
    "DepKind",
    "DependencyViolation",
    "ExecutionResult",
    "FusedStep",
    "GraphNode",
    "NodeKind",
    "Occ",
    "OccReport",
    "Plan",
    "ScheduleStats",
    "Scope",
    "Skeleton",
    "apply_occ",
    "build_dependency_graph",
    "build_multi_gpu_graph",
    "check_trace_dependencies",
    "containers_to_nodes",
    "expand_with_halo_nodes",
    "fuse_program",
]
