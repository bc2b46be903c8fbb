"""Balanced vertex separators for planar graphs that are almost trees.

A connected planar graph with n vertices and n+r edges admits a
separator of O(sqrt(r) + 1) vertices; this package computes one by
compressing the graph to size O(r) and separating the compressed graph.
"""

from .graph import (
    Graph,
    SpanningTree,
    VerifyReport,
    build_graph,
    connected_components,
    verify_separator,
)
from .gen import GenSpec, assign_weights, generate, grid_graph, near_tree_planar, random_tree
from .oracle import OracleResult, min_balanced_separator
from .pipeline import Separator, StageTrace, dump_stages, separate
from .planar import LTSeparator, lt_separator

__all__ = [
    "GenSpec",
    "Graph",
    "LTSeparator",
    "OracleResult",
    "Separator",
    "SpanningTree",
    "StageTrace",
    "VerifyReport",
    "assign_weights",
    "build_graph",
    "connected_components",
    "dump_stages",
    "generate",
    "grid_graph",
    "lt_separator",
    "min_balanced_separator",
    "near_tree_planar",
    "random_tree",
    "separate",
    "verify_separator",
]

__version__ = "0.1.0"
