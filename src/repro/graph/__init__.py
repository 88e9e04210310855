"""Graph substrate: weighted undirected graphs, shortest paths, and
shortcut-aware distance computation."""

from repro.graph.distances import DistanceOracle
from repro.graph.graph import WirelessGraph, graph_signature
from repro.graph.paths import (
    all_pairs_distance_matrix,
    dijkstra,
    shortest_path,
    shortest_path_length,
    source_rows_matrix,
)
from repro.graph.shortcuts import ShortcutDistanceEngine

__all__ = [
    "WirelessGraph",
    "DistanceOracle",
    "ShortcutDistanceEngine",
    "dijkstra",
    "shortest_path",
    "shortest_path_length",
    "all_pairs_distance_matrix",
    "source_rows_matrix",
    "graph_signature",
]
