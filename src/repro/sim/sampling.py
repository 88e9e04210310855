"""Edge-failure sampling for Monte Carlo delivery trials.

One trial of the wireless network: every link independently fails with its
failure probability (the model of paper Eq. 1); shortcut edges never fail.
"""

from __future__ import annotations

from typing import List, Set, Tuple

from repro.graph.graph import Node, WirelessGraph
from repro.util.rng import ensure_rng

Edge = Tuple[Node, Node]


def sample_failed_edges(graph: WirelessGraph, rng) -> Set[Edge]:
    """One random trial: the set of links that failed this round.

    Edges are returned as ``(u, v)`` in the graph's canonical (index-sorted)
    orientation, matching :attr:`WirelessGraph.edges`. Exactly one
    ``rng.random()`` is drawn per edge, in that order, so a seed fixes the
    trial regardless of how often the graph's failure table was rebuilt.
    """
    draw = ensure_rng(rng).random
    edges, probabilities = graph.failure_table
    return {edge for edge, p in zip(edges, probabilities) if draw() < p}


def surviving_graph(
    graph: WirelessGraph, failed: Set[Edge]
) -> WirelessGraph:
    """Copy of *graph* without the failed edges (nodes all kept)."""
    survivor = WirelessGraph()
    survivor.add_nodes(graph.nodes)
    for u, v, length in graph.edges:
        if (u, v) not in failed and (v, u) not in failed:
            survivor.add_edge(u, v, length=length)
    return survivor


def adjacency_after_failures(
    graph: WirelessGraph, failed: Set[Edge]
) -> List[List[int]]:
    """Index adjacency lists of the surviving topology (cheap form for
    connectivity checks; lengths are irrelevant once edges survive)."""
    n = graph.number_of_nodes()
    adjacency: List[List[int]] = [[] for _ in range(n)]
    for u, v, _length in graph.edges:
        if (u, v) in failed or (v, u) in failed:
            continue
        iu, iv = graph.node_index(u), graph.node_index(v)
        adjacency[iu].append(iv)
        adjacency[iv].append(iu)
    return adjacency
