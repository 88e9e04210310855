"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import math
import random
from typing import List, Tuple

import pytest
from hypothesis import strategies as st

from repro.core.problem import MSCInstance
from repro.graph.graph import WirelessGraph


def path_graph(lengths: List[float]) -> WirelessGraph:
    """Path 0-1-...-n with the given edge lengths."""
    graph = WirelessGraph()
    graph.add_nodes(range(len(lengths) + 1))
    for i, length in enumerate(lengths):
        graph.add_edge(i, i + 1, length=length)
    return graph


def star_graph(n_leaves: int, length: float = 1.0) -> WirelessGraph:
    """Star with center 0 and leaves 1..n, all edges the same length."""
    graph = WirelessGraph()
    graph.add_node(0)
    for leaf in range(1, n_leaves + 1):
        graph.add_edge(0, leaf, length=length)
    return graph


def grid_graph(rows: int, cols: int, length: float = 1.0) -> WirelessGraph:
    """rows x cols grid; node (r, c) is named r * cols + c."""
    graph = WirelessGraph()
    graph.add_nodes(range(rows * cols))
    for r in range(rows):
        for c in range(cols):
            node = r * cols + c
            if c + 1 < cols:
                graph.add_edge(node, node + 1, length=length)
            if r + 1 < rows:
                graph.add_edge(node, node + cols, length=length)
    return graph


def random_graph(
    n: int, edge_prob: float, rng: random.Random,
    max_length: float = 2.0,
) -> WirelessGraph:
    """Erdos-Renyi-style random weighted graph (may be disconnected)."""
    graph = WirelessGraph()
    graph.add_nodes(range(n))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < edge_prob:
                graph.add_edge(i, j, length=rng.uniform(0.0, max_length))
    return graph


@st.composite
def random_graphs(draw):
    """Small graphs with shuffled node insertion order (so the canonical
    orientation is not label order), isolated nodes, reliable links, and
    re-added (overwritten) edges."""
    n = draw(st.integers(1, 9))
    graph = WirelessGraph()
    graph.add_nodes(draw(st.permutations(range(n))))
    if n > 1:
        edges = draw(
            st.lists(
                st.tuples(
                    st.integers(0, n - 1),
                    st.integers(0, n - 1),
                    st.sampled_from([0.0, 0.01, 0.3, 0.5, 0.9, 0.999]),
                ).filter(lambda e: e[0] != e[1]),
                max_size=3 * n,
            )
        )
        for u, v, p in edges:
            graph.add_edge(u, v, failure_probability=p)
    return graph


def paper_counterexample() -> Tuple[WirelessGraph, List[Tuple[int, int]]]:
    """The non-submodularity counterexample of paper §V-A: three isolated
    nodes, S = all three pairs, d_t = 1."""
    graph = WirelessGraph()
    graph.add_nodes([0, 1, 2])
    pairs = [(0, 1), (0, 2), (1, 2)]
    return graph, pairs


@pytest.fixture
def rng() -> random.Random:
    return random.Random(12345)


@pytest.fixture
def tiny_instance() -> MSCInstance:
    """Path 0-1-2-3-4 with unit edges, threshold 1.5: the end pairs are too
    far apart until shortcuts arrive."""
    graph = path_graph([1.0, 1.0, 1.0, 1.0])
    return MSCInstance(
        graph, [(0, 4), (0, 3), (1, 4)], k=2, d_threshold=1.5
    )


@pytest.fixture
def triangle_instance() -> MSCInstance:
    """The paper's §V-A counterexample as an instance (k=2, d_t=1)."""
    graph, pairs = paper_counterexample()
    return MSCInstance(graph, pairs, k=2, d_threshold=1.0)


def assert_close(a: float, b: float, tol: float = 1e-9) -> None:
    assert math.isclose(a, b, rel_tol=tol, abs_tol=tol), (a, b)
