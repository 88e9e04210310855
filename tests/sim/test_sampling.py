"""Tests for repro.sim.sampling."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.sampling import (
    adjacency_after_failures,
    sample_failed_edges,
    surviving_graph,
)
from repro.graph.graph import WirelessGraph
from tests.conftest import path_graph, random_graphs


def reference_sample(graph, rng):
    """Scalar reference: one draw per edge of ``graph.edges``, each edge's
    probability looked up afresh (the loop the failure table replaced)."""
    failed = set()
    for u, v, _length in graph.edges:
        if rng.random() < graph.failure_probability(u, v):
            failed.add((u, v))
    return failed


def assert_same_stream(graph, seed, trials=3):
    """Table-based and scalar sampling agree trial by trial and leave the
    generator in the same state."""
    fast, slow = random.Random(seed), random.Random(seed)
    for _ in range(trials):
        assert sample_failed_edges(graph, fast) == reference_sample(
            graph, slow
        )
        assert fast.getstate() == slow.getstate()


def reliable_and_fragile():
    g = WirelessGraph()
    g.add_edge(0, 1, failure_probability=0.0)   # never fails
    g.add_edge(1, 2, failure_probability=0.999)  # almost always fails
    return g


class TestSampleFailedEdges:
    def test_zero_probability_never_fails(self):
        g = reliable_and_fragile()
        rng = random.Random(1)
        for _ in range(50):
            assert (0, 1) not in sample_failed_edges(g, rng)

    def test_high_probability_fails_often(self):
        g = reliable_and_fragile()
        rng = random.Random(1)
        failures = sum(
            (1, 2) in sample_failed_edges(g, rng) for _ in range(200)
        )
        assert failures > 150

    def test_frequency_matches_probability(self):
        g = WirelessGraph()
        g.add_edge(0, 1, failure_probability=0.3)
        rng = random.Random(7)
        trials = 3000
        failures = sum(
            (0, 1) in sample_failed_edges(g, rng) for _ in range(trials)
        )
        assert failures / trials == pytest.approx(0.3, abs=0.03)

    def test_deterministic_for_seed(self):
        g = path_graph([0.5, 0.5, 0.5])
        a = [sample_failed_edges(g, random.Random(3)) for _ in range(1)]
        b = [sample_failed_edges(g, random.Random(3)) for _ in range(1)]
        assert a == b


class TestStreamIdentity:
    @settings(max_examples=80, deadline=None)
    @given(graph=random_graphs(), seed=st.integers(0, 2**32 - 1))
    def test_matches_scalar_reference(self, graph, seed):
        assert_same_stream(graph, seed)

    def test_table_follows_edges_order(self):
        g = path_graph([0.5, 0.0, 2.0])
        edges, probabilities = g.failure_table
        assert list(edges) == [(u, v) for u, v, _l in g.edges]
        assert list(probabilities) == [
            g.failure_probability(u, v) for u, v in edges
        ]


class TestFailureTableStaleness:
    def test_table_is_cached_until_mutation(self):
        g = path_graph([0.5, 0.5])
        table = g.failure_table
        assert g.failure_table is table
        g.add_node(0)  # already present: not a mutation
        assert g.failure_table is table
        g.add_node(7)
        assert g.failure_table is not table

    def test_sampling_tracks_every_mutation(self):
        g = path_graph([0.5, 0.5, 0.5])
        assert_same_stream(g, 1)
        g.add_edge(3, 4, failure_probability=0.9)  # new edge, new node
        assert (3, 4) in g.failure_table[0]
        assert_same_stream(g, 2)
        g.add_edge(1, 0, failure_probability=0.999)  # overwrite, reversed
        assert g.failure_table[1][0] == pytest.approx(0.999)
        assert_same_stream(g, 3)
        g.add_edge(1, 2, failure_probability=0.999)
        assert_same_stream(g, 4)
        g.remove_edge(2, 1)
        assert_same_stream(g, 5)
        rng = random.Random(6)
        for _ in range(200):
            assert (1, 2) not in sample_failed_edges(g, rng)
        g.add_node(9)
        assert_same_stream(g, 7)
        g.add_edge(9, 0, failure_probability=0.2)  # canonical (0, 9)
        assert_same_stream(g, 8)

    def test_copy_then_mutation(self):
        g = path_graph([0.5, 0.5])
        g.add_edge(2, 3, failure_probability=0.999)
        assert_same_stream(g, 1)  # original has a table now
        clone = g.copy()
        clone.remove_edge(2, 3)
        clone.add_edge(0, 2, failure_probability=0.4)
        assert_same_stream(clone, 2)
        rng = random.Random(3)
        for _ in range(200):
            assert (2, 3) not in sample_failed_edges(clone, rng)
        # The original keeps its edge set and its sampling.
        assert (2, 3) in g.failure_table[0]
        assert (0, 2) not in g.failure_table[0]
        assert_same_stream(g, 4)


class TestSurvivingGraph:
    def test_failed_edges_removed(self):
        g = path_graph([1.0, 1.0])
        survivor = surviving_graph(g, {(0, 1)})
        assert not survivor.has_edge(0, 1)
        assert survivor.has_edge(1, 2)
        assert survivor.number_of_nodes() == 3

    def test_reverse_orientation_also_removed(self):
        g = path_graph([1.0])
        survivor = surviving_graph(g, {(1, 0)})
        assert not survivor.has_edge(0, 1)

    def test_lengths_preserved(self):
        g = path_graph([1.0, 2.0])
        survivor = surviving_graph(g, set())
        assert survivor.length(1, 2) == 2.0


class TestAdjacencyAfterFailures:
    def test_structure(self):
        g = path_graph([1.0, 1.0])
        adjacency = adjacency_after_failures(g, {(0, 1)})
        assert adjacency[0] == []
        assert sorted(adjacency[1]) == [2]
