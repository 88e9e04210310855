"""Tests for repro.sim.overhead (transmission accounting)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import SolverError
from repro.graph.graph import WirelessGraph
from repro.sim.delivery import DeliverySimulator
from repro.sim.overhead import (
    OverheadReport,
    _flood_pass,
    _path_transmissions,
    compare_overheads,
    measure_overhead,
)
from tests.conftest import path_graph, random_graphs


def reference_flood(graph, failed, source, target):
    """Per-pair BFS reference: every node reached over surviving links
    broadcasts once. Returns (transmissions, target reached)."""
    dead = {frozenset(edge) for edge in failed}
    seen = {source}
    stack = [source]
    transmissions = 0
    while stack:
        u = stack.pop()
        for v, _length in graph.neighbors(u):
            if frozenset((u, v)) in dead:
                continue
            transmissions += 1
            if v not in seen:
                seen.add(v)
                stack.append(v)
    # Each surviving link in the component was counted from both ends.
    return transmissions // 2, target in seen


def flood(graph, failed, source, target):
    """Per-pair view of one :func:`_flood_pass`."""
    labels, links = _flood_pass(graph, failed)
    src, dst = graph.node_index(source), graph.node_index(target)
    return links[labels[src]], labels[src] == labels[dst]


def reliable_path(n_edges=3):
    g = WirelessGraph()
    for i in range(n_edges):
        g.add_edge(i, i + 1, failure_probability=0.0)
    return g


class TestPathTransmissions:
    def test_full_path_delivered(self):
        sent, ok = _path_transmissions([0, 1, 2, 3], set())
        assert (sent, ok) == (3, True)

    def test_stops_at_first_failure(self):
        sent, ok = _path_transmissions([0, 1, 2, 3], {(1, 2)})
        assert (sent, ok) == (2, False)

    def test_failure_orientation_irrelevant(self):
        sent, ok = _path_transmissions([0, 1, 2], {(1, 0)})
        assert (sent, ok) == (1, False)


class TestFloodTransmissions:
    def test_counts_component_links_once(self):
        g = reliable_path(3)
        sent, ok = flood(g, set(), 0, 3)
        assert sent == 3
        assert ok

    def test_failed_link_blocks_and_reduces(self):
        g = reliable_path(3)
        sent, ok = flood(g, {(1, 2)}, 0, 3)
        assert sent == 1  # only 0-1 survives in source component
        assert not ok

    @settings(max_examples=80, deadline=None)
    @given(graph=random_graphs(), data=st.data())
    def test_matches_per_pair_bfs(self, graph, data):
        edges = [(u, v) for u, v, _length in graph.edges]
        chosen = data.draw(
            st.lists(st.sampled_from(edges), unique=True) if edges
            else st.just([])
        )
        # Each failed link once, in either orientation.
        failed = {
            edge[::-1] if data.draw(st.booleans()) else edge
            for edge in chosen
        }
        for source in graph.nodes:
            for target in graph.nodes:
                assert flood(graph, failed, source, target) == (
                    reference_flood(graph, failed, source, target)
                )


class TestMeasureOverhead:
    def test_reliable_best_path_overhead_is_path_length(self):
        g = reliable_path(3)
        sim = DeliverySimulator(g)
        report = measure_overhead(
            sim, [(0, 3)], strategy="best_path", trials=10, seed=1
        )
        assert report.deliveries == 10
        assert report.per_delivery == pytest.approx(3.0)

    def test_flooding_overhead_exceeds_best_path(self):
        """On a network with redundancy, flooding pays for every surviving
        link; best-path pays only its own hops."""
        g = WirelessGraph()
        # 2 parallel routes + a dangling subtree that flooding also wets.
        g.add_edge(0, 1, failure_probability=0.05)
        g.add_edge(1, 3, failure_probability=0.05)
        g.add_edge(0, 2, failure_probability=0.05)
        g.add_edge(2, 3, failure_probability=0.05)
        g.add_edge(1, 4, failure_probability=0.05)
        g.add_edge(4, 5, failure_probability=0.05)
        sim = DeliverySimulator(g)
        best = measure_overhead(
            sim, [(0, 3)], strategy="best_path", trials=300, seed=2
        )
        flood = measure_overhead(
            sim, [(0, 3)], strategy="flooding", trials=300, seed=2
        )
        assert flood.per_delivery > best.per_delivery

    def test_multipath_between(self):
        g = WirelessGraph()
        g.add_edge(0, 1, failure_probability=0.3)
        g.add_edge(1, 3, failure_probability=0.3)
        g.add_edge(0, 2, failure_probability=0.3)
        g.add_edge(2, 3, failure_probability=0.3)
        sim = DeliverySimulator(g)
        best = measure_overhead(
            sim, [(0, 3)], strategy="best_path", trials=400, seed=3
        )
        multi = measure_overhead(
            sim, [(0, 3)], strategy="multipath", trials=400, seed=3,
            multipath_k=2,
        )
        # multipath delivers more...
        assert multi.deliveries >= best.deliveries
        # ...and spends at least as many transmissions in total.
        assert multi.transmissions >= best.transmissions

    def test_zero_deliveries_inf_overhead(self):
        g = WirelessGraph()
        g.add_edge(0, 1, failure_probability=0.0)
        g.add_node(2)
        sim = DeliverySimulator(g)
        report = measure_overhead(
            sim, [(0, 2)], strategy="flooding", trials=5, seed=4
        )
        assert report.deliveries == 0
        assert math.isinf(report.per_delivery)

    def test_flooding_pair_missing_endpoint_never_delivers(self):
        """A pair that lost a node sends nothing and never delivers, as
        under best_path, multipath and DeliverySimulator.simulate."""
        sim = DeliverySimulator(path_graph([0.0, 0.0]))
        report = measure_overhead(
            sim, [(0, 9)], strategy="flooding", trials=5, seed=1
        )
        assert (report.deliveries, report.transmissions) == (0, 0)
        mixed = measure_overhead(
            sim, [(0, 9), (0, 2), (8, 2)], strategy="flooding",
            trials=5, seed=1,
        )
        assert (mixed.deliveries, mixed.transmissions) == (5, 10)
        for strategy in ("best_path", "multipath"):
            other = measure_overhead(
                sim, [(0, 9)], strategy=strategy, trials=5, seed=1
            )
            assert other.deliveries == 0

    def test_unknown_strategy_rejected(self):
        sim = DeliverySimulator(reliable_path(1))
        with pytest.raises(SolverError, match="unknown strategy"):
            measure_overhead(sim, [(0, 1)], strategy="warp")

    def test_deterministic_for_seed(self):
        g = path_graph([0.3, 0.3])
        sim = DeliverySimulator(g)
        a = measure_overhead(sim, [(0, 2)], trials=50, seed=5)
        b = measure_overhead(sim, [(0, 2)], trials=50, seed=5)
        assert (a.deliveries, a.transmissions) == (
            b.deliveries, b.transmissions,
        )


class TestCompareOverheads:
    def test_all_strategies_reported(self):
        g = path_graph([0.2, 0.2])
        reports = compare_overheads(g, [(0, 2)], trials=30, seed=6)
        assert [r.strategy for r in reports] == [
            "best_path", "multipath", "flooding",
        ]

    def test_shortcuts_reduce_best_path_overhead(self):
        """A direct shortcut turns a multi-hop route into a single reliable
        hop: 1 transmission per delivery."""
        g = path_graph([0.2] * 4)
        with_shortcut = compare_overheads(
            g, [(0, 4)], shortcuts=[(0, 4)], trials=50, seed=7
        )[0]
        assert with_shortcut.per_delivery == pytest.approx(1.0)
