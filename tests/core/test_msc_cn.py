"""Tests for repro.core.msc_cn — the common-node special case and its
max-coverage reduction (paper §IV)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import registry
from repro.core.evaluator import SigmaEvaluator
from repro.core.exact import solve_exact
from repro.core.msc_cn import is_common_node_instance, solve_msc_cn
from repro.core.problem import MSCInstance
from repro.exceptions import SolverError
from tests.conftest import path_graph, star_graph

APPROX = 1 - 1 / math.e


def common_node_instance(d_threshold=1.5, k=2):
    """Star of long spokes: center 0, leaves at distance 2 (two unit hops
    through relay nodes)."""
    g = star_graph(5, length=2.0)
    # add relay nodes halfway on each spoke
    for leaf in range(1, 6):
        relay = 10 + leaf
        g.add_edge(0, relay, length=1.0)
        g.add_edge(relay, leaf, length=1.0)
    pairs = [(0, leaf) for leaf in range(1, 6)]
    return MSCInstance(g, pairs, k, d_threshold=d_threshold)


class TestDetection:
    def test_common_node_instance_detected(self):
        assert is_common_node_instance(common_node_instance())

    def test_general_instance_not_detected(self):
        g = path_graph([1.0] * 4)
        inst = MSCInstance(g, [(0, 4), (1, 3)], k=1, d_threshold=2.5,
                           require_initially_unsatisfied=False)
        assert not is_common_node_instance(inst)


class TestSolver:
    def test_edges_incident_to_common_node(self):
        result = solve_msc_cn(common_node_instance())
        for u, v in result.edges:
            assert u == 0 or v == 0

    def test_sigma_agrees_with_evaluator(self):
        inst = common_node_instance()
        result = solve_msc_cn(inst)
        evaluator = SigmaEvaluator(inst)
        edges = [
            tuple(
                sorted(
                    (
                        inst.graph.node_index(u),
                        inst.graph.node_index(v),
                    )
                )
            )
            for u, v in result.edges
        ]
        assert evaluator.value(edges) == result.sigma
        assert sum(result.satisfied) == result.sigma

    def test_direct_shortcut_to_leaf_counts(self):
        """A shortcut (0, leaf) covers that leaf (distance 0)."""
        inst = common_node_instance(d_threshold=0.5, k=2)
        result = solve_msc_cn(inst)
        assert result.sigma == 2  # each edge rescues exactly one leaf

    def test_relay_shortcut_covers_nearby_leaves(self):
        """With d_t = 1.5, a shortcut to a relay covers its leaf (distance
        1), and a shortcut to a leaf covers the neighbors' relays too."""
        inst = common_node_instance(d_threshold=1.5, k=2)
        result = solve_msc_cn(inst)
        assert result.sigma >= 2

    def test_explicit_common_node(self):
        inst = common_node_instance()
        result = solve_msc_cn(inst, common=0)
        assert result.sigma >= 1

    def test_wrong_common_node_rejected(self):
        inst = common_node_instance()
        with pytest.raises(SolverError, match="not shared"):
            solve_msc_cn(inst, common=1)

    def test_no_common_node_rejected(self):
        g = path_graph([1.0] * 4)
        inst = MSCInstance(
            g, [(0, 4), (1, 3)], k=1, d_threshold=2.5,
            require_initially_unsatisfied=False,
        )
        with pytest.raises(SolverError, match="no common node"):
            solve_msc_cn(inst)

    def test_base_satisfied_pairs_reported(self):
        g = star_graph(3, length=1.0)
        inst = MSCInstance(
            g, [(0, 1), (0, 2), (0, 3)], k=1, d_threshold=1.5,
            require_initially_unsatisfied=False,
        )
        result = solve_msc_cn(inst)
        assert result.sigma == 3
        assert result.extras["base_satisfied"] == 3
        assert result.edges == []  # nothing left to rescue


def _long_path_instance(oracle):
    return MSCInstance(
        path_graph([1.0] * 19), [(0, 10), (0, 15), (0, 19)], k=1,
        d_threshold=2.0, oracle=oracle,
    )


def _relay_star_with_satisfied_pair(oracle):
    g = common_node_instance().graph
    pairs = [(0, leaf) for leaf in range(1, 6)] + [(0, 11)]
    return MSCInstance(
        g, pairs, k=2, d_threshold=1.5, oracle=oracle,
        require_initially_unsatisfied=False,
    )


class TestOracleTiers:
    """Both solvers read partner rows, so a threshold-cutoff hub index
    (which refuses the full matrix) serves them exactly."""

    @pytest.mark.parametrize("solver", ["msc_cn", "msc_cn_exact"])
    @pytest.mark.parametrize(
        "build", [_long_path_instance, _relay_star_with_satisfied_pair]
    )
    def test_hub_matches_dense(self, solver, build):
        results = {}
        for tier in ("dense", "hub"):
            result = registry.solve(solver, build(tier))
            results[tier] = (result.edges, result.sigma, result.satisfied)
        assert results["hub"] == results["dense"]
        if build is _long_path_instance:
            assert results["dense"] == ([(0, 17)], 2, [False, True, True])


class TestApproximationGuarantee:
    @given(seed=st.integers(0, 5_000))
    @settings(max_examples=15, deadline=None)
    def test_within_1_minus_1_over_e_of_exact(self, seed):
        """On small common-node instances the greedy coverage solution must
        satisfy Theorem 5's bound against the exact optimum."""
        import random

        rng = random.Random(seed)
        from tests.conftest import random_graph

        g = random_graph(8, 0.35, rng)
        common = 0
        # Pick partners with some distance from the common node.
        from repro.graph.distances import DistanceOracle

        oracle = DistanceOracle(g)
        row = oracle.row(common)
        threshold = 1.0
        partners = [
            v for v in range(1, 8) if row[v] > threshold
        ]
        if len(partners) < 2:
            return  # degenerate draw; property vacuous
        pairs = [(common, v) for v in partners]
        inst = MSCInstance(
            g, pairs, k=2, d_threshold=threshold, oracle=oracle
        )
        greedy = solve_msc_cn(inst)
        exact = solve_exact(inst)
        assert greedy.sigma >= APPROX * exact.sigma - 1e-9
