"""Tests for repro.core.aea (Algorithm 2)."""

import pytest

from repro.core.aea import AdaptiveEvolutionaryAlgorithm, solve_aea
from repro.core.evaluator import SigmaEvaluator
from repro.core.problem import MSCInstance
from repro.core.weighted import WeightedSigmaEvaluator
from repro.dynamics.series import DynamicMSCInstance
from repro.exceptions import SolverError
from tests.conftest import path_graph
from tests.core.helpers import random_instance
from tests.dynamics.test_series import make_series


class TestSolve:
    def test_result_fields(self, tiny_instance):
        result = solve_aea(tiny_instance, seed=1, iterations=30)
        assert result.algorithm == "aea"
        assert 0 <= result.sigma <= tiny_instance.m
        assert len(result.edges) == tiny_instance.k  # always feasible, =k
        assert len(result.trace) == 31  # initial + per-iteration

    def test_deterministic_for_seed(self, tiny_instance):
        a = solve_aea(tiny_instance, seed=5, iterations=40)
        b = solve_aea(tiny_instance, seed=5, iterations=40)
        assert a.edges == b.edges
        assert a.trace == b.trace

    def test_trace_monotone_nondecreasing(self, tiny_instance):
        result = solve_aea(tiny_instance, seed=2, iterations=60)
        assert all(a <= b for a, b in zip(result.trace, result.trace[1:]))

    def test_sigma_matches_reported_edges(self, tiny_instance):
        result = solve_aea(tiny_instance, seed=3, iterations=40)
        evaluator = SigmaEvaluator(tiny_instance)
        edges = [
            tuple(sorted((
                tiny_instance.graph.node_index(u),
                tiny_instance.graph.node_index(v),
            )))
            for u, v in result.edges
        ]
        assert evaluator.value(edges) == result.sigma

    def test_greedy_swaps_solve_easy_instance_fast(self, tiny_instance):
        """With δ=0 every step is a greedy swap; a couple of iterations must
        reach the optimum on the path instance."""
        result = solve_aea(
            tiny_instance, seed=7, iterations=5, delta=0.0
        )
        assert result.sigma == tiny_instance.m

    def test_pure_random_still_valid(self, tiny_instance):
        result = solve_aea(
            tiny_instance, seed=7, iterations=20, delta=1.0
        )
        assert 0 <= result.sigma <= tiny_instance.m

    def test_pool_size_respected(self, tiny_instance):
        result = solve_aea(
            tiny_instance, seed=9, iterations=50, pool_size=3
        )
        assert result.extras["pool_size"] <= 3

    def test_all_pool_members_feasible(self, tiny_instance):
        aea = AdaptiveEvolutionaryAlgorithm(
            tiny_instance, iterations=30, seed=11
        )
        result = aea.solve()
        assert len(result.edges) == tiny_instance.k

    def test_more_iterations_never_hurt(self, tiny_instance):
        short = solve_aea(tiny_instance, seed=13, iterations=5)
        long = solve_aea(tiny_instance, seed=13, iterations=60)
        assert long.sigma >= short.sigma


class TestWarmStart:
    def test_initial_edges_seed_the_pool(self, tiny_instance):
        result = solve_aea(
            tiny_instance, seed=1, iterations=1,
            initial_edges=[(0, 4), (1, 3)],
        )
        # (0,4) satisfies everything; one iteration cannot lose it.
        assert result.sigma == tiny_instance.m

    def test_short_warm_start_topped_up(self, tiny_instance):
        result = solve_aea(
            tiny_instance, seed=1, iterations=2, initial_edges=[(0, 4)]
        )
        assert len(result.edges) == tiny_instance.k

    def test_duplicate_initial_edges_rejected(self, tiny_instance):
        from repro.core.aea import AdaptiveEvolutionaryAlgorithm

        with pytest.raises(SolverError, match="duplicates"):
            AdaptiveEvolutionaryAlgorithm(
                tiny_instance, iterations=1,
                initial_edges=[(0, 4), (4, 0)], seed=1,
            )

    def test_oversized_warm_start_rejected(self, tiny_instance):
        from repro.core.aea import AdaptiveEvolutionaryAlgorithm

        with pytest.raises(SolverError, match="exceed the budget"):
            AdaptiveEvolutionaryAlgorithm(
                tiny_instance, iterations=1,
                initial_edges=[(0, 1), (0, 2), (0, 3)], seed=1,
            )

    def test_warmstart_never_below_aa(self, tiny_instance):
        from repro.core.aea import solve_aea_warmstart
        from repro.core.sandwich import SandwichApproximation

        aa = SandwichApproximation(tiny_instance).solve()
        for seed in (1, 2, 3):
            warm = solve_aea_warmstart(
                tiny_instance, seed=seed, iterations=10
            )
            assert warm.sigma >= aa.sigma
            assert warm.algorithm == "aea+warm"
            assert warm.extras["warm_start_sigma"] == aa.sigma

    def test_warmstart_registered(self, tiny_instance):
        from repro.core.registry import solve

        result = solve("aea+warm", tiny_instance, seed=1, iterations=5)
        assert result.algorithm == "aea+warm"


class TestValidation:
    def test_budget_exceeding_universe_rejected(self):
        g = path_graph([1.0, 1.0])  # 3 nodes -> 3 possible edges
        inst = MSCInstance(g, [(0, 2)], k=3, d_threshold=1.5)
        # k=3 equals the universe, fine:
        solve_aea(inst, seed=1, iterations=3)
        inst4 = MSCInstance(g, [(0, 2)], k=4, d_threshold=1.5)
        with pytest.raises(SolverError, match="exceeds"):
            AdaptiveEvolutionaryAlgorithm(inst4, iterations=3, seed=1)

    def test_invalid_delta(self, tiny_instance):
        with pytest.raises(Exception):
            AdaptiveEvolutionaryAlgorithm(
                tiny_instance, iterations=3, delta=1.5
            )

    def test_invalid_pool_size(self, tiny_instance):
        with pytest.raises(Exception):
            AdaptiveEvolutionaryAlgorithm(
                tiny_instance, iterations=3, pool_size=0
            )


class TestSwaps:
    def test_random_placement_has_exactly_k_distinct(self, tiny_instance):
        aea = AdaptiveEvolutionaryAlgorithm(
            tiny_instance, iterations=1, seed=17
        )
        placement = aea._random_placement(2)
        assert len(placement) == 2
        assert len(set(placement)) == 2
        assert all(a < b for a, b in placement)

    def test_greedy_swap_keeps_cardinality(self, tiny_instance):
        aea = AdaptiveEvolutionaryAlgorithm(
            tiny_instance, iterations=1, seed=19
        )
        edges = aea._random_placement(2)
        new_edges, value, _ = aea._greedy_swap(edges)
        assert len(new_edges) == 2

    def test_greedy_swap_never_decreases_value(self, tiny_instance):
        """Greedy swap removes the least useful edge and re-adds the best
        one — it can re-add the removed edge, so σ never drops."""
        aea = AdaptiveEvolutionaryAlgorithm(
            tiny_instance, iterations=1, seed=23
        )
        evaluator = aea.sigma
        edges = aea._random_placement(2)
        before = evaluator.value(edges)
        _, after, _ = aea._greedy_swap(edges)
        assert after >= before

    def test_random_swap_keeps_cardinality(self, tiny_instance):
        aea = AdaptiveEvolutionaryAlgorithm(
            tiny_instance, iterations=1, seed=29
        )
        edges = aea._random_placement(2)
        new_edges, _, _ = aea._random_swap(edges)
        assert len(new_edges) == 2
        assert all(a < b for a, b in new_edges)


class _UncachedAEA(AdaptiveEvolutionaryAlgorithm):
    """Reference AEA: every greedy swap is computed from scratch."""

    def _greedy_swap(self, edges):
        return self._compute_greedy_swap(edges)


def _aea_pair(make_sigma, instance, **kwargs):
    """A cached AEA and the uncached reference, each on its own objective
    object, with identical arguments."""
    return (
        AdaptiveEvolutionaryAlgorithm(
            instance, sigma=make_sigma(), **kwargs
        ),
        _UncachedAEA(instance, sigma=make_sigma(), **kwargs),
    )


def _sigma(instance):
    return lambda: SigmaEvaluator(instance)


def _weighted(instance):
    weights = [1.0 + 0.5 * i for i in range(instance.m)]
    return lambda: WeightedSigmaEvaluator(instance, weights)


def _dynamic(dyn):
    return lambda: DynamicMSCInstance(dyn.instances).sigma_function()


def _objectives():
    instance = random_instance(4, n_range=(9, 12), k=3)
    dyn = make_series(k=2)
    return {
        "sigma": (instance, _sigma(instance)),
        "weighted": (instance, _weighted(instance)),
        "dynamic": (dyn.carrier, _dynamic(dyn)),
    }


class TestSwapCache:
    """Replaying a repeated greedy swap must leave the run unchanged: same
    result, same evaluation count, same RNG stream afterwards."""

    ITERATIONS = 60

    @pytest.mark.parametrize("objective", ["sigma", "weighted", "dynamic"])
    @pytest.mark.parametrize("delta", [0.0, 0.05, 1.0])
    @pytest.mark.parametrize("warm", [False, True])
    def test_matches_uncached_reference(self, objective, delta, warm):
        instance, make_sigma = _objectives()[objective]
        initial = [(0, 1)] if warm else None
        cached, reference = _aea_pair(
            make_sigma, instance, iterations=self.ITERATIONS,
            delta=delta, seed=17, initial_edges=initial,
        )
        assert cached.solve() == reference.solve()
        assert cached._rng.getstate() == reference._rng.getstate()
        assert len(cached._swaps) <= self.ITERATIONS + 1
        if delta == 1.0:
            assert not cached._swaps  # random swaps are never stored
        if delta == 0.0:
            # Every iteration is a greedy swap, and parents repeat.
            assert 0 < len(cached._swaps) < self.ITERATIONS

    def test_dynamic_solver_matches_reference(self):
        dyn = make_series(k=2)
        _, reference = _aea_pair(
            _dynamic(dyn), dyn.carrier, iterations=40, delta=0.05, seed=3
        )
        assert dyn.solve_aea(
            iterations=40, delta=0.05, seed=3
        ) == reference.solve()

    def test_repeated_solve_on_one_object(self):
        instance, make_sigma = _objectives()["sigma"]
        cached, reference = _aea_pair(
            make_sigma, instance, iterations=self.ITERATIONS, seed=5
        )
        for k in (2, 3, 3):
            assert cached.solve(k=k) == reference.solve(k=k)
            assert cached._rng.getstate() == reference._rng.getstate()
            assert len(cached._swaps) <= self.ITERATIONS + 1
            assert all(len(parent) == k for parent in cached._swaps)

    def test_replay_returns_a_fresh_child_and_the_stored_cost(
        self, tiny_instance
    ):
        aea = AdaptiveEvolutionaryAlgorithm(
            tiny_instance, iterations=1, seed=19
        )
        parent = [(0, 1), (2, 3)]
        first = aea._greedy_swap(parent)
        second = aea._greedy_swap(parent)
        assert first == second
        assert first[2] == len(parent) + 1  # k removals + one scan
        assert first[0] is not second[0]
        first[0].append((0, 4))
        assert aea._greedy_swap(parent) == second
