"""Tests for repro.core.greedy (generic greedy placement)."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bounds import MuFunction, NuFunction
from repro.core.evaluator import SigmaEvaluator
from repro.core.greedy import greedy_placement
from repro.core.problem import MSCInstance
from repro.exceptions import SolverError
from tests.conftest import path_graph, random_graphs


class _FixedFunction:
    """A deterministic set function for controlled greedy behaviour: the
    value is the sum of per-edge scores (modular, so greedy is optimal)."""

    def __init__(self, n, scores):
        self._n = n
        self._scores = scores  # dict edge -> score

    @property
    def n(self):
        return self._n

    def value(self, edges):
        return sum(self._scores.get(tuple(sorted(e)), 0.0) for e in set(edges))

    def add_candidates(self, edges):
        base = self.value(edges)
        out = np.full((self._n, self._n), base, dtype=float)
        existing = {tuple(sorted(e)) for e in edges}
        for (a, b), score in self._scores.items():
            if (a, b) not in existing:
                out[a, b] += score
                out[b, a] += score
        np.fill_diagonal(out, base)
        return out


class TestGreedyMechanics:
    def test_picks_highest_scores_in_order(self):
        fn = _FixedFunction(4, {(0, 1): 3.0, (0, 2): 2.0, (1, 3): 1.0})
        assert greedy_placement(fn, 2) == [(0, 1), (0, 2)]

    def test_stops_when_no_gain(self):
        fn = _FixedFunction(4, {(0, 1): 3.0})
        assert greedy_placement(fn, 3) == [(0, 1)]

    def test_no_gain_continues_when_disabled(self):
        fn = _FixedFunction(4, {(0, 1): 3.0})
        placed = greedy_placement(fn, 3, stop_when_no_gain=False)
        assert len(placed) == 3
        assert placed[0] == (0, 1)

    def test_respects_existing_edges(self):
        fn = _FixedFunction(4, {(0, 1): 3.0, (0, 2): 2.0})
        placed = greedy_placement(fn, 2, existing=[(0, 1)])
        assert placed == [(0, 1), (0, 2)]

    def test_existing_over_budget_rejected(self):
        fn = _FixedFunction(4, {})
        with pytest.raises(SolverError, match="exceed the budget"):
            greedy_placement(fn, 1, existing=[(0, 1), (0, 2)])

    def test_candidate_mask_restricts(self):
        fn = _FixedFunction(4, {(0, 1): 3.0, (0, 2): 2.0})
        mask = np.ones((4, 4), dtype=bool)
        mask[0, 1] = mask[1, 0] = False
        assert greedy_placement(fn, 1, candidate_mask=mask) == [(0, 2)]

    def test_bad_mask_shape_rejected(self):
        fn = _FixedFunction(4, {})
        with pytest.raises(SolverError, match="candidate_mask"):
            greedy_placement(fn, 1, candidate_mask=np.ones((3, 3), bool))

    def test_tie_break_lexicographic(self):
        fn = _FixedFunction(4, {(0, 3): 1.0, (0, 1): 1.0, (2, 3): 1.0})
        assert greedy_placement(fn, 1) == [(0, 1)]

    def test_never_places_self_loop_or_duplicate(self):
        fn = _FixedFunction(3, {(0, 1): 5.0})
        placed = greedy_placement(fn, 3, stop_when_no_gain=False)
        assert len(set(placed)) == len(placed)
        assert all(a != b for a, b in placed)

    def test_invalid_budget(self):
        fn = _FixedFunction(3, {})
        with pytest.raises(Exception):
            greedy_placement(fn, -1)

    def test_zero_budget_places_nothing(self):
        fn = _FixedFunction(3, {(0, 1): 3.0})
        assert greedy_placement(fn, 0) == []


class TestGreedyOnRealObjectives:
    def test_sigma_greedy_on_path(self, tiny_instance):
        evaluator = SigmaEvaluator(tiny_instance)
        placed = greedy_placement(evaluator, tiny_instance.k)
        # One shortcut (0,4) (or equivalent) satisfies all three pairs.
        assert evaluator.value(placed) == 3
        assert len(placed) <= tiny_instance.k

    def test_greedy_stops_at_full_satisfaction(self, tiny_instance):
        evaluator = SigmaEvaluator(tiny_instance)
        placed = greedy_placement(evaluator, 2)
        # All pairs satisfied after the first edge, so greedy stops early.
        assert len(placed) == 1

    def test_nu_greedy_improves_coverage(self):
        g = path_graph([1.0] * 8)
        inst = MSCInstance(g, [(0, 8), (1, 7)], k=2, d_threshold=1.5)
        nu = NuFunction(inst)
        placed = greedy_placement(nu, 2)
        assert nu.value(placed) > nu.value([])


class TestBudgetPrefix:
    """A greedy round never reads the budget, so a smaller budget's
    placement is a prefix of a larger one's; ``ratio_grid`` relies on it."""

    @settings(max_examples=60, deadline=None)
    @given(
        graph=random_graphs(),
        data=st.data(),
        d_threshold=st.floats(min_value=0.0, max_value=3.0),
    )
    def test_smaller_budget_is_prefix(self, graph, data, d_threshold):
        n = graph.number_of_nodes()
        if n < 2:
            return
        distinct = st.tuples(
            st.integers(0, n - 1), st.integers(0, n - 1)
        ).filter(lambda p: p[0] != p[1])
        pairs = data.draw(st.lists(distinct, min_size=1, max_size=5))
        instance = MSCInstance(
            graph,
            pairs,
            k=1,
            d_threshold=d_threshold,
            require_initially_unsatisfied=False,
        )
        # The whole candidate universe: every run that ends short of it
        # stopped for lack of gain.
        largest = n * (n - 1) // 2
        functions = [
            SigmaEvaluator(instance),
            MuFunction(instance),
            NuFunction(instance),
        ]
        # The same σ served by the restricted-universe scan.
        with mock.patch("repro.core.evaluator.CANDIDATE_RESTRICT_MIN_N", 0):
            functions.append(SigmaEvaluator(instance))
            for fn in functions:
                full = greedy_placement(fn, largest)
                for k in range(min(largest, len(full) + 2) + 1):
                    assert greedy_placement(fn, k) == full[:k]
