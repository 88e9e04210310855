"""Tests for repro.core.ratio (Tables I/II machinery)."""

import pytest

from repro.core.problem import MSCInstance
from repro.core.ratio import APPROX_FACTOR, RatioReport, ratio_grid, sandwich_ratio
from repro.exceptions import ValidationError
from tests.conftest import path_graph
from tests.core.helpers import random_instance


class TestSandwichRatio:
    def test_ratio_in_unit_interval(self, tiny_instance):
        report = sandwich_ratio(tiny_instance)
        assert 0.0 <= report.ratio <= 1.0 + 1e-9

    def test_sigma_le_nu(self, tiny_instance):
        report = sandwich_ratio(tiny_instance)
        assert report.sigma_value <= report.nu_value + 1e-9

    def test_guarantee_scales_ratio(self, tiny_instance):
        report = sandwich_ratio(tiny_instance)
        assert report.guarantee == pytest.approx(
            report.ratio * APPROX_FACTOR
        )

    def test_explicit_budget(self, tiny_instance):
        report = sandwich_ratio(tiny_instance, k=1)
        assert report.k == 1

    def test_degenerate_instance_ratio_one(self, triangle_instance):
        report = sandwich_ratio(triangle_instance)
        if report.nu_value <= 0:
            assert report.ratio == 1.0

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_random_instances_valid(self, seed):
        instance = random_instance(seed)
        report = sandwich_ratio(instance)
        assert 0.0 <= report.ratio <= 1.0 + 1e-9


def _reference_grid(instance_factory, p_thresholds, budgets, draws):
    """The grid recomputed with one ``sandwich_ratio`` (one ν-greedy) per
    instance and budget."""
    grid = {}
    for p_t in p_thresholds:
        sums = [[0.0, 0.0, 0.0] for _ in budgets]
        for draw in range(draws):
            instance = instance_factory(p_t, draw)
            for cell, k in zip(sums, budgets):
                report = sandwich_ratio(instance, k)
                cell[0] += report.ratio
                cell[1] += report.sigma_value
                cell[2] += report.nu_value
        grid[p_t] = [
            RatioReport(
                ratio=r / draws, sigma_value=s / draws, nu_value=v / draws,
                k=k,
            )
            for (r, s, v), k in zip(sums, budgets)
        ]
    return grid


class TestRatioGrid:
    @pytest.mark.parametrize("draws", [1, 3])
    def test_matches_per_budget_reference(self, draws):
        def factory(p_t, draw):
            return random_instance(
                int(p_t * 10) + 7 * draw, n_range=(8, 13), k=1,
                max_pairs=8,
            )

        # Unsorted, repeated, zero, and past the point where ν stops
        # gaining on these instances.
        budgets = [3, 1, 0, 6, 3, 12]
        p_thresholds = [0.1, 0.2, 0.3]
        assert ratio_grid(
            factory, p_thresholds, budgets, draws
        ) == _reference_grid(factory, p_thresholds, budgets, draws)

    def test_negative_budget_rejected(self):
        g = path_graph([0.3] * 8)

        def factory(p_t, draw):
            return MSCInstance(g, [(0, 8)], k=1, p_threshold=p_t)

        with pytest.raises(ValidationError):
            ratio_grid(factory, [0.5], [2, -1])

    def test_grid_layout(self):
        g = path_graph([0.3] * 8)

        def factory(p_t, draw):
            return MSCInstance(
                g, [(0, 8), (1, 7), (0, 6)], k=4, p_threshold=p_t
            )

        grid = ratio_grid(factory, [0.5, 0.7], [1, 2])
        assert set(grid) == {0.5, 0.7}
        for reports in grid.values():
            assert [r.k for r in reports] == [1, 2]
            assert all(isinstance(r, RatioReport) for r in reports)

    def test_grid_averaging_deterministic_instances(self):
        """Averaging identical draws equals a single draw."""
        g = path_graph([0.3] * 8)

        def factory(p_t, draw):
            return MSCInstance(
                g, [(0, 8), (1, 7), (0, 6)], k=4, p_threshold=p_t
            )

        one = ratio_grid(factory, [0.5], [2], draws=1)[0.5][0]
        many = ratio_grid(factory, [0.5], [2], draws=4)[0.5][0]
        assert many.ratio == pytest.approx(one.ratio)
        assert many.sigma_value == pytest.approx(one.sigma_value)

    def test_grid_draws_vary_with_factory(self):
        """The draw index reaches the factory (seeds differ per draw)."""
        g = path_graph([0.3] * 8)
        seen = []

        def factory(p_t, draw):
            seen.append(draw)
            return MSCInstance(
                g, [(0, 8), (1, 7)], k=2, p_threshold=p_t
            )

        ratio_grid(factory, [0.5], [1], draws=3)
        assert seen == [0, 1, 2]
