"""Exact (brute-force) MSC solver for tiny instances.

MSC is NP-hard (paper Corollary 2), so exhaustive search is only usable as a
ground-truth oracle in tests and as the reference for checking the proven
approximation ratios on small instances. The solver enumerates all
``C(n(n-1)/2, k)`` placements and refuses instances beyond a configurable
work limit instead of silently hanging.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import Optional

from repro.core.evaluator import SigmaEvaluator
from repro.core.problem import MSCInstance
from repro.core.setfunction import SetFunctionProtocol, satisfied_or_empty
from repro.exceptions import SolverError
from repro.types import PlacementResult

DEFAULT_WORK_LIMIT = 2_000_000


def solve_exact(
    instance: MSCInstance,
    seed=None,
    sigma: Optional[SetFunctionProtocol] = None,
    work_limit: int = DEFAULT_WORK_LIMIT,
    **_ignored,
) -> PlacementResult:
    """Optimal placement by exhaustive search (σ is monotone, so only
    exactly-k subsets need enumeration).

    Raises :class:`SolverError` when the search space exceeds *work_limit*
    placements.
    """
    sigma_fn = sigma if sigma is not None else SigmaEvaluator(instance)
    n = sigma_fn.n
    universe = [(a, b) for a in range(n) for b in range(a + 1, n)]
    k = min(instance.k, len(universe))
    space = math.comb(len(universe), k)
    if space > work_limit:
        raise SolverError(
            f"exact search space C({len(universe)}, {k}) = {space} exceeds "
            f"work_limit={work_limit}"
        )

    max_value = getattr(sigma_fn, "max_value", lambda: math.inf)()
    best_edges = []
    best_value = float(sigma_fn.value([]))
    for subset in combinations(universe, k):
        value = float(sigma_fn.value(list(subset)))
        if value > best_value:
            best_value = value
            best_edges = list(subset)
            if best_value >= max_value:
                break

    satisfied = satisfied_or_empty(sigma_fn, best_edges)
    return PlacementResult(
        algorithm="exact",
        edges=instance.edges_to_nodes(best_edges),
        sigma=int(best_value),
        satisfied=satisfied,
        evaluations=space,
        extras={"search_space": space},
    )
