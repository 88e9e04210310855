"""Evolutionary Algorithm (EA) — Algorithm 1 of the paper.

A GSEMO-style bi-objective optimizer: maximize σ(F) (without cardinality
constraint) and minimize |F|. The archive keeps the Pareto front of
``(σ, |F|)``. Each iteration mutates a uniformly chosen archive member by
flipping every possible shortcut edge independently with probability
``2 / (n(n-1))`` (one expected flip), then inserts the offspring if it is not
weakly dominated, evicting anything it weakly dominates. The answer is the
best archive member with ``|F| <= k``.

Theorems 6 and 7 of the paper bound the expected iterations to reach a
bounded-error solution by ``O(n² k)``; in practice (paper Figs. 3–4) EA needs
far more iterations than AEA to become competitive, which our benchmarks
reproduce.
"""

from __future__ import annotations

from typing import FrozenSet, List, Optional, Tuple

import numpy as np

from repro.core.evaluator import SigmaEvaluator
from repro.core.problem import MSCInstance
from repro.core.setfunction import SetFunctionProtocol, satisfied_or_empty
from repro.exceptions import SolverError
from repro.types import IndexPair, PlacementResult
from repro.util.rng import SeedLike, ensure_rng
from repro.util.validation import check_positive_int

Individual = Tuple[FrozenSet[IndexPair], float]  # (edge set, σ value)


class EvolutionaryAlgorithm:
    """GSEMO over shortcut placements (paper Algorithm 1).

    Args:
        instance: the MSC instance (provides n and the budget k).
        iterations: number of mutation rounds ``r`` (paper default 500).
        sigma: objective to use; defaults to the instance's exact σ. The
            dynamic adapter passes a summed σ here.
        seed: RNG seed for reproducible runs.
    """

    def __init__(
        self,
        instance: MSCInstance,
        iterations: int = 500,
        *,
        sigma: Optional[SetFunctionProtocol] = None,
        seed: SeedLike = None,
    ) -> None:
        self.instance = instance
        self.iterations = check_positive_int(iterations, "iterations")
        self.sigma = sigma if sigma is not None else SigmaEvaluator(instance)
        n = self.sigma.n
        if n < 2:
            raise SolverError("EA needs at least two nodes")
        rng = ensure_rng(seed)
        self._np_rng = np.random.default_rng(rng.getrandbits(64))
        self._rng = rng
        self._triu_a, self._triu_b = np.triu_indices(n, k=1)
        self._num_candidates = len(self._triu_a)

    # -------------------------------------------------------------- mutation

    def _mutate(self, edges: FrozenSet[IndexPair]) -> FrozenSet[IndexPair]:
        """Flip each candidate edge independently with prob ``1/N`` where
        ``N = n(n-1)/2`` (i.e. ``2/(n(n-1))``, the paper's rate)."""
        count = int(
            self._np_rng.binomial(
                self._num_candidates, 1.0 / self._num_candidates
            )
        )
        if count == 0:
            return edges
        chosen = self._np_rng.choice(
            self._num_candidates, size=count, replace=False
        )
        mutated = set(edges)
        for flat in chosen:
            pair = (int(self._triu_a[flat]), int(self._triu_b[flat]))
            if pair in mutated:
                mutated.discard(pair)
            else:
                mutated.add(pair)
        return frozenset(mutated)

    # --------------------------------------------------------------- archive

    @staticmethod
    def _weakly_dominates(a: Individual, b: Individual) -> bool:
        """a weakly dominates b: at least as good on both objectives."""
        return a[1] >= b[1] and len(a[0]) <= len(b[0])

    def _insert(self, archive: List[Individual], child: Individual) -> None:
        for member in archive:
            if self._weakly_dominates(member, child):
                return
        archive[:] = [
            member
            for member in archive
            if not self._weakly_dominates(child, member)
        ]
        archive.append(child)

    # ------------------------------------------------------------------ run

    def solve(self, k: Optional[int] = None) -> PlacementResult:
        budget = self.instance.k if k is None else k
        empty: Individual = (frozenset(), float(self.sigma.value([])))
        archive: List[Individual] = [empty]
        best_feasible: Individual = empty
        trace: List[int] = []
        evaluations = 1

        for _ in range(self.iterations):
            parent = archive[self._rng.randrange(len(archive))]
            child_edges = self._mutate(parent[0])
            if child_edges == parent[0]:
                trace.append(int(best_feasible[1]))
                continue
            child: Individual = (
                child_edges,
                float(self.sigma.value(list(child_edges))),
            )
            evaluations += 1
            self._insert(archive, child)
            if len(child_edges) <= budget and child[1] > best_feasible[1]:
                best_feasible = child
            trace.append(int(best_feasible[1]))

        edges = sorted(best_feasible[0])
        satisfied = satisfied_or_empty(self.sigma, edges)
        return PlacementResult(
            algorithm="ea",
            edges=self.instance.edges_to_nodes(edges),
            sigma=int(best_feasible[1]),
            satisfied=satisfied,
            evaluations=evaluations,
            trace=trace,
            extras={"archive_size": len(archive)},
        )


def solve_ea(
    instance: MSCInstance,
    seed: SeedLike = None,
    iterations: int = 500,
    **_ignored,
) -> PlacementResult:
    """Registry-compatible wrapper for :class:`EvolutionaryAlgorithm`."""
    return EvolutionaryAlgorithm(
        instance, iterations=iterations, seed=seed
    ).solve()
