"""The σ objective: number of important social pairs maintained by F.

:class:`SigmaEvaluator` is the exact objective of the MSC problem. A point
evaluation checks each pair's augmented distance against the requirement
using a :class:`~repro.graph.shortcuts.ShortcutDistanceEngine` for the
shortcut set; engines are memoized in a small LRU keyed by the set, and a
miss whose parent set ``F \\ {e}`` is cached derives the ``F`` engine
incrementally (:meth:`ShortcutDistanceEngine.extended_by_index`) instead of
rebuilding from the APSP matrix — the pattern every solver's hot loop
follows (greedy rounds grow F one edge at a time; EA/AEA offspring differ
from a pooled parent by one edge).

The one-step lookahead (:meth:`SigmaEvaluator.add_candidates`) scores all
``O(n²)`` candidate edges simultaneously: for an unsatisfied pair
``(u, w)``, the candidate ``(a, b)`` satisfies it iff
``min(d_F(u,a) + d_F(b,w), d_F(u,b) + d_F(a,w)) <= d_t`` — note the
distances here are already *augmented* by the current set F, so the
lookahead is exact, not a bound. Since distances are nonnegative, only
candidates whose endpoints are each within ``d_t`` of a pair endpoint can
satisfy the pair, so the scan restricts each pair's mask to those rows and
columns and scatter-adds the reduced block instead of allocating a full
``(n, n)`` mask per pair (chunked to bound peak memory).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.problem import MSCInstance
from repro.core.substrate import (  # noqa: F401  (re-exported: historical home)
    DEFAULT_ENGINE_CACHE_SIZE,
    ENGINE_CACHE_MIN_N,
    EngineCache,
    default_engine_cache_size,
)
from repro.graph.paths import ball_indices
from repro.graph.shortcuts import ShortcutDistanceEngine
from repro.types import IndexPair

#: Peak per-pair temporary size (elements) for the chunked candidate scan.
DEFAULT_CHUNK_ELEMENTS = 1 << 22

#: Below this node count the dense per-pair mask is used even when pruning
#: is enabled: an (n, n) boolean mask this small lives in cache and beats
#: the pruned path's extra per-pair index bookkeeping.
PRUNED_SCAN_MIN_N = 96

#: Below this node count the d_t-ball candidate restriction is skipped:
#: the full (n, n) scan is already cheap and the ball/searchsorted
#: bookkeeping would dominate.
CANDIDATE_RESTRICT_MIN_N = 192


class PairScanAccumulator:
    """Index-based scatter-add accumulator for the pruned candidate scan.

    Per-pair candidate masks arrive as flat cell indices
    (:meth:`add_pair`); they are buffered and folded into the dense
    ``(n, n)`` accumulator with one :func:`numpy.bincount` per flush —
    orders of magnitude cheaper than fancy-indexed ``+=`` per pair.
    Buffered indices are flushed once they exceed *chunk_elements*, so peak
    memory stays bounded regardless of how many pairs contribute.
    """

    def __init__(
        self,
        n: int,
        *,
        weighted: bool = False,
        chunk_elements: int = DEFAULT_CHUNK_ELEMENTS,
    ) -> None:
        self._n = n
        self._chunk_elements = max(int(chunk_elements), 1)
        self.acc = np.zeros(
            (n, n), dtype=np.float64 if weighted else np.int32
        )
        self._flat: List[np.ndarray] = []
        self._weights: Optional[List[np.ndarray]] = [] if weighted else None
        self._pending = 0

    def add_pair(
        self,
        du: np.ndarray,
        dw: np.ndarray,
        limit: float,
        weight: Optional[float] = None,
    ) -> None:
        """Accumulate one pair's candidate-satisfaction mask.

        Candidate ``(a, b)`` satisfies the pair iff
        ``du[a] + dw[b] <= limit`` or ``du[b] + dw[a] <= limit``. Distances
        are nonnegative, so every satisfying index has ``du <= limit`` or
        ``dw <= limit`` — the mask is computed only over that reduced index
        set, in row chunks whose temporaries stay under the chunk budget.
        The accumulated counts match the dense ``mask | mask.T`` form (the
        historical ``mask + mask.T - (mask & mask.T)``) cell for cell.
        """
        near = np.flatnonzero((du <= limit) | (dw <= limit))
        if near.size == 0:
            return
        du_r = du[near]
        dw_r = dw[near]
        row_offsets = near * self._n
        rows_per_chunk = max(1, self._chunk_elements // near.size)
        for start in range(0, near.size, rows_per_chunk):
            stop = min(start + rows_per_chunk, near.size)
            block = (du_r[start:stop, None] + dw_r[None, :]) <= limit
            block |= (dw_r[start:stop, None] + du_r[None, :]) <= limit
            flat = (row_offsets[start:stop, None] + near[None, :])[block]
            if flat.size == 0:
                continue
            self._flat.append(flat)
            if self._weights is not None:
                self._weights.append(
                    np.full(flat.size, 0.0 if weight is None else weight)
                )
            self._pending += flat.size
            if self._pending >= self._chunk_elements:
                self.flush()

    def flush(self) -> None:
        """Fold the buffered indices into the dense accumulator."""
        if not self._flat:
            return
        flat = np.concatenate(self._flat)
        cells = self._n * self._n
        weights = (
            None if self._weights is None
            else np.concatenate(self._weights)
        )
        if flat.size * 4 < cells:
            # Sparse flush: scatter straight into the accumulator.
            # bincount would allocate a dense int64/float64 array over all
            # n² cells — on the restricted scan that temporary would rival
            # the accumulator itself.
            acc_flat = self.acc.reshape(-1)
            np.add.at(acc_flat, flat, 1 if weights is None else weights)
        elif weights is None:
            counts = np.bincount(flat, minlength=cells)
            # In-place add with an explicit cast: bincount always yields
            # int64, and a cast into the accumulator avoids materializing
            # an extra (n, n) converted copy per flush.
            np.add(
                self.acc,
                counts.reshape(self._n, self._n),
                out=self.acc,
                casting="unsafe",
            )
        else:
            counts = np.bincount(flat, weights=weights, minlength=cells)
            self.acc += counts.reshape(self._n, self._n)
        if self._weights is not None:
            self._weights.clear()
        self._flat.clear()
        self._pending = 0

    def result(self) -> np.ndarray:
        self.flush()
        return self.acc


class SigmaEvaluator:
    """Exact evaluation of σ(F) for one MSC instance.

    The evaluator never mutates the instance; shortcut sets are passed per
    call as sequences of canonical index pairs.

    Args:
        instance: the MSC instance.
        pruned: use the pruned, chunked candidate scan (default; takes
            effect from :data:`PRUNED_SCAN_MIN_N` nodes up — below that the
            dense mask is faster and equally exact). ``False`` always uses
            the dense per-pair ``(n, n)`` masks — identical results, kept
            for benchmarking the fast path against.
        engine_cache_size: LRU capacity of the shortcut-engine memo; ``0``
            disables engine reuse (every evaluation rebuilds from the APSP
            matrix). ``None`` (default) adopts the **shared** cache of the
            instance's :class:`~repro.core.substrate.Substrate` — every
            evaluator, planner session and served request over one
            substrate then reuses each other's incremental engine
            extensions (the substrate auto-sizes it:
            :data:`DEFAULT_ENGINE_CACHE_SIZE` from
            :data:`ENGINE_CACHE_MIN_N` nodes up, disabled below — tiny
            instances never pay the cache bookkeeping). An explicit size
            always builds a private cache.
        restrict_candidates: let the candidate *generation* (not just the
            scoring) shrink to the d_t-ball of the pair endpoints and
            placed shortcut endpoints (:meth:`candidate_universe`) —
            every candidate outside the ball provably has zero marginal
            gain, so greedy placements are unchanged. Takes effect from
            :data:`CANDIDATE_RESTRICT_MIN_N` nodes up; ``False`` keeps the
            full (n, n) enumeration (benchmark baseline).
        chunk_elements: peak per-pair temporary size for the pruned scan.
    """

    def __init__(
        self,
        instance: MSCInstance,
        *,
        pruned: bool = True,
        engine_cache_size: Optional[int] = None,
        restrict_candidates: bool = True,
        chunk_elements: int = DEFAULT_CHUNK_ELEMENTS,
    ) -> None:
        self.instance = instance
        self.threshold = instance.d_threshold
        # Tolerance so pairs exactly on the requirement count as satisfied
        # despite float rounding.
        self.tolerance = 1e-12 + 1e-9 * self.threshold
        self.pruned = bool(pruned)
        self.restrict_candidates = bool(restrict_candidates)
        self.chunk_elements = int(chunk_elements)
        if engine_cache_size is None:
            # Adopt the substrate's shared engine LRU so concurrent
            # evaluators over one substrate (batch solves, planner
            # sessions, served requests) reuse each other's engines.
            self.engine_cache = instance.substrate.engine_cache
        else:
            self.engine_cache = EngineCache(
                instance.oracle, engine_cache_size
            )
        self._pairs = instance.pair_indices
        oracle = instance.oracle
        self.base_satisfied: List[bool] = [
            bool(
                oracle.distance_by_index(iu, iw)
                <= self.threshold + self.tolerance
            )
            for iu, iw in self._pairs
        ]
        self.base_sigma = sum(self.base_satisfied)
        # Fixed index plumbing for the vectorized paths: the distinct pair
        # endpoints (query sources) and, per pair, the rows of its two
        # endpoints in the batched query result.
        self._sources = sorted({i for pair in self._pairs for i in pair})
        self._row_of: Dict[int, int] = {
            s: i for i, s in enumerate(self._sources)
        }
        self._pair_u_rows = np.array(
            [self._row_of[iu] for iu, _ in self._pairs], dtype=np.intp
        )
        self._pair_w_rows = np.array(
            [self._row_of[iw] for _, iw in self._pairs], dtype=np.intp
        )
        self._pair_w_cols = np.array(
            [iw for _, iw in self._pairs], dtype=np.intp
        )
        # satisfied() only queries from first endpoints to second-endpoint
        # columns; keep the smaller source set and the deduplicated column
        # set for it (the column-restricted engine query never touches an
        # n-wide row — label-sliced on the hub tier).
        self._u_sources = sorted({iu for iu, _ in self._pairs})
        u_row_of = {s: i for i, s in enumerate(self._u_sources)}
        self._pair_u_only_rows = np.array(
            [u_row_of[iu] for iu, _ in self._pairs], dtype=np.intp
        )
        self._w_columns = np.unique(self._pair_w_cols)
        self._pair_w_slots = np.searchsorted(
            self._w_columns, self._pair_w_cols
        )

    @property
    def n(self) -> int:
        return self.instance.n

    @property
    def num_pairs(self) -> int:
        return len(self._pairs)

    def max_value(self) -> float:
        """Largest achievable σ: every pair maintained."""
        return float(self.num_pairs)

    # ------------------------------------------------------------ evaluation

    def _engine(self, edges: Sequence[IndexPair]) -> ShortcutDistanceEngine:
        return self.engine_cache.get(edges)

    def _use_pruned_scan(self) -> bool:
        """Whether the scatter-add scan should replace dense masks: both
        paths are exact, so this is purely a size cutover."""
        return self.pruned and self.n >= PRUNED_SCAN_MIN_N

    def satisfied(self, edges: Sequence[IndexPair]) -> List[bool]:
        """Per-pair satisfaction flags under shortcut set *edges*."""
        if not edges:
            return list(self.base_satisfied)
        engine = self._engine(edges)
        limit = self.threshold + self.tolerance
        rows = engine.distances_from_indices_to(
            self._u_sources, self._w_columns
        )
        distances = rows[self._pair_u_only_rows, self._pair_w_slots]
        return (distances <= limit).tolist()

    def value(self, edges: Sequence[IndexPair]) -> int:
        """σ(F): the number of maintained social pairs."""
        return sum(self.satisfied(edges))

    def add_candidates(self, edges: Sequence[IndexPair]) -> np.ndarray:
        """``(n, n)`` int array of ``σ(F ∪ {(a, b)})`` for every candidate.

        Symmetric; the diagonal equals ``σ(F)``.
        """
        n = self.n
        engine = self._engine(edges)
        limit = self.threshold + self.tolerance
        batched = engine.distances_from_indices(self._sources)
        pair_distances = batched[self._pair_u_rows, self._pair_w_cols]
        satisfied_mask = pair_distances <= limit
        satisfied_now = int(satisfied_mask.sum())

        if self._use_pruned_scan():
            scan = PairScanAccumulator(
                n, chunk_elements=self.chunk_elements
            )
            for p in np.flatnonzero(~satisfied_mask):
                scan.add_pair(
                    batched[self._pair_u_rows[p]],
                    batched[self._pair_w_rows[p]],
                    limit,
                )
            acc = scan.result()
        else:
            acc = np.zeros((n, n), dtype=np.int32)
            for p in np.flatnonzero(~satisfied_mask):
                du = batched[self._pair_u_rows[p]]
                dw = batched[self._pair_w_rows[p]]
                mask = (du[:, None] + dw[None, :]) <= limit
                acc += mask
                acc += mask.T
                # A pair cannot be double-counted: where both orientations
                # of a candidate satisfy it, the pair is still satisfied
                # just once. Correct for the overlap.
                acc -= mask & mask.T
        acc += satisfied_now
        np.fill_diagonal(acc, satisfied_now)
        return acc

    # ------------------------------------------- restricted candidate scan

    def candidate_universe(
        self, edges: Sequence[IndexPair]
    ) -> Optional[np.ndarray]:
        """Sorted endpoint indices that can carry positive marginal gain.

        A candidate ``(a, b)`` satisfies an unsatisfied pair ``(u, w)``
        only if ``d_F(u, a) <= d_t`` and ``d_F(b, w) <= d_t`` (distances
        are nonnegative, so each term of the satisfying sum is itself
        within the requirement). Any augmented distance within ``d_t``
        decomposes into base-graph hops of at most ``d_t`` whose inner
        stops are placed shortcut endpoints, so every useful endpoint lies
        within **base** distance ``d_t`` of a pair endpoint or of an
        endpoint of *edges* — the ball this method reads off the oracle's
        rows (or, on the hub tier, one cutoff Dijkstra). Candidates
        outside the ball have exactly zero gain, which is why restricting
        generation to it leaves greedy placements unchanged.

        Returns ``None`` when the restriction is disabled or not worth it
        (small graphs below :data:`CANDIDATE_RESTRICT_MIN_N`).
        """
        if not self.restrict_candidates:
            return None
        n = self.n
        if n < CANDIDATE_RESTRICT_MIN_N:
            return None
        limit = self.threshold + self.tolerance
        oracle = self.instance.oracle
        sources = set(self._sources)
        for a, b in edges:
            sources.add(int(a))
            sources.add(int(b))
        if getattr(oracle, "prefers_ball_universe", False):
            # Hub-label tier: a full row query costs the whole label
            # index, while a cutoff Dijkstra costs only the ball — and
            # both enumerate exactly the base-distance d_t-ball.
            return ball_indices(
                self.instance.graph, sorted(sources), limit
            )
        member = np.zeros(n, dtype=bool)
        for src in sorted(sources):
            member |= oracle.row_by_index(src) <= limit
        return np.flatnonzero(member).astype(np.intp)

    def add_candidates_restricted(
        self, edges: Sequence[IndexPair]
    ) -> Optional["tuple[np.ndarray, np.ndarray]"]:
        """Candidate scores over the restricted universe.

        Returns ``(scores, universe)`` where *universe* is
        :meth:`candidate_universe` and *scores* is the ``(r, r)`` block of
        :meth:`add_candidates` at ``np.ix_(universe, universe)`` —
        computed directly at that size, never materializing ``(n, n)``.
        Returns ``None`` when the restriction does not apply; callers fall
        back to the dense scan.
        """
        universe = self.candidate_universe(edges)
        if universe is None:
            return None
        r = int(universe.size)
        engine = self._engine(edges)
        limit = self.threshold + self.tolerance
        # The scan only reads universe columns, and every pair endpoint is
        # itself in the universe (distance 0 to itself), so the narrow
        # (s, r) query serves both the scan rows and the pair distances —
        # the full (s, n) block is never materialized.
        restricted = engine.distances_from_indices_to(
            self._sources, universe
        )
        w_slots = np.searchsorted(universe, self._pair_w_cols)
        pair_distances = restricted[self._pair_u_rows, w_slots]
        satisfied_mask = pair_distances <= limit
        satisfied_now = int(satisfied_mask.sum())
        # Flushing at ~r²/4 buffered cells keeps the transient index
        # buffers well under the (r, r) result size — on the hub tier
        # the whole point is a small peak, and the extra flushes are cheap.
        scan = PairScanAccumulator(
            r, chunk_elements=min(self.chunk_elements, max(r * r // 4, 1))
        )
        for p in np.flatnonzero(~satisfied_mask):
            scan.add_pair(
                restricted[self._pair_u_rows[p]],
                restricted[self._pair_w_rows[p]],
                limit,
            )
        scores = scan.result()
        scores += satisfied_now
        np.fill_diagonal(scores, satisfied_now)
        return scores, universe
