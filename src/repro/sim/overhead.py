"""Transmission-overhead accounting: why flooding is not a free lunch.

The delivery simulator shows flooding delivers well even without shortcut
edges; the paper's §I argument against it is *cost*: "such redundant
transmission may further degrade the communication of other social pairs".
This module quantifies that cost per delivery attempt:

* ``best_path`` / ``multipath`` — transmissions = links of the attempted
  path(s) up to (and including) the first failed link; retrying stops at
  the first surviving path for multipath.
* ``flooding`` — every node that receives the message rebroadcasts once,
  so transmissions = surviving links incident to the source's reachable
  component (each such link carries the message once).

The headline metric is transmissions **per successful delivery** — the
overhead a network engineer would weigh against placing a reliable link.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.graph.graph import Node, WirelessGraph
from repro.sim.delivery import (
    DeliverySimulator,
    STRATEGIES,
    _component_labels,
)
from repro.sim.sampling import sample_failed_edges
from repro.exceptions import SolverError
from repro.types import NodePair
from repro.util.rng import SeedLike, ensure_rng
from repro.util.validation import check_positive_int


@dataclass(frozen=True)
class OverheadReport:
    """Transmission accounting for one strategy over all pairs/trials.

    Attributes:
        strategy: forwarding strategy measured.
        trials: failure rounds simulated.
        deliveries: successful deliveries across pairs and trials.
        transmissions: total link transmissions spent.
    """

    strategy: str
    trials: int
    deliveries: int
    transmissions: int

    @property
    def per_delivery(self) -> float:
        """Transmissions per successful delivery (inf when none)."""
        if self.deliveries == 0:
            return float("inf")
        return self.transmissions / self.deliveries


def _path_transmissions(path: Sequence[Node], failed) -> Tuple[int, bool]:
    """Transmissions consumed sending along *path*: hops up to and
    including the first failed link. Returns (count, delivered)."""
    sent = 0
    for a, b in zip(path, path[1:]):
        sent += 1
        if (a, b) in failed or (b, a) in failed:
            return sent, False
    return sent, True


def _flood_pass(
    graph: WirelessGraph, failed
) -> Tuple[List[int], List[int]]:
    """Flooding outcome of one trial for every pair at once.

    Returns ``(labels, links)``: the surviving-graph component label per
    dense index, and per component the number of surviving links inside
    it. Every node a flood reaches broadcasts once, so a flood from
    ``source`` crosses ``links[labels[source]]`` links and reaches
    ``target`` iff the two labels are equal. *failed* holds each failed
    link once, in either orientation (as :func:`sample_failed_edges`
    returns them).
    """
    labels = _component_labels(graph, failed)
    # Every surviving link lies inside one component, so twice its
    # surviving links = its nodes' degrees minus their failed link ends.
    ends = [0] * (max(labels, default=-1) + 1)
    for index, label in enumerate(labels):
        ends[label] += len(graph.neighbors_by_index(index))
    for a, b in failed:
        ends[labels[graph.node_index(a)]] -= 1
        ends[labels[graph.node_index(b)]] -= 1
    return labels, [count // 2 for count in ends]


def measure_overhead(
    simulator: DeliverySimulator,
    pairs: Sequence[NodePair],
    *,
    strategy: str = "flooding",
    trials: int = 200,
    seed: SeedLike = None,
    multipath_k: int = 3,
) -> OverheadReport:
    """Simulate *trials* rounds and account transmissions for *strategy*.

    Uses the simulator's augmented graph (shortcut edges included, never
    failing)."""
    check_positive_int(trials, "trials")
    if strategy not in STRATEGIES:
        raise SolverError(
            f"unknown strategy {strategy!r}; "
            f"available: {', '.join(STRATEGIES)}"
        )
    rng = ensure_rng(seed)
    graph = simulator.graph
    routes = simulator._routes(pairs, strategy, multipath_k)
    pair_indices = simulator._pair_indices(pairs)

    deliveries = 0
    transmissions = 0
    for _ in range(trials):
        failed = sample_failed_edges(graph, rng)
        if strategy == "flooding":
            labels, links = _flood_pass(graph, failed)
            for indices in pair_indices:
                # A pair that lost an endpoint sends nothing and never
                # delivers, as under the routed strategies.
                if indices is None:
                    continue
                source, target = indices
                transmissions += links[labels[source]]
                deliveries += int(labels[source] == labels[target])
        else:
            for i, pair_routes in enumerate(routes):
                if pair_routes is None:
                    continue
                delivered = False
                for path in pair_routes:
                    spent, ok = _path_transmissions(path, failed)
                    transmissions += spent
                    if ok:
                        delivered = True
                        break  # stop at the first surviving path
                deliveries += int(delivered)
    return OverheadReport(
        strategy=strategy,
        trials=trials,
        deliveries=deliveries,
        transmissions=transmissions,
    )


def compare_overheads(
    graph: WirelessGraph,
    pairs: Sequence[NodePair],
    shortcuts: Sequence[NodePair] = (),
    *,
    trials: int = 200,
    seed: SeedLike = None,
) -> List[OverheadReport]:
    """Overhead reports for all three strategies on the same trials
    (independent streams per strategy, same seed base)."""
    simulator = DeliverySimulator(graph, shortcuts)
    return [
        measure_overhead(
            simulator,
            pairs,
            strategy=strategy,
            trials=trials,
            seed=(seed, strategy),
        )
        for strategy in STRATEGIES
    ]
