"""One measured process of an offline workload.

Run by ``run.py`` as a fresh interpreter per pass, so every campaign pass
pays what a user's ``repro run`` pays: imports, workload builds and cold
engine caches. Prints one JSON line with monotonic timestamps (comparable
with the parent's), result digests, the process's peak RSS and, with
``--trace 1``, the tracer summary.

Usage (normally only through ``run.py``)::

    python perfbench/worker.py --workload paper_campaign --seed 3 --trace 0
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import SpeedLog, digest, require_source  # noqa: E402

#: ``paper_campaign``: the paper's tables and figures, through the
#: runner's own ``run_all_timed``. fig2 (about 4 s), fig3 (about 45 s) and
#: fig5 (about 290 s) run at quick scale so that two passes fit a run
#: of about half a minute (README, "Scale").
CAMPAIGN = [
    ("paper", ["table1", "table2", "fig1", "fig4"]),
    ("quick", ["fig2", "fig3", "fig5"]),
]

#: ``supplementary``: every supplementary study at paper scale.
SUPPLEMENTARY = [
    ("paper", [
        "ablation_sandwich", "ablation_aea", "ablation_ea",
        "ablation_warmstart", "msc_cn", "delivery", "prediction",
        "generality", "replanning", "robustness",
    ]),
]

CAMPAIGNS = {"paper_campaign": CAMPAIGN, "supplementary": SUPPLEMENTARY}

#: ``large_n``: the scaled RG family, (n, pair sets per size).
LARGE_N_SIZES = [(2000, 3), (5000, 3), (20000, 2)]
LARGE_N_P_T = 0.03
LARGE_N_M = 60
LARGE_N_K = 5
LARGE_N_SETUPS = 3


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ------------------------------------------------------------- campaigns


def campaign_pass(workload: str, seed: int, speed: SpeedLog) -> dict:
    """One pass, one experiment per ``run_all_timed`` call, with a host
    speed mark after each call (README, "Reference host speed"). ``wall``
    is the time spent in the calls; ``elapsed`` holds the runner's own
    per-experiment seconds."""
    from repro.experiments import runner

    digests, elapsed, wall = {}, {}, 0.0
    for scale, names in CAMPAIGNS[workload]:
        for name in names:
            start = time.monotonic()
            (result, seconds), = runner.run_all_timed(
                scale=scale, seed=seed, names=[name]
            )
            wall += time.monotonic() - start
            speed.mark()
            key = f"{scale}:{name}"
            digests[key] = digest(result.to_json())
            elapsed[key] = seconds
    return {"digests": digests, "elapsed": elapsed, "wall": wall}


# --------------------------------------------------------------- large n


def large_n_graphs() -> tuple:
    """The graph of every size, through the program's generator, and the
    seconds the generation took (``setup_s`` counts only this).

    The graphs are the same for every seed, so set-up time and memory do
    not depend on it."""
    from repro.netgen import geometric

    graphs, seconds = [], 0.0
    for n, _ in LARGE_N_SIZES:
        start = time.perf_counter()
        network = geometric.random_geometric_network(
            n,
            radius=0.2 * math.sqrt(100 / n),
            max_link_failure=0.08,
            seed=("large_n", n),
        )
        seconds += time.perf_counter() - start
        graphs.append(network.graph)
    return graphs, seconds


def large_n_inputs(seed: int, graphs: list) -> list:
    """Violating pair sets for every size, drawn here with one scipy
    Dijkstra batch per block of sources; the seed draws them."""
    import numpy as np
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra

    from repro.failure.models import failure_to_length

    limit = failure_to_length(LARGE_N_P_T) * (1 + 1e-6)
    inputs = []
    for (n, sets), graph in zip(LARGE_N_SIZES, graphs):
        size = graph.number_of_nodes()
        rows, cols, lengths = [], [], []
        for u, v, length in graph.edges:
            iu, iv = graph.node_index(u), graph.node_index(v)
            rows += [iu, iv]
            cols += [iv, iu]
            lengths += [max(length, 1e-300)] * 2
        adjacency = csr_matrix((lengths, (rows, cols)), shape=(size, size))
        for index in range(sets):
            rng = np.random.default_rng([seed, n, index])
            order = rng.permutation(size)
            pairs, seen = [], set()
            for block in range(0, size, LARGE_N_M):
                sources = order[block:block + LARGE_N_M]
                for row, iu in zip(dijkstra(adjacency, indices=sources),
                                   sources):
                    candidates = np.flatnonzero(row > limit)
                    if len(pairs) == LARGE_N_M or candidates.size == 0:
                        continue
                    iw = int(candidates[rng.integers(candidates.size)])
                    key = (min(int(iu), iw), max(int(iu), iw))
                    if key in seen:
                        continue
                    seen.add(key)
                    pairs.append(
                        (graph.index_node(int(iu)), graph.index_node(iw))
                    )
                if len(pairs) == LARGE_N_M:
                    break
            inputs.append((f"n{n}:set{index}", graph, pairs))
    return inputs


def large_n_pass(inputs: list) -> dict:
    """One one-shot placement per input, timed separately."""
    from repro.core import evaluator, greedy, problem

    digests, elapsed = {}, {}
    for key, graph, pairs in inputs:
        start = time.perf_counter()
        instance = problem.MSCInstance(
            graph, pairs, k=LARGE_N_K, p_threshold=LARGE_N_P_T,
            oracle="auto",
        )
        placement = greedy.greedy_placement(
            evaluator.SigmaEvaluator(instance), LARGE_N_K
        )
        elapsed[key] = time.perf_counter() - start
        digests[key] = digest([[int(a), int(b)] for a, b in placement])
    return {"digests": digests, "elapsed": elapsed}


# ------------------------------------------------------------------ main


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(CAMPAIGNS) + ["large_n"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="large_n: keep making passes this long")
    parser.add_argument("--setups", type=int, default=LARGE_N_SETUPS,
                        help="large_n: how many times to generate the graphs")
    parser.add_argument("--setup-only", action="store_true",
                        help="exit once imports are done (set-up probe)")
    args = parser.parse_args()

    require_source()
    from repro.experiments import runner  # noqa: F401  (the heavy import)

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.install()
    out = {"ready": time.monotonic()}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    if args.workload in CAMPAIGNS:
        speed = SpeedLog()
        speed.mark(warm=True)
        out["passes"] = [campaign_pass(args.workload, args.seed, speed)]
        out["speed"] = speed.samples
    else:
        setups, graphs = [], None
        for _ in range(args.setups):
            graphs = None  # never hold two sets of graphs at once
            graphs, seconds = large_n_graphs()
            setups.append(seconds)
        out["setups"] = setups
        inputs = large_n_inputs(args.seed, graphs)
        speed = SpeedLog()
        speed.mark(warm=True)
        out["passes"] = []
        deadline = time.monotonic() + args.seconds
        while not out["passes"] or time.monotonic() < deadline:
            out["passes"].append(large_n_pass(inputs))
            speed.mark()
        out["speed"] = speed.samples
    out["rss_mb"] = rss_mb()
    if tracer is not None:
        out["trace"] = tracer.summary()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
