"""``serve_mixed``: a live ``repro serve --jobs 1`` under mixed traffic.

One generator (this process, one asyncio loop) drives the server over two
TCP connections on 127.0.0.1. After set-up, in order:

* replays: fixed sets of requests sent one at a time (``wall_s``);
* ``light`` and ``heavy``: open-loop phases at fixed rates, about 30% and
  75% of one executor's throughput when the benchmark was defined;
* the ladder: fixed rates above ``heavy``, until one misses the latency
  limit or its backlog grows.

Open-loop request times are a seeded Poisson process (the order
statistics of uniform draws over the phase), and each request's latency
is measured from the time it was due, so a stall delays every request
behind it.

Every ``place`` and ``sigma`` answer is compared with the offline library
solve of the same request, and every what-if answer with an offline
:class:`~repro.analysis.planner.PlacementPlanner` replaying the session. A
wrong answer, an error response or a missing answer counts as failed.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import random
import re
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

import common

#: Resident substrates (fixed, so every seed measures the same topology;
#: the seed drives the request stream).
SUBSTRATES: Dict[str, Dict[str, Any]] = {
    "rg100": {"kind": "rg", "seed": 1, "n": 100},
    "rg300": {"kind": "rg", "seed": 2, "n": 300},
    "gowalla": {"kind": "gowalla", "seed": 42},
}
P_T = {"rg100": 0.1, "rg300": 0.1, "gowalla": 0.23}
#: Share of the traffic per substrate: equal, since no client population
#: is known to favour one (an assumption; README, "Request mix").
SUBSTRATE_WEIGHTS = {name: 1 / len(SUBSTRATES) for name in SUBSTRATES}
#: Pairs and budget (m, k) per request. Requests carry their pairs, as a
#: client placing links for its own social pairs would. n=300 uses a
#: smaller request: at m=20, k=4 its sandwich cost is bimodal (25 or
#: 100 ms per pair set), which makes the latency tail depend on which
#: pair sets a run draws.
SIZE = {"rg100": (20, 4), "rg300": (12, 3), "gowalla": (20, 4)}
SOLVER_SEED = 11
EA_PARAMS = {"iterations": 100}

#: Request mix: (kind, share).
MIX = [("place", 0.55), ("place_ea", 0.05), ("sigma", 0.20),
       ("whatif", 0.20)]
#: Pair seeds: a bounded hot pool (repeated pair sets, so engine-cache
#: hits) or a fresh seed. Both are assumptions: half and half, and a pool
#: small enough that hot draws repeat within one replay (README, "Request
#: mix", gives the measured share of repeated pair sets).
HOT_PAIR_SEEDS = 6
HOT_SHARE = 0.5
SESSIONS = {name: f"bench-{name}" for name in SUBSTRATES}

#: Replays: ``REPLAYS`` fixed sets of ``N_REPLAY`` requests, each sent one
#: at a time by one client; ``wall_s`` is the median time to get through
#: a set. (Sent as bursts or at high open-loop rates, the same requests
#: take 20-40% longer or shorter from run to run: README, "Findings".)
REPLAYS = 5
N_REPLAY = 100
#: Open-loop phases: fixed rates (requests/s), about 30% and 75% of the
#: saturated throughput of one executor (a median of about 170 requests/s
#: over eight 200-request bursts of this mix on a 2-CPU machine when the
#: benchmark was defined), and a ladder above them in steps of 15%.
RATE_LIGHT = 50.0
RATE_HEAVY = 125.0
LADDER = [144.0, 165.0, 190.0, 218.0, 251.0]
N_PHASE = 200
#: Latency limit on p95 for goodput and the ladder (README, "Limit").
LIMIT_MS = 250.0
#: Server starts per run; set-up is reported as their median.
SETUPS = 3
#: Requests replayed one at a time at the end of every set-up.
WARM_REQUESTS = 60
WARM_PHASE = 100
ANSWER_GRACE_S = 20.0


# ----------------------------------------------------------- the inputs


class Catalog:
    """Offline copies of the resident substrates: node labels for the
    schedule and the reference solves for verification."""

    def __init__(self) -> None:
        from repro.experiments.workloads import gowalla_workload, rg_workload

        self.workloads = {}
        for name, spec in SUBSTRATES.items():
            if spec["kind"] == "rg":
                self.workloads[name] = rg_workload(
                    seed=spec["seed"], n=spec["n"]
                )
            else:
                self.workloads[name] = gowalla_workload(seed=spec["seed"])
        self.nodes = {
            name: list(workload.graph.nodes)
            for name, workload in self.workloads.items()
        }
        self._pairs: Dict[Tuple[str, Any], List] = {}
        self._answers: Dict[str, Any] = {}

    def pairs(self, name: str, pair_seed: Any) -> List[List[int]]:
        from repro.netgen.pairs import select_important_pairs

        key = (name, pair_seed)
        if key not in self._pairs:
            workload = self.workloads[name]
            self._pairs[key] = [
                [int(u), int(w)] for u, w in select_important_pairs(
                    workload.graph, SIZE[name][0], P_T[name], seed=pair_seed,
                    oracle=workload.oracle,
                )
            ]
        return self._pairs[key]

    # ------------------------------------------------------ verification

    def expected_place(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        from repro.core.problem import MSCInstance
        from repro.core.registry import solve
        from repro.core.substrate import PlacementRequest

        key = json.dumps(payload, sort_keys=True)
        if key not in self._answers:
            name = payload["substrate"]
            request = PlacementRequest(
                [tuple(pair) for pair in payload["pairs"]], payload["k"],
                p_threshold=payload["p_threshold"],
            )
            instance = MSCInstance.from_parts(
                self.workloads[name].substrate(), request
            )
            result = solve(
                payload["solver"], instance, seed=payload["seed"],
                **payload.get("params", {}),
            )
            self._answers[key] = {
                "edges": [[int(u), int(w)] for u, w in result.edges],
                "sigma": int(result.sigma),
                "satisfied": [bool(flag) for flag in result.satisfied],
                "pairs": [[int(u), int(w)] for u, w in instance.pairs],
            }
        return self._answers[key]

    def expected_sigma(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        from repro.core.evaluator import SigmaEvaluator
        from repro.core.problem import MSCInstance
        from repro.core.substrate import PlacementRequest

        name = payload["substrate"]
        workload = self.workloads[name]
        request = PlacementRequest(
            [tuple(pair) for pair in payload["pairs"]],
            len(payload["edges"]),
            p_threshold=payload["p_threshold"],
            require_initially_unsatisfied=False,
            allow_degenerate=True,
        )
        instance = MSCInstance.from_parts(workload.substrate(), request)
        graph = instance.graph
        edges = [
            tuple(sorted((graph.node_index(u), graph.node_index(w))))
            for u, w in payload["edges"]
        ]
        satisfied = SigmaEvaluator(instance).satisfied(edges)
        return {
            "sigma": int(sum(satisfied)),
            "satisfied": [bool(flag) for flag in satisfied],
        }

    def planner(self, name: str):
        from repro.analysis.planner import PlacementPlanner
        from repro.core.substrate import PlacementRequest

        workload = self.workloads[name]
        request = PlacementRequest(
            [tuple(pair) for pair in self.pairs(name, 0)], SIZE[name][1],
            p_threshold=P_T[name],
        )
        return PlacementPlanner.from_parts(workload.substrate(), request)


def _pair_seed(rng: random.Random, fresh: List[int]) -> int:
    if rng.random() < HOT_SHARE:
        return rng.randrange(HOT_PAIR_SEEDS)
    fresh[0] += 1
    return fresh[0]


def _distinct_edges(
    rng: random.Random, nodes: List, count: int
) -> List[List[int]]:
    edges: List[List[int]] = []
    while len(edges) < count:
        edge = sorted(map(int, rng.sample(nodes, 2)))
        if edge not in edges:
            edges.append(edge)
    return edges


def make_requests(
    catalog: Catalog, phase: int, count: int
) -> List[Tuple[Optional[int], List[Dict[str, Any]]]]:
    """The requests of phase number *phase*: ``(connection, payloads)``
    items, ``count`` payloads in all. An ``add`` travels with its
    ``undo``; what-if items are pinned to their session's connection.

    The content is the same for every workload seed, so every run offers
    the same work; the seed decides order and timing (:func:`schedule`).
    """
    rng = random.Random(f"serve_mixed:requests:{phase}")
    fresh = [1000 * (phase + 1)]
    kinds = [kind for kind, _ in MIX]
    shares = [share for _, share in MIX]
    names = list(SUBSTRATE_WEIGHTS)
    weights = [SUBSTRATE_WEIGHTS[name] for name in names]
    items: List[Tuple[Optional[int], List[Dict[str, Any]]]] = []
    sent = 0
    while sent < count:
        kind = rng.choices(kinds, shares)[0]
        name = rng.choices(names, weights)[0]
        spec = SUBSTRATES[name]
        connection = None
        if kind in ("place", "place_ea"):
            payload = {
                "op": "place", "workload": spec, "k": SIZE[name][1],
                "p_threshold": P_T[name], "seed": SOLVER_SEED,
                "pairs": catalog.pairs(name, _pair_seed(rng, fresh)),
                "solver": "sandwich",
            }
            if kind == "place_ea":
                payload.update(solver="ea", params=EA_PARAMS)
            payloads = [payload]
        elif kind == "sigma":
            payloads = [{
                "op": "sigma", "workload": spec, "p_threshold": P_T[name],
                "pairs": catalog.pairs(name, _pair_seed(rng, fresh)),
                "edges": _distinct_edges(
                    rng, catalog.nodes[name], SIZE[name][1]
                ),
            }]
        else:
            session = SESSIONS[name]
            connection = names.index(name) % 2
            if rng.random() < 0.5:
                payloads = [{"op": "whatif", "session": session,
                             "action": "suggest", "count": 3}]
            else:
                u, v = rng.sample(catalog.nodes[name], 2)
                payloads = [
                    {"op": "whatif", "session": session, "action": "add",
                     "u": int(u), "v": int(v)},
                    {"op": "whatif", "session": session, "action": "undo"},
                ]
        for payload in payloads:
            payload["substrate"] = name
        items.append((connection, payloads))
        sent += len(payloads)
    return items


def schedule(
    items: List, rate: float, seed: int, phase: int
) -> List[Tuple[float, int, List[Dict[str, Any]]]]:
    """Seeded open-loop schedule: *items* shuffled, spread over
    ``payloads / rate`` seconds as a Poisson process conditioned on its
    count; ``(offset_s, connection, payloads)`` in send order."""
    rng = random.Random(f"serve_mixed:{seed}:{phase}")
    order = list(items)
    rng.shuffle(order)
    span = sum(len(payloads) for _, payloads in order) / rate
    offsets = sorted(rng.uniform(0.0, span) for _ in order)
    return [
        (offset, rng.randrange(2) if connection is None else connection,
         payloads)
        for offset, (connection, payloads) in zip(offsets, order)
    ]


# ----------------------------------------------------------- the server


def batch_window() -> float:
    """The server's admission-batch window, seconds (0 if it has none)."""
    from repro.service import server

    return float(getattr(server, "DEFAULT_BATCH_WINDOW", 0.0))


class Server:
    """A ``repro serve`` subprocess (or the traced launcher)."""

    def __init__(self, traced: bool) -> None:
        if traced:
            command = [sys.executable,
                       str(common.BENCH_DIR / "serve_launcher.py")]
        else:
            command = [sys.executable, "-m", "repro.cli", "serve",
                       "--port", "0", "--jobs", "1"]
        self.spawned = time.monotonic()
        self.proc = subprocess.Popen(
            command, cwd=common.ROOT, env=common.child_env(),
            stdout=subprocess.PIPE, text=True,
        )
        banner = self.proc.stdout.readline()
        match = re.search(r"listening on [\d.]+:(\d+)", banner)
        if match is None:
            self.kill()
            raise RuntimeError(f"server printed no banner: {banner!r}")
        self.port = int(match.group(1))
        self.rss_mb: Optional[float] = None
        self.trace: Optional[Dict[str, Any]] = None

    def wait(self) -> None:
        """Reap the stopped server, keeping its peak RSS and trace."""
        rest = self.proc.stdout.read()
        _, status, usage = _wait4(self.proc.pid)
        self.proc.returncode = status
        self.rss_mb = usage.ru_maxrss / 1024.0
        for line in rest.splitlines():
            if line.startswith("TRACE "):
                self.trace = json.loads(line[len("TRACE "):])
        if status != 0:
            raise RuntimeError(f"server exited with status {status}")

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


def _wait4(pid: int):
    for _ in range(300):
        waited, status, usage = os.wait4(pid, os.WNOHANG)
        if waited:
            return waited, os.waitstatus_to_exitcode(status), usage
        time.sleep(0.1)
    raise RuntimeError("server did not stop after shutdown")


# ------------------------------------------------------------ the client


class Record:
    """One request: what was sent, when it was due, and its answer."""

    __slots__ = ("rid", "payload", "due", "sent", "recv", "response")

    def __init__(self, rid: int, payload: Dict[str, Any], due: float):
        self.rid, self.payload, self.due = rid, payload, due
        self.sent = self.recv = None
        self.response = None

    def latency_ms(self) -> float:
        return (self.recv - self.due) * 1e3


class Generator:
    """Load generator over two connections (one asyncio loop)."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.records: Dict[int, Record] = {}
        self._next = 0
        self._waiting: Dict[int, asyncio.Future] = {}

    async def open(self) -> None:
        self.conns = [
            await asyncio.open_connection("127.0.0.1", self.port,
                                          limit=2 ** 24)
            for _ in range(2)
        ]
        self.readers = [
            asyncio.create_task(self._read(reader))
            for reader, _ in self.conns
        ]

    async def _read(self, reader: asyncio.StreamReader) -> None:
        loop = asyncio.get_running_loop()
        while True:
            line = await reader.readline()
            if not line:
                return
            now = loop.time()
            response = json.loads(line)
            record = self.records.get(response.get("id"))
            if record is not None and record.recv is None:
                record.recv = now
                record.response = response
            future = self._waiting.pop(response.get("id"), None)
            if future is not None and not future.done():
                future.set_result(response)

    def _send(self, connection: int, record: Record) -> None:
        wire = {k: v for k, v in record.payload.items() if k != "substrate"}
        wire["id"] = record.rid
        self.conns[connection][1].write(
            (json.dumps(wire) + "\n").encode("utf-8")
        )

    def _record(self, payload: Dict[str, Any], due: float) -> Record:
        self._next += 1
        record = Record(self._next, payload, due)
        self.records[record.rid] = record
        return record

    async def request(self, payload: Dict[str, Any]) -> Record:
        """One request over connection 0, awaited; errors are recorded."""
        loop = asyncio.get_running_loop()
        record = self._record(payload, loop.time())
        future = loop.create_future()
        self._waiting[record.rid] = future
        record.sent = loop.time()
        self._send(0, record)
        await self.conns[0][1].drain()
        await future
        return record

    async def call(self, payload: Dict[str, Any]) -> Any:
        """Set-up and control requests: the result, or raise."""
        response = (await self.request(payload)).response
        if not response.get("ok"):
            raise RuntimeError(f"{payload.get('op')} failed: {response}")
        return response["result"]

    async def phase(self, schedule) -> Dict[str, Any]:
        """Send *schedule* open-loop; wait for every answer (or give up
        :data:`ANSWER_GRACE_S` after the last due time)."""
        loop = asyncio.get_running_loop()
        start = loop.time() + 0.05
        records: List[Record] = []
        lags, in_flight = [], []
        for offset, connection, payloads in schedule:
            due = start + offset
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            now = loop.time()
            for payload in payloads:
                record = self._record(payload, due)
                record.sent = now
                self._send(connection, record)
                records.append(record)
            lags.append(now - due)
            in_flight.append(sum(1 for r in records if r.recv is None))
            await self.conns[connection][1].drain()
        deadline = loop.time() + ANSWER_GRACE_S
        while (any(r.recv is None for r in records)
               and loop.time() < deadline):
            await asyncio.sleep(0.01)
        return {"records": records, "lags": lags, "in_flight": in_flight}

    async def close(self) -> None:
        for _, writer in self.conns:
            writer.close()
        for task in self.readers:
            task.cancel()
        await asyncio.gather(*self.readers, return_exceptions=True)


# --------------------------------------------------------------- phases


async def warm_up(generator: Generator, catalog: Catalog) -> None:
    """Build every substrate, open the what-if sessions, send one request
    of every kind to each substrate, then :data:`WARM_REQUESTS` mixed
    requests one at a time (the first few dozen large bound computations
    after start-up run several times slower than later ones)."""
    for name, spec in SUBSTRATES.items():
        place = {
            "op": "place", "workload": spec, "k": SIZE[name][1],
            "p_threshold": P_T[name], "pairs": catalog.pairs(name, 0),
            "seed": SOLVER_SEED, "solver": "sandwich",
        }
        session = SESSIONS[name]
        nodes = catalog.nodes[name]
        for payload in (
            place,
            {**place, "solver": "ea", "params": EA_PARAMS},
            {"op": "sigma", "workload": spec, "p_threshold": P_T[name],
             "pairs": catalog.pairs(name, 0),
             "edges": _distinct_edges(random.Random(name), nodes,
                                      SIZE[name][1])},
            {"op": "whatif", "session": session, "action": "open",
             "workload": spec, "k": SIZE[name][1],
             "p_threshold": P_T[name],
             "pairs": catalog.pairs(name, 0)},
            {"op": "whatif", "session": session, "action": "suggest",
             "count": 3},
        ):
            await generator.call(payload)
    for _, payloads in make_requests(catalog, WARM_PHASE, WARM_REQUESTS):
        for payload in payloads:
            await generator.call(payload)


@contextlib.asynccontextmanager
async def live_server(traced: bool, catalog: Catalog):
    """A started, warmed server: ``(server, generator, set-up seconds)``.
    Shut down through the ``shutdown`` op on exit; killed on error."""
    server = Server(traced)
    try:
        generator = Generator(server.port)
        await generator.open()
        await warm_up(generator, catalog)
        yield server, generator, time.monotonic() - server.spawned
        await generator.call({"op": "shutdown"})
        await generator.close()
        server.wait()
    finally:
        server.kill()


def rung_ok(phase: Dict[str, Any], failed: set) -> bool:
    """Within the limit at p95 (failures count as misses) and no backlog
    growth (mean in-flight over the last third of sends at most twice the
    first third's plus two)."""
    latencies = [
        float("inf") if r.recv is None or r in failed
        else r.latency_ms() for r in phase["records"]
    ]
    third = max(1, len(phase["in_flight"]) // 3)
    first = sum(phase["in_flight"][:third]) / third
    last = sum(phase["in_flight"][-third:]) / third
    return (common.percentile(latencies, 95) <= LIMIT_MS
            and last <= 2 * first + 2)


def verify(catalog: Catalog, records: List[Record]) -> set:
    """Requests of one server answered wrongly, with an error, or not at
    all.

    What-if answers are replayed per session in send order on an offline
    planner (sessions are pinned to one connection, so send order is the
    server's execution order).
    """
    failed = set()
    planners = {name: catalog.planner(name) for name in SUBSTRATES}
    for record in sorted(records, key=lambda r: r.rid):
        response = record.response
        if response is None or not response.get("ok"):
            failed.add(record)
            continue
        got = response["result"]
        payload = record.payload
        if payload["op"] == "place":
            expected = catalog.expected_place(payload)
        elif payload["op"] == "sigma":
            expected = catalog.expected_sigma(payload)
        else:
            planner = planners[payload["substrate"]]
            action = payload["action"]
            if action == "suggest":
                expected = {"suggestions": [
                    {"edge": [int(u), int(v)], "sigma": int(value)}
                    for (u, v), value in planner.suggest(count=3)
                ]}
            elif action == "add":
                expected = {"sigma": int(planner.add(payload["u"],
                                                     payload["v"]))}
            else:
                expected = {"undone": planner.undo(),
                            "sigma": planner.sigma}
        if any(got.get(field) != value for field, value in expected.items()):
            failed.add(record)
    return failed


def repeated_share(records) -> float:
    """Share of the ``place`` and ``sigma`` requests a server was sent
    whose substrate and pair set it had been sent before."""
    seen, repeated, total = set(), 0, 0
    for record in sorted(records, key=lambda r: r.rid):
        payload = record.payload
        if payload["op"] not in ("place", "sigma"):
            continue
        key = json.dumps([payload["workload"], payload["pairs"]],
                         sort_keys=True)
        total += 1
        repeated += key in seen
        seen.add(key)
    return repeated / max(total, 1)


def _delta(after: Dict, before: Dict) -> Dict[str, float]:
    batching = {k: after["batching"][k] - before["batching"][k]
                for k in ("batches", "requests")}
    lru = {k: after["substrates"][k] - before["substrates"][k]
           for k in ("hits", "misses")}
    return {**batching, **lru}


async def replay(generator: Generator, plan) -> Dict[str, Any]:
    """Closed loop: send *plan*'s requests one at a time, in order."""
    start = time.monotonic()
    records = []
    for _, _, payloads in plan:
        for payload in payloads:
            records.append(await generator.request(payload))
    return {"records": records, "start": start, "end": time.monotonic()}


async def measure(seed: int, trace: bool) -> Dict[str, Any]:
    """Everything one run does against live servers."""
    catalog = Catalog()
    replay_plans = [
        schedule(make_requests(catalog, index, N_REPLAY), 1.0, seed, index)
        for index in range(REPLAYS)
    ]
    rates = [("light", RATE_LIGHT), ("heavy", RATE_HEAVY)]
    rates += [(f"rung{rate:g}", rate) for rate in LADDER]
    plans = {
        name: schedule(make_requests(catalog, REPLAYS + index, N_PHASE),
                       rate, seed, REPLAYS + index)
        for index, (name, rate) in enumerate(rates)
    }
    speed = common.SpeedLog()
    out: Dict[str, Any] = {"setups": [], "phases": {}, "ladder": [],
                           "speed": speed}

    async def replays(generator: Generator) -> List[Dict[str, Any]]:
        done = []
        for plan in replay_plans:
            speed.mark()
            done.append(await replay(generator, plan))
        speed.mark()
        return done

    speed.mark(warm=True)
    if trace:
        # Untraced reference for the tracing overhead: the same replays.
        async with live_server(False, catalog) as (_, generator, _):
            out["plain_replays"] = await replays(generator)
    else:
        for _ in range(SETUPS - 1):
            async with live_server(False, catalog) as (_, _, setup):
                out["setups"].append(setup)
    async with live_server(trace, catalog) as (server, generator, setup):
        out["setups"].append(setup)
        out["replays"] = await replays(generator)
        out["stats"] = {}
        for name in ("light", "heavy"):
            before = await generator.call({"op": "stats"})
            out["phases"][name] = await generator.phase(plans[name])
            out["stats"][name] = _delta(
                await generator.call({"op": "stats"}), before
            )
        for rate in [] if trace else LADDER:
            phase = await generator.phase(plans[f"rung{rate:g}"])
            out["ladder"].append((rate, phase))
            if not rung_ok(phase, set()):
                break
        out["repeated_pair_share"] = repeated_share(generator.records.values())
    out["rss_mb"] = server.rss_mb
    out["trace"] = server.trace
    measured = [r for phase in out["replays"] for r in phase["records"]]
    measured += [r for phase in out["phases"].values()
                 for r in phase["records"]]
    measured += [r for _, phase in out["ladder"] for r in phase["records"]]
    out["failed"] = verify(catalog, measured)
    if trace:
        plain = [r for phase in out["plain_replays"] for r in phase["records"]]
        measured += plain
        out["failed"] |= verify(catalog, plain)
    out["measured"] = measured
    return out


# -------------------------------------------------------------- metrics


def run(seed: int, trace: bool) -> common.Outcome:
    """Run the workload against live servers and score it."""
    out = asyncio.run(measure(seed, trace))
    outcome = common.Outcome()
    failed = out["failed"]
    outcome.attempted = len(out["measured"])
    outcome.failed = len(failed)
    phases = out["phases"]
    counts = {}
    named = [(f"replay{i}", phase) for i, phase in enumerate(out["replays"])]
    named += list(phases.items())
    named += [(f"rung{rate:g}", phase) for rate, phase in out["ladder"]]
    for name, phase in named:
        records = phase["records"]
        bad = sum(1 for r in records if r in failed)
        counts[name] = {"sent": len(records),
                        "succeeded": len(records) - bad, "failed": bad}
        if "lags" in phase:  # open-loop phases
            counts[name]["gen_lag_ms_p95"] = common.percentile(
                phase["lags"], 95) * 1e3
            counts[name]["in_flight_max"] = max(phase["in_flight"])
    factor = out["speed"].factor()
    window = batch_window()

    def scaled(seconds: float, requests: int) -> float:
        # Each request waits out the admission window asleep; only the
        # rest of the time runs at the host's speed.
        idle = min(seconds, requests * window)
        return idle + (seconds - idle) * factor

    walls = [scaled(p["end"] - p["start"], len(p["records"]))
             for p in out["replays"]]
    outcome.detail.update(
        phases=counts, batching=out["stats"], speed_factor=factor,
        setups_s=out["setups"],
        repeated_pair_share=out["repeated_pair_share"],
        measured_wall_s=[p["end"] - p["start"] for p in out["replays"]],
    )
    if trace:
        plain = common.median(
            scaled(p["end"] - p["start"], len(p["records"]))
            for p in out["plain_replays"]
        )
        outcome.metrics = service_layers(out, failed)
        outcome.metrics["trace.overhead_s"] = common.median(walls) - plain
        return outcome

    def latencies(name: str) -> List[float]:
        return [
            float("inf") if r.recv is None or r in failed
            else r.latency_ms() for r in phases[name]["records"]
        ]

    good = sum(1 for latency in latencies("heavy") if latency <= LIMIT_MS)
    passed = []
    for rate, phase in [(RATE_LIGHT, phases["light"]),
                        (RATE_HEAVY, phases["heavy"])] + out["ladder"]:
        if not rung_ok(phase, failed):
            break
        passed.append(rate)
    outcome.detail["ladder_passed"] = passed
    outcome.metrics = {
        "setup_s": common.median(out["setups"]),
        "wall_s": common.median(walls),
        "peak_rss_mb": out["rss_mb"],
    }
    outcome.extra = {
        "p50_ms.light": common.percentile(latencies("light"), 50),
        "p95_ms.light": common.percentile(latencies("light"), 95),
        "p50_ms.heavy": common.percentile(latencies("heavy"), 50),
        "p95_ms.heavy": common.percentile(latencies("heavy"), 95),
        "goodput_rps.heavy": good / (
            len(phases["heavy"]["records"]) / RATE_HEAVY
        ),
        "max_rate_rps": max(passed, default=0.0),
    }
    return outcome


def service_layers(out, failed) -> Dict[str, float]:
    """Per-layer metrics of a traced run (server spans + generator)."""
    trace = out["trace"]
    metrics = common.layer_metrics(trace, 0.0)
    handle = dict((rid, s * 1e3) for rid, s in trace["handle"])
    execute = dict((rid, s * 1e3) for rid, s in trace["exec"])
    records = [r for phase in out["phases"].values()
               for r in phase["records"]
               if r.rid in handle and r not in failed]
    handles = [handle[r.rid] for r in records]
    execs = [execute.get(r.rid, 0.0) for r in records]
    queues = [h - e for h, e in zip(handles, execs)]
    transport = [(r.recv - r.sent) * 1e3 - handle[r.rid] for r in records]
    stats = {key: sum(phase[key] for phase in out["stats"].values())
             for key in ("batches", "requests", "hits", "misses")}
    lags = [lag for phase in out["phases"].values() for lag in phase["lags"]]
    metrics.update({
        "service.handle_ms.p50": common.percentile(handles, 50),
        "service.handle_ms.p95": common.percentile(handles, 95),
        "service.exec_ms.p50": common.percentile(execs, 50),
        "service.exec_ms.p95": common.percentile(execs, 95),
        "service.queue_ms.p50": common.percentile(queues, 50),
        "service.queue_ms.p95": common.percentile(queues, 95),
        "service.transport_ms.p50": common.percentile(transport, 50),
        "service.batch_size_mean": stats["requests"] / max(stats["batches"],
                                                           1),
        "service.lru_hit_ratio": stats["hits"] / max(
            stats["hits"] + stats["misses"], 1),
        "service.backlog_max": max(
            max(phase["in_flight"], default=0)
            for phase in out["phases"].values()
        ),
        "service.gen_lag_ms.p95": common.percentile(lags, 95) * 1e3,
    })
    return metrics
