"""End-to-end and per-layer benchmark of the MSC reproduction.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper_campaign --seed 1 \\
        --seconds 6 --trace 0

Workloads: ``paper_campaign``, ``supplementary``, ``serve_mixed``,
``large_n`` (see ``perfbench/README.md``). With ``--trace 0`` the run is
untraced and reports the end-to-end metrics; with ``--trace 1`` it makes
one untraced and one traced measurement and reports the per-layer metrics
plus the tracing overhead. Every line before the last is for people; the
last line is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``. Exit status 0 means the run completed (``correct`` says
whether every output matched); any other status means no result.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

WORKLOADS = ("paper_campaign", "supplementary", "serve_mixed", "large_n")

#: Interpreter-and-import set-ups per offline run (a campaign's passes,
#: topped up with import-only probes): reported as their median.
SETUP_SAMPLES = 7
#: Fewest campaign passes per run: two, so that one slow pass moves the
#: figure by half; a third would lengthen the run by a third (a full
#: comparison has to fit in under an hour, README "Scale"). One
#: supplementary pass already takes longer than ``--seconds``.
MIN_PASSES = {"paper_campaign": 2, "supplementary": 1}
CHILD_TIMEOUT = 170


# ------------------------------------------------------------- children


def run_worker(args: List[str]) -> Tuple[float, Dict[str, Any]]:
    """Run ``worker.py`` once; returns (monotonic spawn time, its JSON)."""
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(common.BENCH_DIR / "worker.py"), *args],
        cwd=common.ROOT,
        env=common.child_env(),
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"worker {args} exited {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    return spawned, json.loads(proc.stdout.strip().splitlines()[-1])


def campaign_wall(out: Dict[str, Any]) -> float:
    """A campaign worker's pass, at reference host speed."""
    return out["passes"][0]["wall"] * common.SpeedLog(out["speed"]).factor()


def large_n_wall(out: Dict[str, Any], one: Dict[str, Any]) -> float:
    """One ``large_n`` pass of a worker, at reference host speed."""
    return sum(one["elapsed"].values()) * common.SpeedLog(
        out["speed"]).factor()


def setup_probes(workload: str, count: int) -> List[float]:
    """Set-up seconds of *count* import-only worker runs."""
    samples = []
    for _ in range(count):
        spawned, out = run_worker(
            ["--workload", workload, "--seed", "0", "--setup-only"]
        )
        samples.append(out["ready"] - spawned)
    return samples


# ------------------------------------------------------------ workloads


def campaign(workload: str, seed: int, seconds: float, trace: bool,
             reference: Dict[str, str]) -> common.Outcome:
    outcome = common.Outcome()
    base = ["--workload", workload, "--seed", str(seed)]
    if trace:
        _, plain = run_worker(base + ["--trace", "0"])
        _, traced = run_worker(base + ["--trace", "1"])
        for out in (plain, traced):
            outcome.check(out["passes"][0]["digests"], reference)
        plain_wall = campaign_wall(plain)
        traced_wall = campaign_wall(traced)
        metrics = common.layer_metrics(
            traced["trace"], traced["passes"][0]["wall"]
        )
        for key, value in plain["passes"][0]["elapsed"].items():
            metrics[f"experiments.{key.split(':')[1]}_s"] = value
        metrics["trace.overhead_s"] = traced_wall - plain_wall
        outcome.metrics = metrics
        outcome.detail["untraced_wall_s"] = plain_wall
        outcome.detail["traced_wall_s"] = traced_wall
        outcome.detail["trace_missing"] = traced["trace"]["missing"]
        return outcome

    runs = []
    started = time.monotonic()
    while (len(runs) < MIN_PASSES[workload]
           or time.monotonic() - started < seconds):
        runs.append(run_worker(base + ["--trace", "0"]))
    setups = [out["ready"] - spawned for spawned, out in runs]
    setups += setup_probes(workload, max(0, SETUP_SAMPLES - len(runs)))
    for _, out in runs:
        outcome.check(out["passes"][0]["digests"], reference)
    outcome.metrics = {
        "setup_s": common.median(setups),
        "wall_s": common.median(campaign_wall(out) for _, out in runs),
        "peak_rss_mb": common.median(out["rss_mb"] for _, out in runs),
    }
    outcome.detail.update(
        passes=len(runs), setups_s=setups,
        measured_wall_s=[out["passes"][0]["wall"] for _, out in runs],
        speed_factor=[common.SpeedLog(out["speed"]).factor()
                      for _, out in runs],
    )
    return outcome


def large_n(seed: int, seconds: float, trace: bool,
            reference: Dict[str, str]) -> common.Outcome:
    outcome = common.Outcome()
    base = ["--workload", "large_n", "--seed", str(seed)]
    if trace:
        _, plain = run_worker(base + ["--trace", "0", "--setups", "1"])
        _, traced = run_worker(base + ["--trace", "1", "--setups", "1"])
        walls = []
        for out in (plain, traced):
            outcome.check(out["passes"][0]["digests"], reference)
            walls.append(large_n_wall(out, out["passes"][0]))
        metrics = common.layer_metrics(traced["trace"], 0.0)
        metrics["trace.overhead_s"] = walls[1] - walls[0]
        outcome.metrics = metrics
        outcome.detail["untraced_wall_s"], outcome.detail["traced_wall_s"] = (
            walls
        )
        outcome.detail["trace_missing"] = traced["trace"]["missing"]
        return outcome

    spawned, out = run_worker(base + ["--seconds", str(seconds)])
    walls = []
    for one in out["passes"]:
        outcome.check(one["digests"], reference)
        walls.append(large_n_wall(out, one))
    imports = [out["ready"] - spawned]
    imports += setup_probes("large_n", SETUP_SAMPLES - 1)
    outcome.metrics = {
        "setup_s": common.median(imports) + common.median(out["setups"]),
        "wall_s": common.median(walls),
        "peak_rss_mb": out["rss_mb"],
    }
    outcome.detail.update(
        passes=len(walls), setup_imports_s=imports,
        setup_generation_s=out["setups"],
        measured_wall_s=[sum(one["elapsed"].values())
                         for one in out["passes"]],
        speed_factor=common.SpeedLog(out["speed"]).factor(),
    )
    return outcome


# ------------------------------------------------------------------ main


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=6.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        common.require_source()
    except common.SetupError as exc:
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        return 2
    seed = common.input_seed(args.seed)
    reference = common.load_references().get(args.workload, {}).get(
        str(seed), {}
    )
    trace = bool(args.trace)
    if args.workload == "large_n":
        outcome = large_n(seed, args.seconds, trace, reference)
    elif args.workload == "serve_mixed":
        import serve_mixed

        outcome = serve_mixed.run(seed, trace)
    else:
        outcome = campaign(
            args.workload, seed, args.seconds, trace, reference
        )

    units = common.PER_LAYER_UNITS if trace else common.END_TO_END_UNITS
    error_rate = outcome.failed / max(outcome.attempted, 1)
    shown = {**outcome.metrics, **outcome.extra}
    if not trace:
        shown["error_rate"] = error_rate
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "input_seed": seed,
        "trace": args.trace,
        "environment": common.environment(),
        **outcome.detail,
    }
    print("perfbench " + json.dumps(info, default=str))
    for name in units:
        if name in shown:
            print(f"  {name:34s} {shown[name]:>14.6g} {units[name]}")
    metrics = {
        name: {"value": value, "unit": units[name]}
        for name, value in outcome.metrics.items()
    }
    print(json.dumps({
        "correct": outcome.failed == 0 and outcome.attempted > 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
