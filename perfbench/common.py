"""Helpers shared by the benchmark entry point and its child processes.

The module imports only the standard library, so that ``run.py`` can
refuse to run (and say why) before anything from the checkout's ``src/``
is imported.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCES = BENCH_DIR / "references.json"

#: Workload seeds are folded into this many recorded input sets, each with
#: reference digests in ``references.json`` (see README, "Seeds").
SEED_POOL = 24


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (no ``src/repro``)."""


def require_source() -> None:
    """Put the checkout's ``src`` first on ``sys.path``, or raise."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SetupError(f"no package source at {SRC / 'repro'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> Dict[str, str]:
    """Environment for child interpreters: the checkout's source first."""
    env = dict(os.environ)
    parts = [str(SRC)] + [
        p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p
    ]
    env["PYTHONPATH"] = os.pathsep.join(parts)
    env["PYTHONUNBUFFERED"] = "1"
    return env


def input_seed(seed: int) -> int:
    """The recorded input set a workload seed selects."""
    return int(seed) % SEED_POOL


def digest(payload: Any) -> str:
    """sha256 of the canonical JSON form of *payload*."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_references() -> Dict[str, Dict[str, Any]]:
    if not REFERENCES.is_file():
        return {}
    with open(REFERENCES, encoding="utf-8") as handle:
        return json.load(handle)


def compare(
    got: Dict[str, str], expected: Optional[Dict[str, str]]
) -> List[str]:
    """Keys of *got* whose digest differs from (or is missing in) the
    reference; every key is a mismatch when there is no reference."""
    expected = expected or {}
    return sorted(key for key, value in got.items()
                  if expected.get(key) != value)


def percentile(values: Iterable[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of *values*."""
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def median(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.median(values) if values else float("nan")


def environment() -> Dict[str, Any]:
    """Machine, interpreter and library versions, plus every size cutover
    (module-level ``*_MIN_N`` in ``repro.core`` and ``repro.graph``) in
    force at the measured commit."""
    import importlib
    import pkgutil

    import numpy
    import scipy

    cutovers = {}
    for package in ("repro.core", "repro.graph"):
        path = importlib.import_module(package).__path__
        for info in pkgutil.iter_modules(path, package + "."):
            module = importlib.import_module(info.name)
            for name, value in vars(module).items():
                if name.endswith("_MIN_N") and isinstance(value, int):
                    cutovers[name] = value
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cutovers": dict(sorted(cutovers.items())),
    }


# ---------------------------------------------------------------- metrics

#: Every per-layer metric, with its unit; a layer a workload never
#: reaches reports 0.
EXPERIMENT_IDS = [
    "table1", "table2", "fig1", "fig2", "fig3", "fig4", "fig5",
    "ablation_sandwich", "ablation_aea", "ablation_ea",
    "ablation_warmstart", "msc_cn", "delivery", "prediction",
    "generality", "replanning", "robustness",
]
#: Span layers recorded by tracing.py; each reports ``<layer>_s`` (self
#: time) and, where listed below, ``<layer>_calls``.
LAYERS = [
    "netgen.generate", "graph.oracle_build", "graph.engine_build",
    "graph.engine_extend", "core.scan", "core.value", "core.bounds",
    "core.select", "sim.sample", "sim.deliver", "failure.inject",
]
PER_LAYER_UNITS: Dict[str, str] = {
    "netgen.generate_s": "s",
    "netgen.generate_calls": "count",
    "graph.oracle_build_s": "s",
    "graph.oracle_builds": "count",
    "graph.engine_build_s": "s",
    "graph.engine_builds": "count",
    "graph.engine_extend_s": "s",
    "graph.engine_extends": "count",
    "core.scan_s": "s",
    "core.scan_calls": "count",
    "core.value_s": "s",
    "core.value_calls": "count",
    "core.engine_cache_hit_ratio": "ratio",
    "core.bounds_s": "s",
    "core.select_s": "s",
    "sim.sample_s": "s",
    "sim.sample_calls": "count",
    "sim.deliver_s": "s",
    "failure.inject_s": "s",
    **{f"experiments.{name}_s": "s" for name in EXPERIMENT_IDS},
    "service.handle_ms.p50": "ms",
    "service.handle_ms.p95": "ms",
    "service.exec_ms.p50": "ms",
    "service.exec_ms.p95": "ms",
    "service.queue_ms.p50": "ms",
    "service.queue_ms.p95": "ms",
    "service.transport_ms.p50": "ms",
    "service.batch_size_mean": "count",
    "service.lru_hit_ratio": "ratio",
    "service.backlog_max": "count",
    "service.gen_lag_ms.p95": "ms",
    "trace.overhead_s": "s",
    "trace.outside_s": "s",
    "trace.spans": "count",
}

#: Every end-to-end metric, with its unit. BENCHMARK.json gates the first
#: three, which every workload reports; the rest are printed where they
#: apply (README, "End to end").
END_TO_END_UNITS: Dict[str, str] = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "error_rate": "ratio",
    "p50_ms.light": "ms",
    "p95_ms.light": "ms",
    "p50_ms.heavy": "ms",
    "p95_ms.heavy": "ms",
    "goodput_rps.heavy": "1/s",
    "max_rate_rps": "1/s",
}


class Outcome:
    """What one run measured, before it is printed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.metrics: Dict[str, float] = {}
        self.extra: Dict[str, float] = {}
        self.detail: Dict[str, Any] = {}

    def check(self, got: Dict[str, str], expected: Dict[str, str]) -> None:
        """Count every digest of *got*; mismatches count as failed."""
        bad = compare(got, expected)
        self.attempted += len(got)
        self.failed += len(bad)
        if bad:
            self.detail.setdefault("mismatches", []).extend(bad)


def layer_metrics(summary: Dict[str, Any], traced_wall: float) -> Dict:
    """Per-layer metrics from one tracer summary (zeros where absent)."""
    metrics = {name: 0.0 for name in PER_LAYER_UNITS}
    layers = summary["layers"]
    for layer in LAYERS:
        seconds, count = layers.get(layer, (0.0, 0))
        metrics[f"{layer}_s"] = seconds
        if f"{layer}_calls" in metrics:
            metrics[f"{layer}_calls"] = count
    metrics["graph.engine_builds"] = layers.get(
        "graph.engine_build", (0.0, 0))[1]
    metrics["graph.engine_extends"] = layers.get(
        "graph.engine_extend", (0.0, 0))[1]
    metrics["graph.oracle_builds"] = summary["oracle_builds"]
    cache = summary["engine_cache"]
    metrics["core.engine_cache_hit_ratio"] = (
        cache["hits"] / cache["gets"] if cache["gets"] else 0.0
    )
    metrics["trace.spans"] = summary["spans"]
    if traced_wall:
        metrics["trace.outside_s"] = traced_wall - sum(
            seconds for layer, (seconds, _) in layers.items()
            if not layer.startswith("service.")
        )
    return metrics



# ------------------------------------------------------------ host speed


#: Seconds one :func:`calibration_unit` took on the 2-CPU host the
#: benchmark was defined on; times are reported scaled to that speed.
CALIBRATION_REFERENCE_S = 0.05
CALIBRATION_SAMPLES = 3


def calibration_unit() -> float:
    """Fixed interpreter and small-array numpy work; its duration."""
    import time

    import numpy as np

    start = time.perf_counter()
    total, table = 0, {}
    for i in range(480_000):
        total += (i * i) % 7
        table[i & 1023] = total
    row = np.arange(256, dtype=float)
    for _ in range(6_000):
        row = np.minimum(row, row[::-1] + 1.0)
    return time.perf_counter() - start


def calibrate(warm: bool = False) -> List[float]:
    """:data:`CALIBRATION_SAMPLES` unit times. The first units a process
    runs take up to twice as long, so pass ``warm=True`` the first time."""
    if warm:
        for _ in range(3):
            calibration_unit()
    return [calibration_unit() for _ in range(CALIBRATION_SAMPLES)]


def speed_factor(samples: Iterable[float]) -> float:
    """Multiply a measured time by this to report it at reference speed."""
    return CALIBRATION_REFERENCE_S / median(samples)


class SpeedLog:
    """Calibration unit times of one process, taken between its timed
    intervals (a unit run beside the measured work would slow it)."""

    def __init__(self, samples: Optional[List[float]] = None) -> None:
        self.samples: List[float] = samples if samples is not None else []

    def mark(self, warm: bool = False) -> None:
        self.samples += calibrate(warm)

    def factor(self) -> float:
        """Scale for the process's timed work: the host's speed changes
        within seconds, so the median over every mark it took (spread
        through the work) estimates it best (README, "Reference host
        speed")."""
        return speed_factor(self.samples)
