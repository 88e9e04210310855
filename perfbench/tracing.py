"""Outside-in tracing: timing spans around the program's public calls.

:func:`install` replaces each target in :data:`TARGETS` with a wrapper that
records a span ``(id, parent id, layer, start, end, request id)``. Module
functions are re-bound in every loaded ``repro`` module that imported them
by name (``sample_failed_edges`` lives in ``sim.sampling`` but is called
through the names bound in ``sim.delivery`` and ``sim.overhead``), so all
``repro`` modules are imported first. Targets that do not exist at the
traced commit are skipped and listed in the summary.

Spans nest per thread; a layer's self time is its span minus the spans
recorded directly under it. The service's request spans live on the
event loop, so their request id travels in a context variable and the
executor-side span of the same request names the request span as its
parent.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import pkgutil
import sys
import threading
from collections import Counter, defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (module, attribute path, layer). ``A.b`` is a method or property of
#: class ``A``; a bare name is a module function.
TARGETS: List[Tuple[str, str, str]] = [
    ("repro.netgen.geometric", "random_geometric_network", "netgen.generate"),
    ("repro.netgen.gowalla", "synthesize_gowalla_austin", "netgen.generate"),
    ("repro.graph.shortcuts", "ShortcutDistanceEngine.__init__",
     "graph.engine_build"),
    ("repro.graph.shortcuts", "ShortcutDistanceEngine.from_index_pairs",
     "graph.engine_build"),
    ("repro.graph.shortcuts", "ShortcutDistanceEngine.extended_by_index",
     "graph.engine_extend"),
    ("repro.core.evaluator", "SigmaEvaluator.add_candidates", "core.scan"),
    ("repro.core.evaluator", "SigmaEvaluator.add_candidates_restricted",
     "core.scan"),
    ("repro.core.evaluator", "SigmaEvaluator.satisfied", "core.value"),
    ("repro.core.bounds", "MuFunction.__init__", "core.bounds"),
    ("repro.core.bounds", "MuFunction.add_candidates", "core.bounds"),
    ("repro.core.bounds", "NuFunction.__init__", "core.bounds"),
    ("repro.core.bounds", "NuFunction.add_candidates", "core.bounds"),
    ("repro.core.greedy", "greedy_placement", "core.select"),
    ("repro.core.lazy_greedy", "lazy_greedy_placement", "core.select"),
    ("repro.sim.sampling", "sample_failed_edges", "sim.sample"),
    ("repro.sim.delivery", "DeliverySimulator.simulate", "sim.deliver"),
    ("repro.failure.injection", "FaultInjectionHarness.run",
     "failure.inject"),
]

#: Oracle tiers: (module, class, method or property that builds). A span
#: is recorded only when the class-level ``build_count`` moved.
ORACLE_BUILDS: List[Tuple[str, str, str]] = [
    ("repro.graph.distances", "DistanceOracle", "matrix"),
    ("repro.graph.sparse_oracle", "SparseRowOracle", "block"),
    ("repro.graph.hub_labels", "HubLabelOracle", "__init__"),
]

ENGINE_CACHE = ("repro.core.substrate", "EngineCache")
SERVICE = ("repro.service.server", "PlannerService")

Span = Tuple[int, Optional[int], str, float, float, Any]


class Tracer:
    """In-memory span recorder (spans are kept until :meth:`summary`)."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self.missing: List[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._request: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_request", default=(None, None)
        )
        self._oracle_classes: List[Any] = []
        self._builds_at_install: Dict[str, int] = {}

    # ------------------------------------------------------------ spans

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(
        self,
        layer: str,
        fn: Callable,
        args: tuple,
        kwargs: dict,
        *,
        parent: Optional[int] = None,
        request: Any = None,
    ) -> Any:
        stack = self._stack()
        if stack:
            top, top_request = stack[-1]
            parent = top if parent is None else parent
            request = top_request if request is None else request
        sid = next(self._ids)
        stack.append((sid, request))
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append((sid, parent, layer, start, end, request))

    def _record(self, layer: str, start: float, end: float) -> None:
        stack = self._stack()
        parent, request = stack[-1] if stack else (None, None)
        self.spans.append(
            (next(self._ids), parent, layer, start, end, request)
        )

    # --------------------------------------------------------- wrappers

    def _wrap(self, layer: str, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer.call(layer, fn, args, kwargs)

        return traced

    def _wrap_build(self, owner: Any, fn: Callable) -> Callable:
        # The span is known to be a build only after the call, so it is not
        # on the stack while the build runs; no traced target is called
        # from inside an oracle build, so no span is misparented.
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            before = owner.build_count
            start = perf_counter()
            result = fn(*args, **kwargs)
            if owner.build_count != before:
                tracer._record("graph.oracle_build", start, perf_counter())
            return result

        return traced

    def _wrap_cache_get(self, fn: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def traced(cache, edges):
            hits = cache.hits
            engine = fn(cache, edges)
            counts["engine_cache.gets"] += 1
            if cache.hits != hits:
                counts["engine_cache.hits"] += 1
            return engine

        return traced

    def _wrap_handle(self, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        async def traced(service, payload):
            request = payload.get("id")
            sid = next(tracer._ids)
            token = tracer._request.set((request, sid))
            start = perf_counter()
            try:
                return await fn(service, payload)
            finally:
                end = perf_counter()
                tracer._request.reset(token)
                tracer.spans.append(
                    (sid, None, "service.handle", start, end, request)
                )

        return traced

    def _wrap_on_substrate(self, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        async def traced(service, spec, job):
            request, parent = tracer._request.get()

            def traced_job(entry):
                return tracer.call(
                    "service.exec", job, (entry,), {},
                    parent=parent, request=request,
                )

            return await fn(service, spec, traced_job)

        return traced

    # ------------------------------------------------------ installation

    def install(self) -> "Tracer":
        import repro

        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            importlib.import_module(info.name)
        for module_name, path, layer in TARGETS:
            self._install_target(module_name, path, layer)
        for module_name, class_name, attr in ORACLE_BUILDS:
            cls = _lookup(module_name, class_name)
            if cls is None or attr not in vars(cls):
                self.missing.append(f"{module_name}.{class_name}.{attr}")
                continue
            self._oracle_classes.append(cls)
            self._builds_at_install[class_name] = cls.build_count
            _replace_member(
                cls, attr, lambda fn, cls=cls: self._wrap_build(cls, fn)
            )
        cache = _lookup(*ENGINE_CACHE)
        if cache is not None and "get" in vars(cache):
            _replace_member(cache, "get", self._wrap_cache_get)
        else:
            self.missing.append(".".join(ENGINE_CACHE) + ".get")
        service = _lookup(*SERVICE)
        for attr, wrapper in (
            ("handle", self._wrap_handle),
            ("_on_substrate", self._wrap_on_substrate),
        ):
            if service is not None and attr in vars(service):
                _replace_member(service, attr, wrapper)
            else:
                self.missing.append(".".join(SERVICE) + "." + attr)
        return self

    def _install_target(self, module_name: str, path: str, layer: str) -> None:
        if "." in path:
            class_name, attr = path.split(".", 1)
            cls = _lookup(module_name, class_name)
            if cls is None or attr not in vars(cls):
                self.missing.append(f"{module_name}.{path}")
                return
            _replace_member(cls, attr, lambda fn: self._wrap(layer, fn))
            return
        module = sys.modules.get(module_name)
        original = getattr(module, path, None)
        if original is None:
            self.missing.append(f"{module_name}.{path}")
            return
        traced = self._wrap(layer, original)
        for name, loaded in list(sys.modules.items()):
            if loaded is None or not name.startswith("repro"):
                continue
            for attr, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, attr, traced)

    # ---------------------------------------------------------- summary

    def layer_totals(self) -> Dict[str, Tuple[float, int]]:
        """``layer -> (self seconds, span count)``."""
        child_time: Dict[int, float] = defaultdict(float)
        for _sid, parent, _layer, start, end, _request in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals: Dict[str, List] = defaultdict(lambda: [0.0, 0])
        for sid, _parent, layer, start, end, _request in self.spans:
            entry = totals[layer]
            entry[0] += (end - start) - child_time.get(sid, 0.0)
            entry[1] += 1
        return {layer: (t, n) for layer, (t, n) in totals.items()}

    def oracle_builds(self) -> int:
        return sum(
            cls.build_count - self._builds_at_install[cls.__name__]
            for cls in self._oracle_classes
        )

    def request_times(self) -> Dict[str, Dict[Any, float]]:
        """Per request id: ``handle`` and summed ``exec`` seconds."""
        out: Dict[str, Dict[Any, float]] = {"handle": {}, "exec": {}}
        for _sid, _parent, layer, start, end, request in self.spans:
            if request is None:
                continue
            if layer == "service.handle":
                out["handle"][request] = end - start
            elif layer == "service.exec":
                out["exec"][request] = (
                    out["exec"].get(request, 0.0) + end - start
                )
        return out

    def summary(self) -> Dict[str, Any]:
        """JSON-ready layer totals, counters and per-request times."""
        requests = self.request_times()
        return {
            "layers": {
                layer: [seconds, count]
                for layer, (seconds, count) in self.layer_totals().items()
            },
            "oracle_builds": self.oracle_builds(),
            "engine_cache": {
                "gets": self.counts["engine_cache.gets"],
                "hits": self.counts["engine_cache.hits"],
            },
            "spans": len(self.spans),
            "missing": self.missing,
            "handle": [[rid, s] for rid, s in requests["handle"].items()],
            "exec": [[rid, s] for rid, s in requests["exec"].items()],
        }


def _lookup(module_name: str, class_name: str) -> Any:
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return None
    return getattr(module, class_name, None)


def _replace_member(cls: Any, attr: str, make: Callable) -> None:
    """Wrap a plain method, classmethod, or property getter of *cls*."""
    member = vars(cls)[attr]
    if isinstance(member, property):
        setattr(cls, attr, property(
            make(member.fget), member.fset, member.fdel, member.__doc__
        ))
    elif isinstance(member, classmethod):
        setattr(cls, attr, classmethod(make(member.__func__)))
    elif isinstance(member, staticmethod):
        setattr(cls, attr, staticmethod(make(member.__func__)))
    elif inspect.isfunction(member):
        setattr(cls, attr, make(member))
    else:  # pragma: no cover - unexpected member kind
        raise TypeError(f"cannot trace {cls.__name__}.{attr}")


def install() -> Tracer:
    """Create a tracer and wrap every available target."""
    return Tracer().install()
