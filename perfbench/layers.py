"""Outside-in layer tracing: wrap each layer's public functions in place.

Nothing inside ``src/`` records a span for the benchmark.  Instead a
:class:`Tracer` replaces every binding of a layer function with a timing
wrapper: the defining module's attribute, every other ``repro.*`` module
that imported the name, class attributes (methods) and function default
arguments that hold the same object (``CoalescingScheduler.__init__``
binds ``execute_query`` as a default, for instance).  A name imported
into three modules is therefore counted once per call, whichever module
the caller reached it through.

Each wrapper records calls, inclusive time and self time (inclusive
minus the time during which at least one wrapped layer it called was
running; children awaited together by ``asyncio.gather`` overlap, so
their union counts, not their sum).  The enclosing frame lives in a
``ContextVar``, so threads and asyncio tasks keep separate stacks.  Work
handed to an executor thread starts a new stack: the serve scheduler's
evaluations run on behalf of a whole micro-batch, not of one request,
so they have no parent and are waited for inside ``sched.submit``.
An optional ``note`` hook sees the call's arguments, result and duration
and adds layer-specific counts (rows of a grid call, cache hits, passes of a
simulated step).
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import pkgutil
import re
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["LayerSpec", "LayerStats", "Tracer", "LAYERS", "LABELS",
           "NOTES", "import_all"]


@dataclass(frozen=True)
class LayerSpec:
    """One wrapped layer.

    ``target`` is ``module:qualname``.  ``loads`` names the workloads
    that must reach the layer (nonzero calls); every other workload must
    bypass it (zero calls) -- the coverage self-check enforces both.
    ``keep`` keeps the duration of every outermost call, i.e. one not
    made from inside another wrapped layer (for percentiles).
    """

    name: str
    target: str
    loads: Tuple[str, ...]
    keep: bool = False


@dataclass
class LayerStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    counts: Dict[str, float] = field(default_factory=dict)
    samples: List[float] = field(default_factory=list)
    spans: List[Tuple[str, float, float]] = field(default_factory=list)


class _Frame:
    """The direct children's ``(start, end)`` intervals of one call."""

    __slots__ = ("children",)

    def __init__(self) -> None:
        self.children: List[Tuple[float, float]] = []

    def child_s(self) -> float:
        """Time covered by at least one child."""
        covered = 0.0
        reach = float("-inf")
        for start, end in sorted(self.children):
            if end > reach:
                covered += end - max(start, reach)
                reach = end
        return covered


PAPER, SERVE, DECODE = "paper", "serve-mixed", "decode-trace"

#: The layer table.  ``loads`` is the prediction the coverage check
#: holds the benchmark to: where each layer must fire, and where the
#: workload bypasses it.
LAYERS: Tuple[LayerSpec, ...] = (
    LayerSpec("runner.experiment", "repro.experiments.runner:run_experiment",
              (PAPER,)),
    LayerSpec("engine.search", "repro.core.engine:run_search",
              (PAPER, SERVE)),
    LayerSpec("candidates.plan", "repro.core.candidates:plan_candidates",
              (PAPER, SERVE)),
    LayerSpec("batch.grid", "repro.core.batch:evaluate_grid",
              (PAPER, SERVE)),
    LayerSpec("perf.cost_scope", "repro.core.perf:cost_scope",
              (PAPER, SERVE)),
    LayerSpec("energy.report", "repro.energy.model:energy_report",
              (PAPER, SERVE)),
    LayerSpec("cache.get", "repro.core.cache:PersistentCache.get", (PAPER,)),
    LayerSpec("cache.put", "repro.core.cache:PersistentCache.put", (PAPER,)),
    LayerSpec("scaleout.search", "repro.core.scaleout:search_scaleout",
              (PAPER, SERVE)),
    LayerSpec("protocol.resolve", "repro.serve.protocol:resolve_query",
              (SERVE,)),
    LayerSpec("protocol.encode", "repro.serve.protocol:encode_line",
              (SERVE,)),
    LayerSpec("service.execute_query", "repro.serve.service:execute_query",
              (SERVE,), keep=True),
    LayerSpec("service.execute_cost_group",
              "repro.serve.service:execute_cost_group", (SERVE,), keep=True),
    LayerSpec("serve.request", "repro.serve.server:DSEServer._handle_line",
              (SERVE,)),
    LayerSpec("sched.submit",
              "repro.serve.scheduler:CoalescingScheduler.submit", (SERVE,)),
    LayerSpec("sim.run_serving", "repro.sim.batching:run_serving", (DECODE,)),
    LayerSpec("sim.step_passes", "repro.sim.batching:step_passes", (DECODE,)),
    LayerSpec("sim.simulate", "repro.sim.engine:simulate", (DECODE,)),
)


def _experiment(args, kwargs, result, elapsed):
    return {str(args[0] if args else kwargs["name"]): elapsed}


def _grid_rows(args, kwargs, result, elapsed):
    dataflows = args[3] if len(args) > 3 else kwargs["dataflows"]
    return {"rows": len(dataflows)}


def _cache_get(args, kwargs, result, elapsed):
    return {"hits": int(result is not None), "misses": int(result is None)}


def _step_passes(args, kwargs, result, elapsed):
    decodes = args[1] if len(args) > 1 else kwargs["decode_kv_lens"]
    return {"decodes": len(decodes)}


def _simulate(args, kwargs, result, elapsed):
    return {"passes": len(args[0] if args else kwargs["passes"])}


def _run_serving(args, kwargs, result, elapsed):
    return {"steps": result.steps if result is not None else 0}


_REQUEST_ID = re.compile(rb'"id"\s*:\s*"([^"]*)"')


def _request_id(args, kwargs) -> str:
    match = _REQUEST_ID.search(args[1])
    return match.group(1).decode() if match else ""


def _response_id(args, kwargs) -> str:
    obj = args[0] if args else kwargs["obj"]
    return str(obj.get("id")) if isinstance(obj, dict) else ""


#: Layers whose individual calls are kept as ``(label, end, duration)``
#: spans, so they can be matched with what a client observed: the
#: daemon starts handling a request line, and encodes its response
#: right before writing it.
LABELS: Dict[str, Callable] = {"serve.request": _request_id,
                               "protocol.encode": _response_id}

#: Layer-specific counts, keyed by layer name.
NOTES: Dict[str, Callable] = {
    "runner.experiment": _experiment,
    "batch.grid": _grid_rows,
    "cache.get": _cache_get,
    "sim.step_passes": _step_passes,
    "sim.simulate": _simulate,
    "sim.run_serving": _run_serving,
}


def _resolve(target: str) -> Any:
    """The function a ``module:Qual.name`` target names."""
    module_name, qualname = target.split(":")
    owner: Any = importlib.import_module(module_name)
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return inspect.getattr_static(owner, parts[-1])


def import_all() -> None:
    """Import every ``repro`` module so that binding sites are complete."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith(".__main__"):
            continue
        importlib.import_module(info.name)


def _repro_namespaces() -> List[Tuple[Any, Dict[str, Any]]]:
    """Every ``repro.*`` module and the classes defined in them."""
    spaces: List[Tuple[Any, Dict[str, Any]]] = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        spaces.append((module, vars(module)))
        for value in list(vars(module).values()):
            if (isinstance(value, type)
                    and getattr(value, "__module__", "") == name):
                spaces.append((value, dict(vars(value))))
    return spaces


class Tracer:
    """Installs timing wrappers at every binding site of each layer."""

    def __init__(self) -> None:
        self.stats: Dict[str, LayerStats] = {
            spec.name: LayerStats() for spec in LAYERS
        }
        self.sites: Dict[str, int] = {spec.name: 0 for spec in LAYERS}
        self._frame: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_frame", default=None
        )
        self._lock = threading.Lock()
        self._undo: List[Callable[[], None]] = []

    # -- recording -----------------------------------------------------
    def _record(self, spec: LayerSpec, frame: _Frame, parent: Optional[_Frame],
                end: float, elapsed: float, args, kwargs, result) -> None:
        if parent is not None:
            parent.children.append((end - elapsed, end))
        note = NOTES.get(spec.name)
        label = LABELS.get(spec.name)
        with self._lock:
            stats = self.stats[spec.name]
            stats.calls += 1
            stats.total_s += elapsed
            stats.self_s += elapsed - frame.child_s()
            if spec.keep and parent is None:
                stats.samples.append(elapsed)
            if label is not None:
                stats.spans.append((label(args, kwargs), end, elapsed))
            if note is not None:
                for key, amount in note(args, kwargs, result,
                                         elapsed).items():
                    stats.counts[key] = stats.counts.get(key, 0) + amount

    def _wrap(self, spec: LayerSpec, fn: Callable) -> Callable:
        var = self._frame
        clock = time.perf_counter
        record = self._record

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                parent = var.get()
                frame = _Frame()
                token = var.set(frame)
                start = clock()
                result = None
                try:
                    result = await fn(*args, **kwargs)
                    return result
                finally:
                    end = clock()
                    var.reset(token)
                    record(spec, frame, parent, end, end - start, args,
                           kwargs, result)

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = var.get()
            frame = _Frame()
            token = var.set(frame)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                var.reset(token)
                record(spec, frame, parent, end, end - start, args, kwargs,
                       result)

        return wrapper

    # -- patching ------------------------------------------------------
    def _patch_attr(self, owner: Any, attr: str, value: Any) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        setattr(owner, attr, value)
        self._undo.append(lambda: setattr(owner, attr, original))

    def _patch_defaults(self, fn: Any, target: Any, wrapper: Any) -> int:
        patched = 0
        defaults = getattr(fn, "__defaults__", None)
        if defaults and any(d is target for d in defaults):
            fn.__defaults__ = tuple(
                wrapper if d is target else d for d in defaults
            )
            self._undo.append(
                lambda fn=fn, old=defaults: setattr(fn, "__defaults__", old)
            )
            patched += 1
        kwdefaults = getattr(fn, "__kwdefaults__", None)
        if kwdefaults and any(d is target for d in kwdefaults.values()):
            fn.__kwdefaults__ = {
                k: (wrapper if d is target else d)
                for k, d in kwdefaults.items()
            }
            self._undo.append(
                lambda fn=fn, old=kwdefaults: setattr(fn, "__kwdefaults__",
                                                      old)
            )
            patched += 1
        return patched

    def install(self) -> None:
        """Wrap every binding site of every layer."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        import_all()
        spaces = _repro_namespaces()
        for spec in LAYERS:
            target = _resolve(spec.target)
            wrapper = self._wrap(spec, target)
            count = 0
            for owner, namespace in spaces:
                for attr, value in namespace.items():
                    if value is target:
                        self._patch_attr(owner, attr, wrapper)
                        count += 1
                    elif inspect.isfunction(value):
                        count += self._patch_defaults(value, target, wrapper)
            self.sites[spec.name] = count

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- reporting -----------------------------------------------------
    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """JSON-ready copy of the per-layer statistics."""
        with self._lock:
            return {
                name: {
                    "calls": stats.calls,
                    "total_s": stats.total_s,
                    "self_s": stats.self_s,
                    "counts": dict(stats.counts),
                    "samples": list(stats.samples),
                    "spans": list(stats.spans),
                    "sites": self.sites[name],
                }
                for name, stats in self.stats.items()
            }

    def reset(self) -> None:
        with self._lock:
            for name in self.stats:
                self.stats[name] = LayerStats()
