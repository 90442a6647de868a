"""Named counters, gauges and histograms with snapshot/diff semantics.

The registry mirrors the ergonomics of ``CacheStats`` in
:mod:`repro.core.cache` — a mutable accumulator whose state can be
``snapshot()``-ed to plain dicts, subtracted (``diff``) to isolate the
work of one phase, and ``merge()``-d to fold a worker's snapshot into
the parent's registry after a pool job ships its numbers home.

Three instrument kinds cover the repo's needs:

* :class:`Counter` — monotonically increasing event counts
  (``cache.hits``, ``engine.evaluated``, ``batch.grids``).
* :class:`Gauge` — last-written level (``engine.lru_entries``).
* :class:`Histogram` — count/total/min/max of observed samples
  (``cache.get_s`` latencies, ``batch.grid_points``).  No buckets: the
  consumers here want totals and extremes, not quantiles, and keeping
  the record four numbers makes snapshots and merges trivially exact.

Like the trace collector, the registry is process-local.  Mutations
(``inc``/``set``/``observe``, instrument creation, ``merge``) are
serialized behind one module lock so the serving layer
(:mod:`repro.serve`) can record from executor threads; the engine's
process-pool parallelism is unaffected.  ``snapshot`` takes the same
lock, so a snapshot is internally consistent.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "active",
    "activate",
    "deactivate",
    "inc",
]


# One lock for every instrument in the process: mutations are tiny
# (an add, a compare), so contention is negligible and a single lock
# keeps the per-instrument memory footprint at zero extra slots.
# Re-entrant because ``merge`` holds it across ``_get``/``merge_dict``.
_LOCK = threading.RLock()


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)
    kind = "counter"

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        with _LOCK:
            self.value += amount

    def as_dict(self) -> Dict[str, object]:
        return {"kind": self.kind, "value": self.value}

    def merge_dict(self, data: Dict[str, object]) -> None:
        self.value += int(data.get("value", 0))  # type: ignore[arg-type]


class Gauge:
    """A last-value level; ``merge`` keeps the incoming (newer) value."""

    __slots__ = ("value",)
    kind = "gauge"

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        with _LOCK:
            self.value = value

    def as_dict(self) -> Dict[str, object]:
        return {"kind": self.kind, "value": self.value}

    def merge_dict(self, data: Dict[str, object]) -> None:
        self.value = data.get("value", self.value)  # type: ignore[assignment]


class Histogram:
    """count/total/min/max of observed samples (no buckets)."""

    __slots__ = ("count", "total", "min", "max")
    kind = "histogram"

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, sample: float) -> None:
        with _LOCK:
            self.count += 1
            self.total += sample
            if sample < self.min:
                self.min = sample
            if sample > self.max:
                self.max = sample

    def as_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "kind": self.kind,
            "count": self.count,
            "total": self.total,
        }
        if self.count:
            out["min"] = self.min
            out["max"] = self.max
        return out

    def merge_dict(self, data: Dict[str, object]) -> None:
        count = int(data.get("count", 0))  # type: ignore[arg-type]
        if not count:
            return
        self.count += count
        self.total += float(data.get("total", 0.0))  # type: ignore[arg-type]
        lo = float(data.get("min", float("inf")))  # type: ignore[arg-type]
        hi = float(data.get("max", float("-inf")))  # type: ignore[arg-type]
        if lo < self.min:
            self.min = lo
        if hi > self.max:
            self.max = hi


_KINDS = {cls.kind: cls for cls in (Counter, Gauge, Histogram)}


class MetricsRegistry:
    """Name → instrument map with get-or-create typed accessors.

    Names are dotted (``layer.event``); a name is bound to one kind
    for the registry's lifetime — asking for ``counter("x")`` after
    ``gauge("x")`` is a programming error and raises ``TypeError``.
    """

    def __init__(self) -> None:
        self._instruments: Dict[str, object] = {}

    def _get(self, name: str, cls):
        with _LOCK:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = cls()
                self._instruments[name] = instrument
            elif not isinstance(instrument, cls):
                raise TypeError(
                    f"metric {name!r} is a {type(instrument).kind}, "
                    f"not a {cls.kind}"
                )
            return instrument

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """All instruments as plain dicts, sorted by name (JSON-ready)."""
        with _LOCK:
            return {
                name: self._instruments[name].as_dict()  # type: ignore[union-attr]
                for name in sorted(self._instruments)
            }

    @staticmethod
    def diff(
        after: Dict[str, Dict[str, object]],
        before: Dict[str, Dict[str, object]],
    ) -> Dict[str, Dict[str, object]]:
        """``after - before`` on two snapshots, mirroring CacheStats.

        Counters and histogram counts/totals subtract; gauges keep the
        ``after`` value (a level has no meaningful delta).  Names only
        in ``after`` pass through unchanged.
        """
        out: Dict[str, Dict[str, object]] = {}
        for name, data in after.items():
            prev = before.get(name)
            if prev is None or data.get("kind") != prev.get("kind"):
                out[name] = dict(data)
                continue
            kind = data.get("kind")
            if kind == "counter":
                out[name] = {
                    "kind": kind,
                    "value": int(data["value"]) - int(prev["value"]),  # type: ignore[arg-type]
                }
            elif kind == "histogram":
                entry: Dict[str, object] = {
                    "kind": kind,
                    "count": int(data["count"]) - int(prev["count"]),  # type: ignore[arg-type]
                    "total": float(data["total"]) - float(prev["total"]),  # type: ignore[arg-type]
                }
                # min/max don't subtract; keep the after-window extremes.
                if "min" in data:
                    entry["min"] = data["min"]
                    entry["max"] = data["max"]
                out[name] = entry
            else:
                out[name] = dict(data)
        return out

    def merge(self, snapshot: Dict[str, Dict[str, object]]) -> None:
        """Fold a snapshot (e.g. a worker's) into this registry."""
        with _LOCK:
            for name, data in snapshot.items():
                kind = data.get("kind")
                cls = _KINDS.get(str(kind))
                if cls is None:
                    raise ValueError(
                        f"metric {name!r} has unknown kind {kind!r}"
                    )
                self._get(name, cls).merge_dict(data)


# ----------------------------------------------------------------------
# process-local activation (managed by repro.obs)
# ----------------------------------------------------------------------
_active: Optional[MetricsRegistry] = None


def active() -> Optional[MetricsRegistry]:
    """The registry hooks record into, or ``None`` when metrics are off."""
    return _active


def inc(name: str, amount: int = 1) -> None:
    """Add ``amount`` to the active registry's counter ``name``; a zero
    amount, or metrics off, records nothing (no counter is created)."""
    if amount:
        registry = _active
        if registry is not None:
            registry.counter(name).inc(amount)


def activate(registry: MetricsRegistry) -> None:
    global _active
    _active = registry


def deactivate() -> None:
    global _active
    _active = None
