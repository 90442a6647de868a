"""Trace-file rollups and the ``repro-flat trace-summary`` renderer.

Consumes the JSON-lines format of :mod:`repro.obs.trace` and produces
(1) a per-span-name rollup — call count, total wall time, total *self*
time (time not attributed to child spans), sorted by self-time so the
hottest phase tops the table; (2) a counter/gauge table and histogram
lines from the metrics snapshot; (3) the cache accounting invariant
check ``hits + misses == lookups``, printed so a regression in the
miss bookkeeping is visible in every summary rather than buried in a
stats dict.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.obs.trace import TRACE_SCHEMA, TraceData

__all__ = [
    "rollup_spans",
    "cache_invariant",
    "format_summary",
    "trace_totals",
]


def rollup_spans(
    spans: Tuple[Dict[str, object], ...]
) -> List[Dict[str, object]]:
    """Aggregate span events by name, hottest self-time first."""
    by_name: Dict[str, Dict[str, object]] = {}
    for event in spans:
        name = str(event.get("name", "?"))
        entry = by_name.get(name)
        if entry is None:
            entry = {"name": name, "count": 0, "total_s": 0.0,
                     "self_s": 0.0, "errors": 0}
            by_name[name] = entry
        entry["count"] += 1  # type: ignore[operator]
        entry["total_s"] += float(event.get("dur_s", 0.0))  # type: ignore[operator,arg-type]
        entry["self_s"] += float(event.get("self_s", 0.0))  # type: ignore[operator,arg-type]
        if "error" in event:
            entry["errors"] += 1  # type: ignore[operator]
    return sorted(
        by_name.values(),
        key=lambda e: (-float(e["self_s"]), str(e["name"])),  # type: ignore[arg-type]
    )


def cache_invariant(
    metrics: Dict[str, Dict[str, object]]
) -> Optional[Tuple[int, int, int, bool]]:
    """``(lookups, hits, misses, holds)`` or None without cache metrics."""
    lookups = metrics.get("cache.lookups")
    if lookups is None:
        return None
    n_lookups = int(lookups.get("value", 0))  # type: ignore[arg-type]
    n_hits = int(metrics.get("cache.hits", {}).get("value", 0))  # type: ignore[arg-type]
    n_misses = int(metrics.get("cache.misses", {}).get("value", 0))  # type: ignore[arg-type]
    return n_lookups, n_hits, n_misses, n_hits + n_misses == n_lookups


def _fmt_s(seconds: float) -> str:
    return f"{seconds:.4f}s"


def format_summary(data: TraceData, top: int = 12) -> str:
    """Human-readable summary of one parsed trace file."""
    lines: List[str] = []
    rollup = rollup_spans(data.spans)
    lines.append(
        f"trace: {len(data.spans)} spans, schema {data.schema}"
    )
    if rollup:
        lines.append("")
        lines.append(f"top spans by self-time (showing {min(top, len(rollup))}"
                     f" of {len(rollup)}):")
        name_w = max(len("span"), *(len(str(e["name"])) for e in rollup[:top]))
        header = (f"  {'span':<{name_w}}  {'count':>7}  {'total':>10}"
                  f"  {'self':>10}")
        lines.append(header)
        lines.append("  " + "-" * (len(header) - 2))
        for entry in rollup[:top]:
            mark = "  !" if entry["errors"] else ""
            lines.append(
                f"  {str(entry['name']):<{name_w}}  {entry['count']:>7}"
                f"  {_fmt_s(float(entry['total_s'])):>10}"  # type: ignore[arg-type]
                f"  {_fmt_s(float(entry['self_s'])):>10}{mark}"  # type: ignore[arg-type]
            )

    counters = {n: d for n, d in data.metrics.items()
                if d.get("kind") in ("counter", "gauge")}
    if counters:
        lines.append("")
        lines.append("counters / gauges:")
        name_w = max(len(n) for n in counters)
        for name in sorted(counters):
            value = counters[name].get("value", 0)
            lines.append(f"  {name:<{name_w}}  {value}")

    histograms = {n: d for n, d in data.metrics.items()
                  if d.get("kind") == "histogram"}
    if histograms:
        lines.append("")
        lines.append("histograms (count / total / min / max):")
        name_w = max(len(n) for n in histograms)
        for name in sorted(histograms):
            data_h = histograms[name]
            count = int(data_h.get("count", 0))  # type: ignore[arg-type]
            if count:
                lines.append(
                    f"  {name:<{name_w}}  {count} / "
                    f"{float(data_h['total']):.6g} / "  # type: ignore[arg-type]
                    f"{float(data_h['min']):.6g} / "  # type: ignore[arg-type]
                    f"{float(data_h['max']):.6g}"  # type: ignore[arg-type]
                )
            else:
                lines.append(f"  {name:<{name_w}}  0 samples")

    invariant = cache_invariant(data.metrics)
    if invariant is not None:
        lookups, hits, misses, holds = invariant
        verdict = "OK" if holds else "VIOLATED"
        lines.append("")
        lines.append(
            f"cache invariant hits + misses == lookups: "
            f"{hits} + {misses} == {lookups} [{verdict}]"
        )
    return "\n".join(lines)


def trace_totals(
    collector_events: Tuple[Dict[str, object], ...],
    metrics_snapshot: Dict[str, Dict[str, object]],
) -> Dict[str, object]:
    """Compact trace rollup for embedding in a pipeline manifest."""
    return {
        "schema": TRACE_SCHEMA,
        "spans": rollup_spans(tuple(collector_events)),
        "metrics": metrics_snapshot,
    }
