"""Shared helpers for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures on the
analytical cost model, times the regeneration with pytest-benchmark,
asserts the paper's qualitative claims on the produced rows, and prints
the rows themselves (run with ``-s`` to see them).

Each session additionally writes a ``BENCH_pipeline.json`` artifact —
one row per benchmark with its wall time and the DSE engine's
accumulated :func:`~repro.core.engine.search_totals` — so successive
PRs have a perf trajectory to compare against.  The path is
overridable via ``BENCH_PIPELINE_PATH``.

Schema v2 adds the candidate-generation counters: the full totals dict
(``search``) gains ``candidates_generated`` / ``candidates_skipped`` /
``families_pruned``, and the work-avoidance headline numbers are
additionally lifted to the row's top level (``evaluations`` — scalar
plus batch scoring calls — and ``candidates_skipped``) so trajectory
diffs across PRs can track pruning effectiveness without digging into
the nested totals.

Schema v3 adds *serving* fields for benchmarks that drive the DSE
service daemon (``bench_serve``): a benchmark opting in through the
:func:`record_serving` fixture gets a ``serving`` dict on its row plus
the headline numbers lifted to the top level — ``qps`` (served
throughput), ``p50_ms`` / ``p99_ms`` (response-latency percentiles)
and ``coalesce_ratio`` (requests answered per engine evaluation).
Rows of benchmarks that never touch the daemon are unchanged, and the
new fields are strictly additive, so v2 readers remain correct as
long as they treat unknown/absent fields as optional.

Schema v4 adds the multi-chip scale-out counters: every row carries
the accumulated :func:`~repro.core.scaleout.scaleout_totals` dict
(``scaleout``) with ``inner_searches`` and ``partitions_pruned``
additionally lifted to the top level, so trajectory diffs can track
the two-level DSE's work avoidance the same way they track candidate
pruning.  Rows of benchmarks that never run a scale-out search carry
zeros; the fields are strictly additive over v3.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

import pytest

# Some benchmarks time the engine against the reference searches in
# ``tests/oracles.py``; make the repository root importable under a
# bare ``pytest benchmarks/...`` as well as ``python -m pytest``.
_ROOT = str(Path(__file__).resolve().parents[1])
if _ROOT not in sys.path:
    sys.path.insert(0, _ROOT)

from repro.core.engine import reset_search_totals, search_totals
from repro.core.scaleout import reset_scaleout_totals, scaleout_totals

_ARTIFACT_SCHEMA = "repro-bench-trajectory/4"
_rows = []
_serving = {}


@pytest.fixture
def report_printer(request):
    """Print a report block under the current test's name."""

    def _print(text: str) -> None:
        print(f"\n===== {request.node.name} =====")
        print(text)

    return _print


@pytest.fixture
def record_serving(request):
    """Attach serving metrics to this benchmark's trajectory row (v3).

    ``bench_serve`` calls this once with its measured load numbers;
    extra keyword fields (e.g. raw scheduler counters) ride along in
    the row's ``serving`` dict.
    """

    def _record(*, qps, p50_ms, p99_ms, coalesce_ratio, **extra):
        _serving[request.node.nodeid] = {
            "qps": float(qps),
            "p50_ms": float(p50_ms),
            "p99_ms": float(p99_ms),
            "coalesce_ratio": float(coalesce_ratio),
            **extra,
        }

    return _record


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    """Record wall time + in-process DSE search totals per benchmark.

    Search totals are per-process: a benchmark that farms experiments
    out to worker processes (``bench_pipeline``) reports near-zero
    parent-side totals but still records its wall time.
    """
    reset_search_totals()
    reset_scaleout_totals()
    start = time.perf_counter()
    yield
    totals = search_totals()
    so_totals = scaleout_totals()
    row = {
        "benchmark": item.nodeid,
        "wall_time_s": time.perf_counter() - start,
        "evaluations": (
            totals.get("evaluated", 0) + totals.get("batch_evaluations", 0)
        ),
        "candidates_skipped": totals.get("candidates_skipped", 0),
        "inner_searches": so_totals.get("inner_searches", 0),
        "partitions_pruned": so_totals.get("partitions_pruned", 0),
        "search": totals,
        "scaleout": so_totals,
    }
    serving = _serving.pop(item.nodeid, None)
    if serving is not None:
        row["serving"] = serving
        for headline in ("qps", "p50_ms", "p99_ms", "coalesce_ratio"):
            row[headline] = serving[headline]
    _rows.append(row)


def pytest_sessionfinish(session, exitstatus):
    if not _rows:
        return
    path = os.environ.get("BENCH_PIPELINE_PATH", "BENCH_pipeline.json")
    payload = {"schema": _ARTIFACT_SCHEMA, "rows": _rows}
    try:
        with open(path, "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
    except OSError:
        pass  # a read-only checkout must not fail the benchmarks
