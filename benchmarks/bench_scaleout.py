"""Benchmark: hierarchical scale-out DSE vs the exhaustive cross-product.

Runs the fig8-style chip-count sweep of ``ext-scaleout`` (one serving
workload, 8-64 chips) twice: with the exhaustive oracle of
``tests/oracles.py`` (every partition x schedule point pays its inner
per-chip search) and with the two-level branch-and-bound (outer points
bound-gated before any inner search, best-bound-first, warm-chained
across chip counts).  Asserts:

* identical winning partition, schedule, dataflow and cycle split at
  every chip count,
* >= 5x fewer inner-search invocations for the hierarchical search
  than the oracle's one per partition,
* >= 2x wall-clock speedup,
* nonzero pruning counts (the outer branch-and-bound actually fired)
  and a balanced outer ledger.

The evaluation caches are cleared between the sides so nothing leaks
from one side into the other's measurement.  Wall times land in
``BENCH_pipeline.json`` via the harness hook (schema v4 also lifts
``inner_searches`` / ``partitions_pruned`` per row).
"""

import os
import time

from repro.core.engine import clear_evaluation_cache, reset_search_totals
from repro.core.scaleout import (
    enumerate_partitions,
    reset_scaleout_totals,
    scaleout_totals,
    sweep_chip_counts,
)
from repro.experiments.ext_scaleout import build_system
from repro.models.configs import model_config
from tests.oracles import exhaustive_scaleout_best

CHIP_COUNTS = (8, 16, 32, 64)


def _workload():
    # BENCH_SCALEOUT_SEQ shrinks the workload for smoke runs; the
    # default is the serving-style long-sequence regime of the
    # ext-scaleout experiment.
    return model_config(
        "xlm", seq=int(os.environ.get("BENCH_SCALEOUT_SEQ", "16384")),
        batch=8,
    )


def _oracle_sweep(cfg, system):
    """The oracle at every chip count; returns (winners, wall seconds)."""
    clear_evaluation_cache()
    start = time.perf_counter()
    winners = []
    for chips in CHIP_COUNTS:
        best = exhaustive_scaleout_best(cfg, system, chips)
        winners.append((
            chips,
            best.partition.label,
            best.schedule.value,
            best.dataflow,
            best.chip_cost.total_cycles,
            best.fabric_cycles,
        ))
    return winners, time.perf_counter() - start


def _sweep(cfg, system):
    """One chip-count sweep; returns (winners, totals, wall seconds)."""
    clear_evaluation_cache()
    reset_search_totals()
    reset_scaleout_totals()
    start = time.perf_counter()
    results = sweep_chip_counts(cfg, system, CHIP_COUNTS)
    winners = [
        (
            r.chips,
            r.best.partition.label,
            r.best.schedule.value,
            r.best.dataflow,
            r.best.chip_cost.total_cycles,
            r.best.fabric_cycles,
        )
        for r in results
    ]
    return winners, scaleout_totals(), time.perf_counter() - start


def test_scaleout_pruning_speedup(benchmark, report_printer):
    cfg = _workload()
    system = build_system()

    naive_winners, naive_s = _oracle_sweep(cfg, system)
    hier_winners, hier_totals, hier_s = benchmark.pedantic(
        lambda: _sweep(cfg, system),
        rounds=1, iterations=1,
    )

    # The oracle searches every partition (once per schedule; the
    # repeats are memo hits, so only one search per partition counts).
    naive_inner = sum(
        len(enumerate_partitions(cfg, chips)) for chips in CHIP_COUNTS
    )
    hier_inner = hier_totals["inner_searches"]
    lines = [
        f"sweep: chips {CHIP_COUNTS}, "
        f"{hier_totals['outer_enumerated']} outer points",
        f"exhaustive  : {naive_s * 1e3:9.1f} ms  {naive_inner:4d} inner "
        f"searches",
        f"hierarchical: {hier_s * 1e3:9.1f} ms  {hier_inner:4d} inner "
        f"searches ({naive_s / hier_s:.1f}x wall, "
        f"{naive_inner / max(hier_inner, 1):.1f}x searches, "
        f"{hier_totals['partitions_pruned']} outer points pruned)",
    ]
    report_printer("\n".join(lines))

    # Equivalence: same winner, same cycle split, at every chip count.
    assert hier_winners == naive_winners

    # The hierarchical side accounts for every outer point it
    # enumerated...
    assert hier_totals["outer_enumerated"] == (
        hier_totals["outer_evaluated"] + hier_totals["partitions_pruned"]
    )
    # ...the branch-and-bound must actually fire...
    assert hier_totals["partitions_pruned"] > 0
    # ...avoid the work the acceptance criterion demands...
    assert naive_inner >= 5.0 * hier_inner, (
        f"hierarchical outer level only avoided "
        f"{naive_inner / max(hier_inner, 1):.2f}x inner searches"
    )
    # ...and buy the wall-clock speedup.
    assert naive_s >= 2.0 * hier_s, (
        f"hierarchical outer level only {naive_s / hier_s:.2f}x faster"
    )


def test_memo_short_circuits_repeat_sweeps(report_printer):
    """A repeated sweep answers from the winner memo, searching nothing."""
    cfg = _workload()
    system = build_system()

    cold_winners, cold_totals, cold_s = _sweep(cfg, system)

    # Same sweep again, caches intact: every chip count memo-hits.
    reset_scaleout_totals()
    start = time.perf_counter()
    results = sweep_chip_counts(cfg, system, CHIP_COUNTS)
    warm_s = time.perf_counter() - start
    warm_totals = scaleout_totals()
    warm_winners = [
        (
            r.chips,
            r.best.partition.label,
            r.best.schedule.value,
            r.best.dataflow,
            r.best.chip_cost.total_cycles,
            r.best.fabric_cycles,
        )
        for r in results
    ]

    report_printer(
        f"cold sweep: {cold_s * 1e3:9.1f} ms  "
        f"{cold_totals['inner_searches']:4d} inner searches\n"
        f"warm sweep: {warm_s * 1e3:9.1f} ms  "
        f"{warm_totals['memo_hits']:4d} memo hits"
    )

    # The memo short-circuits the searches; the outer grid (cheap
    # analytics) is recomputed either way, so the counters — not the
    # wall clock — are the contract here.
    assert warm_winners == cold_winners
    assert warm_totals["memo_hits"] == len(CHIP_COUNTS)
    assert warm_totals["inner_searches"] == 0
