"""Throughput benchmarks for the cost model, DSE and simulator.

These are the tooling-speed numbers a user of the library cares about:
how fast one cost evaluation is, how fast a full exhaustive DSE runs,
and how the tile-level simulator scales.
"""

from repro.arch.presets import edge
from repro.core.dataflow import flat_r
from repro.core.dse import search
from repro.core.perf import cost_la_pair, cost_scope
from repro.models.configs import model_config
from repro.ops.attention import AttentionConfig, Scope
from repro.sim.engine import simulate
from repro.sim.schedule import build_la_schedule

_EDGE = edge()


def test_single_cost_evaluation(benchmark):
    """One closed-form L-A cost evaluation (the DSE inner loop)."""
    cfg = model_config("bert", seq=4096)
    result = benchmark(cost_la_pair, cfg, flat_r(128), _EDGE)
    assert result.total_cycles > 0


def test_block_scope_evaluation(benchmark):
    """A full eight-operator block costing."""
    cfg = model_config("bert", seq=4096)
    result = benchmark(cost_scope, cfg, Scope.BLOCK, _EDGE, flat_r(128))
    assert result.utilization > 0


def test_full_dse(benchmark):
    """One exhaustive DSE (the paper's per-point search)."""
    cfg = model_config("bert", seq=4096)
    result = benchmark.pedantic(
        lambda: search(cfg, _EDGE, scope=Scope.LA, retain_points=True),
        rounds=3, iterations=1
    )
    assert result.num_points > 50
    benchmark.extra_info["points_searched"] = result.num_points


def test_simulator_throughput(benchmark):
    """Tile-level simulation of a few hundred passes."""
    cfg = AttentionConfig(
        "simbench", batch=4, heads=4, d_model=256, seq_q=512, seq_kv=512,
        d_ff=1024,
    )
    schedule = build_la_schedule(cfg, flat_r(64), _EDGE)
    result = benchmark(simulate, schedule, _EDGE)
    assert result.total_cycles > 0
    benchmark.extra_info["passes"] = len(schedule)
