"""The vectorized bound table against the scalar bound oracle.

:func:`repro.core.engine.bound_table` is the engine's only admissible
bound: candidate planning, the one-row ``objective_lower_bound`` /
``cycles_lower_bound`` / ``family_lower_bound`` and the scale-out outer
grid all read it.  Pruning decisions compare bounds with ``>``, so the
table must equal the scalar formulas (``tests/oracles.py``) *bit for
bit* on every row — ``==``, never approx — or plans, pruning counts and
winners could drift.
"""

from dataclasses import replace

import pytest

from repro.arch.presets import cloud, edge
from repro.core import engine
from repro.core.candidates import (
    family_lower_bound,
    plan_candidates,
    space_table,
)
from repro.core.dataflow import AttentionVariant, Stationarity
from repro.core.dse import (
    Objective,
    SearchSpace,
    enumerate_dataflows,
    enumerate_families,
)
from repro.core.engine import (
    bound_table,
    cycles_lower_bound,
    dataflow_bound_row,
    objective_lower_bound,
)
from repro.core.perf import PerfOptions
from repro.core.scaleout import (
    ScaleoutSystem,
    enumerate_partitions,
    evaluate_partition_grid,
    shard_config,
)
from repro.ops.attention import AttentionConfig, Scope
from tests.oracles import (
    family_representative,
    scalar_family_bound,
    scalar_objective_bound,
)

OBJECTIVES = (Objective.RUNTIME, Objective.ENERGY, Objective.EDP)
OPTIONS = {
    "default": PerfOptions(),
    "rigid": PerfOptions(flexible_mapping=False),
    "strict-spill": PerfOptions(spill_extra_pass_only=False),
}
#: Every stationarity, both variants, every staging corner.
WIDE_SPACE = SearchSpace(
    exhaustive_staging=True,
    stationarities=tuple(Stationarity),
    variants=tuple(AttentionVariant),
)


def _cfg(name, batch=2, heads=4, d_head=32, seq_q=128, seq_kv=128,
         blocks=2):
    return AttentionConfig(
        name=name, batch=batch, heads=heads, d_model=heads * d_head,
        seq_q=seq_q, seq_kv=seq_kv, d_ff=4 * heads * d_head,
        num_blocks=blocks,
    )


#: Several distinct workloads in one call: self-attention, decode
#: (``seq_q=1``), cross-attention and a shape with remainder tiles.
CONFIGS = (
    _cfg("self"),
    _cfg("decode", seq_q=1, seq_kv=384),
    _cfg("cross", batch=3, seq_q=40, seq_kv=200),
    _cfg("odd", batch=5, heads=3, d_head=16, seq_q=97, seq_kv=97),
)


def _rows(configs, space=WIDE_SPACE, accel=None, stride=5):
    """Family representatives (widened to their family) plus every
    ``stride``-th member as itself (``fused_in_family=None``)."""
    accel = accel if accel is not None else edge()
    rows = []
    for cfg in configs:
        for family in enumerate_families(cfg, space):
            rows.append((
                cfg,
                family_representative(family, space),
                family.granularity is not None and space.allow_fused,
            ))
        members = list(enumerate_dataflows(cfg, accel, space))
        rows.extend((cfg, df, None) for df in members[::stride])
    return rows


def _assert_rows_equal(objective, scope, accel, rows, options):
    table = bound_table(objective, scope, accel,
                        [dataflow_bound_row(*row) for row in rows], options)
    assert table.shape == (len(rows),)
    for (cfg, df, fused_in_family), got in zip(rows, table.tolist()):
        want = scalar_objective_bound(objective, cfg, scope, accel, df,
                                      options, fused_in_family)
        assert got == want, (objective, scope, cfg.name, df.name,
                             fused_in_family, got, want)


class TestBitEquality:
    @pytest.mark.parametrize("option_name", sorted(OPTIONS))
    @pytest.mark.parametrize("scope", list(Scope), ids=lambda s: s.name)
    @pytest.mark.parametrize("objective", OBJECTIVES,
                             ids=lambda o: o.name)
    def test_every_row_equals_the_scalar_oracle(self, objective, scope,
                                                option_name):
        accel = edge().with_scratchpad_bytes(64 * 1024)
        _assert_rows_equal(objective, scope, accel,
                           _rows(CONFIGS, accel=accel),
                           OPTIONS[option_name])

    @pytest.mark.parametrize("objective", OBJECTIVES,
                             ids=lambda o: o.name)
    def test_cloud_platform_and_plain_base_space(self, objective):
        accel = cloud()
        space = SearchSpace(allow_fused=False,
                            stationarities=tuple(Stationarity))
        _assert_rows_equal(objective, Scope.BLOCK, accel,
                           _rows(CONFIGS, space, accel, stride=1),
                           PerfOptions())

    @pytest.mark.parametrize("objective", OBJECTIVES,
                             ids=lambda o: o.name)
    def test_past_the_int64_headroom(self, objective):
        """A workload of 2**64 MAC-bytes runs on Python-int columns, in
        the same call as an ordinary workload, and stays exact."""
        big = _cfg("big", batch=2 ** 10, heads=2 ** 6, d_head=128,
                   seq_q=2 ** 20, seq_kv=2 ** 20)
        accel = edge()
        macs = big.batch * big.heads * big.seq_q * big.seq_kv * big.d_head
        assert macs * accel.bytes_per_element >= 2 ** 58
        space = SearchSpace(variants=tuple(AttentionVariant))
        rows = [
            (cfg, family_representative(family, space),
             family.granularity is not None)
            for cfg in (big, CONFIGS[0])
            for family in enumerate_families(cfg, space)
        ]
        _assert_rows_equal(objective, Scope.MODEL, accel, rows,
                           PerfOptions())

    def test_one_row_entry_points_agree(self):
        accel = edge()
        cfg = CONFIGS[2]
        for df in list(enumerate_dataflows(cfg, accel, WIDE_SPACE))[::9]:
            assert cycles_lower_bound(cfg, Scope.BLOCK, accel, df) == (
                scalar_objective_bound(Objective.RUNTIME, cfg, Scope.BLOCK,
                                       accel, df)
            )
            assert objective_lower_bound(
                Objective.EDP, cfg, Scope.LA, accel, df
            ) == scalar_objective_bound(Objective.EDP, cfg, Scope.LA,
                                        accel, df)
        for family in enumerate_families(cfg, WIDE_SPACE):
            assert family_lower_bound(
                Objective.ENERGY, cfg, Scope.MODEL, accel, family,
                WIDE_SPACE,
            ) == scalar_family_bound(Objective.ENERGY, cfg, Scope.MODEL,
                                     accel, family, WIDE_SPACE)

    def test_footprint_and_empty_rejected(self):
        rows = _rows(CONFIGS[:1])
        with pytest.raises(ValueError):
            bound_table(Objective.FOOTPRINT, Scope.LA, edge(),
                        [dataflow_bound_row(*row) for row in rows])
        with pytest.raises(ValueError):
            bound_table(Objective.RUNTIME, Scope.LA, edge(), [])
        assert objective_lower_bound(
            Objective.FOOTPRINT, CONFIGS[0], Scope.LA, edge(), rows[0][1]
        ) is None


class _CountingTable:
    def __init__(self, monkeypatch):
        self.calls = 0
        self.rows = []
        real = engine.bound_table

        def counted(objective, scope, accel, rows, *args, **kwargs):
            self.calls += 1
            self.rows.append(len(rows))
            return real(objective, scope, accel, rows, *args, **kwargs)

        monkeypatch.setattr(engine, "bound_table", counted)


class TestOneCallPerCaller:
    def test_plan_bounds_every_family_in_one_call(self, monkeypatch):
        counter = _CountingTable(monkeypatch)
        cfg = CONFIGS[0]
        table = space_table(cfg, WIDE_SPACE)
        bounds = plan_candidates(Objective.ENERGY, cfg, Scope.LA, edge(),
                                 table)
        assert counter.calls == 1
        assert counter.rows == [len(table.families)] == [len(bounds)]
        for family, bound in zip(table.families, bounds):
            assert bound == scalar_family_bound(
                Objective.ENERGY, cfg, Scope.LA, edge(), family, WIDE_SPACE
            )

    def test_grid_bounds_every_shard_in_one_call(self, monkeypatch):
        """One call, one row per family of each distinct shard (each
        shard with its own family list: the row ladder follows its
        query length)."""
        counter = _CountingTable(monkeypatch)
        cfg = _cfg("grid", batch=6, heads=8, seq_q=512, seq_kv=512)
        evaluate_partition_grid(cfg, ScaleoutSystem(chip=edge()), 16)
        shards = {
            replace(shard_config(cfg, part), name=cfg.name)
            for part in enumerate_partitions(cfg, 16)
        }
        assert counter.calls == 1
        assert counter.rows == [sum(
            len(list(enumerate_families(shard, SearchSpace())))
            for shard in shards
        )]


class TestGridFloors:
    """``compute_floor_cycles`` is the per-shard min of the oracle's
    family bounds, bit for bit."""

    @pytest.mark.parametrize(
        "cfg, chips, scope, space",
        [
            (_cfg("la", batch=6, heads=8, seq_q=512, seq_kv=512), 16,
             Scope.LA, SearchSpace()),
            # Cuts that divide neither the batch nor the sequence.
            (_cfg("block", batch=3, heads=8, seq_q=1000, seq_kv=1000),
             16, Scope.BLOCK, SearchSpace()),
            (_cfg("variants", batch=4, heads=4, seq_q=256, seq_kv=256),
             8, Scope.MODEL,
             SearchSpace(variants=tuple(AttentionVariant))),
        ],
        ids=["la", "block-nondivisible", "model-variants"],
    )
    def test_floors_equal_oracle_min(self, cfg, chips, scope, space):
        system = ScaleoutSystem(chip=edge(), chips_per_channel=2)
        view = system.chip_view()
        grid = evaluate_partition_grid(cfg, system, chips, scope=scope,
                                       space=space)
        assert grid.partitions == enumerate_partitions(cfg, chips)
        for i, part in enumerate(grid.partitions):
            shard = replace(shard_config(cfg, part), name=cfg.name)
            want = min(
                scalar_family_bound(Objective.RUNTIME, shard, scope, view,
                                    family, space)
                for family in enumerate_families(shard, space)
            )
            assert grid.compute_floor_cycles[i] == want, part
