"""Tests for the two-level multi-chip scale-out DSE.

Three bars, mirroring the candidate layer's contract one level up:

* **Model structure** — partition enumeration covers exactly the
  feasible factorizations, sharding ceil-divides the right axes, and
  the induced collectives match the sharding model's closed forms.
* **Grid fidelity** — the vectorized outer grid must reproduce the
  scalar fabric functions *bit for bit*, and its bounds must be
  admissible: never above the true (inner search + fabric) total of
  any outer point, probed over randomized (hypothesis) workloads.
* **Equivalence** — branch-and-bound pruning, memoization and
  warm-starting must be invisible in the result: the hierarchical
  search returns the winner of the exhaustive cross-product oracle
  (``tests/oracles.py``) exactly.
"""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.arch.fabric import (
    CollectiveKind,
    CollectiveSchedule,
    FabricSpec,
    collective_time_s,
)
from repro.arch.presets import cloud, edge
from repro.core import engine
from repro.core.cache import default_cache_dir
from repro.core.candidates import family_lower_bound
from repro.core.dataflow import AttentionVariant, Granularity, Stationarity
from repro.core.dse import (
    Objective,
    SearchSpace,
    enumerate_families,
    expand_family,
    search,
)
from repro.core.engine import clear_evaluation_cache
from repro.core.perf import PerfOptions, cost_scope
from repro.core.scaleout import (
    DEFAULT_SCHEDULES,
    Partition,
    ScaleoutSystem,
    enumerate_partitions,
    evaluate_partition_grid,
    induced_collectives,
    reset_scaleout_totals,
    scaleout_totals,
    search_scaleout,
    shard_config,
    sweep_chip_counts,
)
from repro.ops.attention import AttentionConfig, Scope
from tests.oracles import exhaustive_scaleout_best


def _cfg(batch=4, heads=4, d_head=16, seq=128):
    return AttentionConfig(
        name="scale", batch=batch, heads=heads, d_model=heads * d_head,
        seq_q=seq, seq_kv=seq, d_ff=4 * heads * d_head,
    )


def _system(**kwargs):
    return ScaleoutSystem(chip=edge(), **kwargs)


workloads = st.builds(
    _cfg,
    batch=st.integers(min_value=1, max_value=8),
    heads=st.sampled_from([2, 4, 8]),
    d_head=st.sampled_from([16, 32]),
    seq=st.sampled_from([64, 128]),
)
chip_counts = st.sampled_from([2, 4, 6, 8, 12])


class TestPartitions:
    def test_ways_multiply_to_chips(self):
        for part in enumerate_partitions(_cfg(), 8):
            assert (
                part.batch_ways * part.head_ways * part.seq_ways
                == part.chips == 8
            )

    def test_infeasible_cuts_excluded(self):
        cfg = _cfg(batch=2, heads=2, seq=128)
        for part in enumerate_partitions(cfg, 8):
            assert part.batch_ways <= cfg.batch
            assert part.head_ways <= cfg.heads
            assert part.seq_ways <= cfg.seq_q

    def test_single_chip_is_the_identity_partition(self):
        (part,) = enumerate_partitions(_cfg(), 1)
        assert part.label == "b1-h1-s1"

    def test_order_is_batch_then_head_ascending(self):
        parts = enumerate_partitions(_cfg(), 4)
        keys = [(p.batch_ways, p.head_ways) for p in parts]
        assert keys == sorted(keys)

    def test_validation(self):
        with pytest.raises(ValueError):
            Partition(chips=4, batch_ways=2, head_ways=1, seq_ways=1)
        with pytest.raises(ValueError):
            Partition(chips=4, batch_ways=0, head_ways=1, seq_ways=4)
        with pytest.raises(ValueError):
            enumerate_partitions(_cfg(), 0)


class TestShardConfig:
    def test_head_shard_keeps_d_head(self):
        cfg = _cfg(heads=4, d_head=16)
        shard = shard_config(cfg, Partition(2, 1, 2, 1))
        assert shard.heads == 2
        assert shard.d_model == 2 * 16
        assert shard.d_ff == cfg.d_ff // 2

    def test_seq_shard_cuts_q_only(self):
        cfg = _cfg(seq=128)
        shard = shard_config(cfg, Partition(4, 1, 1, 4))
        assert shard.seq_q == 32
        assert shard.seq_kv == cfg.seq_kv

    def test_ceil_division(self):
        cfg = _cfg(batch=3)
        shard = shard_config(cfg, Partition(2, 2, 1, 1))
        assert shard.batch == 2  # the largest shard sets the pace

    def test_label_lands_in_the_name(self):
        shard = shard_config(_cfg(), Partition(4, 2, 2, 1))
        assert shard.name.endswith("/b2-h2-s1")


class TestInducedCollectives:
    def test_pure_batch_is_free(self):
        assert induced_collectives(_cfg(), Partition(4, 4, 1, 1), 2) == ()

    def test_seq_shard_gathers_kv(self):
        cfg = _cfg(batch=2, heads=4, d_head=16, seq=128)
        (coll,) = induced_collectives(cfg, Partition(4, 1, 1, 4), 2)
        assert coll.kind is CollectiveKind.ALL_GATHER
        assert coll.group == 4
        # 2 tensors x B x H x Nkv x d_head x bytes (un-cut shard axes).
        assert coll.payload_bytes == 2 * 2 * 4 * 128 * 16 * 2

    def test_head_shard_reduces_output(self):
        cfg = _cfg(batch=2, heads=4, d_head=16, seq=128)
        (coll,) = induced_collectives(cfg, Partition(2, 1, 2, 1), 2)
        assert coll.kind is CollectiveKind.ALL_REDUCE
        assert coll.group == 2
        # B x Nq x d_model x bytes, over the full (replicated) d_model.
        assert coll.payload_bytes == 2 * 128 * cfg.d_model * 2

    def test_mixed_partition_induces_both(self):
        kinds = {
            c.kind
            for c in induced_collectives(_cfg(), Partition(4, 1, 2, 2), 2)
        }
        assert kinds == {
            CollectiveKind.ALL_GATHER, CollectiveKind.ALL_REDUCE
        }


class TestSystem:
    def test_unshared_chip_view_is_the_chip(self):
        assert _system().chip_view() == edge()

    def test_shared_channel_derates_offchip(self):
        system = _system(chips_per_channel=4, channel_contention=1.25)
        view = system.chip_view()
        assert view.offchip.bandwidth_bytes_per_sec == pytest.approx(
            edge().offchip.bandwidth_bytes_per_sec / (4 * 1.25)
        )

    def test_fingerprint_is_name_blind(self):
        from dataclasses import replace

        renamed = ScaleoutSystem(chip=replace(edge(), name="other"))
        assert _system().fingerprint() == renamed.fingerprint()

    def test_validation(self):
        with pytest.raises(ValueError):
            _system(chips_per_channel=0)
        with pytest.raises(ValueError):
            _system(channel_contention=0.5)


class TestGridFidelity:
    """The vectorized grid reproduces the scalar fabric bit for bit."""

    def _scalar_fabric_s(self, cfg, system, part, schedule):
        return sum(
            collective_time_s(
                system.fabric, schedule, coll.kind, coll.group,
                coll.payload_bytes,
            )
            for coll in induced_collectives(
                cfg, part, system.chip.bytes_per_element
            )
        )

    def test_fabric_cycles_bit_identical_to_scalar(self):
        cfg = _cfg(batch=8, heads=8, seq=128)
        system = _system(fabric=FabricSpec(hop_latency_s=1e-6))
        grid = evaluate_partition_grid(cfg, system, 8)
        freq = system.chip.frequency_hz
        for i, part in enumerate(grid.partitions):
            for j, schedule in enumerate(grid.schedules):
                expected = (
                    self._scalar_fabric_s(cfg, system, part, schedule)
                    * freq
                )
                assert grid.fabric_cycles[i, j] == expected, (part, schedule)

    def test_bound_is_floor_plus_fabric(self):
        grid = evaluate_partition_grid(_cfg(), _system(), 4)
        assert (
            grid.bound_cycles
            == grid.compute_floor_cycles[:, None] + grid.fabric_cycles
        ).all()

    def test_rejects_empty_spaces(self):
        with pytest.raises(ValueError):
            evaluate_partition_grid(_cfg(batch=1, heads=1, seq=1),
                                    _system(), 64)


class TestBoundAdmissibility:
    """bound(point) <= inner-search total + fabric, always."""

    @settings(max_examples=10, deadline=None)
    @given(cfg=workloads, chips=chip_counts)
    def test_bounds_admissible(self, cfg, chips):
        system = _system(chips_per_channel=2)
        grid = evaluate_partition_grid(cfg, system, chips)
        view = system.chip_view()
        for i, part in enumerate(grid.partitions):
            shard = shard_config(cfg, part)
            result = search(shard, view, scope=Scope.LA,
                            objective=Objective.RUNTIME,
                            retain_points=False)
            chip_cycles = float(result.best.cost.total_cycles)
            for j in range(len(grid.schedules)):
                true_total = chip_cycles + float(grid.fabric_cycles[i, j])
                assert grid.bound_cycles[i, j] <= true_total, (
                    part, grid.schedules[j]
                )


class TestGeneratedAdmissibility:
    """The new axes, drawn: BLOCK/MODEL scope, decode and
    cross-attention shards, variant spaces and rigid mapping, on cuts
    that divide neither the batch nor the sequence.  Every family bound
    must sit at or below every member of that family on the shard, and
    every partition floor at or below the shard's inner winner."""

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(
        batch=st.sampled_from([1, 3, 5]),
        heads=st.sampled_from([2, 3, 4]),
        seq=st.sampled_from([(1, 96), (33, 96), (100, 100)]),
        chips=st.sampled_from([2, 6, 8]),
        scope=st.sampled_from([Scope.BLOCK, Scope.MODEL]),
        rigid=st.booleans(),
        variants=st.booleans(),
    )
    def test_family_bounds_and_floors_admissible(
        self, batch, heads, seq, chips, scope, rigid, variants
    ):
        seq_q, seq_kv = seq
        cfg = AttentionConfig(
            name="gen", batch=batch, heads=heads, d_model=heads * 16,
            seq_q=seq_q, seq_kv=seq_kv, d_ff=4 * heads * 16, num_blocks=2,
        )
        assume(enumerate_partitions(cfg, chips))
        system = _system(chips_per_channel=2)
        view = system.chip_view()
        options = PerfOptions(flexible_mapping=not rigid)
        space = SearchSpace(
            granularities=(Granularity.M, Granularity.H, Granularity.R),
            row_choices=(1, 16, 64),
            stationarities=(Stationarity.OUTPUT, Stationarity.WEIGHT),
            variants=(tuple(AttentionVariant) if variants
                      else (AttentionVariant.SOFTMAX,)),
        )
        grid = evaluate_partition_grid(cfg, system, chips, scope=scope,
                                       space=space, options=options)
        for i, part in enumerate(grid.partitions):
            shard = shard_config(cfg, part)
            for family in enumerate_families(shard, space):
                bound = family_lower_bound(Objective.RUNTIME, shard, scope,
                                           view, family, space, options)
                for df in expand_family(shard, family, space):
                    value = cost_scope(shard, scope, view, df,
                                       options=options).total_cycles
                    assert bound <= value, (part, df.name, bound, value)
            winner = search(shard, view, scope=scope,
                            objective=Objective.RUNTIME, space=space,
                            options=options, retain_points=False)
            assert grid.compute_floor_cycles[i] <= (
                winner.best.cost.total_cycles
            ), part


class TestSearchEquivalence:
    """Pruned, memoized, warm-started — all byte-identical."""

    def _key(self, result):
        best = result.best
        return (
            best.partition, best.schedule, best.dataflow,
            best.chip_cost, best.fabric_cycles,
        )

    def _oracle_key(self, oracle):
        return (
            oracle.partition, oracle.schedule, oracle.dataflow,
            oracle.chip_cost, oracle.fabric_cycles,
        )

    @settings(max_examples=8, deadline=None)
    @given(cfg=workloads, chips=chip_counts)
    def test_hierarchical_matches_exhaustive(self, cfg, chips):
        system = _system(chips_per_channel=2)
        clear_evaluation_cache()
        ref = exhaustive_scaleout_best(cfg, system, chips)
        clear_evaluation_cache()
        hier = search_scaleout(cfg, system, chips)
        assert self._key(hier) == self._oracle_key(ref)
        assert hier.best.total_cycles == ref.total_cycles

    def test_winner_never_pruned(self):
        """The exhaustive winner's bound can never exceed the optimum,
        so the strict-inequality gate cannot fire against it."""
        cfg = _cfg(batch=8, heads=8, seq=128)
        system = _system(chips_per_channel=2)
        clear_evaluation_cache()
        ref = exhaustive_scaleout_best(cfg, system, 8)
        grid = evaluate_partition_grid(cfg, system, 8)
        i = grid.partitions.index(ref.partition)
        j = grid.schedules.index(ref.schedule)
        assert grid.bound_cycles[i, j] <= ref.total_cycles

    def test_stats_ledger_balances(self):
        cfg = _cfg(batch=8, heads=8, seq=128)
        clear_evaluation_cache()
        result = search_scaleout(cfg, _system(), 8)
        stats = result.stats
        assert stats.memo_hits == 0
        assert stats.outer_enumerated == (
            stats.outer_evaluated + stats.partitions_pruned
        )
        assert stats.partitions_pruned > 0
        assert stats.inner_searches >= 1

    def test_memo_hit_short_circuits_repeat_search(self):
        cfg = _cfg()
        system = _system()
        clear_evaluation_cache()
        first = search_scaleout(cfg, system, 4)
        again = search_scaleout(cfg, system, 4)
        assert again.stats.memo_hits == 1
        assert again.stats.inner_searches == 0
        assert self._key(again) == self._key(first)

    @pytest.mark.parametrize("disk", [False, True], ids=["lru", "disk"])
    def test_memo_hit_builds_no_grid(self, monkeypatch, tmp_path, disk):
        """A repeat search answers from the memo without bounding
        anything; its stats and incumbent are the full search's."""
        cfg = _cfg(batch=8, heads=8, seq=128)
        system = _system()
        clear_evaluation_cache()
        with default_cache_dir(str(tmp_path) if disk else ""):
            first = search_scaleout(cfg, system, 8)
            if disk:
                clear_evaluation_cache()
            calls = []
            real = engine.bound_table

            def counted(*args, **kwargs):
                calls.append(1)
                return real(*args, **kwargs)

            monkeypatch.setattr(engine, "bound_table", counted)
            reset_scaleout_totals()
            again = search_scaleout(cfg, system, 8)
        assert calls == []
        points = len(enumerate_partitions(cfg, 8)) * len(DEFAULT_SCHEDULES)
        assert again.stats.as_dict() == {
            "outer_enumerated": points,
            "outer_evaluated": 0,
            "partitions_pruned": 0,
            "inner_searches": 0,
            "inner_reused": 0,
            "memo_hits": 1,
        }
        assert scaleout_totals() == again.stats.as_dict()
        assert first.stats.outer_enumerated == points
        assert self._key(again) == self._key(first)

    def test_warm_chained_sweep_bit_identical_to_cold(self):
        """Every count of the chained sweep is the cold oracle's."""
        cfg = _cfg(batch=8, heads=8, seq=128)
        system = _system(chips_per_channel=2)
        counts = (2, 4, 8)
        clear_evaluation_cache()
        warm = sweep_chip_counts(cfg, system, counts)
        for chips, result in zip(counts, warm):
            ref = exhaustive_scaleout_best(cfg, system, chips)
            assert self._key(result) == self._oracle_key(ref), chips
            assert result.best.total_cycles == ref.total_cycles

    def test_sweep_equals_unseeded_searches(self, monkeypatch):
        """The ext-scaleout sweep seeds each count's first inner search
        with the previous count's per-chip winner; every count answers
        what one unseeded search at that count answers, and at least
        one seed is found in its space and re-scored."""
        from repro.core.candidates import SpaceTable
        from repro.experiments.ext_scaleout import build_system
        from repro.models.configs import model_config

        # The ext-scaleout workload: 99-member inner spaces, planned.
        cfg = model_config("xlm", seq=16384, batch=8)
        system = build_system()
        counts = (8, 16, 32, 64)
        located = []
        real = SpaceTable.locate

        def locate(table, dataflow):
            index = real(table, dataflow)
            located.append(index)
            return index

        monkeypatch.setattr(SpaceTable, "locate", locate)
        clear_evaluation_cache()
        swept = sweep_chip_counts(cfg, system, counts)
        assert any(index is not None for index in located), located
        for chips, result in zip(counts, swept):
            clear_evaluation_cache()
            alone = search_scaleout(cfg, system, chips)
            assert result.best == alone.best, chips

    def test_sweep_prunes_and_avoids_inner_searches(self):
        """The ext-scaleout sweep: outer pruning fires, the ledger
        balances, and the hierarchical search runs >= 5x fewer inner
        searches than the oracle, which needs one per partition."""
        from repro.experiments.ext_scaleout import build_system
        from repro.models.configs import model_config

        cfg = model_config("xlm", seq=4096, batch=8)
        system = build_system()
        counts = (8, 16, 32, 64)
        clear_evaluation_cache()
        reset_scaleout_totals()
        results = sweep_chip_counts(cfg, system, counts)
        hier = scaleout_totals()
        assert hier["partitions_pruned"] > 0, hier
        assert hier["outer_enumerated"] == (
            hier["outer_evaluated"] + hier["partitions_pruned"]
        ), hier
        oracle_inner = sum(
            len(enumerate_partitions(cfg, chips)) for chips in counts
        )
        assert oracle_inner >= 5 * hier["inner_searches"], (
            oracle_inner, hier
        )
        for chips, result in zip(counts, results):
            ref = exhaustive_scaleout_best(cfg, system, chips)
            assert self._key(result) == self._oracle_key(ref), chips

    def test_totals_accumulate(self):
        cfg = _cfg()
        clear_evaluation_cache()
        reset_scaleout_totals()
        result = search_scaleout(cfg, _system(), 4)
        totals = scaleout_totals()
        assert totals == result.stats.as_dict()

    def test_total_cycles_is_chip_plus_fabric(self):
        cfg = _cfg(batch=2, seq=128)
        clear_evaluation_cache()
        result = search_scaleout(cfg, _system(), 4)
        best = result.best
        assert best.total_cycles == best.chip_cycles + best.fabric_cycles
        assert math.isfinite(best.total_cycles)
        assert best.total_cycles == (
            exhaustive_scaleout_best(cfg, _system(), 4).total_cycles
        )


def _unnamed(cost):
    """``cost`` with its operator names blanked: a shard is labelled
    ``<model>/b1-h1-s1``, the unsharded workload ``<model>``."""
    from dataclasses import replace

    return replace(cost, operator_costs=[
        replace(op, name="") for op in cost.operator_costs
    ])


class TestSingleChip:
    """A 1-chip scale-out is the single-chip search: the one partition
    shards nothing and moves nothing over the fabric."""

    @pytest.mark.parametrize("space", [
        SearchSpace(), SearchSpace(exhaustive_staging=True),
    ], ids=["default", "exhaustive-staging"])
    @pytest.mark.parametrize("scope", [Scope.LA, Scope.BLOCK],
                             ids=["LA", "Block"])
    @pytest.mark.parametrize("model,seq", [
        ("bert", 512), ("xlm", 2048), ("t5", 1000), ("bert", 16384),
    ])
    @pytest.mark.parametrize("platform", [edge, cloud],
                             ids=["edge", "cloud"])
    def test_one_chip_equals_single_chip_search(self, platform, model,
                                                seq, scope, space):
        from repro.models.configs import model_config

        cfg = model_config(model, seq=seq)
        accel = platform()
        clear_evaluation_cache()
        with default_cache_dir(""):
            scaled = search_scaleout(cfg, ScaleoutSystem(chip=accel), 1,
                                     scope, space)
            single = search(cfg, accel, scope, space=space)
        assert scaled.best.dataflow == single.best.dataflow
        assert scaled.best.fabric_cycles == 0
        assert _unnamed(scaled.best.chip_cost) == _unnamed(single.best.cost)
