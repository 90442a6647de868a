"""The space table against the dataflows it stands for.

A search scores rows of a :class:`~repro.core.candidates.SpaceTable`
instead of ``Dataflow`` objects, so the table must be the enumeration
itself, column for column: the grid features the table generates from
family fields equal ``_GridFeatures`` built from
:func:`~repro.core.dse.enumerate_dataflows`, member ``i`` of the table
is dataflow ``i``, and locating that dataflow returns ``i``.  Family
bound rows read off the family fields equal the rows of the
representative ``Dataflow`` (the oracle route in ``tests/oracles.py``),
and so do their bounds.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.presets import edge
from repro.core.batch import GridRows, _GridFeatures, evaluate_grid
from repro.core.candidates import (
    BoundColumns,
    bound_table,
    family_bounds,
    family_columns,
    space_table,
)
from repro.core.dataflow import (
    AttentionVariant,
    Granularity,
    StagingPolicy,
    Stationarity,
    base_x,
    flat_r,
    flat_x,
)
from repro.core.dse import (
    Objective,
    SearchSpace,
    enumerate_dataflows,
    enumerate_families,
)
from repro.core.perf import PerfOptions
from repro.ops.attention import AttentionConfig, Scope
from tests.oracles import family_bound_rows

OBJECTIVES = (Objective.RUNTIME, Objective.ENERGY, Objective.EDP)


def _cfg(batch=2, heads=4, d_head=16, seq_q=64, seq_kv=64):
    return AttentionConfig(
        name="table", batch=batch, heads=heads, d_model=heads * d_head,
        seq_q=seq_q, seq_kv=seq_kv, d_ff=4 * heads * d_head, num_blocks=2,
    )


workloads = st.builds(
    _cfg,
    batch=st.integers(min_value=1, max_value=6),
    heads=st.integers(min_value=1, max_value=5),
    d_head=st.sampled_from([16, 32]),
    # seq_q=1 is decode; seq_kv is drawn apart (cross-attention).
    seq_q=st.sampled_from([1, 3, 40, 64, 97, 256]),
    seq_kv=st.sampled_from([1, 64, 200, 384]),
)


@st.composite
def spaces(draw):
    """Any valid space: staging, variants, stationarities, fused-only
    and unfused-only, with or without the plain base, and row choices
    that may lie above ``seq_q``."""
    allow_fused, allow_unfused = draw(st.sampled_from(
        [(True, True), (True, False), (False, True)]))
    granularities = tuple(draw(st.lists(
        st.sampled_from(list(Granularity)), unique=True, max_size=4)))
    include_plain_base = draw(st.booleans()) or not granularities
    row_choices = draw(st.one_of(
        st.none(),
        st.lists(st.integers(min_value=1, max_value=600), min_size=1,
                 max_size=4).map(tuple),
    ))
    stationarities = tuple(draw(st.lists(
        st.sampled_from(list(Stationarity)), unique=True, min_size=1)))
    variants = tuple(draw(st.lists(
        st.sampled_from(list(AttentionVariant)), unique=True, min_size=1)))
    return SearchSpace(
        allow_fused=allow_fused,
        allow_unfused=allow_unfused,
        granularities=granularities,
        row_choices=row_choices,
        stationarities=stationarities,
        exhaustive_staging=draw(st.booleans()),
        include_plain_base=include_plain_base,
        variants=variants,
    )


def _assert_columns_equal(got: _GridFeatures, want: _GridFeatures) -> None:
    assert got.ints.dtype == want.ints.dtype == np.int64
    assert got.flags.dtype == want.flags.dtype == bool
    for name in _GridFeatures.INT_FIELDS + _GridFeatures.FLAG_FIELDS:
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert np.array_equal(got.is_output, want.is_output)


class TestGeneratedSpaces:
    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(cfg=workloads, space=spaces())
    def test_columns_equal_the_enumerated_dataflows(self, cfg, space):
        table = space_table(cfg, space)
        members = list(enumerate_dataflows(cfg, edge(), space))
        assert table.total == len(members) == sum(table.sizes)
        assert table.families == tuple(enumerate_families(cfg, space))
        assert len(table.features) == len(members)
        if members:
            _assert_columns_equal(table.features,
                                  _GridFeatures(cfg, members))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(cfg=workloads, space=spaces())
    def test_offsets_are_prefix_sums(self, cfg, space):
        table = space_table(cfg, space)
        assert len(table.offsets) == len(table.sizes) == len(table.families)
        total = 0
        for size, offset in zip(table.sizes, table.offsets):
            assert offset == total
            total += size
        assert table.total == total == len(
            list(enumerate_dataflows(cfg, edge(), space))
        )

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(cfg=workloads, space=spaces())
    def test_members_round_trip(self, cfg, space):
        table = space_table(cfg, space)
        members = list(enumerate_dataflows(cfg, edge(), space))
        for i, df in enumerate(members):
            assert table.dataflow(i) == df
            # Duplicate families (a repeated row choice) resolve to the
            # first occurrence, as the enumeration order does.
            assert members[table.locate(df)] == df
            assert table.locate(df) == members.index(df)
        with pytest.raises(IndexError):
            table.dataflow(len(members))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(cfgs=st.lists(workloads, min_size=1, max_size=3),
           space=spaces(), objective=st.sampled_from(OBJECTIVES))
    def test_family_columns_bound_as_the_representative_rows(
            self, cfgs, space, objective):
        """The memoized family columns of several workloads bound, in
        one call, exactly as each workload's representative rows."""
        if not list(enumerate_families(cfgs[0], space)):
            return
        accel = edge().with_scratchpad_bytes(64 * 1024)
        bounds, counts = family_bounds(objective, Scope.LA, accel, cfgs,
                                       space)
        want = []
        for cfg in cfgs:
            families = list(enumerate_families(cfg, space))
            assert family_columns(cfg.seq_q, space).families == tuple(
                families)
            want += bound_table(objective, Scope.LA, accel,
                                BoundColumns.of_dataflows(family_bound_rows(
                                    cfg, families, space))).tolist()
        assert counts == [len(list(enumerate_families(c, space)))
                          for c in cfgs]
        assert bounds.tolist() == want


class TestRowsScoreAsDataflows:
    @pytest.mark.parametrize("scope", list(Scope), ids=lambda s: s.name)
    def test_any_row_subset_scores_bit_equal(self, scope):
        cfg = _cfg(batch=3, heads=4, seq_q=97, seq_kv=200)
        space = SearchSpace(exhaustive_staging=True,
                            stationarities=tuple(Stationarity),
                            variants=tuple(AttentionVariant))
        table = space_table(cfg, space)
        members = list(enumerate_dataflows(cfg, edge(), space))
        index = np.arange(3, table.total, 7, dtype=np.int64)
        rows = evaluate_grid(cfg, scope, edge(),
                             GridRows(table.features, index),
                             PerfOptions(flexible_mapping=False))
        flows = evaluate_grid(cfg, scope, edge(),
                              [members[i] for i in index],
                              PerfOptions(flexible_mapping=False))
        for field in ("total_cycles", "dram_bytes", "footprint_bytes",
                      "macs", "sl_words", "sg_words", "dram_words",
                      "sfu_ops"):
            assert np.array_equal(getattr(rows, field),
                                  getattr(flows, field)), field
        assert len(GridRows(table.features)) == table.total


class TestLocate:
    def test_foreign_dataflows_are_absent(self):
        cfg = _cfg()
        space = SearchSpace()
        table = space_table(cfg, space)
        odd = StagingPolicy(lhs=True, rhs=False, rhs2=False, out=True,
                            intermediate=False)
        for df in (
            flat_r(3),  # off the row ladder
            base_x(Granularity.B, batch_tile=2),  # non-default tile
            flat_x(Granularity.H, staging=odd),  # not a default corner
            flat_r(16, stationarity=Stationarity.WEIGHT),
            flat_r(16, variant=AttentionVariant.FUSEMAX),
        ):
            assert table.locate(df) is None

    def test_unfused_member_absent_from_fused_only_space(self):
        cfg = _cfg()
        space = SearchSpace(allow_unfused=False)
        assert space_table(cfg, space).locate(
            base_x(Granularity.M)) is None
