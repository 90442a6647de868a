"""The array L2 tile search against the loop oracle.

:func:`repro.core.tiling.tile_plan` scores the whole geometric
``(tm, tn, tk)`` candidate grid in one array pass;
:func:`tests.oracles.loop_tile_plan` walks it one candidate at a time
with its own candidate ladder and reuse-pass formula.  They must pick
the same tile and the same passes on every shape: dimensions below the
array edge, budgets below the minimal tile (the fallback tile), exact
ties in traffic and footprint (resolved by loop order), and shapes past
the int64 edge, where the search computes with Python ints.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.tiling import _MAX_INT64_MKN, tile_plan
from tests.oracles import loop_tile_plan

EDGES = st.sampled_from([1, 3, 4, 8, 16, 32, 64, 128])
# Small dims sit below every array edge; the rest span a few doublings
# past it, with odd sizes that leave partial tiles.
DIMS = st.one_of(st.integers(1, 40), st.integers(1, 6000),
                 st.sampled_from([64, 512, 1024, 4096, 16384]))


def _plan_tuple(plan):
    t = plan.tile
    return (t.tm, t.tk, t.tn, plan.lhs_passes, plan.rhs_passes,
            plan.out_passes, t.footprint_elements())


def _check(m, k, n, budget, rows, cols):
    tile_plan.cache_clear()
    got = _plan_tuple(tile_plan(m, k, n, budget, rows, cols))
    assert got == tuple(loop_tile_plan(m, k, n, budget, rows, cols))


class TestArraySearchEqualsLoop:
    @settings(max_examples=300, deadline=None)
    @given(m=DIMS, k=DIMS, n=DIMS, rows=EDGES, cols=EDGES,
           budget=st.integers(1, 10 ** 7))
    def test_generated_shapes(self, m, k, n, rows, cols, budget):
        _check(m, k, n, budget, rows, cols)

    @settings(max_examples=100, deadline=None)
    @given(m=st.integers(1, 30), k=st.integers(1, 30), n=st.integers(1, 30),
           edge=st.sampled_from([32, 64, 128]),
           budget=st.integers(1, 10 ** 6))
    def test_dims_below_the_array_edge(self, m, k, n, edge, budget):
        _check(m, k, n, budget, edge, edge)

    @settings(max_examples=100, deadline=None)
    @given(m=DIMS, k=DIMS, n=DIMS, edge=st.sampled_from([16, 32, 64]),
           data=st.data())
    def test_budget_below_the_minimal_tile(self, m, k, n, edge, data):
        # Every candidate is at least the minimal array-shaped tile, so
        # a budget below its footprint leaves none: the fallback tile.
        tm, tk, tn = min(edge, m), min(edge, k), min(edge, n)
        minimal = 2 * (tm * tk + tk * tn + tm * tn)
        budget = data.draw(st.integers(1, minimal - 1))
        tile = tile_plan(m, k, n, budget, edge, edge).tile
        assert (tile.tm, tile.tk, tile.tn) == (tm, tk, tn)
        _check(m, k, n, budget, edge, edge)

    @settings(max_examples=150, deadline=None)
    @given(mn=DIMS, k=DIMS, edge=EDGES, budget=st.integers(1, 10 ** 7))
    def test_square_ties(self, mn, k, edge, budget):
        # With m == n on a square array, (tm, tn) and (tn, tm) tie in
        # footprint, and often in traffic: loop order must decide.
        _check(mn, k, mn, budget, edge, edge)

    def test_exact_tie_goes_to_the_first_in_loop_order(self):
        # 128 x 64 x 128 on a 32 x 32 array within 20000 elements: tiles
        # (tm, tk, tn) = (32, 64, 64) and (64, 64, 32) tie in traffic
        # (40960) and footprint (16384); tm is the outer loop.
        tile = tile_plan(128, 64, 128, 20000, 32, 32).tile
        assert (tile.tm, tile.tk, tile.tn) == (32, 64, 64)
        _check(128, 64, 128, 20000, 32, 32)

    @settings(max_examples=8, deadline=None)
    @given(m=st.sampled_from([2 ** 21, 3 * 2 ** 20 + 1, 2 ** 22]),
           k=st.sampled_from([2 ** 20, 2 ** 20 + 7]),
           n=st.sampled_from([2 ** 20, 2 ** 21 - 3]),
           budget=st.sampled_from([10 ** 6, 2 ** 40, 2 ** 70]))
    def test_past_the_int64_edge(self, m, k, n, budget):
        assert m * k * n > _MAX_INT64_MKN
        _check(m, k, n, budget, 256, 256)
