"""The paper's primary contribution: the FLAT dataflow and its cost model.

* :mod:`repro.core.dataflow` — the dataflow configuration space
  (fusion, granularity, FLAT-tile enables, stationarity).
* :mod:`repro.core.footprint` — live-memory-footprint math (Table 2).
* :mod:`repro.core.tiling` — L2-tile selection and reuse-pass analysis.
* :mod:`repro.core.perf` — the analytical performance model.
* :mod:`repro.core.dse` — exhaustive design-space exploration.
* :mod:`repro.core.engine` — the search engine behind the DSE
  (parallel fan-out, bound-based pruning, lazy energy, memoization).
* :mod:`repro.core.batch` — the vectorized batch backend scoring the
  whole candidate grid as NumPy arrays, bit-for-bit equal to the
  scalar model.
* :mod:`repro.core.cache` — the persistent cross-run answer cache
  underneath the engine (``--cache-dir`` / ``REPRO_CACHE_DIR``).
* :mod:`repro.core.configs` — the named dataflow/accelerator
  configurations of Figure 7.
"""

from repro.core.configs import (
    AcceleratorPolicy,
    attacc,
    attacc_m,
    attacc_r,
    base_accel,
    flex_accel,
    flex_accel_m,
    named_policies,
)
from repro.core.dataflow import (
    Dataflow,
    Granularity,
    StagingPolicy,
    Stationarity,
    base,
    base_x,
    flat_r,
    flat_x,
    parse_dataflow,
)
from repro.core.hierarchy import MemoryTier, cost_la_pair_two_level
from repro.core.loopnest import render_loop_nest
from repro.core.online import (
    OnlineDataflow,
    choose_online_tile,
    cost_online_la,
    online_footprint_elements,
)
from repro.core.sparse_adapter import (
    cost_sparse_la,
    sparse_equivalent_config,
)
from repro.core.pipeline import (
    cost_fused_la_pipelined,
    pipelined_nonfused_penalty,
)
from repro.core.dse import (
    DesignPoint,
    DSEResult,
    Objective,
    SearchSpace,
    enumerate_dataflows,
    search,
)
from repro.core.cache import (
    CacheStats,
    PersistentCache,
    cost_model_fingerprint,
    default_cache_dir,
    get_default_cache,
    set_default_cache_dir,
)
from repro.core.batch import (
    GridEvaluation,
    best_index,
    evaluate_grid,
)
from repro.core.engine import (
    SearchStats,
    accelerator_fingerprint,
    clear_evaluation_cache,
    evaluate_cost,
    evaluation_cache_info,
    reset_search_totals,
    search_totals,
)
from repro.core.candidates import objective_lower_bound
from repro.core.footprint import (
    FootprintBreakdown,
    footprint_b_gran,
    footprint_h_gran,
    footprint_m_gran,
    footprint_r_gran,
    fused_la_footprint,
    operator_l3_footprint,
)
from repro.core.perf import (
    OperatorCost,
    PerfOptions,
    ScopeCost,
    cost_fused_la,
    cost_la_pair,
    cost_operator,
    cost_scope,
)
from repro.core.tiling import L2Tile, ceil_div, choose_l2_tile, reuse_passes

__all__ = [
    "AcceleratorPolicy",
    "attacc",
    "attacc_m",
    "attacc_r",
    "base_accel",
    "flex_accel",
    "flex_accel_m",
    "named_policies",
    "Dataflow",
    "Granularity",
    "StagingPolicy",
    "Stationarity",
    "base",
    "base_x",
    "flat_r",
    "flat_x",
    "parse_dataflow",
    "DesignPoint",
    "DSEResult",
    "Objective",
    "SearchSpace",
    "enumerate_dataflows",
    "search",
    "GridEvaluation",
    "best_index",
    "evaluate_grid",
    "SearchStats",
    "accelerator_fingerprint",
    "clear_evaluation_cache",
    "evaluate_cost",
    "evaluation_cache_info",
    "objective_lower_bound",
    "reset_search_totals",
    "search_totals",
    "CacheStats",
    "PersistentCache",
    "cost_model_fingerprint",
    "default_cache_dir",
    "get_default_cache",
    "set_default_cache_dir",
    "FootprintBreakdown",
    "footprint_b_gran",
    "footprint_h_gran",
    "footprint_m_gran",
    "footprint_r_gran",
    "fused_la_footprint",
    "operator_l3_footprint",
    "OperatorCost",
    "PerfOptions",
    "ScopeCost",
    "cost_fused_la",
    "cost_la_pair",
    "cost_operator",
    "cost_scope",
    "OnlineDataflow",
    "choose_online_tile",
    "cost_online_la",
    "online_footprint_elements",
    "cost_fused_la_pipelined",
    "pipelined_nonfused_penalty",
    "cost_sparse_la",
    "sparse_equivalent_config",
    "render_loop_nest",
    "MemoryTier",
    "cost_la_pair_two_level",
    "L2Tile",
    "ceil_div",
    "choose_l2_tile",
    "reuse_passes",
]
