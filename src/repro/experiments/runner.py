"""Experiment registry: one entry per paper table/figure.

A single spec table (:data:`_SPECS`) defines, per experiment, how to
produce its artifact and how to render it; the text registry
(:data:`EXPERIMENTS`), the raw-row registry (:data:`RAW_EXPERIMENTS`)
and the parallel pipeline (:mod:`repro.experiments.pipeline`) are all
derived from it, so the reduced sweep grids are written exactly once
and the registries cannot drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.core.engine import default_warm_start
from repro.obs.trace import span as _span
from repro.experiments import (
    ext_batch,
    ext_decode,
    ext_hierarchy,
    ext_online,
    ext_quant,
    ext_scaleout,
    ext_sparse,
    ext_suite,
    fig2,
    fig8,
    fig9,
    fig10,
    fig11,
    fig12,
    iso_area,
    summary,
    table1,
    table2,
)
from repro.ops.attention import Scope

__all__ = ["ExperimentSpec", "EXPERIMENTS", "RAW_EXPERIMENTS",
           "run_experiment", "run_experiment_raw", "experiment_names"]

# Reduced sweep parameters keep every registry entry under ~1 minute;
# the underlying run() functions accept the paper's full grids.
_QUICK_BUFFERS = tuple(
    kb * 1024 for kb in (20, 128, 512, 4096, 65536, 2 * 1024 * 1024)
)
_QUICK_FIG12B_SEQS = (2048, 8192, 32768, 131072, 524288)


@dataclass(frozen=True)
class ExperimentSpec:
    """How to produce and render one experiment.

    ``run`` computes the artifact once; ``text`` renders the report
    from it and ``rows`` extracts the JSON-exportable rows (identity by
    default).  Both registries call the *same* ``run``, so grid
    arguments exist in one place only.
    """

    run: Callable[[], object]
    text: Callable[[object], str]
    rows: Callable[[object], object] = field(default=lambda artifact: artifact)


def _fig8_spec(platform: str, seqs, label: str) -> ExperimentSpec:
    return ExperimentSpec(
        run=lambda: fig8.run(
            platform=platform, seqs=seqs, scopes=(Scope.LA, Scope.BLOCK),
            buffer_sizes=_QUICK_BUFFERS,
        ),
        text=lambda cells: fig8.format_report(cells, platform=label),
    )


def _fig9_spec(platform: str, seqs, label: str) -> ExperimentSpec:
    return ExperimentSpec(
        run=lambda: fig9.run(
            platform=platform, seqs=seqs, scopes=(Scope.LA,),
            buffer_sizes=_QUICK_BUFFERS,
        ),
        text=lambda cells: fig9.format_report(cells, platform=label),
    )


_SPECS: Dict[str, ExperimentSpec] = {
    "table1": ExperimentSpec(run=table1.run, text=table1.format_report),
    "table2": ExperimentSpec(run=table2.run, text=table2.format_report),
    "fig2": ExperimentSpec(run=fig2.run, text=fig2.format_report),
    "fig8-edge": _fig8_spec("edge", (512, 65536), "edge/BERT"),
    "fig8-cloud": _fig8_spec("cloud", (4096, 65536), "cloud/XLM"),
    "fig9-edge": _fig9_spec("edge", (512, 65536), "edge/BERT"),
    "fig9-cloud": _fig9_spec("cloud", (4096, 65536), "cloud/XLM"),
    "fig10": ExperimentSpec(
        run=fig10.run,  # -> (points, result)
        text=lambda artifact: fig10.format_report(*artifact),
        rows=lambda artifact: artifact[0],
    ),
    "fig11-edge": ExperimentSpec(
        run=lambda: fig11.run(platform="edge"), text=fig11.format_report,
    ),
    "fig11-cloud": ExperimentSpec(
        run=lambda: fig11.run(platform="cloud"), text=fig11.format_report,
    ),
    "fig12a": ExperimentSpec(
        run=fig12.run_speedup_grid, text=fig12.format_speedup_report,
    ),
    "fig12b": ExperimentSpec(
        run=lambda: fig12.run_bw_requirement(seqs=_QUICK_FIG12B_SEQS),
        text=fig12.format_bw_report,
    ),
    "iso-area": ExperimentSpec(run=iso_area.run, text=iso_area.format_report),
    "ext-online": ExperimentSpec(
        run=ext_online.run, text=ext_online.format_report,
    ),
    "ext-sparse": ExperimentSpec(
        run=ext_sparse.run, text=ext_sparse.format_report,
    ),
    "ext-suite": ExperimentSpec(
        run=ext_suite.run, text=ext_suite.format_report,
    ),
    "ext-decode": ExperimentSpec(
        run=ext_decode.run, text=ext_decode.format_report,
    ),
    "ext-scaleout": ExperimentSpec(
        run=ext_scaleout.run, text=ext_scaleout.format_report,
    ),
    "ext-quant": ExperimentSpec(
        run=ext_quant.run, text=ext_quant.format_report,
    ),
    "ext-batch": ExperimentSpec(
        run=ext_batch.run, text=ext_batch.format_report,
    ),
    "ext-hierarchy": ExperimentSpec(
        run=ext_hierarchy.run, text=ext_hierarchy.format_report,
    ),
    "summary": ExperimentSpec(run=summary.run, text=summary.format_report),
}


# Derived registries (kept as plain name->callable dicts for backward
# compatibility with callers and tests that dispatch through them).
EXPERIMENTS: Dict[str, Callable[[], str]] = {
    name: (lambda spec=spec: spec.text(spec.run()))
    for name, spec in _SPECS.items()
}

RAW_EXPERIMENTS: Dict[str, Callable[[], object]] = {
    name: (lambda spec=spec: spec.rows(spec.run()))
    for name, spec in _SPECS.items()
}


def experiment_names() -> List[str]:
    return sorted(_SPECS)


def run_experiment(name: str, warm_start: Optional[bool] = None) -> str:
    """Run one registered experiment and return its report.

    ``warm_start`` opts sweep drivers into neighbor-seeded incremental
    re-search (``--warm-start`` passes ``True``); ``None`` keeps the
    current default.  It never changes report bytes — only the amount
    of work (see ``docs/search_engine.md``).
    """
    try:
        runner = EXPERIMENTS[name]
    except KeyError:
        raise ValueError(
            f"unknown experiment {name!r}; choose from {experiment_names()}"
        ) from None
    with default_warm_start(warm_start), _span("experiment", name=name):
        return runner()


def run_experiment_raw(name: str,
                       warm_start: Optional[bool] = None) -> object:
    """Run one experiment and return its typed rows (for JSON export).

    ``warm_start`` is the knob of :func:`run_experiment`.
    """
    try:
        runner = RAW_EXPERIMENTS[name]
    except KeyError:
        raise ValueError(
            f"no raw rows for {name!r}; choose from "
            f"{sorted(RAW_EXPERIMENTS)}"
        ) from None
    with default_warm_start(warm_start), \
            _span("experiment", name=name, raw=True):
        return runner()
