"""Named dataflow and accelerator configurations (paper Figure 7(b,c)).

Dataflows
---------
``Base``      sequential operators, no L3 tile, no DSE.
``Base-X``    sequential with an L3 tile at granularity X in {M, B, H}.
``Base-opt``  the best *unfused* dataflow found by DSE.
``FLAT-X``    fused L-A with a FLAT-tile at granularity X.
``FLAT-Rx``   fused at row granularity with R = x rows.
``FLAT-opt``  the best dataflow in the full FLAT space found by DSE.

Accelerators
------------
``BaseAccel``    rigid accelerator running the fixed Base dataflow.
``FlexAccel-M``  flexible accelerator, Base-opt restricted to M-Gran.
``FlexAccel``    flexible accelerator, Base-opt over the full unfused
                 space — "SOTA accelerators with SOTA frameworks".
``ATTACC-M``     FLAT-opt restricted to M-Gran.
``ATTACC-Rx``    FLAT-opt restricted to row granularity with R = x.
``ATTACC``       FLAT-opt over the full space — the paper's system.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Tuple

from repro.arch.accelerator import Accelerator
from repro.core.dataflow import Granularity
from repro.core.dse import (
    DesignPoint,
    DSEResult,
    Objective,
    SearchSpace,
    search,
)
from repro.core.engine import SearchRequest, run_searches
from repro.core.perf import PerfOptions
from repro.ops.attention import AttentionConfig, Scope

__all__ = [
    "AcceleratorPolicy",
    "base_accel",
    "flex_accel_m",
    "flex_accel",
    "attacc_m",
    "attacc_r",
    "attacc",
    "named_policies",
]


@dataclass(frozen=True)
class AcceleratorPolicy:
    """An accelerator category of Figure 7(c): HW flexibility + DSE scope.

    ``evaluate`` runs the policy's DSE (or fixed dataflow) for one
    workload on one platform and returns the chosen design point;
    ``evaluate_many`` does the same for many (policy, workload,
    platform) jobs at once.
    """

    name: str
    space: SearchSpace
    options: PerfOptions

    def evaluate(
        self,
        cfg: AttentionConfig,
        accel: Accelerator,
        scope: Scope = Scope.LA,
        objective: Objective = Objective.RUNTIME,
    ) -> DesignPoint:
        """Best design point only — runs the fast (pruned, lazy) path."""
        return self.search(cfg, accel, scope, objective).best

    @staticmethod
    def evaluate_many(
        jobs: Iterable[Tuple["AcceleratorPolicy", AttentionConfig,
                             Accelerator]],
        scope: Scope = Scope.LA,
        objective: Objective = Objective.RUNTIME,
    ) -> List[DesignPoint]:
        """:meth:`evaluate` of every ``(policy, cfg, accel)`` job, in order.

        One :func:`~repro.core.engine.run_searches` call answers them
        all, so the small spaces of jobs sharing a platform and model
        options are scored together; each point equals the job's own
        :meth:`evaluate`.
        """
        results = run_searches([
            SearchRequest(cfg, accel, scope, objective, policy.space,
                          policy.options)
            for policy, cfg, accel in jobs
        ])
        return [result.best for result in results]

    def search(
        self,
        cfg: AttentionConfig,
        accel: Accelerator,
        scope: Scope = Scope.LA,
        objective: Objective = Objective.RUNTIME,
        retain_points: bool = False,
    ) -> DSEResult:
        return search(
            cfg,
            accel,
            scope=scope,
            objective=objective,
            space=self.space,
            options=self.options,
            retain_points=retain_points,
        )


_FLEX = PerfOptions(flexible_mapping=True)
_RIGID = PerfOptions(flexible_mapping=False)
_XY = (Granularity.M, Granularity.B, Granularity.H)


def base_accel() -> AcceleratorPolicy:
    """Conventional DNN accelerator running the fixed Base dataflow."""
    return AcceleratorPolicy(
        name="BaseAccel",
        space=SearchSpace(
            allow_fused=False,
            allow_unfused=True,
            granularities=(),
            include_plain_base=True,
        ),
        options=_RIGID,
    )


def flex_accel_m() -> AcceleratorPolicy:
    """Flexible accelerator with L3 tiling only at M granularity.

    "Many baseline accelerators with fully programmable scratchpads can
    fall into this category."
    """
    return AcceleratorPolicy(
        name="FlexAccel-M",
        space=SearchSpace(
            allow_fused=False,
            allow_unfused=True,
            granularities=(Granularity.M,),
            include_plain_base=True,
        ),
        options=_FLEX,
    )


def flex_accel() -> AcceleratorPolicy:
    """Fully flexible accelerator running Base-opt (unfused DSE)."""
    return AcceleratorPolicy(
        name="FlexAccel",
        space=SearchSpace(
            allow_fused=False,
            allow_unfused=True,
            granularities=_XY,
            include_plain_base=True,
        ),
        options=_FLEX,
    )


def attacc_m() -> AcceleratorPolicy:
    """ATTACC restricted to M-granularity FLAT-tiles."""
    return AcceleratorPolicy(
        name="ATTACC-M",
        space=SearchSpace(
            allow_fused=True,
            allow_unfused=False,
            granularities=(Granularity.M,),
            include_plain_base=False,
        ),
        options=_FLEX,
    )


def attacc_r(rows: int) -> AcceleratorPolicy:
    """ATTACC restricted to row granularity with a fixed row count."""
    if rows < 1:
        raise ValueError("rows must be >= 1")
    return AcceleratorPolicy(
        name=f"ATTACC-R{rows}",
        space=SearchSpace(
            allow_fused=True,
            allow_unfused=False,
            granularities=(Granularity.R,),
            row_choices=(rows,),
            include_plain_base=False,
        ),
        options=_FLEX,
    )


def attacc() -> AcceleratorPolicy:
    """The full ATTACC: FLAT-opt over the entire dataflow space."""
    return AcceleratorPolicy(
        name="ATTACC",
        space=SearchSpace(
            allow_fused=True,
            allow_unfused=True,
            granularities=(Granularity.M, Granularity.B, Granularity.H,
                           Granularity.R),
            include_plain_base=True,
        ),
        options=_FLEX,
    )


def named_policies() -> Tuple[AcceleratorPolicy, ...]:
    """The three-way comparison of Figures 11 and 12."""
    return (flex_accel_m(), flex_accel(), attacc())
