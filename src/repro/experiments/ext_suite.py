"""Extension experiment: FLAT across the long-sequence application suite.

Costs the Long Range Arena tasks and the paper-introduction applications
(image generation 12K, summarization 64K, language modeling 69K, music
1M) on the cloud platform, reporting Base-opt vs FLAT-opt utilization
and speedup — the breadth check that the headline result is not
specific to the five-model zoo.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.analysis.reports import format_float, format_table
from repro.arch.presets import get_platform
from repro.core.configs import AcceleratorPolicy, attacc, flex_accel
from repro.models.lra import (
    INTRO_APPLICATIONS,
    LRA_TASKS,
    intro_application_config,
    lra_config,
)

__all__ = ["SuiteRow", "run", "format_report"]


@dataclass(frozen=True)
class SuiteRow:
    workload: str
    seq: int
    base_util: float
    flat_util: float

    @property
    def speedup(self) -> float:
        return self.flat_util / self.base_util


def run(platform: str = "cloud") -> List[SuiteRow]:
    accel = get_platform(platform)
    flex = flex_accel()
    att = attacc()
    rows: List[SuiteRow] = []
    configs = [lra_config(task) for task in sorted(LRA_TASKS)]
    configs += [
        intro_application_config(name) for name in sorted(INTRO_APPLICATIONS)
    ]
    points = iter(AcceleratorPolicy.evaluate_many(
        [(policy, cfg, accel) for cfg in configs for policy in (flex, att)]
    ))
    for cfg in configs:
        base_point, flat_point = next(points), next(points)
        rows.append(
            SuiteRow(
                workload=cfg.name,
                seq=cfg.seq_q,
                base_util=base_point.utilization,
                flat_util=flat_point.utilization,
            )
        )
    return rows


def format_report(rows: List[SuiteRow]) -> str:
    return format_table(
        ["Workload", "N", "Base-opt Util", "FLAT-opt Util", "L-A speedup"],
        [
            (r.workload, r.seq, format_float(r.base_util),
             format_float(r.flat_util), f"{r.speedup:.2f}x")
            for r in rows
        ],
        title="Extension: LRA tasks + the introduction's long-sequence "
              "applications (cloud)",
    )
