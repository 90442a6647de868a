#!/usr/bin/env python3
"""DSE objectives: runtime vs energy vs EDP vs footprint.

Paper section 6.3 notes that the runtime-optimal FLAT point is not
always the energy-optimal one, and that "the objective target in the
DSE is flexible".  This example runs the same exhaustive search under
all four objectives for BERT-512 on the edge platform and prints what
each winner trades away — a miniature of Figure 10's design space.

Run:  python examples/objective_tradeoffs.py
"""

from repro import arch, models
from repro.analysis import format_bytes, format_float, format_table
from repro.core import Objective, SearchSpace, search
from repro.ops import Scope


def main() -> None:
    cfg = models.model_config("bert", seq=512)
    accel = arch.edge()
    space = SearchSpace(exhaustive_staging=True)
    print(
        "One design space, four objectives (BERT-512, edge, L-A scope, "
        "exhaustive 2^5 staging):\n"
    )
    rows = []
    results = {}
    for objective in Objective:
        result = search(cfg, accel, scope=Scope.LA, objective=objective,
                        space=space, retain_points=True)
        results[objective] = result
        best = result.best
        rows.append(
            (
                objective.value,
                best.dataflow.name,
                format_float(best.utilization),
                f"{best.energy.total_j:.3f} J",
                format_bytes(best.footprint_bytes),
            )
        )
    print(
        format_table(
            ["Objective", "Winning dataflow", "Util", "Energy",
             "Live footprint"],
            rows,
            title=f"{results[Objective.RUNTIME].num_points} design points "
                  "searched per objective",
        )
    )
    front = results[Objective.RUNTIME].pareto_front()
    print(
        f"\nUtil-vs-footprint Pareto front has {len(front)} points; "
        "the paper's 'top-left corner'\n(high Util, least footprint) is:"
    )
    corner = max(
        (p for p in front if p.footprint_bytes <= 128 * 1024),
        key=lambda p: p.utilization,
        default=front[0],
    )
    print(
        f"  {corner.dataflow.name}: Util {corner.utilization:.3f} at "
        f"{format_bytes(corner.footprint_bytes)}"
    )


if __name__ == "__main__":
    main()
