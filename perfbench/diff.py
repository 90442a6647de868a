"""Print per-metric deltas between a parent result and a change result.

Usage::

    python3 perfbench/run.py --workload paper --trace 1 > parent.out
    ... (apply the change) ...
    python3 perfbench/run.py --workload paper --trace 1 > change.out
    python3 perfbench/diff.py parent.out change.out

Each file holds the standard output of one or more runs; every line
that is a result object counts, and each metric is compared by its
median over them.  Rows with unit ``count`` must repeat exactly on the
same seed, so a count that moved is flagged and the exit status is 1.
On ``serve-mixed`` the scheduler counts (memo hits, coalescing, grid
calls) also depend on request timing, so a flag there asks for a look
rather than proving a change in work.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import fmt_table  # noqa: E402


def load(path: str) -> Dict[str, Tuple[float, str]]:
    """Median value and unit of every metric in a file of result lines."""
    values: Dict[str, List[float]] = {}
    units: Dict[str, str] = {}
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line.startswith("{"):
            continue
        result = json.loads(line)
        for name, m in result.get("metrics", {}).items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
    if not values:
        raise SystemExit(f"{path}: no result lines")
    return {name: (statistics.median(v), units[name])
            for name, v in values.items()}


def diff(parent: Dict[str, Tuple[float, str]],
         change: Dict[str, Tuple[float, str]]) -> Tuple[List[tuple], int]:
    rows = []
    flagged = 0
    for name in list(parent) + [n for n in change if n not in parent]:
        old, unit = parent.get(name, (0.0, change.get(name, (0, ""))[1]))
        new, _ = change.get(name, (0.0, unit))
        if old == 0 and new == 0:
            continue
        flag = ""
        if unit == "count" and old != new:
            flag = "COUNT CHANGED"
            flagged += 1
        pct = f"{(new - old) / old:+.1%}" if old else "new"
        rows.append((name, unit, f"{old:.6g}", f"{new:.6g}",
                     f"{new - old:+.6g}", pct, flag))
    return rows, flagged


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    rows, flagged = diff(load(argv[0]), load(argv[1]))
    print(fmt_table(rows, ("metric", "unit", "parent", "change", "delta",
                           "delta%", "flag")))
    if flagged:
        print(f"{flagged} count(s) changed", file=sys.stderr)
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
