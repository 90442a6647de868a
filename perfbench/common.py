"""Shared pieces of the benchmark: percentiles, memory, set-up probes."""

from __future__ import annotations

import os
import resource
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space inside the checkout; the benchmark writes nowhere else.
WORK = ROOT / ".perfbench_work"

#: Every percentile reported must have at least this many samples above it.
MIN_BEYOND = 10


def use_checkout_sources() -> None:
    """Import ``repro`` from this checkout's ``src/``, never an install."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> Dict[str, str]:
    """Environment for helper processes: this checkout's sources, no
    ambient disk cache or trace settings."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for name in ("REPRO_CACHE_DIR", "REPRO_TRACE"):
        env.pop(name, None)
    return env


@dataclass(frozen=True)
class Percentile:
    """A nearest-rank percentile with the sample it came from."""

    p: float
    value: float
    n: int
    beyond: int

    def describe(self, unit: str) -> str:
        return (f"p{self.p * 100:g}={self.value:.4f} {unit} "
                f"(n={self.n}, {self.beyond} beyond)")


class TooFewSamples(ValueError):
    """Raised instead of reporting a percentile the sample cannot support."""


def percentile(values: Sequence[float], p: float) -> Percentile:
    """The ``ceil(p * n)``-th smallest value (nearest rank, 1-based).

    Refuses (raises :class:`TooFewSamples`) when fewer than
    :data:`MIN_BEYOND` samples lie above the chosen rank.  ``p`` is taken
    in parts per million so that the rank is computed exactly.
    """
    n = len(values)
    ppm = round(p * 1_000_000)
    rank = max(1, -(-ppm * n // 1_000_000))
    beyond = n - rank
    if beyond < MIN_BEYOND:
        raise TooFewSamples(
            f"p{p * 100:g} of {n} samples leaves {max(beyond, 0)} beyond it; "
            f"need {MIN_BEYOND}"
        )
    return Percentile(p=p, value=sorted(values)[rank - 1], n=n,
                      beyond=beyond)


def peak_rss_mb() -> float:
    """Peak resident set size of this process in MB (``ru_maxrss`` is
    KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class SetupProbe:
    """Set-up time: fresh interpreters that import a workload's modules
    and build its inputs, then exit.

    Work moved into import time or input construction shows here even
    though the measuring process imported everything only once.  The
    host switches between a fast and a slow state for seconds at a time
    (``record.json``), so a workload samples at points spread over its
    run and the fastest sample is reported: interference only ever adds
    to a start-up.
    """

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.walls: List[float] = []

    def sample(self, reps: int = 1) -> None:
        for _ in range(reps):
            start = time.perf_counter()
            subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"),
                 "--workload", self.workload, "--probe-setup"],
                check=True, env=child_env(), cwd=str(ROOT),
                stdout=subprocess.DEVNULL, timeout=120,
            )
            self.walls.append(time.perf_counter() - start)

    def value(self) -> float:
        return min(self.walls)


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}


def fmt_table(rows: List[Sequence[object]], header: Sequence[str]) -> str:
    table = [list(header)] + [[str(cell) for cell in row] for row in rows]
    widths = [max(len(row[i]) for row in table) for i in range(len(table[0]))]
    return "\n".join(
        "  ".join(cell.ljust(widths[i]) if i == 0 else cell.rjust(widths[i])
                  for i, cell in enumerate(row))
        for row in table
    )
