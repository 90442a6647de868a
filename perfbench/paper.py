"""Workload ``paper``: the whole ``run-all`` registry, in-process.

One pass runs the registry twice through ``run_pipeline(workers=1)``:
the cold half on an empty disk-cache directory after
``clear_evaluation_cache()``, the warm half on the same directory with
the in-memory LRU cleared again.  Set-up runs one discarded pass, so
imports and lazily built staging tables are warm before timing.  The
registry has no random inputs: the seed is recorded, not used.

Every report is checked against the sha256 recorded in ``golden.json``.
``cpu_ref`` is the CPU time of one cold+warm pass in refs (see
``refprobe.py``); the named metrics ``cold_pass_s`` and ``warm_pass_s``
are the wall times of the two halves, the reference loops left out.
``setup_s`` is the fastest of fresh interpreters importing the pipeline
and listing the registry, two before the warm-up pass and one after
each measured pass; the warm-up pass is logged but left out of it: it
is the same work a measured pass times, and one sample of it varies by
a quarter between runs.
"""

from __future__ import annotations

import json
import shutil
import time
from pathlib import Path
from statistics import median
from typing import Dict, List

from common import WORK, SetupProbe, log, metric, peak_rss_mb
from refprobe import RefProbe, refs

GOLDEN = Path(__file__).resolve().parent / "golden.json"
MIN_PASSES = 3


def probe_setup() -> None:
    from repro.experiments.pipeline import run_pipeline  # noqa: F401
    from repro.experiments.runner import experiment_names

    experiment_names()


class _Pass:
    """One cold+warm pass on a fresh cache directory."""

    def __init__(self, index: int, golden: Dict[str, str]) -> None:
        self.dir = WORK / "paper" / f"cache{index}"
        self.golden = golden
        self.attempted = 0
        self.failed = 0
        self.search: List[Dict[str, float]] = []

    def half(self) -> float:
        from repro.core.engine import clear_evaluation_cache
        from repro.experiments.pipeline import run_pipeline

        clear_evaluation_cache()
        start = time.perf_counter()
        result = run_pipeline(workers=1, cache_dir=str(self.dir))
        wall = time.perf_counter() - start
        for run in result.runs:
            self.attempted += 1
            want = self.golden.get(run.name)
            if not run.ok or run.report_sha256() != want:
                self.failed += 1
                log(f"paper: {run.name} {run.status} sha256 "
                    f"{run.report_sha256()} != golden {want}")
        self.search.append(result.aggregate_search())
        return wall

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


def record_golden() -> None:
    """Rewrite ``golden.json`` from the current reports (maintenance)."""
    from repro.experiments.pipeline import run_pipeline

    shutil.rmtree(WORK / "paper", ignore_errors=True)
    result = run_pipeline(workers=1, cache_dir="")
    assert not result.failures, result.failures
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    golden["paper"] = {run.name: run.report_sha256() for run in result.runs}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


def run(seed: int, seconds: float, trace: bool) -> dict:
    from layers import PAPER, Tracer
    from repro.core.scaleout import scaleout_totals

    golden = json.loads(GOLDEN.read_text())["paper"]
    shutil.rmtree(WORK / "paper", ignore_errors=True)
    counter = iter(range(1_000_000))

    # Set-up: fresh-interpreter imports, then one discarded pass here.
    setup = SetupProbe("paper")
    setup.sample(2)
    warmup = _Pass(next(counter), golden)
    start = time.perf_counter()
    warmup.half()
    warmup.half()
    warmup_s = time.perf_counter() - start
    warmup.close()

    attempted, failed = warmup.attempted, warmup.failed
    plain = {"cold": [], "warm": [], "cpu": [], "refs": []}
    probe = RefProbe()
    tracer = Tracer() if trace else None
    traced = {"cold": [], "warm": [], "walls": [], "search": [],
              "scaleout": []}
    measure_start = time.perf_counter()
    while True:
        one = _Pass(next(counter), golden)
        # A traced run alternates untraced and traced passes: the
        # untraced ones give the named metrics, and the traced passes'
        # excess over them is the tracing overhead.  Alternating keeps
        # slow drift of the machine out of that difference.
        traced_pass = tracer is not None and len(plain["cold"]) > len(
            traced["walls"])
        if traced_pass:
            tracer.install()
            so_before = scaleout_totals()
        else:
            probe.start()
        c = one.half()
        if traced_pass:
            traced["cold"].append(tracer.snapshot())
            tracer.reset()
        else:
            c -= probe.loop_s
            cold_loops = probe.loop_s
        w = one.half()
        if traced_pass:
            traced["warm"].append(tracer.snapshot())
            tracer.reset()
            tracer.uninstall()
            so_after = scaleout_totals()
            traced["walls"].append(c + w)
            traced["search"].extend(one.search)
            traced["scaleout"].append(
                {k: so_after[k] - so_before[k] for k in so_after})
        else:
            probe.stop()
            plain["cold"].append(c)
            plain["warm"].append(w - (probe.loop_s - cold_loops))
            plain["cpu"].append(probe.work_s())
            plain["refs"].append(refs(probe.samples))
        one.close()
        setup.sample()
        attempted += one.attempted
        failed += one.failed
        elapsed = time.perf_counter() - measure_start
        done = len(plain["cold"]) + len(traced["walls"])
        # At least MIN_PASSES (a median that one slow pass cannot move),
        # two of each kind when traced; beyond that, start another pass
        # only if half of it still fits.
        least = MIN_PASSES if tracer is None else 4
        if done >= least and elapsed + 0.5 * elapsed / done > seconds:
            break

    named = {"cold_pass_s": (median(plain["cold"]), "s"),
             "warm_pass_s": (median(plain["warm"]), "s")}
    out = {"attempted": attempted, "failed": failed,
           "correct": failed == 0, "named": named}
    log(f"paper: {len(plain['cold'])} untraced passes; cold "
        f"{plain['cold']}, warm {plain['warm']}, cpu {plain['cpu']}, "
        f"refs {plain['refs']}; "
        f"set-up samples {setup.walls}; warm-up pass {warmup_s:.3f} s")
    if tracer is None:
        out["metrics"] = {
            "setup_s": metric(setup.value(), "s"),
            "peak_rss_mb": metric(peak_rss_mb(), "MB"),
            "cpu_ref": metric(median(plain["refs"]), "ref"),
        }
    else:
        out["traced"] = {
            "workload": PAPER,
            "halves": {"cold": traced["cold"], "warm": traced["warm"]},
            "passes": len(traced["walls"]),
            "wall_s": sum(traced["walls"]),
            "traced_pass_s": median(traced["walls"]),
            "untraced_wall_s": median(
                [c + w for c, w in zip(plain["cold"], plain["warm"])]),
            "search": traced["search"],
            "scaleout": traced["scaleout"],
            "sites": dict(tracer.sites),
        }
    shutil.rmtree(WORK / "paper", ignore_errors=True)
    return out
