"""Workload ``decode-trace``: continuous batching replayed on the sim tier.

``sim.batching.run_serving`` serves seeded ``synthetic_trace`` request
mixes on ``decode_tier()`` of ``benchmarks/bench_decode_serving.py``
(the edge die with HBM-class bandwidth and a 32-lane SFU), with
``flat-r64+fusemax``, ``prefill_chunk=512`` and ``max_decode_batch=16``.

A run serves ``int(--seconds)`` independent traces of ``TRACE_REQUESTS``
requests each (sub-seeds ``seed * 1000 + j``).  Short traces are used
because ``run_serving`` re-builds the set of finished request ids on
every step, so host time grows with the square of trace length; pooling
many short traces gives the p99s enough samples at linear cost.  The
mean inter-arrival is ``MEAN_INTERARRIVAL`` cycles: twice the 4e6 at
which the tier backlogs, so queues stay bounded.

Before measuring, a fixed golden trace is replayed whose steps,
completions and TTFT/TPOT percentiles must equal the values in
``golden.json``.  ``setup_s`` is the fastest of fresh interpreters that
import the tier and build the traces of a 20-second run, two before the
replays and one after every second; it leaves the golden replay out.
``cpu_ref`` is the CPU time of one trace replay in refs (see
``refprobe.py``); the named metrics are host engine steps per second and
the simulated TTFT/TPOT p99s.
"""

from __future__ import annotations

import importlib.util
import json
import time
from pathlib import Path
from statistics import median
from typing import List

from common import (
    ROOT,
    SetupProbe,
    log,
    metric,
    peak_rss_mb,
    percentile,
)
from refprobe import RefProbe, refs

GOLDEN = Path(__file__).resolve().parent / "golden.json"
TRACE_REQUESTS = 500
MEAN_INTERARRIVAL = 8e6
#: One longer trace in the traced run shows per-step loop cost growing
#: with trace length.
LONG_TRACE_REQUESTS = 2000
GOLDEN_SEED = 20230325
GOLDEN_REQUESTS = 200


def _tier():
    """The accelerator ``bench_decode_serving`` defines for decode."""
    path = ROOT / "benchmarks" / "bench_decode_serving.py"
    spec = importlib.util.spec_from_file_location("bench_decode_serving",
                                                  path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.decode_tier()


class Setup:
    def __init__(self) -> None:
        from repro.core.dataflow import AttentionVariant, flat_r
        from repro.models.configs import model_config
        from repro.sim.batching import BatchingPolicy

        self.accel = _tier()
        self.cfg = model_config("xlm", seq=1024)
        self.policy = BatchingPolicy(prefill_chunk=512, max_decode_batch=16)
        self.dataflow = flat_r(64, variant=AttentionVariant.FUSEMAX)
        self.ms_per_cycle = 1e3 / self.accel.frequency_hz

    def trace(self, n: int, seed: int):
        from repro.sim.batching import synthetic_trace

        return synthetic_trace(
            n, seed=seed, mean_interarrival_cycles=MEAN_INTERARRIVAL,
            prompt_range=(128, 2048), output_range=(16, 128),
        )

    def serve(self, trace):
        from repro.sim.batching import run_serving

        return run_serving(trace, self.cfg, self.dataflow, self.accel,
                           self.policy)


def _traces(setup: Setup, seed: int, seconds: float) -> list:
    return [setup.trace(TRACE_REQUESTS, seed * 1000 + j)
            for j in range(max(2, int(seconds)))]


def probe_setup() -> None:
    _traces(Setup(), 0, 20)


def _summary(report) -> dict:
    return {
        "completed": report.completed,
        "steps": report.steps,
        "makespan_cycles": repr(report.makespan_cycles),
        "ttft_p50": repr(report.ttft_p50),
        "ttft_p99": repr(report.ttft_p99),
        "tpot_p50": repr(report.tpot_p50),
        "tpot_p99": repr(report.tpot_p99),
    }


def record_golden() -> None:
    setup = Setup()
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    golden["decode-trace"] = _summary(
        setup.serve(setup.trace(GOLDEN_REQUESTS, GOLDEN_SEED)))
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


def _check(report, trace) -> int:
    """Failed requests of one seeded trace (missing or inconsistent)."""
    bad = len(trace) - report.completed
    for m in report.metrics:
        if not (m.arrival_cycle <= m.first_token_cycle <= m.finish_cycle):
            bad += 1
    return bad


def run(seed: int, seconds: float, trace: bool) -> dict:
    from layers import DECODE, Tracer

    golden = json.loads(GOLDEN.read_text())["decode-trace"]
    setup_probe = SetupProbe("decode-trace")
    setup_probe.sample(2)
    setup = Setup()
    traces = _traces(setup, seed, seconds)
    warm = setup.serve(setup.trace(GOLDEN_REQUESTS, GOLDEN_SEED))

    attempted = GOLDEN_REQUESTS
    failed = 0
    if _summary(warm) != golden:
        failed += GOLDEN_REQUESTS
        log(f"decode-trace: golden trace {_summary(warm)} != {golden}")

    replays = _Replays(setup)
    if trace:
        # Each trace is replayed untraced, then traced: the untraced
        # replays give the named metrics, and alternating keeps slow drift
        # of the machine out of the tracing overhead.
        tracer = Tracer()
        snaps = []
        traced_walls = []
        for t in traces[: max(2, len(traces) // 2)]:
            plain = replays.serve(t)
            tracer.install()
            try:
                start = time.perf_counter()
                report = setup.serve(t)
                traced_walls.append(time.perf_counter() - start)
            finally:
                tracer.uninstall()
            snaps.append(tracer.snapshot())
            tracer.reset()
            if _summary(plain) != _summary(report):
                failed += len(t)
                log("decode-trace: traced replay differs from untraced")
        long_trace = setup.trace(LONG_TRACE_REQUESTS, seed * 1000 + 999)
        tracer.install()
        try:
            long_report = setup.serve(long_trace)
        finally:
            tracer.uninstall()
        failed += replays.failed + _check(long_report, long_trace)
        attempted += replays.attempted + len(long_trace)
        from report import merge

        return {
            "attempted": attempted, "failed": failed, "correct": failed == 0,
            "traced": {
                "workload": DECODE, "snapshot": merge(snaps),
                "passes": len(snaps), "wall_s": sum(traced_walls),
                "traced_pass_s": median(traced_walls),
                "untraced_wall_s": median(replays.walls),
                "long": tracer.snapshot(), "sites": dict(tracer.sites),
            },
            "named": replays.named(),
        }

    for j, t in enumerate(traces):
        replays.serve(t)
        if j % 2 == 1:
            setup_probe.sample()
    log(f"decode-trace: set-up samples {setup_probe.walls}")
    return {
        "attempted": attempted + replays.attempted,
        "failed": failed + replays.failed,
        "correct": failed + replays.failed == 0,
        "named": replays.named(),
        "metrics": {
            "setup_s": metric(setup_probe.value(), "s"),
            "peak_rss_mb": metric(peak_rss_mb(), "MB"),
            "cpu_ref": metric(median(replays.refs), "ref"),
        },
    }


class _Replays:
    """Untraced trace replays: host timings and pooled simulated SLAs."""

    def __init__(self, setup: Setup) -> None:
        self.setup = setup
        self.walls: List[float] = []
        self.cpu: List[float] = []
        self.refs: List[float] = []
        self.probe = RefProbe()
        self.rates: List[float] = []
        self.ttft: List[float] = []
        self.tpot: List[float] = []
        self.attempted = 0
        self.failed = 0

    def serve(self, trace):
        self.probe.start()
        start = time.perf_counter()
        report = self.setup.serve(trace)
        wall = time.perf_counter() - start - self.probe.loop_s
        self.probe.stop()
        self.cpu.append(self.probe.work_s())
        self.refs.append(refs(self.probe.samples))
        self.walls.append(wall)
        self.rates.append(report.steps / wall)
        self.attempted += len(trace)
        self.failed += _check(report, trace)
        to_ms = self.setup.ms_per_cycle
        self.ttft.extend(m.ttft_cycles * to_ms for m in report.metrics)
        self.tpot.extend(m.tpot_cycles * to_ms for m in report.metrics)
        return report

    def named(self) -> dict:
        ttft_p99 = percentile(self.ttft, 0.99)
        tpot_p99 = percentile(self.tpot, 0.99)
        log(f"decode-trace: {len(self.walls)} traces x {TRACE_REQUESTS} "
            f"requests; TTFT {ttft_p99.describe('ms')}, TPOT "
            f"{tpot_p99.describe('ms')}; steps/s per trace "
            f"{[round(r) for r in self.rates]}; cpu s per trace "
            f"{[round(c, 3) for c in self.cpu]}; refs per trace "
            f"{[round(r) for r in self.refs]}")
        return {
            "sim_steps_per_s": (median(self.rates), "steps/s"),
            "ttft_p99_sim_ms": (ttft_p99.value, "ms"),
            "tpot_p99_sim_ms": (tpot_p99.value, "ms"),
        }
