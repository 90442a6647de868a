"""Per-layer metrics, the layer table and the coverage self-check.

Every traced run reports the full :data:`PER_LAYER` set, zeros where the
workload bypasses a layer.  Counts and times are per pass: one cold+warm
registry pass (``paper``), one set of traces (``decode-trace``) or the
whole two-phase stream (``serve-mixed``).

What the coverage check can and cannot see.  On ``paper`` the
end-to-end time is the wall of ``run_pipeline`` measured outside it and
the layers' self-times sum to the time spent inside the outermost
wrapped call (``run_experiment``), so the check fails when the pipeline
spends more than the tolerance outside its experiments (manifest, report
writing, cache bookkeeping).  On ``decode-trace`` the outermost layer
*is* the measured call, so the sum matches by construction.  On
``serve-mixed`` the client latency of a request is split at measured
boundaries (due time, send, the daemon's ``_handle_line`` span, the
response's encode, receipt); the two socket hops are residuals, so the
split also adds up by construction and the check only catches requests
the daemon never reported and hops that come out negative (clocks that
disagree).  None of these sums can reveal an unwrapped inner layer: its
time lands on the self time of the layer that called it.  That is what
``trace.outer_self_frac`` shows -- the share of the end-to-end time that
is the outermost layer's own -- so a new unwrapped layer appears there.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

from common import TooFewSamples, fmt_table, log, percentile
from layers import DECODE, LAYERS, PAPER, SERVE

EXPERIMENTS = (
    "ext-batch", "ext-decode", "ext-hierarchy", "ext-online", "ext-quant",
    "ext-scaleout", "ext-sparse", "ext-suite", "fig10", "fig11-cloud",
    "fig11-edge", "fig12a", "fig12b", "fig2", "fig8-cloud", "fig8-edge",
    "fig9-cloud", "fig9-edge", "iso-area", "summary", "table1", "table2",
)
SCHED_KEYS = ("requests", "memo_hits", "coalesced", "evaluations",
              "grid_calls", "grid_rows", "shed", "deadline_expired")

#: The workload-specific end-to-end metrics.  Every run must report
#: every ``end_to_end`` metric of ``BENCHMARK.json``, so only the shared
#: ones (``setup_s``, ``peak_rss_mb``, ``cpu_ref``) can be bounded there;
#: these are measured on the untraced part of a traced run and reported
#: with the layer metrics (zero on the other workloads).
NAMED: Tuple[Tuple[str, str], ...] = (
    ("cold_pass_s", "s"), ("warm_pass_s", "s"),
    ("lo_p50_ms", "ms"), ("lo_p99_ms", "ms"),
    ("hi_p50_ms", "ms"), ("hi_p99_ms", "ms"),
    ("sim_steps_per_s", "steps/s"),
    ("ttft_p99_sim_ms", "ms"), ("tpot_p99_sim_ms", "ms"),
)

#: (name, unit) of every per-layer metric, in table order.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    *NAMED,
    *((f"runner.{e}.wall_s", "s") for e in EXPERIMENTS),
    ("engine.search.calls", "count"), ("engine.search.self_s", "s"),
    ("engine.evaluations", "count"), ("engine.candidates_skipped", "count"),
    ("engine.families_pruned", "count"), ("engine.cache_hits", "count"),
    ("engine.disk_hits", "count"),
    ("candidates.plan.calls", "count"), ("candidates.plan.self_s", "s"),
    ("batch.grid.calls", "count"), ("batch.grid.rows", "count"),
    ("batch.grid.self_s", "s"), ("batch.grid.ns_per_row", "ns"),
    ("batch.grid.cold_calls", "count"), ("batch.grid.warm_calls", "count"),
    ("perf.cost_scope.calls", "count"), ("perf.cost_scope.us_per_call", "us"),
    ("energy.report.calls", "count"), ("energy.report.self_s", "s"),
    ("cache.get.calls", "count"), ("cache.get.hits", "count"),
    ("cache.get.misses", "count"), ("cache.get.us_per_call", "us"),
    ("cache.get.cold_calls", "count"), ("cache.get.cold_misses", "count"),
    ("cache.get.warm_calls", "count"), ("cache.get.warm_misses", "count"),
    ("cache.put.calls", "count"), ("cache.put.us_per_call", "us"),
    ("cache.put.cold_calls", "count"), ("cache.put.warm_calls", "count"),
    ("scaleout.search.calls", "count"), ("scaleout.search.self_s", "s"),
    ("scaleout.inner_searches", "count"),
    ("scaleout.partitions_pruned", "count"), ("scaleout.memo_hits", "count"),
    ("protocol.resolve.calls", "count"), ("protocol.resolve.us_per_call", "us"),
    ("protocol.encode.calls", "count"), ("protocol.encode.us_per_call", "us"),
    ("service.execute.calls", "count"), ("service.execute.busy_frac", "ratio"),
    ("service.execute.p50_ms", "ms"), ("service.execute.p99_ms", "ms"),
    ("serve.request.calls", "count"), ("serve.request.self_s", "s"),
    ("serve.inbound_us", "us"), ("serve.outbound_us", "us"),
    ("serve.hop_frac", "ratio"),
    ("sched.submit.calls", "count"), ("sched.submit.self_s", "s"),
    *((f"sched.{phase}.{key}", "count")
      for phase in ("lo", "hi") for key in SCHED_KEYS),
    ("sched.lo.memo_hit_ratio", "ratio"), ("sched.hi.memo_hit_ratio", "ratio"),
    ("sched.lo.eval_ratio", "ratio"), ("sched.hi.eval_ratio", "ratio"),
    ("sim.steps", "count"), ("sim.step_passes.us_per_call", "us"),
    ("sim.loop.us_per_step", "us"), ("sim.loop.us_per_step_long", "us"),
    ("sim.decodes_per_step", "ratio"),
    ("sim.simulate.calls", "count"), ("sim.simulate.us_per_call", "us"),
    ("sim.simulate.passes", "count"),
    ("gen.lag_max_ms", "ms"), ("gen.lag_p99_ms", "ms"),
    ("trace.wall_s", "s"), ("trace.coverage", "ratio"),
    ("trace.outer_self_frac", "ratio"),
    ("trace.overhead_s", "s"), ("trace.overhead_frac", "ratio"),
    ("trace.check", "count"),
)

#: How far the layer self-times may fall short of (or exceed) the
#: traced end-to-end time.  For ``serve-mixed`` the end-to-end time is
#: the summed client latency and the covered part is that of requests
#: the daemon reported (see the module docstring).
TOLERANCE = {PAPER: 0.05, DECODE: 0.05, SERVE: 0.05}
#: The outermost layer of each workload, whose self time is everything
#: no inner layer claimed.
OUTER = {PAPER: "runner.experiment", DECODE: "sim.run_serving",
         SERVE: "serve.request"}
#: A socket hop may come out this negative before the client's and the
#: daemon's clocks count as disagreeing (the client stamps a send after
#: ``sendall`` returns, which can be after the daemon started on it).
HOP_SLACK_S = 1e-3

_EMPTY = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "counts": {},
          "samples": [], "spans": []}


def merge(snaps: List[Dict[str, dict]]) -> Dict[str, dict]:
    """Sum several tracer snapshots layer by layer."""
    out: Dict[str, dict] = {}
    for snap in snaps:
        for name, s in snap.items():
            acc = out.setdefault(name, {"calls": 0, "total_s": 0.0,
                                        "self_s": 0.0, "counts": {},
                                        "samples": [], "spans": []})
            acc["calls"] += s["calls"]
            acc["total_s"] += s["total_s"]
            acc["self_s"] += s["self_s"]
            acc["samples"] += s["samples"]
            acc["spans"] += s["spans"]
            for key, value in s["counts"].items():
                acc["counts"][key] = acc["counts"].get(key, 0) + value
    return out


def _sum(dicts: List[Dict[str, float]]) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for d in dicts:
        for key, value in d.items():
            out[key] = out.get(key, 0) + value
    return out


def _per_call(layer: dict, scale: float) -> float:
    return layer["total_s"] / layer["calls"] * scale if layer["calls"] else 0.0


def _p(values: List[float], p: float, what: str) -> float:
    try:
        return percentile(values, p).value
    except TooFewSamples as exc:
        log(f"{what}: {exc}; reported as 0")
        return 0.0


def layer_metrics(traced: dict) -> Tuple[Dict[str, float], List[str]]:
    """(per-layer metric values, self-check failures) of a traced run."""
    workload = traced["workload"]
    passes = traced["passes"]
    if workload == PAPER:
        cold = merge(traced["halves"]["cold"])
        warm = merge(traced["halves"]["warm"])
        snap = merge([cold, warm])
    else:
        cold = warm = {}
        snap = merge([traced["snapshot"]])
    layer = lambda name, s=snap: s.get(name, _EMPTY)  # noqa: E731
    search = _sum(traced.get("search", []))
    scaleout = _sum(traced.get("scaleout", []))
    v: Dict[str, float] = {name: 0.0 for name, _ in PER_LAYER}
    for name, (value, _) in traced["named"].items():
        v[name] = value

    runner = layer("runner.experiment")["counts"]
    for e in EXPERIMENTS:
        v[f"runner.{e}.wall_s"] = runner.get(e, 0.0) / passes
    for name in ("engine.search", "candidates.plan", "energy.report",
                 "scaleout.search", "serve.request", "sched.submit",
                 "batch.grid"):
        v[f"{name}.calls"] = layer(name)["calls"] / passes
        v[f"{name}.self_s"] = layer(name)["self_s"] / passes
    for key, field in (("evaluations", "evaluated"),
                       ("candidates_skipped", "candidates_skipped"),
                       ("families_pruned", "families_pruned"),
                       ("cache_hits", "cache_hits"),
                       ("disk_hits", "disk_hits")):
        v[f"engine.{key}"] = search.get(field, 0) / passes
    for key in ("inner_searches", "partitions_pruned", "memo_hits"):
        v[f"scaleout.{key}"] = scaleout.get(key, 0) / passes

    grid = layer("batch.grid")
    rows = grid["counts"].get("rows", 0)
    v["batch.grid.rows"] = rows / passes
    v["batch.grid.ns_per_row"] = grid["total_s"] / rows * 1e9 if rows else 0.0
    v["batch.grid.cold_calls"] = layer("batch.grid", cold)["calls"] / passes
    v["batch.grid.warm_calls"] = layer("batch.grid", warm)["calls"] / passes
    v["perf.cost_scope.calls"] = layer("perf.cost_scope")["calls"] / passes
    v["perf.cost_scope.us_per_call"] = _per_call(layer("perf.cost_scope"), 1e6)

    for op in ("get", "put"):
        name = f"cache.{op}"
        v[f"{name}.calls"] = layer(name)["calls"] / passes
        v[f"{name}.us_per_call"] = _per_call(layer(name), 1e6)
        v[f"{name}.cold_calls"] = layer(name, cold)["calls"] / passes
        v[f"{name}.warm_calls"] = layer(name, warm)["calls"] / passes
    for key in ("hits", "misses"):
        v[f"cache.get.{key}"] = layer("cache.get")["counts"].get(key, 0) / passes
    v["cache.get.cold_misses"] = (
        layer("cache.get", cold)["counts"].get("misses", 0) / passes)
    v["cache.get.warm_misses"] = (
        layer("cache.get", warm)["counts"].get("misses", 0) / passes)

    for op, name in (("resolve", "protocol.resolve"),
                     ("encode", "protocol.encode")):
        v[f"protocol.{op}.calls"] = layer(name)["calls"] / passes
        v[f"protocol.{op}.us_per_call"] = _per_call(layer(name), 1e6)

    phases = traced.get("phases", {})
    executions = [x * 1e3 for x in (
        layer("service.execute_query")["samples"]
        + layer("service.execute_cost_group")["samples"])]
    stream_s = sum(p["wall_s"] for p in phases.values())
    v["service.execute.calls"] = len(executions) / passes
    if executions:
        v["service.execute.busy_frac"] = sum(executions) / 1e3 / stream_s
        v["service.execute.p50_ms"] = _p(executions, 0.50, "service.execute")
        v["service.execute.p99_ms"] = _p(executions, 0.99, "service.execute")
    lags: List[float] = []
    for phase, p in phases.items():
        for key in SCHED_KEYS:
            v[f"sched.{phase}.{key}"] = p["sched"][key]
        if p["sched"]["requests"]:
            v[f"sched.{phase}.memo_hit_ratio"] = (
                p["sched"]["memo_hits"] / p["sched"]["requests"])
            v[f"sched.{phase}.eval_ratio"] = (
                p["sched"]["evaluations"] / p["sched"]["requests"])
        lags += [x * 1e3 for x in p["lags"]]
    if lags:
        v["gen.lag_max_ms"] = max(lags)
        v["gen.lag_p99_ms"] = _p(lags, 0.99, "gen.lag")

    serving = layer("sim.run_serving")
    steps = serving["counts"].get("steps", 0)
    step = layer("sim.step_passes")
    v["sim.steps"] = steps / passes
    v["sim.step_passes.us_per_call"] = _per_call(step, 1e6)
    v["sim.loop.us_per_step"] = serving["self_s"] / steps * 1e6 if steps else 0.0
    long_run = traced.get("long", {}).get("sim.run_serving", _EMPTY)
    long_steps = long_run["counts"].get("steps", 0)
    if long_steps:
        v["sim.loop.us_per_step_long"] = long_run["self_s"] / long_steps * 1e6
    if step["calls"]:
        v["sim.decodes_per_step"] = step["counts"]["decodes"] / step["calls"]
    sim = layer("sim.simulate")
    v["sim.simulate.calls"] = sim["calls"] / passes
    v["sim.simulate.us_per_call"] = _per_call(sim, 1e6)
    v["sim.simulate.passes"] = sim["counts"].get("passes", 0) / passes

    # End-to-end time against the sum of the layers' self times.
    outer = layer(OUTER[workload])
    hops: List[float] = []
    if workload == SERVE:
        wall, attributed, inbound, outbound = _serve_split(
            phases, outer["spans"], layer("protocol.encode")["spans"])
        hops = inbound + outbound
        if inbound:
            v["serve.inbound_us"] = sum(inbound) / len(inbound) * 1e6
            v["serve.outbound_us"] = sum(outbound) / len(outbound) * 1e6
            v["serve.hop_frac"] = sum(hops) / wall
        # The daemon's share of a request is its _handle_line span.
        outer_frac = outer["self_s"] / outer["total_s"] if outer["calls"] \
            else 0.0
        overhead = traced["cpu_s"] - traced["untraced_cpu_s"]
        base = traced["untraced_cpu_s"]
    else:
        wall = traced["wall_s"]
        attributed = sum(s["self_s"] for s in snap.values())
        outer_frac = outer["self_s"] / wall if wall else 0.0
        base = traced["untraced_wall_s"]  # per pass
        overhead = traced["traced_pass_s"] - base
    v["trace.wall_s"] = wall / passes
    v["trace.coverage"] = attributed / wall if wall else 0.0
    v["trace.outer_self_frac"] = outer_frac
    v["trace.overhead_s"] = overhead
    v["trace.overhead_frac"] = overhead / base if base else 0.0

    problems = self_check(workload, snap, traced["sites"], v["trace.coverage"])
    if hops and min(hops) < -HOP_SLACK_S:
        problems.append(f"a socket hop came out {min(hops) * 1e3:.3f} ms: "
                        f"client and daemon clocks disagree")
    v["trace.check"] = 0.0 if problems else 1.0
    return v, problems


def _serve_split(phases: Dict[str, dict], requests: List[list],
                 encodes: List[list]):
    """Split each request's latency at measured boundaries.

    Client send (due time + generator lag) -> the daemon starts handling
    the line (``serve.request`` start) -> it encodes the response just
    before writing it (last ``protocol.encode`` end for that id) -> the
    client reads it.  Both processes stamp ``perf_counter``, one
    system-wide monotonic clock.  Returns (total latency, latency of the
    requests the daemon reported, inbound hops, outbound hops).  The
    hops are what is left of a latency after the lag and the daemon's
    span, so a reported request is covered in full by construction.
    """
    starts = {label: end - dur for label, end, dur in requests}
    written = {label: end for label, end, _ in encodes}
    wall = attributed = 0.0
    inbound: List[float] = []
    outbound: List[float] = []
    for p in phases.values():
        for k, (rid, lat, lag) in enumerate(
                zip(p["ids"], p["latencies"], p["lags"])):
            if not math.isfinite(lat):
                continue
            wall += lat
            if rid not in starts or rid not in written:
                continue
            due = p["origin"] + k / p["qps"]
            inbound.append(starts[rid] - (due + lag))
            outbound.append(due + lat - written[rid])
            attributed += lat
    return wall, attributed, inbound, outbound


def self_check(workload: str, snap: Dict[str, dict], sites: Dict[str, int],
               coverage: float) -> List[str]:
    """Every layer fires where the workload loads it and nowhere else,
    every wrapper found a binding site, and the layers cover the wall."""
    problems = []
    for spec in LAYERS:
        calls = snap.get(spec.name, _EMPTY)["calls"]
        if not sites.get(spec.name):
            problems.append(f"{spec.name}: no binding site patched")
        if workload in spec.loads and calls == 0:
            problems.append(f"{spec.name}: expected calls on {workload}, "
                            f"saw none")
        if workload not in spec.loads and calls:
            problems.append(f"{spec.name}: {workload} should bypass it, "
                            f"saw {calls} calls")
    if abs(coverage - 1.0) > TOLERANCE[workload]:
        problems.append(f"layer self-times cover {coverage:.1%} of the "
                        f"traced end-to-end time (tolerance "
                        f"{TOLERANCE[workload]:.0%})")
    return problems


def print_layer_table(traced: dict, values: Dict[str, float]) -> None:
    passes = traced["passes"]
    snap = (merge(traced["halves"]["cold"] + traced["halves"]["warm"])
            if traced["workload"] == PAPER else traced["snapshot"])
    wall = values["trace.wall_s"]
    rows = []
    for spec in LAYERS:
        s = snap.get(spec.name, _EMPTY)
        rows.append((spec.name, f"{s['calls'] / passes:g}",
                     f"{s['self_s'] / passes:.4f}",
                     f"{s['total_s'] / passes:.4f}",
                     f"{s['self_s'] / passes / wall:.1%}" if wall else "-",
                     traced["sites"].get(spec.name, 0)))
    log(f"layer table, {traced['workload']} (per pass; {passes} traced; "
        f"{values['trace.outer_self_frac']:.1%} of the end-to-end time is "
        f"{OUTER[traced['workload']]}'s own):")
    log(fmt_table(rows, ("layer", "calls", "self_s", "total_s",
                         "self/e2e", "sites")))
    units = dict(PER_LAYER)
    log(fmt_table([(name, f"{values[name]:.6g}", units[name])
                   for name, _ in PER_LAYER if values[name]],
                  ("metric", "value", "unit")))
