"""Command-line interface.

Five modes:

* ``python -m repro.cli <experiment>`` — regenerate one paper artifact
  (``list`` enumerates, ``all`` runs everything, ``--json`` emits rows).
* ``python -m repro.cli run-all [--only a,b] [--workers N]
  [--output-dir DIR]`` — run experiments as parallel jobs over a
  process pool, write per-experiment reports plus a JSON manifest.
* ``python -m repro.cli cost --model bert --seq 4096 --platform edge
  [--dataflow flat-r64 | --dse] [--scope LA|Block|Model]`` — cost an
  arbitrary workload, optionally from JSON specs
  (``--workload-json`` / ``--accel-json``).
* ``python -m repro.cli svg [--outdir DIR]`` — render the scatter/line
  figures as standalone SVG files.
* ``python -m repro.cli lint [paths...]`` — run the AST invariant
  checker (:mod:`repro.lint`) over the cost-model sources; remaining
  arguments are forwarded verbatim (``--format json``, ``--rules``,
  ...).  Equivalent to ``python -m repro.lint``.
* ``python -m repro.cli trace-summary <trace.jsonl>`` — render a trace
  written by ``--trace``: top spans by self-time, the counter/gauge
  and histogram tables, and the cache accounting invariant check.
* ``python -m repro.cli serve [--port N] [--cache-dir DIR]`` — run the
  DSE service daemon (:mod:`repro.serve`): a long-lived asyncio server
  answering cost/search/sweep queries over newline-delimited JSON with
  request coalescing and shared warm caches (``docs/serving.md``).
* ``python -m repro.cli query [--port N] [--replay FILE | query
  flags]`` — send queries to a running daemon and print one canonical
  JSON response line per request; ``--direct`` answers the same
  requests in-process instead (the equivalence reference path).

Every mode honors ``--cache-dir`` (or ``REPRO_CACHE_DIR``): a
persistent cross-run cache of DSE answers that makes warm re-runs
several times faster while producing byte-identical reports.  Every
run mode honors ``--trace PATH`` (or ``REPRO_TRACE``): observability
(:mod:`repro.obs`) is enabled for the run and the span/metric trace is
exported to ``PATH`` as JSON lines — reports stay byte-identical
either way.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import List, Optional

from repro.analysis.export import dumps
from repro.experiments.runner import (
    experiment_names,
    run_experiment,
    run_experiment_raw,
)

__all__ = ["main", "build_parser"]

_COMMANDS = ("list", "all", "cost", "svg")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-flat",
        description=(
            "Reproduction harness for 'FLAT: An Optimized Dataflow for "
            "Mitigating Attention Bottlenecks' (ASPLOS 2023). Runs the "
            "paper's tables and figures on the analytical cost model."
        ),
    )
    parser.add_argument(
        "experiment",
        help=(
            "experiment name, 'list', 'all', 'run-all' (parallel "
            "pipeline), 'cost' (ad-hoc workload costing), 'svg' "
            "(render figures), 'lint' (static invariant checker) or "
            "'trace-summary' (render a --trace output file)"
        ),
    )
    parser.add_argument(
        "--quiet", action="store_true",
        help="suppress timing footers",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="emit the experiment's typed rows as JSON instead of a table",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="persistent cross-run DSE evaluation cache (default: "
             "$REPRO_CACHE_DIR, or no cache); results are identical "
             "with or without it",
    )
    parser.add_argument(
        "--trace", default=None, metavar="PATH",
        help="enable observability and write the span/metric trace to "
             "PATH as JSON lines (default: $REPRO_TRACE, or off); "
             "render it with 'repro-flat trace-summary PATH'",
    )
    pipe = parser.add_argument_group("run-all mode")
    pipe.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="experiment-level worker processes (default: all cores)",
    )
    pipe.add_argument(
        "--only", default=None, metavar="A,B,...",
        help="comma-separated subset of experiments to run",
    )
    pipe.add_argument(
        "--output-dir", default="pipeline_output", metavar="DIR",
        help="directory for reports + manifest.json (default: "
             "pipeline_output)",
    )
    cost = parser.add_argument_group("cost mode")
    cost.add_argument("--model", default="bert",
                      help="zoo model name (default: bert)")
    cost.add_argument("--seq", type=int, default=4096,
                      help="sequence length (default: 4096)")
    cost.add_argument("--batch", type=int, default=64,
                      help="batch size (default: 64)")
    cost.add_argument("--platform", default="edge",
                      help="edge or cloud (default: edge)")
    cost.add_argument("--scope", default="L-A",
                      help="L-A, Block or Model (default: L-A)")
    cost.add_argument("--dataflow", default=None,
                      help="fixed dataflow, e.g. base, base-h, flat-r64; "
                           "omit to run the DSE")
    cost.add_argument("--workload-json", default=None,
                      help="path to a workload JSON spec (overrides "
                           "--model/--seq/--batch)")
    cost.add_argument("--accel-json", default=None,
                      help="path to an accelerator JSON spec (overrides "
                           "--platform)")
    svg = parser.add_argument_group("svg mode")
    svg.add_argument("--outdir", default=".",
                     help="directory for rendered SVG files (default: .)")
    return parser


def _run_cost(args) -> str:
    from repro.analysis.reports import format_bytes, format_table
    from repro.arch.config_io import load_accelerator, load_workload
    from repro.arch.presets import get_platform
    from repro.core.configs import attacc
    from repro.core.dataflow import parse_dataflow
    from repro.core.perf import cost_scope
    from repro.energy.model import energy_report
    from repro.models.configs import model_config
    from repro.ops.attention import Scope

    if args.workload_json:
        cfg = load_workload(args.workload_json)
    else:
        cfg = model_config(args.model, seq=args.seq, batch=args.batch)
    if args.accel_json:
        accel = load_accelerator(args.accel_json)
    else:
        accel = get_platform(args.platform)
    scope = Scope.from_name(args.scope)

    if args.dataflow:
        dataflow = parse_dataflow(args.dataflow)
        cost = cost_scope(cfg, scope, accel, dataflow)
        chosen = dataflow.name
    else:
        best = attacc().evaluate(cfg, accel, scope=scope)
        cost = best.cost
        chosen = f"{best.dataflow.name} (DSE optimum)"
    energy = energy_report(cost.counts)
    rows = [
        ("workload", f"{cfg.name} B={cfg.batch} H={cfg.heads} "
                     f"D={cfg.d_model} Nq={cfg.seq_q} Nkv={cfg.seq_kv}"),
        ("platform", f"{accel.name} ({accel.pe_array.num_pes} PEs, "
                     f"{format_bytes(accel.sg_bytes)} SG)"),
        ("dataflow", chosen),
        ("scope", scope.value),
        ("utilization", f"{cost.utilization:.3f}"),
        ("runtime", f"{cost.runtime_s(accel) * 1e3:.3f} ms"),
        ("off-chip traffic", format_bytes(cost.dram_bytes)),
        ("energy", f"{energy.total_j:.3f} J"),
        ("live footprint", format_bytes(cost.max_footprint_bytes)),
    ]
    return format_table(["metric", "value"], rows, title="Cost report")


def _run_svg(args) -> str:
    from repro.experiments.figures_svg import render_all

    paths = render_all(args.outdir)
    return "wrote:\n" + "\n".join(f"  {p}" for p in paths)


def _run_pipeline_mode(args) -> int:
    import repro.obs as obs
    from repro.experiments.pipeline import (
        run_pipeline,
        write_manifest,
    )
    from repro.obs.summary import trace_totals

    names = (
        [n.strip() for n in args.only.split(",") if n.strip()]
        if args.only else None
    )

    def _progress(run, done, total):
        hits = run.cache.get("hits", 0)
        print(
            f"[{done}/{total}] {run.name}: {run.status} in "
            f"{run.wall_time_s:.1f}s (searches={run.search['searches']}, "
            f"evaluated={run.search['evaluated']}, disk hits={hits})",
            file=sys.stderr, flush=True,
        )

    try:
        result = run_pipeline(
            names=names, workers=args.workers,
            progress=None if args.quiet else _progress,
        )
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    trace = None
    session = obs.session()
    if session is not None:
        # All worker events are merged by now; write_trace itself runs
        # when the surrounding observed() scope exits in main().
        trace = trace_totals(
            tuple(session.collector.events), session.registry.snapshot()
        )
    manifest_path = write_manifest(result, args.output_dir, trace=trace)
    search = result.aggregate_search()
    cache = result.aggregate_cache()
    print(
        f"ran {len(result.runs)} experiments with {result.workers} workers in "
        f"{result.wall_time_s:.1f}s "
        f"({len(result.failures)} failed)"
    )
    print(
        f"DSE totals: {search['searches']:.0f} searches, "
        f"{search['evaluated']:.0f} evaluated, "
        f"{search['pruned']:.0f} pruned, "
        f"{search['cache_hits']:.0f} cache hits "
        f"({search['disk_hits']:.0f} from disk)"
    )
    if result.cache_dir:
        print(
            f"persistent cache ({result.cache_dir}): "
            f"{cache.get('lookups', 0)} lookups, "
            f"{cache.get('hits', 0)} hits, {cache.get('misses', 0)} misses, "
            f"{cache.get('writes', 0)} writes, "
            f"{cache.get('corrupt', 0)} corrupt"
        )
    print(f"manifest: {manifest_path}")
    for failed in result.failures:
        print(f"FAILED {failed.name}: {failed.report}", file=sys.stderr)
    return 1 if result.failures else 0


def _run_trace_summary(argv: List[str]) -> int:
    """The ``trace-summary`` verb: render a ``--trace`` output file.

    Exits 1 when the trace's cache metrics violate the accounting
    invariant ``hits + misses == lookups``, so CI can gate on it.
    """
    from repro.obs.summary import cache_invariant, format_summary
    from repro.obs.trace import read_trace

    parser = argparse.ArgumentParser(
        prog="repro-flat trace-summary",
        description="Summarize a JSON-lines trace written by --trace: "
                    "top spans by self-time, counters, histograms and "
                    "the cache accounting invariant.",
    )
    parser.add_argument("trace", help="path to the trace .jsonl file")
    parser.add_argument(
        "--top", type=int, default=12, metavar="N",
        help="span rollup rows to show (default: 12)",
    )
    args = parser.parse_args(argv)
    try:
        data = read_trace(args.trace)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(format_summary(data, top=args.top))
    invariant = cache_invariant(data.metrics)
    if invariant is not None and not invariant[3]:
        print("error: cache accounting invariant violated",
              file=sys.stderr)
        return 1
    return 0


def _run_serve(argv: List[str]) -> int:
    """The ``serve`` verb: run the DSE service daemon until signalled.

    Prints the bound address on startup (flushed, so a supervising
    process — CI, the load benchmark — can watch stdout for
    readiness).  ``--port 0`` binds an ephemeral port.
    """
    import asyncio

    import repro.obs as obs
    from repro.core.cache import default_cache_dir
    from repro.serve import SchedulerConfig, run_server

    parser = argparse.ArgumentParser(
        prog="repro-flat serve",
        description="Serve cost/search/sweep queries over "
                    "newline-delimited JSON with request coalescing and "
                    "shared warm caches (see docs/serving.md).",
    )
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default: 127.0.0.1)")
    parser.add_argument("--port", type=int, default=7321,
                        help="TCP port; 0 picks an ephemeral port "
                             "(default: 7321)")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="persistent evaluation cache directory "
                             "(default: REPRO_CACHE_DIR or off)")
    parser.add_argument("--trace", default=None, metavar="FILE",
                        help="write a span/metrics trace of the serving "
                             "session on shutdown")
    parser.add_argument("--window-ms", type=float, default=2.0,
                        help="coalescing micro-batch window in ms "
                             "(default: 2.0)")
    parser.add_argument("--max-batch", type=int, default=64,
                        help="max queries drained per micro-batch "
                             "(default: 64)")
    parser.add_argument("--max-queue", type=int, default=256,
                        help="admission-control queue bound; beyond it "
                             "requests are shed (default: 256)")
    parser.add_argument("--sweep-chunk", type=int, default=8,
                        help="sweep decomposition chunk size "
                             "(default: 8)")
    parser.add_argument("--memo-size", type=int, default=4096,
                        help="served-response memo entries (default: 4096)")
    args = parser.parse_args(argv)
    try:
        config = SchedulerConfig(
            window_ms=args.window_ms, max_batch=args.max_batch,
            max_queue=args.max_queue, sweep_chunk=args.sweep_chunk,
            memo_size=args.memo_size,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    def announce(host: str, port: int) -> None:
        print(f"serving on {host}:{port}", flush=True)

    trace_path = (
        args.trace if args.trace is not None
        else (os.environ.get(obs.ENV_TRACE) or None)
    )
    try:
        with obs.maybe_observed(trace_path), \
                default_cache_dir(args.cache_dir):
            return asyncio.run(
                run_server(args.host, args.port, config=config,
                           announce=announce)
            )
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _build_query_requests(args) -> List[dict]:
    """Requests for the ``query`` verb, from ``--replay`` or flags.

    Every request lacking an ``id`` gets a deterministic ``q<N>`` in
    order — the same ids under ``--direct`` and served mode, so the two
    outputs diff byte-for-byte.
    """
    import json as _json

    if args.replay:
        requests = []
        with open(args.replay, "r", encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                try:
                    req = _json.loads(line)
                except ValueError as exc:
                    raise ValueError(
                        f"{args.replay}:{lineno}: invalid JSON ({exc})"
                    ) from None
                if not isinstance(req, dict):
                    raise ValueError(
                        f"{args.replay}:{lineno}: request must be an object"
                    )
                requests.append(req)
        if not requests:
            raise ValueError(f"{args.replay}: no requests")
    elif args.op in ("ping", "stats"):
        requests = [{"op": args.op}]
    else:
        base = {
            "op": args.op, "model": args.model, "seq": args.seq,
            "batch": args.batch, "platform": args.platform,
            "scope": args.scope,
        }
        dataflows = [
            d.strip() for d in (args.dataflow or "").split(",") if d.strip()
        ]
        if args.op == "cost":
            if len(dataflows) != 1:
                raise ValueError("cost query needs exactly one --dataflow")
            base["dataflow"] = dataflows[0]
        elif args.op == "sweep":
            if not dataflows:
                raise ValueError(
                    "sweep needs --dataflow with a comma-separated list"
                )
            base = {
                "op": "sweep",
                "requests": [
                    dict(base, op="cost", dataflow=d) for d in dataflows
                ],
            }
        elif args.op == "decode":
            if args.kv_len is None:
                raise ValueError("decode query needs --kv-len")
            base["kv_len"] = args.kv_len
            base["objective"] = args.objective
            if args.no_variants:
                base["variants"] = False
        elif args.op == "scaleout":
            try:
                chip_counts = [
                    int(c) for c in (args.chips or "").split(",") if c.strip()
                ]
            except ValueError:
                raise ValueError(
                    "--chips needs a comma-separated list of integers"
                ) from None
            if not chip_counts:
                raise ValueError("scaleout needs --chips")
            base.update(
                chips_per_channel=args.chips_per_channel,
                contention=args.contention,
            )
            if len(chip_counts) == 1:
                base["chips"] = chip_counts[0]
            else:
                # A cluster-count sweep rides the sweep op: each count
                # becomes one scaleout sub-query through the scheduler.
                base = {
                    "op": "sweep",
                    "requests": [
                        dict(base, op="scaleout", chips=c)
                        for c in chip_counts
                    ],
                }
        else:  # search
            base["objective"] = args.objective
        if args.deadline_ms is not None:
            base["deadline_ms"] = args.deadline_ms
        requests = [base]
    for index, req in enumerate(requests, start=1):
        if "id" not in req:
            req["id"] = f"q{index}"
    return requests


def _run_query(argv: List[str]) -> int:
    """The ``query`` verb: replay requests against a daemon (or direct).

    Writes one canonical JSON response line per request, in request
    order, to stdout; progress events go to stderr.  ``--direct``
    answers the same requests in-process through the reference path —
    the byte-equivalence counterpart the CI job diffs against.  Exits 1
    when any response is an error envelope.
    """
    parser = argparse.ArgumentParser(
        prog="repro-flat query",
        description="Send queries to a running DSE daemon (or answer "
                    "them in-process with --direct) and print one "
                    "canonical JSON response line per request.",
    )
    parser.add_argument("--host", default="127.0.0.1",
                        help="daemon address (default: 127.0.0.1)")
    parser.add_argument("--port", type=int, default=7321,
                        help="daemon port (default: 7321)")
    parser.add_argument("--replay", default=None, metavar="FILE",
                        help="NDJSON file of request objects (one per "
                             "line, # comments allowed); overrides the "
                             "single-query flags")
    parser.add_argument("--direct", action="store_true",
                        help="answer in-process instead of connecting "
                             "(the serving-equivalence reference path)")
    parser.add_argument("--timeout", type=float, default=300.0,
                        help="socket timeout in seconds (default: 300)")
    parser.add_argument("--op", default="cost",
                        choices=["ping", "stats", "cost", "search", "sweep",
                                 "scaleout", "decode"],
                        help="single-query operation (default: cost)")
    parser.add_argument("--model", default="bert",
                        help="zoo model name (default: bert)")
    parser.add_argument("--seq", type=int, default=4096,
                        help="sequence length (default: 4096)")
    parser.add_argument("--batch", type=int, default=64,
                        help="batch size (default: 64)")
    parser.add_argument("--platform", default="edge",
                        help="edge or cloud (default: edge)")
    parser.add_argument("--scope", default="L-A",
                        help="L-A, Block or Model (default: L-A)")
    parser.add_argument("--dataflow", default=None,
                        help="dataflow for cost queries; comma-separated "
                             "list for sweep")
    parser.add_argument("--objective", default="runtime",
                        help="search objective (default: runtime)")
    parser.add_argument("--chips", default=None,
                        help="scaleout chip count, or a comma-separated "
                             "list for a cluster-count sweep")
    parser.add_argument("--chips-per-channel", type=int, default=1,
                        help="chips sharing one off-chip channel "
                             "(scaleout, default: 1)")
    parser.add_argument("--contention", type=float, default=1.0,
                        help="shared-channel arbitration derate "
                             "(scaleout, default: 1.0)")
    parser.add_argument("--kv-len", type=int, default=None,
                        help="decode-step KV cache length (decode op)")
    parser.add_argument("--no-variants", action="store_true",
                        help="restrict decode searches to the reference "
                             "softmax dataflows (no attention-variant zoo)")
    parser.add_argument("--deadline-ms", type=float, default=None,
                        help="per-request deadline in milliseconds")
    args = parser.parse_args(argv)

    from repro.serve import ServeClient, answer_direct, encode_line

    try:
        requests = _build_query_requests(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    def _on_event(event: dict) -> None:
        print(
            f"progress {event.get('id')}: {event.get('done')}/"
            f"{event.get('total')}", file=sys.stderr, flush=True,
        )

    if args.direct:
        responses = [answer_direct(req) for req in requests]
    else:
        try:
            with ServeClient(args.host, args.port,
                             timeout=args.timeout) as client:
                responses = client.request_many(
                    requests, on_event=_on_event
                )
        except (OSError, ConnectionError) as exc:
            print(
                f"error: cannot reach daemon at {args.host}:{args.port} "
                f"({exc})", file=sys.stderr,
            )
            return 2
    out = sys.stdout.buffer
    for response in responses:
        out.write(encode_line(response))
    out.flush()
    return 0 if all(r.get("ok") for r in responses) else 1


def main(argv: Optional[List[str]] = None) -> int:
    import repro.obs as obs
    from repro.core.cache import default_cache_dir

    raw = list(sys.argv[1:]) if argv is None else list(argv)
    if raw and raw[0] == "lint":
        # The lint verb owns its own argparse surface; forward the
        # remaining arguments untouched.
        from repro.lint import main as lint_main

        return lint_main(raw[1:])
    if raw and raw[0] == "trace-summary":
        return _run_trace_summary(raw[1:])
    if raw and raw[0] == "serve":
        return _run_serve(raw[1:])
    if raw and raw[0] == "query":
        return _run_query(raw[1:])
    args = build_parser().parse_args(raw)
    trace_path = (
        args.trace if args.trace is not None
        else (os.environ.get(obs.ENV_TRACE) or None)
    )
    if args.experiment == "list":
        for name in experiment_names():
            print(name)
        return 0
    if args.experiment == "run-all":
        with obs.maybe_observed(trace_path), \
                default_cache_dir(args.cache_dir):
            return _run_pipeline_mode(args)
    if args.experiment in ("cost", "svg"):
        start = time.perf_counter()
        try:
            with obs.maybe_observed(trace_path), \
                    default_cache_dir(args.cache_dir):
                report = _run_cost(args) if args.experiment == "cost" else (
                    _run_svg(args)
                )
        except (ValueError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(report)
        if not args.quiet:
            print(
                f"[{args.experiment} finished in "
                f"{time.perf_counter() - start:.1f}s]"
            )
        return 0
    names = experiment_names() if args.experiment == "all" else [
        args.experiment
    ]
    with obs.maybe_observed(trace_path):
        for name in names:
            start = time.perf_counter()
            try:
                with default_cache_dir(args.cache_dir):
                    if args.json:
                        report = dumps(run_experiment_raw(name))
                    else:
                        report = run_experiment(name)
            except ValueError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            try:
                print(report)
                if not args.quiet:
                    print(
                        f"[{name} finished in "
                        f"{time.perf_counter() - start:.1f}s]"
                    )
                print()
            except BrokenPipeError:
                # Downstream consumer (head, less) closed the pipe early.
                sys.stderr.close()
                return 0
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
