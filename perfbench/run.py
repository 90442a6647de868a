"""The repository benchmark: one command, three seeded workloads.

Usage::

    python3 perfbench/run.py --workload paper --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20      # every workload
    python3 perfbench/run.py --workload decode-trace --trace 1  # layer table
    python3 perfbench/diff.py parent.out change.out           # layer deltas

Workloads: ``paper`` (the ``run-all`` registry, cold and warm disk
cache), ``serve-mixed`` (an open-loop stream against the ``serve``
daemon) and ``decode-trace`` (continuous batching on the sim tier).
``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` wraps each layer's public functions from outside
(``layers.py``), prints the layer table and reports the per-layer
metrics plus the tracing overhead and the coverage self-check.

Human-readable tables go to standard error.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (name -> value and unit).  Exit status is 0 only when a
result was printed; outputs that do not match the recorded goldens make
``correct`` false.

Maintenance: ``--record-golden`` rewrites ``golden.json`` from the
current reports; ``--find-knee`` steps the ``serve-mixed`` rate upwards
to locate the serving knee recorded in ``record.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import signal
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    ROOT,
    SRC,
    WORK,
    TooFewSamples,
    child_env,
    fmt_table,
    log,
    use_checkout_sources,
)

WORKLOADS = ("paper", "serve-mixed", "decode-trace")


def _module(workload: str):
    if workload == "paper":
        import paper as module
    elif workload == "serve-mixed":
        import serve_mixed as module
    else:
        import decode_trace as module
    return module


def _run_all(args) -> int:
    """Every workload in its own process; one combined table."""
    rows = []
    ok = True
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, env=child_env(), cwd=str(ROOT),
            timeout=900,
        )
        if proc.returncode != 0:
            log(f"{workload}: exit {proc.returncode}")
            ok = False
            continue
        result = json.loads(proc.stdout.decode().strip().splitlines()[-1])
        ok = ok and result["correct"] and not result["failed"]
        for name, m in result["metrics"].items():
            rows.append((workload, name, f"{m['value']:.6g}", m["unit"],
                         result["attempted"], result["failed"],
                         result["correct"]))
    log(fmt_table(rows, ("workload", "metric", "value", "unit",
                         "attempted", "failed", "correct")))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--record-golden", action="store_true")
    parser.add_argument("--find-knee", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        log(f"no repro sources under {SRC}")
        return 2
    use_checkout_sources()
    if args.record_golden:
        _module("paper").record_golden()
        _module("decode-trace").record_golden()
        return 0
    if args.find_knee:
        from knee import find_knee

        find_knee(args.seed)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return _run_all(args)
    module = _module(args.workload)
    if args.probe_setup:
        module.probe_setup()
        return 0

    WORK.mkdir(exist_ok=True)
    # A terminated run still unwinds, so a launched daemon is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        result = module.run(args.seed, args.seconds, bool(args.trace))
    except TooFewSamples as exc:
        log(f"{args.workload}: {exc}; raise --seconds")
        return 1
    log(fmt_table([(name, f"{value:.6g}", unit)
                   for name, (value, unit) in result["named"].items()],
                  ("named metric", "value", "unit")))
    if args.trace:
        from report import layer_metrics, print_layer_table, PER_LAYER

        result["traced"]["named"] = result["named"]
        values, problems = layer_metrics(result["traced"])
        print_layer_table(result["traced"], values)
        for problem in problems:
            log(f"self-check: {problem}")
        if problems:
            result["correct"] = False
        units = dict(PER_LAYER)
        result["metrics"] = {name: {"value": values[name],
                                    "unit": units[name]}
                             for name, _ in PER_LAYER}
    else:
        log(fmt_table(
            [(name, f"{m['value']:.6g}", m["unit"])
             for name, m in result["metrics"].items()],
            ("metric", "value", "unit")))
    log(f"{args.workload}: attempted {result['attempted']}, "
        f"failed {result['failed']}, correct {result['correct']}")
    if not result["metrics"] or not all(
            math.isfinite(m["value"]) for m in result["metrics"].values()):
        log("no complete result")
        return 1
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
