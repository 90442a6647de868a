"""Workload ``serve-mixed``: an open-loop query stream against the daemon.

The benchmark launches ``repro-flat serve`` (CLI defaults, no disk
cache) in its own process through ``daemon.py`` and drives it from one
connection: the main thread sends each request at its due time, one
reader thread collects responses.  Latency is measured from the due
time, so a stall also delays every request queued behind it, and the
generator reports how late it ran.

Requests draw a key -- model x seq x batch x platform -- from a Zipf
popularity over a fixed shuffled ranking, then an op: ~3 % ten-dataflow
``sweep``s, the rest ``cost``/``search``/``decode``/``scaleout``.
Two fixed-rate phases follow each other on the same fresh daemon:

* ``lo`` at ``LO_QPS``: every request is one the daemon has not seen
  (no scheduler identity repeats within the phase), so none is a memo
  hit or coalesces and latency is engine service time;
* ``hi`` at ``HI_QPS``, a fraction of the measured knee (see
  ``record.json``), draws with replacement: the popular keys repeat, so
  queueing and the memo/protocol path dominate.

The traffic shape is an assumption, not a fit: no trace of DSE queries
exists.  The comment on each constant below says what it rests on;
``record.json`` records the measured share of each phase that reaches
the engine, which is what a gain on this workload depends on.

After the phases every response is compared byte for byte with
``answer_direct`` computed in this process.  ``cpu_ref`` is the CPU time
the daemon spends serving both phases, in refs counted by a probe inside
the daemon (see ``refprobe.py``); the named metrics are the p50 and p99
latency of each phase.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
import re
import select
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from common import (
    ROOT,
    WORK,
    SetupProbe,
    child_env,
    log,
    metric,
    percentile,
)
from refprobe import refs

HERE = Path(__file__).resolve().parent
#: Responses are canonical sorted-key JSON, so the reader can find the id
#: (and skip progress events) without parsing the whole line.
_ID = re.compile(rb'"id":"([^"]*)"')

LO_QPS = 100.0
HI_QPS = 640.0
HI_SECONDS = 6.0
#: Zipf exponent of key popularity: just above 1, the common assumption
#: for cache-key popularity.  It is what makes ``hi`` memo-bound.
ZIPF_S = 1.1
RANKING_SEED = 2023
#: The five models of the zoo (``repro.models.configs.MODEL_ZOO``).
MODELS = ("bert", "flaubert", "xlm", "trxl", "t5")
#: ``bench_serve`` queries 512-2048; 4096 is the shortest long sequence of
#: ``PAPER_SEQ_LENGTHS``.  8192 is one more doubling; longer ones appear
#: in no serving test or benchmark.
SEQS = (512, 1024, 2048, 4096, 8192)
#: 64 is ``PAPER_BATCH`` and 8 ``bench_serve``'s batch.  The powers of
#: two between are there to give the ``lo`` phase enough requests the
#: daemon has not seen (nine per key).
BATCHES = (1, 2, 4, 8, 16, 32, 64)
#: The two platform presets.
PLATFORMS = ("edge", "cloud")
#: Op shares.  ``bench_serve`` sends 3/4 cost lookups, 1/4 searches and
#: 1/50 sweeps; cost and search keep that order here, and sweeps get the
#: ~3 % asked of the workload.  ``decode`` and ``scaleout`` are newer
#: than ``bench_serve`` and have no source: each gets a share close to
#: search's, so each reaches the engine over a hundred times per ``lo``
#: phase.
OP_MIX = (("cost", 0.50), ("search", 0.20), ("decode", 0.15),
          ("scaleout", 0.12), ("sweep", 0.03))
#: ``bench_serve``'s four cost dataflows, with ``flat-r16``/``flat-r256``
#: for its ``flat-r32``/``flat-r128``; the sweep is its ten.
COST_DATAFLOWS = ("base", "flat-r16", "flat-r64", "flat-r256")
SWEEP_DATAFLOWS = ("base", "base-h", "flat-r2", "flat-r4", "flat-r8",
                   "flat-r16", "flat-r32", "flat-r64", "flat-r128",
                   "flat-r256")
#: Chip counts of ``scaleout`` requests: 8 is the protocol tests' count,
#: with one halving and one doubling.
CHIPS = (4, 8, 16)


def _identities(req: dict) -> List[tuple]:
    """The scheduler identities a request submits (a sweep: ten)."""
    if req["op"] == "sweep":
        return [_identities(sub)[0] for sub in req["requests"]]
    key = (req["model"], req["seq"], req["batch"], req["platform"])
    return [key + (req["op"], req.get("dataflow"), req.get("chips"))]


def build_stream(seed: int, n_lo: int, n_hi: int) -> List[dict]:
    """``n_lo + n_hi`` requests with ids ``q0..``; same seed, same requests.

    The popularity ranking of the keys is part of the workload and fixed;
    the seed draws the request sequence from it.  The first ``n_lo``
    (the ``lo`` phase) skip every draw that would repeat a scheduler
    identity already in the phase.
    """
    keys = list(itertools.product(MODELS, SEQS, BATCHES, PLATFORMS))
    random.Random(RANKING_SEED).shuffle(keys)
    rng = random.Random(seed)
    popularity = list(itertools.accumulate(
        1.0 / (rank + 1) ** ZIPF_S for rank in range(len(keys))))
    ops, op_weights = zip(*OP_MIX)
    seen = set()
    out: List[dict] = []
    draws = 0
    while len(out) < n_lo + n_hi:
        draws += 1
        if draws > 100 * (n_lo + n_hi):
            raise ValueError(f"the key space holds too few distinct "
                             f"requests for a lo phase of {n_lo}")
        model, seq, batch, platform = rng.choices(
            keys, cum_weights=popularity)[0]
        base = {"model": model, "seq": seq, "batch": batch,
                "platform": platform}
        op = rng.choices(ops, weights=op_weights)[0]
        if op == "cost":
            req = dict(base, op="cost", dataflow=rng.choice(COST_DATAFLOWS))
        elif op == "search":
            req = dict(base, op="search")
        elif op == "decode":
            req = dict(base, op="decode", kv_len=seq)
        elif op == "scaleout":
            req = dict(base, op="scaleout", chips=rng.choice(CHIPS))
        else:
            req = {"op": "sweep", "requests": [
                dict(base, op="cost", dataflow=d) for d in SWEEP_DATAFLOWS]}
        if len(out) < n_lo:
            ident = _identities(req)
            if seen.intersection(ident):
                continue
            seen.update(ident)
        req["id"] = f"q{len(out)}"
        out.append(req)
    return out


def phase_sizes(seconds: float) -> Tuple[int, int]:
    lo_s = max(1.0, seconds - HI_SECONDS)
    return round(LO_QPS * lo_s), round(HI_QPS * HI_SECONDS)


def probe_setup() -> None:
    from repro.serve.protocol import encode_line

    [encode_line(req) for req in build_stream(0, *phase_sizes(20))]


class Daemon:
    """One ``repro-flat serve`` process on an ephemeral port."""

    def __init__(self, layers_out: Optional[Path] = None,
                 refs_out: Optional[Path] = None) -> None:
        from repro.serve.client import wait_for_server

        start = time.perf_counter()
        cmd = [sys.executable, str(HERE / "daemon.py")]
        if layers_out is not None:
            cmd += ["--layers-out", str(layers_out)]
        if refs_out is not None:
            cmd += ["--refs-out", str(refs_out)]
        cmd += ["--port", "0"]
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, env=child_env(), cwd=str(ROOT))
        self.rusage = None
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], 60)
            line = self.proc.stdout.readline().decode() if ready else ""
            if not line.startswith("serving on "):
                raise RuntimeError(f"daemon did not start: {line!r}")
            host, port = line.split()[-1].rsplit(":", 1)
            self.address = (host, int(port))
            wait_for_server(host, int(port), timeout=60)
        except BaseException:
            self.stop()
            raise
        self.start_s = time.perf_counter() - start

    def cpu_s(self) -> float:
        """CPU seconds the daemon has used so far (user + system)."""
        fields = Path(f"/proc/{self.proc.pid}/stat").read_text()
        utime, stime = fields.rsplit(")", 1)[1].split()[11:13]
        return (int(utime) + int(stime)) / os.sysconf("SC_CLK_TCK")

    def stats(self) -> Dict[str, int]:
        from repro.serve.client import ServeClient

        with ServeClient(*self.address, timeout=60) as client:
            return client.stats()["scheduler"]

    def stop(self, timeout: float = 60.0):
        """SIGTERM (graceful drain), reap, and return the child's rusage."""
        if self.rusage is not None:
            return self.rusage
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        deadline = time.monotonic() + timeout
        while True:
            pid, status, rusage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                self.proc.kill()
                pid, status, rusage = os.wait4(self.proc.pid, 0)
                break
            time.sleep(0.01)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc.stdout.close()
        self.rusage = rusage
        return rusage


def drive(address: Tuple[str, int], lines: Sequence[bytes],
          ids: Sequence[str], qps: float) -> Tuple[List[float], List[float],
                                                    Dict[str, bytes], float]:
    """Send ``lines`` at ``qps`` (open loop) on one connection.

    Returns (latency from due time, generator lag, raw response by id,
    due time of the first request).  Request ``k`` is due at
    ``origin + k / qps`` on the ``perf_counter`` clock.
    """
    sock = socket.create_connection(address, timeout=120)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    received: Dict[str, Tuple[float, bytes]] = {}
    want = len(lines)

    def reader() -> None:
        stream = sock.makefile("rb")
        try:
            while len(received) < want:
                raw = stream.readline()
                if not raw:
                    return
                now = time.perf_counter()
                if b'"event":' not in raw:
                    received[_ID.search(raw).group(1).decode()] = (now, raw)
        except OSError:
            return
        finally:
            stream.close()

    thread = threading.Thread(target=reader, name="perfbench-reader")
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)  # hand the GIL to a due send promptly
    thread.start()
    lags: List[float] = []
    origin = time.perf_counter() + 0.02
    try:
        for i, line in enumerate(lines):
            due = origin + i / qps
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            # Stamped before sending: after sendall returns, this thread
            # may wait for a core while the daemon already works on it.
            lags.append(time.perf_counter() - due)
            sock.sendall(line)
        thread.join(timeout=120)
    finally:
        sys.setswitchinterval(switch)
        if thread.is_alive():
            sock.shutdown(socket.SHUT_RDWR)
            thread.join()
        sock.close()
    latencies = [
        received[i][0] - (origin + k / qps) if i in received
        else float("inf")
        for k, i in enumerate(ids)
    ]
    return (latencies, lags, {i: raw for i, (_, raw) in received.items()},
            origin)


def verify(stream: Sequence[dict], responses: Dict[str, bytes]
           ) -> Tuple[int, int]:
    """(failed, mismatched): shed/error/missing responses fail; a served
    answer that differs from ``answer_direct`` also mismatches."""
    from repro.serve import answer_direct, encode_line

    direct: Dict[str, dict] = {}
    failed = mismatched = 0
    for req in stream:
        raw = responses.get(req["id"])
        if raw is None:
            failed += 1
            continue
        body = json.dumps({k: v for k, v in req.items() if k != "id"},
                          sort_keys=True)
        if body not in direct:
            direct[body] = answer_direct(req)
        expected = encode_line(dict(direct[body], id=req["id"]))
        if raw != expected:
            failed += 1
            if json.loads(raw).get("code") not in ("overloaded",
                                                    "deadline_exceeded"):
                mismatched += 1
    return failed, mismatched


def _delta(after: Dict[str, int], before: Dict[str, int]) -> Dict[str, float]:
    keys = ("requests", "memo_hits", "coalesced", "evaluations",
            "grid_calls", "grid_rows", "shed", "deadline_expired")
    return {k: after[k] - before[k] for k in keys}


def _serve(stream, lines, sizes, layers_out=None, refs_out=None) -> dict:
    """Start a daemon, run both phases, stop it; raw observations."""
    daemon = Daemon(layers_out, refs_out)
    out = {"start_s": daemon.start_s, "phases": {}}
    try:
        cpu = daemon.cpu_s()
        first = time.perf_counter()
        offset = 0
        for phase, qps, n in (("lo", LO_QPS, sizes[0]),
                              ("hi", HI_QPS, sizes[1])):
            before = daemon.stats()
            start = time.perf_counter()
            ids = [req["id"] for req in stream[offset:offset + n]]
            lat, lags, raw, origin = drive(daemon.address,
                                           lines[offset:offset + n], ids, qps)
            out["phases"][phase] = {
                "latencies": lat, "lags": lags, "responses": raw,
                "ids": ids, "origin": origin, "qps": qps,
                "wall_s": time.perf_counter() - start,
                "sched": _delta(daemon.stats(), before),
            }
            offset += n
        out["cpu_s"] = daemon.cpu_s() - cpu
        last = time.perf_counter()
    finally:
        rusage = daemon.stop()
    out["rss_mb"] = rusage.ru_maxrss / 1024.0
    if refs_out is not None:
        # The daemon's probe stamps samples on the same system-wide clock.
        out["refs"] = refs(json.loads(refs_out.read_text()), first, last)
    return out


def run(seed: int, seconds: float, trace: bool) -> dict:
    from layers import SERVE
    from repro.serve.protocol import encode_line

    (WORK / "serve").mkdir(parents=True, exist_ok=True)
    setup_probe = SetupProbe("serve-mixed")
    setup_probe.sample(2)
    sizes = phase_sizes(seconds)
    stream = build_stream(seed, *sizes)
    lines = [encode_line(req) for req in stream]
    # Set-up: a discarded daemon start, the measured one and another
    # discarded one after the phases; the fastest counts (see SetupProbe).
    throwaway = Daemon()
    starts = [throwaway.start_s]
    throwaway.stop()

    layers_out = WORK / "serve" / "layers.json"
    if trace:
        plain = _serve(stream, lines, sizes)
        layers_out.unlink(missing_ok=True)
        observed = _serve(stream, lines, sizes, layers_out)
        dump = json.loads(layers_out.read_text())
    else:
        refs_out = WORK / "serve" / "refs.json"
        refs_out.unlink(missing_ok=True)
        observed = _serve(stream, lines, sizes, refs_out=refs_out)
    throwaway = Daemon()
    starts += [observed["start_s"], throwaway.start_s]
    throwaway.stop()
    setup_probe.sample(2)
    setup_s = setup_probe.value() + min(starts)
    log(f"serve-mixed: set-up samples {setup_probe.walls}, daemon starts "
        f"{starts}")

    attempted = failed = mismatched = 0
    for served in ((plain, observed) if trace else (observed,)):
        responses: Dict[str, bytes] = {}
        for phase in served["phases"].values():
            responses.update(phase["responses"])
        bad, wrong = verify(stream, responses)
        attempted += len(stream)
        failed += bad
        mismatched += wrong
    if mismatched:
        log(f"serve-mixed: {mismatched} responses differ from answer_direct")
    out = {"attempted": attempted, "failed": failed,
           "correct": mismatched == 0,
           "named": _latencies(plain if trace else observed)}
    if trace:
        out["traced"] = {
            "workload": SERVE,
            "snapshot": dump["layers"],
            "search": [dump["search"]],
            "scaleout": [dump["scaleout"]],
            "sites": {k: v["sites"] for k, v in dump["layers"].items()},
            "phases": {
                name: {k: v for k, v in p.items() if k != "responses"}
                for name, p in observed["phases"].items()
            },
            "cpu_s": observed["cpu_s"],
            "untraced_cpu_s": plain["cpu_s"],
            "passes": 1,
        }
        return out
    out["metrics"] = {
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(observed["rss_mb"], "MB"),
        "cpu_ref": metric(observed["refs"], "ref"),
    }
    log(f"serve-mixed: daemon cpu {observed['cpu_s']:.3f} s, "
        f"{observed['refs']:.0f} refs")
    return out


def _latencies(observed: dict) -> Dict[str, Tuple[float, str]]:
    """Named p50/p99 latency of each phase, from the due time."""
    named: Dict[str, Tuple[float, str]] = {}
    for name, phase in observed["phases"].items():
        lat_ms = [x * 1e3 for x in phase["latencies"]]
        p50 = percentile(lat_ms, 0.50)
        p99 = percentile(lat_ms, 0.99)
        lag = percentile([x * 1e3 for x in phase["lags"]], 0.99)
        for label, p in (("p50", p50), ("p99", p99)):
            value = p.value
            if not math.isfinite(value):
                # A failed request has no latency; it counts as slower
                # than every answered one.
                value = max(x for x in lat_ms if math.isfinite(x))
                log(f"serve-mixed {name}: {label} falls on a failed "
                    f"request; reporting the slowest answered one")
            named[f"{name}_{label}_ms"] = (value, "ms")
        sched = phase["sched"]
        log(f"serve-mixed {name}: {len(lat_ms)} requests at "
            f"{phase['qps']:g} qps; {p50.describe('ms')}, "
            f"{p99.describe('ms')}; generator lag {lag.describe('ms')}, "
            f"max {max(phase['lags']) * 1e3:.3f} ms; scheduler {sched}; "
            f"{sched['evaluations'] / max(1, sched['requests']):.1%} of "
            f"scheduler requests reached the engine")
    return named
