"""Locate the serving knee of ``serve-mixed`` (``run.py --find-knee``).

For each candidate rate a fresh daemon serves the ``lo`` phase, then
``HI_SECONDS`` at the candidate rate.  The knee is the highest rate at
which nothing is shed, the p99 stays under ``P99_LIMIT_MS`` and the
second half of the phase is no slower than the first (no growing
backlog).  The result goes into ``record.json`` by hand, next to the
``hi`` rate chosen from it.
"""

from __future__ import annotations

from common import TooFewSamples, log, percentile
from serve_mixed import (
    HI_SECONDS,
    LO_QPS,
    Daemon,
    build_stream,
    drive,
    phase_sizes,
)

RATES = (200, 300, 400, 500, 600, 800, 1000, 1200)
P99_LIMIT_MS = 100.0


def find_knee(seed: int, seconds: float = 20.0) -> float:
    from repro.serve.protocol import encode_line

    n_lo, _ = phase_sizes(seconds)
    knee = 0.0
    for rate in RATES:
        n_hi = round(rate * HI_SECONDS)
        stream = build_stream(seed, n_lo, n_hi)
        lines = [encode_line(req) for req in stream]
        ids = [req["id"] for req in stream]
        daemon = Daemon()
        try:
            drive(daemon.address, lines[:n_lo], ids[:n_lo], LO_QPS)
            before = daemon.stats()
            lat, lags, _, _ = drive(daemon.address, lines[n_lo:],
                                    ids[n_lo:], rate)
            shed = daemon.stats()["shed"] - before["shed"]
        finally:
            daemon.stop()
        ms = [x * 1e3 for x in lat]
        half = len(ms) // 2
        try:
            p99 = percentile(ms, 0.99).value
            first = percentile(ms[:half], 0.50).value
            second = percentile(ms[half:], 0.50).value
            lag = percentile([x * 1e3 for x in lags], 0.99).value
        except TooFewSamples as exc:
            log(f"{rate} qps: {exc}")
            continue
        steady = shed == 0 and p99 <= P99_LIMIT_MS and second <= 2 * first
        log(f"{rate:5d} qps: p99 {p99:9.3f} ms, p50 first/second half "
            f"{first:.3f}/{second:.3f} ms, shed {shed}, generator lag p99 "
            f"{lag:.3f} ms -> {'steady' if steady else 'past the knee'}")
        if steady:
            knee = float(rate)
    log(f"knee: {knee:g} qps (highest steady rate tried)")
    return knee
