"""DSE-as-a-service: a long-running daemon over the search stack.

The ROADMAP's "millions of users" refactor: instead of every caller
paying cold-start and running alone, one process keeps the engine's
warm state resident — the in-process evaluation LRU, the persistent
disk cache and a response memo — and answers ``cost`` / ``search`` /
``sweep`` queries over a newline-delimited JSON TCP protocol.

The perf core is the **coalescing scheduler**
(:mod:`repro.serve.scheduler`): concurrent cost queries that target
the same workload / accelerator fingerprint / scope are merged into
one :func:`repro.core.engine.evaluate_costs` lineup (one grid call for
its misses), identical queries
collapse to one evaluation, and sweeps are decomposed into chunks that
interleave fairly with short queries.  Around it sit admission control
(a bounded queue with load-shedding), per-request deadlines and a
graceful-drain shutdown.

The serving layer is a pure transport: every response payload is
byte-identical to a direct in-process ``evaluate_cost`` / ``search``
call (see :mod:`repro.serve.service` and the ``serving-equivalence``
CI job), which is why this package is excluded from the cache
fingerprint set like :mod:`repro.obs` and :mod:`repro.lint`.

See ``docs/serving.md`` for the protocol and semantics.
"""

from repro.serve.client import ServeClient, wait_for_server
from repro.serve.protocol import (
    PROTOCOL,
    DeadlineExceeded,
    Draining,
    Overloaded,
    ProtocolError,
    encode_line,
    resolve_query,
)
from repro.serve.scheduler import CoalescingScheduler, SchedulerConfig
from repro.serve.server import DSEServer, ServerThread, run_server
from repro.serve.service import answer_direct

__all__ = [
    "PROTOCOL",
    "CoalescingScheduler",
    "DSEServer",
    "DeadlineExceeded",
    "Draining",
    "Overloaded",
    "ProtocolError",
    "SchedulerConfig",
    "ServeClient",
    "ServerThread",
    "answer_direct",
    "encode_line",
    "resolve_query",
    "run_server",
    "wait_for_server",
]
