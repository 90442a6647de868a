"""The coalescing scheduler: micro-batching, dedup, memo, admission.

The server's perf core.  Requests are admitted onto one bounded queue;
a dispatch loop pops them in **micro-batches** — it waits up to
``window_ms`` after the first arrival (or until ``max_batch`` requests
are waiting) so that concurrent callers land in the same batch — and
then:

1. **Deadline triage.**  Queued requests whose deadline has already
   passed are answered with ``deadline_exceeded`` without costing
   anything (a deadline cancels *queued* work; a request already on
   the evaluator thread runs to completion — cheap and the result
   warms the caches anyway).

2. **Grouping.**  Live requests are grouped by
   :meth:`~repro.serve.protocol.Query.group_key` — kind, workload,
   accelerator *fingerprint*, scope.  Within a group, identical
   queries (equal :meth:`~repro.serve.protocol.Query.dedupe_key`)
   collapse to a single evaluation whose payload fans back out to
   every waiter — this is also what guarantees one disk write for N
   coalesced identical requests.

3. **Dispatch.**  Each group goes to one injected group function
   (default :func:`~repro.serve.service.execute_group`): a cost group
   is one :func:`~repro.core.engine.evaluate_costs` lineup, whose two
   or more misses share one grid call, and a search-like group maps
   the engine's search over its queries.  Evaluation runs on a
   single-thread executor (so engine work is strictly ordered and
   uncontended) while the event loop keeps accepting and batching
   — group dispatches are tracked as in-flight tasks, not awaited
   inline, so a slow search never blocks the next micro-batch.

Each evaluated payload is encoded once, on the evaluator thread, into
an :class:`~repro.serve.protocol.Encoded` answer: that text is what
every waiter receives and what lands in a bounded **response memo**
keyed by the dedupe key, so a warm repeat is answered inline at submit
time without touching the queue or encoding again.  The daemon resolves
requests through a second memo of the same size
(:attr:`CoalescingScheduler.queries`), so a repeat also skips
resolution.  Every evaluated answer also warms the engine LRU (and the
disk cache, when one is configured), so a repeat evicted from the memo
is still an engine hit.

Admission control sheds with ``overloaded`` when the queue is full,
and :meth:`CoalescingScheduler.drain` finishes queued + in-flight work
while new submissions fail with ``draining``.

All scheduler state is touched only on the event loop; the executor
threads run pure evaluation functions.  Counters live in
:meth:`CoalescingScheduler.stats` and are mirrored to
:mod:`repro.obs.metrics` when observability is on.
"""

from __future__ import annotations

import asyncio
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.obs.metrics import active as _metrics_active
from repro.serve.protocol import (
    DeadlineExceeded,
    Draining,
    Encoded,
    Memo,
    Overloaded,
    ProtocolError,
    Query,
    QueryKey,
)
from repro.serve.service import execute_group

__all__ = ["SchedulerConfig", "CoalescingScheduler"]


@dataclass(frozen=True)
class SchedulerConfig:
    """Knobs of the coalescing scheduler.

    ``window_ms`` trades a little first-request latency for batch
    density; ``0`` dispatches every loop wakeup immediately (useful in
    tests).  ``memo_size`` bounds both the response memo and the
    resolved-query memo.
    """

    window_ms: float = 2.0
    max_batch: int = 64
    max_queue: int = 256
    sweep_chunk: int = 8
    memo_size: int = 4096

    def __post_init__(self) -> None:
        if self.window_ms < 0:
            raise ValueError("window_ms must be >= 0")
        if min(self.max_batch, self.max_queue, self.sweep_chunk) < 1:
            raise ValueError(
                "max_batch, max_queue and sweep_chunk must be >= 1"
            )
        if self.memo_size < 0:
            raise ValueError("memo_size must be >= 0")


@dataclass
class _Pending:
    query: Query
    key: QueryKey
    future: "asyncio.Future[Encoded]"
    deadline: Optional[float] = None
    members: List["_Pending"] = field(default_factory=list)


_STAT_KEYS = (
    "requests", "shed", "deadline_expired", "coalesced",
    "batches", "evaluations", "grid_calls", "grid_rows",
    "encodings_reused",
)

GroupFn = Callable[[List[Query]], Tuple[List[Dict[str, Any]], bool]]


def _answer_group(
    group_fn: GroupFn, queries: List[Query],
) -> Tuple[List[Encoded], bool]:
    """One group's answers, each encoded once (on the evaluator thread)."""
    payloads, used_grid = group_fn(queries)
    return [Encoded(payload) for payload in payloads], used_grid


class CoalescingScheduler:
    """Single-event-loop request coalescer over the evaluation engine.

    ``group_fn`` answers one group's deduplicated queries with
    ``(payloads, used_grid)``; it defaults to the real service function
    and is injectable for scheduler-behavior tests (a stub can block,
    fail or count calls without paying for the cost model).
    """

    def __init__(
        self,
        config: SchedulerConfig = SchedulerConfig(),
        group_fn: GroupFn = execute_group,
    ) -> None:
        self.config = config
        self._group_fn = group_fn
        self._queue: Deque[_Pending] = deque()
        self._wakeup = asyncio.Event()
        self._memo = Memo(config.memo_size, metric="serve.memo")
        #: Resolved queries by request, for the daemon's ``resolve_query``.
        self.queries = Memo(config.memo_size, metric="serve.resolve")
        self._stats: Dict[str, int] = {key: 0 for key in _STAT_KEYS}
        self._draining = False
        self._loop_task: Optional[asyncio.Task] = None
        self._inflight: set = set()
        self._executor = None

    # -- lifecycle -----------------------------------------------------
    def start(self) -> None:
        """Spawn the dispatch loop on the running event loop."""
        if self._loop_task is not None:
            raise RuntimeError("scheduler already started")
        from concurrent.futures import ThreadPoolExecutor

        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="serve-eval",
        )
        self._loop_task = asyncio.get_running_loop().create_task(
            self._run()
        )

    async def drain(self) -> None:
        """Finish queued + in-flight work; reject new submissions."""
        self._draining = True
        self._wakeup.set()
        if self._loop_task is not None:
            await self._loop_task
            self._loop_task = None
        while self._inflight:
            await asyncio.gather(*list(self._inflight),
                                 return_exceptions=True)
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    # -- submission ----------------------------------------------------
    async def submit(
        self, query: Query, deadline_s: Optional[float] = None
    ) -> Encoded:
        """Admit one query; resolves to its encoded answer (or a typed
        error).

        Must be awaited on the scheduler's event loop.  ``deadline_s``
        is relative: the request is dropped with ``deadline_exceeded``
        if it is still queued when the budget runs out.
        """
        self._stats["requests"] += 1
        self._metric_inc("serve.requests")
        if self._draining:
            raise Draining("server is draining; no new work accepted")
        key = query.dedupe_key()
        memoized = self._memo.get(key)
        if memoized is not None:
            self._stats["encodings_reused"] += 1
            self._metric_inc("serve.encodings_reused")
            return memoized
        if len(self._queue) >= self.config.max_queue:
            self._stats["shed"] += 1
            self._metric_inc("serve.shed")
            raise Overloaded(
                f"queue full ({self.config.max_queue} pending); retry later"
            )
        loop = asyncio.get_running_loop()
        item = _Pending(
            query=query,
            key=key,
            future=loop.create_future(),
            deadline=(
                loop.time() + deadline_s if deadline_s is not None else None
            ),
        )
        self._queue.append(item)
        self._wakeup.set()
        return await item.future

    # -- dispatch loop -------------------------------------------------
    async def _run(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            if not self._queue:
                if self._draining:
                    return
                await self._wakeup.wait()
                self._wakeup.clear()
                continue
            if (
                self.config.window_ms > 0
                and len(self._queue) < self.config.max_batch
                and not self._draining
            ):
                # The micro-batch window: let concurrent callers pile in.
                await asyncio.sleep(self.config.window_ms / 1000.0)
            batch: List[_Pending] = []
            while self._queue and len(batch) < self.config.max_batch:
                batch.append(self._queue.popleft())
            groups = self._form_groups(batch, loop.time())
            if not groups:
                continue
            self._stats["batches"] += 1
            task = loop.create_task(self._dispatch(groups))
            self._inflight.add(task)
            task.add_done_callback(self._inflight.discard)

    def _form_groups(
        self, batch: List[_Pending], now: float
    ) -> Dict[QueryKey, Dict[QueryKey, _Pending]]:
        """Triage deadlines, group by group_key, dedupe by dedupe_key."""
        groups: Dict[QueryKey, Dict[QueryKey, _Pending]] = {}
        for item in batch:
            if item.future.done():
                continue
            if item.deadline is not None and now > item.deadline:
                self._stats["deadline_expired"] += 1
                self._metric_inc("serve.deadline_expired")
                item.future.set_exception(DeadlineExceeded(
                    "deadline passed while the request was queued"
                ))
                continue
            unique = groups.setdefault(item.query.group_key(), {})
            head = unique.get(item.key)
            if head is None:
                unique[item.key] = item
            else:
                head.members.append(item)
                self._stats["coalesced"] += 1
                self._metric_inc("serve.coalesced")
        return {key: unique for key, unique in groups.items() if unique}

    async def _dispatch(
        self, groups: Dict[QueryKey, Dict[QueryKey, _Pending]]
    ) -> None:
        await asyncio.gather(
            *(self._dispatch_group(list(unique.values()))
              for unique in groups.values())
        )

    async def _dispatch_group(self, items: List[_Pending]) -> None:
        loop = asyncio.get_running_loop()
        queries = [item.query for item in items]
        try:
            answers, used_grid = await loop.run_in_executor(
                self._executor, _answer_group, self._group_fn, queries
            )
        except ProtocolError as exc:
            self._fail(items, exc)
            return
        except Exception as exc:  # noqa: BLE001 - typed error to callers
            self._fail(items, ProtocolError(
                f"{type(exc).__name__}: {exc}", code="internal"
            ))
            return
        if used_grid:
            self._stats["grid_calls"] += 1
            self._stats["grid_rows"] += len(queries)
            self._metric_inc("serve.grid_calls")
            self._metric_inc("serve.grid_rows", len(queries))
        self._stats["evaluations"] += len(items)
        self._metric_inc("serve.evaluations", len(items))
        for item, answer in zip(items, answers):
            self._memo.put(item.key, answer)
            if not item.future.done():
                item.future.set_result(answer)
            for waiter in item.members:
                if not waiter.future.done():
                    waiter.future.set_result(answer)
                    self._stats["encodings_reused"] += 1
                    self._metric_inc("serve.encodings_reused")

    @staticmethod
    def _fail(items: List[_Pending], exc: ProtocolError) -> None:
        for item in items:
            for waiter in (item, *item.members):
                if not waiter.future.done():
                    waiter.future.set_exception(exc)

    # -- accounting ----------------------------------------------------
    @staticmethod
    def _metric_inc(name: str, amount: int = 1) -> None:
        if amount:
            registry = _metrics_active()
            if registry is not None:
                registry.counter(name).inc(amount)

    def stats(self) -> Dict[str, int]:
        """Lifetime counters (also the ``stats`` op's payload core).

        ``requests`` counts every submit; ``memo_hits`` the ones
        answered from the response memo; ``coalesced`` the ones that
        piggybacked on an identical queued request; ``evaluations`` the
        distinct evaluations dispatched.  ``requests - memo_hits -
        coalesced - shed - deadline_expired == evaluations`` once the
        queue is drained.  ``grid_calls`` counts the cost groups of two
        or more distinct queries handed to
        :func:`~repro.core.engine.evaluate_costs` as one lineup, and
        ``grid_rows`` their queries; the engine scores only the lineup's
        LRU and disk misses, so such a group's grid call can be smaller
        than its row count, or absent.

        ``resolves`` counts the requests and sweep sub-requests resolved
        through :attr:`queries`, each a ``resolve_hits`` (a repeat
        answered with its memoized query) or a ``resolve_misses``
        (resolved in full); ``encodings_reused`` counts the answers sent
        with an encoding made for an earlier request (memo hits and
        coalesced waiters).
        """
        out = dict(self._stats)
        out["memo_hits"] = self._memo.hits
        out["resolves"] = self.queries.hits + self.queries.misses
        out["resolve_hits"] = self.queries.hits
        out["resolve_misses"] = self.queries.misses
        out["queued"] = len(self._queue)
        out["memo_entries"] = len(self._memo)
        out["resolve_entries"] = len(self.queries)
        out["draining"] = self._draining
        return out
