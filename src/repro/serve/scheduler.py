"""The coalescing scheduler: micro-batching, dedup, memo, admission.

The server's perf core.  :meth:`CoalescingScheduler.submit` runs on
the event loop and returns at once: a repeat gets its memoized answer,
any other query is admitted onto one bounded queue and gets a loop
future.  The first arrival on an empty queue arms a flush
``window_ms`` later (``call_later``), so concurrent callers land in
the same **micro-batch**; a queue that reaches ``max_batch``, or any
arrival when ``window_ms`` is 0, flushes on the next loop pass
(``call_soon``) instead.  A flush pops at most ``max_batch`` requests,
re-arms for any left behind, and then:

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
   the engine's search over its queries.  Each group is handed to a
   single-thread executor (``executor.submit``; engine work stays
   strictly ordered and uncontended) and settled back on the loop by
   ``call_soon_threadsafe`` as soon as it is done, so a cheap group
   never waits for a slow group of its batch, and the loop never
   waits for a group: it keeps accepting and batching.

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
and :meth:`CoalescingScheduler.drain` flushes the queue at once and
waits until no group is outstanding, while new submissions fail with
``draining``.

All scheduler state is touched only on the event loop; the executor
thread runs pure evaluation functions.  Counters live in
:meth:`CoalescingScheduler.stats` and are mirrored to
:mod:`repro.obs.metrics` when observability is on.
"""

from __future__ import annotations

import asyncio
from collections import deque
from concurrent.futures import Future as ExecutorFuture
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple, Union

from repro.obs import metrics as _metrics
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
    density; ``0`` flushes what one loop pass admitted on the next
    pass (useful in tests).  ``memo_size`` bounds both the response
    memo and the resolved-query memo.
    """

    window_ms: float = 2.0
    max_batch: int = 64
    max_queue: int = 256
    memo_size: int = 4096

    def __post_init__(self) -> None:
        if self.window_ms < 0:
            raise ValueError("window_ms must be >= 0")
        if min(self.max_batch, self.max_queue) < 1:
            raise ValueError("max_batch and max_queue must be >= 1")
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
        self._window_s = config.window_ms / 1000.0
        self._queue: Deque[_Pending] = deque()
        self._memo = Memo(config.memo_size, metric="serve.memo")
        #: Resolved queries by request, for the daemon's ``resolve_query``.
        self.queries = Memo(config.memo_size, metric="serve.resolve")
        self._stats: Dict[str, int] = {key: 0 for key in _STAT_KEYS}
        self._draining = False
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._executor = None
        #: The armed flush: a window timer, or a call on the next pass.
        self._flush_handle: Optional[asyncio.Handle] = None
        #: Groups handed to the executor and not settled yet.
        self._outstanding = 0
        #: What :meth:`drain` awaits while groups are outstanding.
        self._idle: Optional["asyncio.Future[None]"] = None

    # -- lifecycle -----------------------------------------------------
    def start(self) -> None:
        """Bind to the running event loop and start the evaluator."""
        if self._loop is not None:
            raise RuntimeError("scheduler already started")
        from concurrent.futures import ThreadPoolExecutor

        self._loop = asyncio.get_running_loop()
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="serve-eval",
        )

    async def drain(self) -> None:
        """Flush the queue at once and wait until no group is
        outstanding; new submissions are rejected from now on."""
        self._draining = True
        if self._flush_handle is not None:
            self._flush_handle.cancel()
            self._flush_handle = None
        while self._queue:
            self._dispatch(self._pop_batch())
        if self._outstanding:
            assert self._loop is not None
            self._idle = self._loop.create_future()
            await self._idle
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    # -- submission ----------------------------------------------------
    def submit(
        self, query: Query, deadline_s: Optional[float] = None
    ) -> Union[Encoded, "asyncio.Future[Encoded]"]:
        """Admit one query: its memoized encoded answer, or a loop
        future of the answer (or of a typed error).

        Call on the scheduler's event loop.  Raises
        :class:`~repro.serve.protocol.Draining` or
        :class:`~repro.serve.protocol.Overloaded` when the query is
        refused.  ``deadline_s`` is relative: the request is dropped
        with ``deadline_exceeded`` if it is still queued when the
        budget runs out.
        """
        self._stats["requests"] += 1
        _metrics.inc("serve.requests")
        if self._draining:
            raise Draining("server is draining; no new work accepted")
        key = query.dedupe_key()
        memoized = self._memo.get(key)
        if memoized is not None:
            self._stats["encodings_reused"] += 1
            _metrics.inc("serve.encodings_reused")
            return memoized
        queue = self._queue
        if len(queue) >= self.config.max_queue:
            self._stats["shed"] += 1
            _metrics.inc("serve.shed")
            raise Overloaded(
                f"queue full ({self.config.max_queue} pending); retry later"
            )
        loop = self._loop
        assert loop is not None, "scheduler not started"
        future = loop.create_future()
        queue.append(_Pending(
            query=query,
            key=key,
            future=future,
            deadline=(
                loop.time() + deadline_s if deadline_s is not None else None
            ),
        ))
        if self._flush_handle is None or len(queue) >= self.config.max_batch:
            self._arm()
        return future

    # -- micro-batches -------------------------------------------------
    def _arm(self) -> None:
        """Schedule the next flush: on the next loop pass when a batch
        is full (or there is no window), else when the window of the
        first request waiting closes."""
        assert self._loop is not None
        soon = (len(self._queue) >= self.config.max_batch
                or not self._window_s)
        handle = self._flush_handle
        if handle is not None:
            if not (soon and isinstance(handle, asyncio.TimerHandle)):
                return
            handle.cancel()
        self._flush_handle = (
            self._loop.call_soon(self._flush) if soon
            else self._loop.call_later(self._window_s, self._flush)
        )

    def _flush(self) -> None:
        """Dispatch one micro-batch; re-arm for the requests left."""
        self._flush_handle = None
        self._dispatch(self._pop_batch())
        if self._queue:
            self._arm()

    def _pop_batch(self) -> List[_Pending]:
        queue = self._queue
        return [queue.popleft()
                for _ in range(min(len(queue), self.config.max_batch))]

    def _dispatch(self, batch: List[_Pending]) -> None:
        """Hand each group of one batch to the evaluator executor."""
        assert self._loop is not None and self._executor is not None
        groups = self._form_groups(batch, self._loop.time())
        if not groups:
            return
        self._stats["batches"] += 1
        for unique in groups.values():
            items = list(unique.values())
            self._outstanding += 1
            done = self._executor.submit(
                _answer_group, self._group_fn,
                [item.query for item in items],
            )
            done.add_done_callback(partial(self._evaluated, items))

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
                _metrics.inc("serve.deadline_expired")
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
                _metrics.inc("serve.coalesced")
        return {key: unique for key, unique in groups.items() if unique}

    def _evaluated(self, items: List[_Pending], done: ExecutorFuture) -> None:
        """The executor's done-callback (on its thread): settle the
        group on the loop."""
        assert self._loop is not None
        self._loop.call_soon_threadsafe(self._settle, items, done)

    def _settle(self, items: List[_Pending], done: ExecutorFuture) -> None:
        """Answer one evaluated group's waiters, on the loop."""
        self._outstanding -= 1
        try:
            answers, used_grid = done.result()
        except ProtocolError as exc:
            self._fail(items, exc)
        except Exception as exc:  # noqa: BLE001 - typed error to callers
            self._fail(items, ProtocolError(
                f"{type(exc).__name__}: {exc}", code="internal"
            ))
        else:
            self._answer(items, answers, used_grid)
        idle = self._idle
        if not self._outstanding and idle is not None:
            self._idle = None
            if not idle.done():  # a cancelled drain cancels it
                idle.set_result(None)

    def _answer(self, items: List[_Pending], answers: List[Encoded],
                used_grid: bool) -> None:
        if used_grid:
            self._stats["grid_calls"] += 1
            self._stats["grid_rows"] += len(items)
            _metrics.inc("serve.grid_calls")
            _metrics.inc("serve.grid_rows", len(items))
        self._stats["evaluations"] += len(items)
        _metrics.inc("serve.evaluations", len(items))
        for item, answer in zip(items, answers):
            self._memo.put(item.key, answer)
            if not item.future.done():
                item.future.set_result(answer)
            for waiter in item.members:
                if not waiter.future.done():
                    waiter.future.set_result(answer)
                    self._stats["encodings_reused"] += 1
                    _metrics.inc("serve.encodings_reused")

    @staticmethod
    def _fail(items: List[_Pending], exc: ProtocolError) -> None:
        for item in items:
            for waiter in (item, *item.members):
                if not waiter.future.done():
                    waiter.future.set_exception(exc)

    # -- accounting ----------------------------------------------------
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
