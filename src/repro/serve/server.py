"""The asyncio TCP daemon: connections, operations, drain, lifecycle.

One :class:`DSEServer` owns a :class:`~repro.serve.scheduler.
CoalescingScheduler` plus a listening socket.  Each connection reads
newline-delimited JSON requests and hands every line to
:meth:`DSEServer._handle_line` on the read loop's own pass.  A query
op is answered there: it is parsed, resolved through the memo and
submitted; a memo hit's response is written at once, and a queued
query's is written by a done-callback on its future when its
micro-batch settles.  The other ops run as tasks of their own, so a
connection can pipeline queries and a long sweep or experiment never
blocks a ping on the same socket.  Responses are written as they are
ready, in completion order; nothing waits for the socket to take them
unless the client reads so slowly that the connection's buffer passes
its high-water mark, and then the read loop stops reading until the
client catches up.  A connection stays open until every answer it is
owed is written, even after the client has stopped sending.

Operations, one entry each in :attr:`DSEServer.OPS`:

``ping`` / ``stats``
    liveness and the scheduler/engine-cache counters.
``cost`` / ``search`` / ``scaleout`` / ``decode``
    resolved into a :class:`~repro.serve.protocol.Query` (a repeat
    through the scheduler's memo of resolved queries) and submitted
    to the scheduler (coalescing, memo, admission control, deadlines);
    the answer comes back encoded once and is spliced into its
    response line.
    A ``scaleout`` query runs the two-level multi-chip search
    (:func:`~repro.core.scaleout.search_scaleout`) for one chip count;
    a ``decode`` query searches one KV-cached decode step, optionally
    with the attention-variant zoo competing (``"variants": false``
    restricts the space to the reference softmax dataflows).
``sweep``
    decomposed into ``sweep_chunk``-sized slices submitted chunk by
    chunk: the sub-queries of a chunk land in one micro-batch (dense
    grid coalescing), while *between* chunks other clients' queries
    join the queue — long sweeps interleave fairly with short queries
    instead of monopolizing the evaluator.  A progress event streams
    after every chunk.
``experiment``
    one registry experiment (``table1``, ``fig9-edge``, ...) executed
    through the pipeline's job runner on a dedicated single-thread
    executor, serialized by a lock so its scoped search-totals
    attribution stays exact.  This is what ``run-all --serve`` uses.
``shutdown``
    graceful drain: the listener closes, queued and in-flight work
    completes, new submissions fail with ``draining``, every
    connection is hung up once its answers are written, then the
    process-level waiter (:meth:`DSEServer.wait_done`) releases.

:class:`ServerThread` runs the whole event loop on a background thread
for tests, benchmarks and the equivalence CI job.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from typing import (
    Any, Awaitable, Callable, Dict, List, Optional, Tuple,
)

from repro.obs.metrics import active as _metrics_active
from repro.obs.trace import open_span as _open_span
from repro.serve.protocol import (
    PROTOCOL,
    QUERY_RESOLVERS,
    Draining,
    Encoded,
    ProtocolError,
    encode_line,
    error_response,
    ok_response,
    progress_event,
    resolve_deadline_s,
    resolve_query,
    resolve_sweep,
)
from repro.serve.scheduler import CoalescingScheduler, SchedulerConfig

__all__ = ["DSEServer", "ServerThread", "run_server"]

JSON = Dict[str, Any]
#: An op handler's progress callback: ``progress(done, total)``.
Progress = Callable[[int, int], None]


class _Connection:
    """One client connection: its writer and the answers it is owed."""

    __slots__ = ("writer", "task", "owed", "_transport", "_settled")

    def __init__(self, writer: asyncio.StreamWriter,
                 task: Optional["asyncio.Task[None]"]) -> None:
        self.writer = writer
        self.task = task
        #: Requests read and not answered yet.
        self.owed = 0
        self._transport = writer.transport
        self._settled: Optional["asyncio.Future[None]"] = None

    def send(self, obj: JSON) -> None:
        """Encode one response or event line and write it; the line of
        a client that is gone is dropped."""
        line = encode_line(obj)
        if not self._transport.is_closing():
            self.writer.write(line)

    def paid(self) -> None:
        """One owed answer is written."""
        self.owed -= 1
        settled = self._settled
        if not self.owed and settled is not None:
            self._settled = None
            if not settled.done():  # a cancelled waiter cancels it
                settled.set_result(None)

    async def settled(self) -> None:
        """Return once every answer owed so far is written."""
        if self.owed:
            if self._settled is None or self._settled.done():
                self._settled = asyncio.get_running_loop().create_future()
            await self._settled


class _Request:
    """One request line being answered: where, and what to book.

    The ``serve.request`` span and the ``serve.request_s`` histogram
    run from the line's receipt to the write of its response, whether
    that write happens on the read loop's pass, in a done-callback or
    at the end of an op's task.
    """

    __slots__ = ("conn", "id", "op", "start", "span")

    def __init__(self, conn: _Connection, req_id: object, op: object,
                 start: float) -> None:
        self.conn = conn
        self.id = req_id
        self.op = op
        self.start = start
        self.span = _open_span("serve.request", op=str(op))

    def reply(self, result: Any) -> None:
        self.conn.send(ok_response(self.id, result))
        self.span.end()
        _observe(self.op, self.start)

    def fail(self, exc: BaseException) -> None:
        error = exc if isinstance(exc, ProtocolError) else ProtocolError(
            f"{type(exc).__name__}: {exc}", code="internal"
        )
        self.conn.send(error_response(self.id, error.code, str(error)))
        self.span.end(error=type(exc).__name__)
        _observe(self.op, self.start, error=error.code)

    def settle(self, future: "asyncio.Future[Encoded]") -> None:
        """A queued query's done-callback: write its answer."""
        exc = future.exception()
        if exc is None:
            self.reply(future.result())
        else:
            self.fail(exc)
        self.conn.paid()


def _observe(op: object, start: float, error: Optional[str] = None) -> None:
    registry = _metrics_active()
    if registry is None:
        return
    registry.histogram("serve.request_s").observe(
        time.perf_counter() - start
    )
    # The client picks ``op``: book only the table's names.
    known = isinstance(op, str) and op in DSEServer.OPS
    registry.counter(f"serve.op[{op if known else 'unknown'}]").inc()
    if error is not None:
        registry.counter(f"serve.error[{error}]").inc()


class DSEServer:
    """One serving process: scheduler + listener + lifecycle."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        config: SchedulerConfig = SchedulerConfig(),
    ) -> None:
        self._host = host
        self._port = port
        self.scheduler = CoalescingScheduler(config)
        self._server: Optional[asyncio.AbstractServer] = None
        self._experiment_lock: Optional[asyncio.Lock] = None
        self._experiment_executor = None
        self._draining = False
        self._done: Optional[asyncio.Event] = None
        self._connections: set = set()
        self.address: Tuple[str, int] = (host, port)

    # -- lifecycle -----------------------------------------------------
    async def start(self) -> Tuple[str, int]:
        """Bind the listener and start the scheduler; returns (host, port)."""
        self._experiment_lock = asyncio.Lock()
        self._done = asyncio.Event()
        self.scheduler.start()
        self._server = await asyncio.start_server(
            self._on_client, self._host, self._port
        )
        sock = self._server.sockets[0]
        self.address = sock.getsockname()[:2]
        return self.address

    async def shutdown(self) -> None:
        """Graceful drain: stop accepting, finish everything, release."""
        if self._draining:
            return
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await self.scheduler.drain()
        # Hang up every connection (e.g. the one that sent the shutdown
        # op) once its answers are written, so its handler finishes
        # before the event loop does — an abandoned handler would be
        # cancelled at loop teardown, which asyncio's stream glue logs
        # as an error.  close() flushes buffered responses first, so
        # the shutdown acknowledgement still reaches its caller.
        for conn in list(self._connections):
            await conn.settled()
            conn.writer.close()
        handlers = [conn.task for conn in self._connections
                    if conn.task is not None]
        if handlers:
            await asyncio.gather(*handlers, return_exceptions=True)
        if self._experiment_executor is not None:
            self._experiment_executor.shutdown(wait=True)
            self._experiment_executor = None
        if self._done is not None:
            self._done.set()

    async def wait_done(self) -> None:
        """Block until a ``shutdown`` op or :meth:`shutdown` completes."""
        assert self._done is not None, "server not started"
        await self._done.wait()

    # -- connection handling -------------------------------------------
    async def _on_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn = _Connection(writer, asyncio.current_task())
        self._connections.add(conn)
        transport = writer.transport
        high_water = transport.get_write_buffer_limits()[1]
        try:
            try:
                while True:
                    line = await reader.readline()
                    if not line:
                        break
                    if line.strip():
                        self._handle_line(line, conn)
                    if transport.get_write_buffer_size() > high_water:
                        # The client reads slower than it asks: read no
                        # more until it has taken what it is sent.
                        await writer.drain()
            except ConnectionError:
                pass  # the client is gone; its answers are dropped
            await conn.settled()
        finally:
            self._connections.discard(conn)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    def _handle_line(self, line: bytes, conn: _Connection) -> None:
        """Answer one request line: a query op on this pass or in its
        future's done-callback, any other op in a task of its own."""
        start = time.perf_counter()
        try:
            req = json.loads(line)
        except (ValueError, RecursionError) as exc:  # not JSON, or not UTF-8
            conn.send(error_response(
                None, "bad_request", f"invalid JSON: {exc}"
            ))
            return
        if not isinstance(req, dict):
            request = _Request(conn, None, None, start)
            request.fail(ProtocolError("request must be a JSON object"))
            return
        op = req.get("op")
        request = _Request(conn, req.get("id"), op, start)
        handler = self.OPS.get(op) if isinstance(op, str) else None
        if handler is None:
            request.fail(ProtocolError(f"unknown op {op!r}"))
            return
        if op not in QUERY_RESOLVERS:
            conn.owed += 1
            asyncio.get_running_loop().create_task(
                self._run_op(handler, req, request)
            )
            return
        try:
            answer = handler(self, req)
        except Exception as exc:  # noqa: BLE001 - a request must not kill the server
            request.fail(exc)
            return
        if isinstance(answer, Encoded):
            request.reply(answer)
        else:
            conn.owed += 1
            answer.add_done_callback(request.settle)

    async def _run_op(
        self,
        handler: Callable[..., Awaitable[JSON]],
        req: JSON,
        request: _Request,
    ) -> None:
        """One task op, from its handler to its response."""
        conn = request.conn

        def progress(done: int, total: int) -> None:
            conn.send(progress_event(request.id, done, total))

        try:
            result = await handler(self, req, progress)
        except Exception as exc:  # noqa: BLE001 - a request must not kill the server
            request.fail(exc)
        else:
            request.reply(result)
        finally:
            conn.paid()

    # -- operations ----------------------------------------------------
    def _query(self, req: JSON) -> Any:
        """A query op's answer: memoized, or a future of it."""
        query = resolve_query(req, self.scheduler.queries)
        return self.scheduler.submit(query, resolve_deadline_s(req))

    # Every task op's handler takes the request and a ``progress(done,
    # total)`` that streams a progress event to the caller.
    async def _ping(self, req: JSON, progress: Progress) -> JSON:
        return {"protocol": PROTOCOL}

    async def _stats(self, req: JSON, progress: Progress) -> JSON:
        from repro.core.cache import get_default_cache
        from repro.core.engine import evaluation_cache_info

        payload: Dict[str, Any] = {
            "protocol": PROTOCOL,
            "draining": self._draining,
            "scheduler": self.scheduler.stats(),
            "engine_lru": evaluation_cache_info(),
        }
        pcache = get_default_cache()
        if pcache is not None:
            payload["disk_cache"] = pcache.stats.as_dict()
        return payload

    async def _shutdown(self, req: JSON, progress: Progress) -> JSON:
        asyncio.get_running_loop().create_task(self.shutdown())
        return {"draining": True}

    async def _sweep(self, req: JSON, progress: Progress) -> JSON:
        queries = resolve_sweep(req, self.scheduler.queries)
        deadline_s = resolve_deadline_s(req)
        loop = asyncio.get_running_loop()
        deadline = (
            loop.time() + deadline_s if deadline_s is not None else None
        )
        chunk_size = self.scheduler.config.sweep_chunk
        results: List[Any] = []
        for lo in range(0, len(queries), chunk_size):
            remaining = None
            if deadline is not None:
                remaining = deadline - loop.time()
                if remaining <= 0:
                    raise ProtocolError(
                        f"sweep deadline passed after {len(results)} of "
                        f"{len(queries)} results",
                        code="deadline_exceeded",
                    )
            # Submitted together: the chunk lands in one micro-batch and
            # coalesces into a single grid call.  Between chunks, other
            # clients' requests join the queue — that is the fairness
            # interleave.
            answers: List[Any] = []
            try:
                for query in queries[lo:lo + chunk_size]:
                    answers.append(self.scheduler.submit(query, remaining))
            except ProtocolError:
                # The sweep fails here; an unawaited gather still
                # retrieves the answers this chunk already queued.
                asyncio.gather(*(a for a in answers
                                 if not isinstance(a, Encoded)),
                               return_exceptions=True)
                raise
            queued = [a for a in answers if not isinstance(a, Encoded)]
            if queued:
                await asyncio.gather(*queued)
            results.extend(a if isinstance(a, Encoded) else a.result()
                           for a in answers)
            if lo + chunk_size < len(queries):
                progress(len(results), len(queries))
        return {"results": results, "total": len(queries)}

    async def _experiment(self, req: JSON, progress: Progress) -> JSON:
        if self._draining:
            raise Draining("server is draining; no new work accepted")
        name = req.get("name")
        if not isinstance(name, str) or not name:
            raise ProtocolError("experiment needs a 'name'")
        from repro.experiments.runner import experiment_names

        if name not in experiment_names():
            raise ProtocolError(
                f"unknown experiment {name!r}; choose from "
                f"{experiment_names()}"
            )
        if self._experiment_executor is None:
            from concurrent.futures import ThreadPoolExecutor

            # Dedicated single thread: experiments never starve short
            # queries on the scheduler's evaluator, and serializing them
            # keeps scoped_search_totals attribution exact.
            self._experiment_executor = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="serve-exp"
            )
        assert self._experiment_lock is not None
        async with self._experiment_lock:
            loop = asyncio.get_running_loop()
            return await loop.run_in_executor(
                self._experiment_executor,
                _experiment_payload, name,
            )

    #: The op table: every op the daemon answers, and its handler.  A
    #: query op's handler (:meth:`_query`) runs on the read loop's pass
    #: and returns the answer or a future of it; every other handler is
    #: a coroutine run as a task.  Adding an op is one entry here; a
    #: query op is instead its resolver in
    #: :data:`~repro.serve.protocol.QUERY_RESOLVERS` and its answer in
    #: :func:`~repro.serve.service.execute_query`.
    OPS: Dict[str, Callable[..., Any]] = {
        "ping": _ping,
        "stats": _stats,
        "shutdown": _shutdown,
        "sweep": _sweep,
        "experiment": _experiment,
        **dict.fromkeys(QUERY_RESOLVERS, _query),
    }


def _experiment_payload(name: str) -> Dict[str, Any]:
    """Run one experiment job and flatten its run record to JSON.

    Reuses the pipeline's job runner (same scoped totals, same cache
    accounting), minus the observability shipping — the server owns
    its own session.  The dict mirrors ``ExperimentRun`` field-for-
    field so ``run-all --serve`` can rebuild the run object.
    """
    from repro.core.cache import resolve_cache_dir
    from repro.experiments.pipeline import _execute

    run = _execute(name, resolve_cache_dir())
    return {
        "name": run.name,
        "status": run.status,
        "report": run.report,
        "wall_time_s": run.wall_time_s,
        "search": run.search,
        "cache": run.cache,
    }


async def run_server(
    host: str = "127.0.0.1",
    port: int = 7321,
    config: SchedulerConfig = SchedulerConfig(),
    announce: Optional[Callable[[str, int], None]] = None,
) -> int:
    """CLI entry: serve until SIGINT/SIGTERM or a ``shutdown`` op."""
    import signal

    server = DSEServer(host, port, config)
    await server.start()
    if announce is not None:
        announce(*server.address)
    loop = asyncio.get_running_loop()

    def _request_shutdown() -> None:
        loop.create_task(server.shutdown())

    installed: List[int] = []
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(sig, _request_shutdown)
            installed.append(sig)
        except (NotImplementedError, RuntimeError):
            pass  # non-Unix event loops
    try:
        await server.wait_done()
    finally:
        for sig in installed:
            loop.remove_signal_handler(sig)
    return 0


class ServerThread:
    """A live server on a background thread (tests, benchmarks, CI).

    Usage::

        with ServerThread() as (host, port):
            client = ServeClient(host, port)
            ...

    ``stop()`` performs the graceful drain and joins the thread.
    """

    def __init__(self, config: SchedulerConfig = SchedulerConfig(),
                 host: str = "127.0.0.1", port: int = 0) -> None:
        self._config = config
        self._host = host
        self._port = port
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[DSEServer] = None
        self._error: Optional[BaseException] = None
        self.address: Tuple[str, int] = (host, port)

    def start(self) -> Tuple[str, int]:
        self._thread = threading.Thread(
            target=self._main, name="serve-loop", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("server thread failed to start in time")
        if self._error is not None:
            raise RuntimeError(
                f"server thread failed: {self._error}"
            ) from self._error
        return self.address

    def _main(self) -> None:
        try:
            asyncio.run(self._serve())
        except BaseException as exc:  # noqa: BLE001 - surfaced to starter
            self._error = exc
            self._ready.set()

    async def _serve(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._server = DSEServer(self._host, self._port, self._config)
        self.address = await self._server.start()
        self._ready.set()
        await self._server.wait_done()

    def stop(self, timeout: float = 60.0) -> None:
        """Drain gracefully and join the loop thread."""
        if self._thread is None or self._loop is None:
            return
        if self._thread.is_alive() and self._server is not None:
            future = asyncio.run_coroutine_threadsafe(
                self._server.shutdown(), self._loop
            )
            future.result(timeout=timeout)
        self._thread.join(timeout=timeout)
        self._thread = None

    def __enter__(self) -> Tuple[str, int]:
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
