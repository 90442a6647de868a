"""The asyncio TCP daemon: connections, operations, drain, lifecycle.

One :class:`DSEServer` owns a :class:`~repro.serve.scheduler.
CoalescingScheduler` plus a listening socket.  Each connection is an
:class:`asyncio.Protocol` (:class:`_Connection`): ``data_received``
splits every complete newline-delimited JSON request out of what the
socket delivered and hands it to :meth:`DSEServer._handle_line` on
the same loop pass, with no stream, task or future per line.  A query
op is answered there: it is parsed, resolved through the memo and
submitted; a memo hit's response is written at once, and a queued
query's is written by a done-callback on its future when its
micro-batch settles.  The other ops run as tasks of their own, so a
connection can pipeline queries and a long sweep never blocks a ping
on the same socket.  Responses are written as they are
ready, in completion order; nothing waits for the socket to take them.
When a client reads so slowly that the transport's write buffer passes
its high-water mark, ``pause_writing`` stops the connection handling
lines and reading until ``resume_writing``.  A line longer than
:data:`MAX_LINE` is answered ``bad_request`` and skipped.  A client
that half-closes has a final line without a newline answered, and the
connection stays open until every answer it is owed is written.

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


#: The longest request line the daemon reads, its newline excluded.  A
#: longer line is answered ``bad_request`` and skipped through its
#: newline; the connection goes on with the next line.
MAX_LINE = 64 * 1024


class _Connection(asyncio.Protocol):
    """One client connection: its line buffer, its transport and the
    answers it is owed."""

    __slots__ = ("_handle_line", "_connections", "transport", "owed",
                 "closed", "_buffer", "_skipping", "_paused", "_eof",
                 "_settled")

    def __init__(self, server: "DSEServer") -> None:
        # Bound once, under its own name: lint rule R6 follows
        # ``self._handle_line`` calls to the server's method.
        self._handle_line = server._handle_line
        self._connections = server._connections
        self.transport: Optional[asyncio.Transport] = None
        #: Requests read and not answered yet.
        self.owed = 0
        #: Done once the transport has called :meth:`connection_lost`.
        self.closed: "asyncio.Future[None]" = (
            asyncio.get_running_loop().create_future()
        )
        self._buffer = bytearray()
        # Inside a line longer than MAX_LINE: drop through its newline.
        self._skipping = False
        # The transport's buffer is past its high-water mark.
        self._paused = False
        # The client has stopped sending.
        self._eof = False
        self._settled: Optional["asyncio.Future[None]"] = None

    # -- asyncio.Protocol callbacks ------------------------------------
    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = transport  # type: ignore[assignment]
        self._connections.add(self)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self._connections.discard(self)
        if not self.closed.done():
            self.closed.set_result(None)

    def data_received(self, data: bytes) -> None:
        self._buffer += data
        if b"\n" in data:
            self._answer_lines()
        else:  # a partial line only grows: nothing to rescan
            self._hold_partial()

    def eof_received(self) -> bool:
        """The client half-closed: answer a final line that has no
        newline, and keep the write side open until every owed answer
        is written."""
        self._eof = True
        self._answer_lines()
        return True

    def pause_writing(self) -> None:
        """The client reads slower than it asks: handle no more lines,
        and read none, until it has taken what it is sent."""
        self._paused = True
        if not self._eof:
            self.transport.pause_reading()

    def resume_writing(self) -> None:
        self._paused = False
        self._answer_lines()
        if not self._paused and not self._eof:
            self.transport.resume_reading()

    # -- lines and answers -----------------------------------------------
    def _answer_lines(self) -> None:
        """Answer every complete line buffered, on this pass, until
        writing pauses; after EOF the unterminated rest is a line too.
        Once every line is handled and answered, a client that has
        stopped sending is hung up."""
        buffer = self._buffer
        start = 0
        while not self._paused:
            end = buffer.find(b"\n", start)
            if end < 0:
                if not self._eof or start >= len(buffer):
                    break
                end = len(buffer)
            line_start, start = start, end + 1
            if self._skipping:
                self._skipping = False
            elif end - line_start > MAX_LINE:
                self._refuse_long_line()
            else:
                line = bytes(buffer[line_start:start])
                if line.strip():
                    self._handle_line(line, self)
        del buffer[:start]
        if not self._paused:
            self._hold_partial()
            if self._eof and not self.owed:
                self.transport.close()

    def _hold_partial(self) -> None:
        """Keep a partial line buffered until its newline arrives; one
        longer than :data:`MAX_LINE` is refused as soon as it is, so a
        long line gets the same answer in one read or in many."""
        buffer = self._buffer
        if self._skipping:
            buffer.clear()
        elif len(buffer) > MAX_LINE:
            self._refuse_long_line()
            self._skipping = True
            buffer.clear()

    def _refuse_long_line(self) -> None:
        self.send(error_response(
            None, "bad_request",
            f"request line longer than {MAX_LINE} bytes",
        ))

    def send(self, obj: JSON) -> None:
        """Encode one response or event line and write it; the line of
        a client that is gone is dropped."""
        line = encode_line(obj)
        if not self.transport.is_closing():
            self.transport.write(line)

    def paid(self) -> None:
        """One owed answer is written."""
        self.owed -= 1
        if self.owed:
            return
        settled = self._settled
        if settled is not None:
            self._settled = None
            if not settled.done():  # a cancelled waiter cancels it
                settled.set_result(None)
        if self._eof and not self._buffer:
            self.transport.close()

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
    that write happens on the line's own pass, in a done-callback or
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
        self._draining = False
        self._done: Optional[asyncio.Event] = None
        self._connections: set = set()
        self.address: Tuple[str, int] = (host, port)

    # -- lifecycle -----------------------------------------------------
    async def start(self) -> Tuple[str, int]:
        """Bind the listener and start the scheduler; returns (host, port)."""
        self._done = asyncio.Event()
        self.scheduler.start()
        self._server = await asyncio.get_running_loop().create_server(
            lambda: _Connection(self), self._host, self._port
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
        # op) once its answers are written, and wait until each is
        # gone.  close() flushes buffered responses first, so the
        # shutdown acknowledgement still reaches its caller.
        connections = list(self._connections)
        for conn in connections:
            await conn.settled()
            conn.transport.close()
        for conn in connections:
            await conn.closed
        if self._done is not None:
            self._done.set()

    async def wait_done(self) -> None:
        """Block until a ``shutdown`` op or :meth:`shutdown` completes."""
        assert self._done is not None, "server not started"
        await self._done.wait()

    # -- request lines -------------------------------------------------
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

    #: The op table: every op the daemon answers, and its handler.  A
    #: query op's handler (:meth:`_query`) runs on its line's loop pass
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
        **dict.fromkeys(QUERY_RESOLVERS, _query),
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
        """Drain gracefully and join the loop thread.

        The drain is requested by a loop callback and waited for by
        joining the thread, which ends once the server's drain is done.
        After a ``shutdown`` op the loop may already be ending, and then
        drops the callback or refuses it; the thread ends all the same.
        """
        if self._thread is None or self._loop is None:
            return
        if self._thread.is_alive() and self._server is not None:
            try:
                self._loop.call_soon_threadsafe(self._drain)
            except RuntimeError:  # the loop is closed
                pass
        self._thread.join(timeout=timeout)
        if self._thread.is_alive():
            raise TimeoutError(f"server thread did not stop in {timeout} s")
        self._thread = None

    def _drain(self) -> None:
        self._loop.create_task(self._server.shutdown())

    def __enter__(self) -> Tuple[str, int]:
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
