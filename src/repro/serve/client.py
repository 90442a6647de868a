"""Blocking stdlib client for the DSE service.

A thin socket wrapper speaking the NDJSON protocol: one request per
line out, responses matched back by ``id`` (the server may answer out
of order when requests pipeline), progress events surfaced through a
callback.  Used by ``repro-flat query``, the load benchmark and the
equivalence CI job; tests drive it against
:class:`~repro.serve.server.ServerThread`.

The client is intentionally synchronous — callers that want
concurrency open one client per thread (connections are cheap; the
coalescing happens server-side).
"""

from __future__ import annotations

import json
import socket
import time
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.serve.protocol import PROTOCOL, encode_line

__all__ = ["ServeClient", "wait_for_server"]

#: Signature of the progress-event callback: the raw event dict.
EventFn = Callable[[Dict[str, Any]], None]


class ServeClient:
    """One connection to a serving daemon."""

    def __init__(self, host: str, port: int, timeout: float = 300.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self._sock: Optional[socket.socket] = None
        self._file = None
        self._auto_id = 0

    # -- connection ----------------------------------------------------
    def connect(self) -> "ServeClient":
        sock = socket.create_connection(
            (self.host, self.port), timeout=self.timeout
        )
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock
        self._file = sock.makefile("rb")
        return self

    def close(self) -> None:
        if self._file is not None:
            try:
                self._file.close()
            except OSError:
                pass
            self._file = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def __enter__(self) -> "ServeClient":
        return self.connect()

    def __exit__(self, *exc) -> None:
        self.close()

    # -- request plumbing ----------------------------------------------
    def _next_id(self) -> str:
        self._auto_id += 1
        return f"c{self._auto_id}"

    def _write(self, req: Dict[str, Any]) -> None:
        assert self._sock is not None, "client not connected"
        self._sock.sendall(encode_line(req))

    def _read(self) -> Dict[str, Any]:
        assert self._file is not None, "client not connected"
        line = self._file.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line)

    def request(
        self, req: Dict[str, Any], on_event: Optional[EventFn] = None
    ) -> Dict[str, Any]:
        """Send one request; block until its final response arrives.

        Progress events for this request are passed to ``on_event`` as
        they stream in.  Returns the raw response envelope (``ok`` may
        be false — the caller decides whether an error response is
        exceptional).
        """
        if "id" not in req:
            req = dict(req, id=self._next_id())
        self._write(req)
        while True:
            msg = self._read()
            if msg.get("event") is not None:
                if on_event is not None:
                    on_event(msg)
                continue
            return msg

    def request_many(
        self,
        reqs: Sequence[Dict[str, Any]],
        on_event: Optional[EventFn] = None,
    ) -> List[Dict[str, Any]]:
        """Pipeline many requests on this connection.

        All requests are written up front; responses are collected by
        ``id`` (arrival order is completion order, which the
        coalescing scheduler does not promise matches request order)
        and returned aligned with ``reqs``.
        """
        tagged: List[Dict[str, Any]] = []
        for req in reqs:
            if "id" not in req:
                req = dict(req, id=self._next_id())
            tagged.append(req)
        ids = [req["id"] for req in tagged]
        if len(set(map(str, ids))) != len(ids):
            raise ValueError("request ids must be unique for pipelining")
        for req in tagged:
            self._write(req)
        by_id: Dict[str, Dict[str, Any]] = {}
        want = set(map(str, ids))
        while want:
            msg = self._read()
            if msg.get("event") is not None:
                if on_event is not None:
                    on_event(msg)
                continue
            key = str(msg.get("id"))
            if key not in want:
                continue  # stale response from an earlier exchange
            want.discard(key)
            by_id[key] = msg
        return [by_id[str(i)] for i in ids]

    # -- convenience verbs ---------------------------------------------
    def ping(self) -> Dict[str, Any]:
        return self.request({"op": "ping"})

    def stats(self) -> Dict[str, Any]:
        response = self.request({"op": "stats"})
        if not response.get("ok"):
            raise RuntimeError(f"stats failed: {response}")
        return response["result"]

    def shutdown_server(self) -> Dict[str, Any]:
        return self.request({"op": "shutdown"})


def wait_for_server(
    host: str, port: int, timeout: float = 30.0
) -> None:
    """Poll until the daemon answers a ping (CI startup helper)."""
    deadline = time.monotonic() + timeout
    last_error: Optional[Exception] = None
    while time.monotonic() < deadline:
        try:
            with ServeClient(host, port, timeout=5.0) as client:
                response = client.ping()
                if response.get("result", {}).get("protocol") == PROTOCOL:
                    return
        except (OSError, ValueError, ConnectionError) as exc:
            last_error = exc
        time.sleep(0.1)
    raise TimeoutError(
        f"no server at {host}:{port} after {timeout}s "
        f"(last error: {last_error})"
    )
