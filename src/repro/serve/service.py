"""Query execution: the direct path and the coalesced group path.

Two routes produce one set of bytes:

* :func:`execute_query` — the *reference* path: one query, answered
  with the engine's memoized scalar entry points
  (:func:`~repro.core.engine.evaluate_cost`,
  :func:`~repro.core.dse.search`).  :func:`answer_direct` wraps it into
  a full response envelope for in-process replay (``repro-flat query
  --direct``), which is what the ``serving-equivalence`` CI job diffs
  served responses against.

* :func:`execute_cost_group` — the *coalesced* path the scheduler
  dispatches: several cost queries sharing a workload / accelerator
  fingerprint / scope are answered by one
  :func:`~repro.core.batch.evaluate_grid` call.  The batch backend's
  bit-for-bit contract (plus :func:`~repro.serve.protocol.grid_payloads`
  replaying the energy terms) keeps the bytes identical to the
  reference path; :class:`~repro.core.batch.BatchFallback` degrades to
  per-query scalar evaluation, never to an error.

Engine knobs are pinned to explicit defaults (``EngineOptions()``)
rather than the mutable process-wide default: a threaded server must
not observe another thread flipping the default engine mid-request,
and the knobs change only the amount of work, never the result.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.core.dse import search
from repro.core.engine import EngineOptions, evaluate_cost
from repro.core.perf import PerfOptions
from repro.serve.protocol import (
    PROTOCOL,
    ProtocolError,
    Query,
    cost_payload,
    decode_payload,
    grid_payloads,
    resolve_query,
    scaleout_payload,
    search_payload,
)

__all__ = [
    "execute_query",
    "execute_cost_group",
    "answer_direct",
]

_OPTIONS = PerfOptions()
_ENGINE = EngineOptions()


def execute_query(query: Query) -> Dict[str, Any]:
    """Answer one query through the scalar reference path."""
    if query.kind == "cost":
        cost = evaluate_cost(
            query.cfg, query.scope, query.accel, query.dataflow,
            options=_OPTIONS,
        )
        return cost_payload(cost)
    if query.kind == "scaleout":
        from repro.core.scaleout import search_scaleout

        result = search_scaleout(
            query.cfg, query.system, query.chips,
            scope=query.scope, options=_OPTIONS,
        )
        return scaleout_payload(result)
    if query.kind == "decode":
        from repro.core.dataflow import AttentionVariant
        from repro.core.dse import SearchSpace

        space = SearchSpace(
            variants=(
                tuple(AttentionVariant) if query.variants
                else (AttentionVariant.SOFTMAX,)
            ),
        )
        result = search(
            query.cfg, query.accel, scope=query.scope,
            objective=query.objective, space=space, options=_OPTIONS,
            engine=_ENGINE, retain_points=False,
        )
        return decode_payload(result, query.cfg, query.accel, query.scope)
    result = search(
        query.cfg, query.accel, scope=query.scope,
        objective=query.objective, options=_OPTIONS, engine=_ENGINE,
        retain_points=False,
    )
    return search_payload(result)


def execute_cost_group(
    queries: List[Query],
) -> Tuple[List[Dict[str, Any]], bool]:
    """Answer deduplicated cost queries of one coalescing group.

    Returns ``(payloads, used_grid)`` aligned with ``queries``.  Two or
    more queries go through one vectorized ``evaluate_grid`` call; a
    single query (or a grid fallback) takes the memoizing scalar path,
    which also warms the engine LRU and the persistent disk cache.
    ``used_grid`` feeds the scheduler's honest coalescing counters —
    it is ``True`` only when ``evaluate_grid`` actually ran.
    """
    if len(queries) > 1:
        from repro.core.batch import BatchFallback, evaluate_grid

        first = queries[0]
        try:
            grid = evaluate_grid(
                first.cfg, first.scope, first.accel,
                [q.dataflow for q in queries], options=_OPTIONS,
            )
        except BatchFallback:
            pass
        else:
            return grid_payloads(grid), True
    return [execute_query(q) for q in queries], False


def _direct_sweep(req: Dict[str, Any]) -> Dict[str, Any]:
    subs = req.get("requests")
    if not isinstance(subs, list) or not subs:
        raise ProtocolError("sweep needs a non-empty 'requests' list")
    queries = [resolve_query(sub) for sub in subs]
    return {
        "results": [execute_query(q) for q in queries],
        "total": len(queries),
    }


def answer_direct(req: Dict[str, Any]) -> Dict[str, Any]:
    """One full response envelope, computed in-process.

    Mirrors the server's handling of the deterministic operations
    (``ping``, ``cost``, ``search``, ``scaleout``, ``decode``,
    ``sweep``)
    byte-for-byte; the stateful operations (``stats``, ``experiment``,
    ``shutdown``) only make sense against a live daemon and are
    rejected.  Errors come back as error envelopes, exactly like the
    server's.
    """
    from repro.serve.protocol import error_response, ok_response

    req_id = req.get("id") if isinstance(req, dict) else None
    try:
        if not isinstance(req, dict):
            raise ProtocolError("request must be a JSON object")
        op = req.get("op")
        if op == "ping":
            result: Dict[str, Any] = {"protocol": PROTOCOL}
        elif op in ("cost", "search", "scaleout", "decode"):
            result = execute_query(resolve_query(req))
        elif op == "sweep":
            result = _direct_sweep(req)
        else:
            raise ProtocolError(f"op {op!r} is not available directly")
    except ProtocolError as exc:
        return error_response(req_id, exc.code, str(exc))
    return ok_response(req_id, result)
