"""Query execution: one answer route per query kind, and the direct path.

* :func:`execute_query` answers one query with the engine's memoized
  entry points: a cost query is a one-query :func:`execute_cost_group`;
  a search or decode query (:func:`~repro.core.dse.search`) scores
  its space on the grid backend — one call for a small space, a round
  or two of calls for a larger one — and builds the winner's breakdown
  from its grid lane.

* :func:`execute_cost_group` answers the deduplicated cost queries of
  one coalescing group as one engine list
  (:func:`~repro.core.engine.evaluate_costs`, a
  :func:`~repro.core.engine.run_searches` list of fixed dataflows):
  misses that share a scope, options and accelerator share one grid
  call, a lane alone in its call takes the scalar model, and every
  answer lands in the engine LRU and the persistent disk cache, whose
  writes the group commits once.  The grid lanes' breakdowns equal
  :func:`~repro.core.perf.cost_scope` (the batch backend's contract),
  so a coalesced answer has the bytes a lone one would.

* :func:`execute_group` is the scheduler's work for one coalescing
  group: cost groups go to :func:`execute_cost_group`, every other kind
  maps :func:`execute_query` over its queries inside one
  :meth:`~repro.core.cache.PersistentCache.batch`, so the group's disk
  writes commit once.

* :func:`answer_direct` wraps the same resolution and execution into a
  full response envelope for in-process replay (``repro-flat query
  --direct``), which is what the ``serving-equivalence`` CI job diffs
  served responses against.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Any, Callable, Dict, List, Tuple

from repro.core.cache import get_default_cache
from repro.core.dataflow import AttentionVariant
from repro.core.dse import SearchSpace, search
from repro.core.engine import CostRequest, evaluate_costs
from repro.core.perf import PerfOptions
from repro.serve.protocol import (
    PROTOCOL,
    QUERY_RESOLVERS,
    ProtocolError,
    Query,
    cost_payload,
    decode_payload,
    error_response,
    ok_response,
    resolve_deadline_s,
    resolve_query,
    resolve_sweep,
    scaleout_payload,
    search_payload,
)

__all__ = [
    "execute_query",
    "execute_cost_group",
    "execute_group",
    "answer_direct",
]

_OPTIONS = PerfOptions()


def execute_query(query: Query) -> Dict[str, Any]:
    """Answer one query through the engine's memoized entry points:
    the cost lineup for a cost query, the engine's search (grid
    scoring, the winner's breakdown from its grid lane) for the
    others.  A decode step's search lets the attention-variant zoo
    compete unless the query switched it off."""
    if query.kind == "cost":
        return execute_cost_group([query])[0]
    if query.kind == "scaleout":
        from repro.core.scaleout import search_scaleout

        return scaleout_payload(search_scaleout(
            query.cfg, query.system, query.chips,
            scope=query.scope, options=_OPTIONS,
        ))
    variants = (
        tuple(AttentionVariant) if query.variants
        else (AttentionVariant.SOFTMAX,)
    )
    result = search(
        query.cfg, query.accel, scope=query.scope,
        objective=query.objective, space=SearchSpace(variants=variants),
        options=_OPTIONS, retain_points=False,
    )
    if query.kind == "decode":
        return decode_payload(result, query.cfg, query.accel, query.scope)
    return search_payload(result)


def execute_cost_group(queries: List[Query]) -> List[Dict[str, Any]]:
    """Payloads of cost queries, aligned with ``queries``, from one
    engine list of fixed dataflows
    (:func:`~repro.core.engine.evaluate_costs`), committed to disk
    once."""
    return [cost_payload(cost) for cost in evaluate_costs([
        CostRequest(q.cfg, q.scope, q.accel, q.dataflow, _OPTIONS)
        for q in queries
    ])]


def execute_group(
    queries: List[Query],
) -> Tuple[List[Dict[str, Any]], bool]:
    """Answer the deduplicated queries of one coalescing group.

    Returns ``(payloads, used_grid)`` aligned with ``queries``.
    ``used_grid`` is ``True`` for a cost group of two or more queries,
    which :func:`~repro.core.engine.evaluate_costs` scores as one
    lineup; it feeds the scheduler's ``grid_calls``/``grid_rows``.
    Any other group runs one search per query, its disk writes committed
    once.
    """
    if queries[0].kind == "cost":
        return execute_cost_group(queries), len(queries) > 1
    store = get_default_cache()
    with store.batch() if store is not None else nullcontext():
        return [execute_query(q) for q in queries], False


def _direct_query(req: Dict[str, Any]) -> Dict[str, Any]:
    query = resolve_query(req)
    resolve_deadline_s(req)  # validated as served; no queue to bound
    return execute_query(query)


def _direct_sweep(req: Dict[str, Any]) -> Dict[str, Any]:
    queries = resolve_sweep(req)
    resolve_deadline_s(req)
    return {
        "results": [execute_query(q) for q in queries],
        "total": len(queries),
    }


#: The daemon's deterministic ops, answered in-process.
_DIRECT_OPS: Dict[str, Callable[[Dict[str, Any]], Dict[str, Any]]] = {
    "ping": lambda req: {"protocol": PROTOCOL},
    "sweep": _direct_sweep,
    **dict.fromkeys(QUERY_RESOLVERS, _direct_query),
}


def answer_direct(req: Dict[str, Any]) -> Dict[str, Any]:
    """One full response envelope, computed in-process.

    Mirrors the server's handling of the deterministic operations
    (``ping``, the query ops, ``sweep``) byte-for-byte, error envelopes
    included; the stateful operations (``stats``, ``experiment``,
    ``shutdown``) only make sense against a live daemon and are
    rejected.
    """
    req_id = req.get("id") if isinstance(req, dict) else None
    try:
        if not isinstance(req, dict):
            raise ProtocolError("request must be a JSON object")
        op = req.get("op")
        answer = _DIRECT_OPS.get(op) if isinstance(op, str) else None
        if answer is None:
            from repro.serve.server import DSEServer

            if isinstance(op, str) and op in DSEServer.OPS:
                raise ProtocolError(f"op {op!r} is not available directly")
            raise ProtocolError(f"unknown op {op!r}")
        result = answer(req)
    except ProtocolError as exc:
        return error_response(req_id, exc.code, str(exc))
    return ok_response(req_id, result)
