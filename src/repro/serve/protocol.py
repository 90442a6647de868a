"""Wire protocol of the DSE service: requests, responses, payloads.

Transport is newline-delimited JSON (one object per line) over TCP.
Every request carries an ``op`` plus an optional caller-chosen ``id``
that is echoed on the response, so a client may pipeline requests and
match answers arriving out of order.  Responses are either

``{"id": ..., "ok": true, "result": {...}}``
    the operation's payload, or

``{"id": ..., "ok": false, "code": "...", "error": "..."}``
    a typed failure (``bad_request``, ``overloaded``,
    ``deadline_exceeded``, ``draining``, ``internal``).

Long-running ``sweep`` operations additionally stream progress events
— ``{"id": ..., "event": "progress", "done": k, "total": n}`` — before
their final response.

**Canonical encoding.**  :func:`encode_line` serializes with sorted
keys, minimal separators and Python's shortest-round-trip float repr.
Combined with payload builders that compute every field through the
exact arithmetic of the scalar cost path, this makes a served response
*byte-identical* to a direct in-process call — the property the
``serving-equivalence`` CI job diffs for.  Payloads therefore include
only deterministic quantities (cycles, traffic, activity counts,
energy); wall times and engine statistics are deliberately absent.

Every query op resolves through one table, :data:`QUERY_RESOLVERS`:
the daemon and the direct path both dispatch on its keys, so adding a
query op is one resolver there plus its execution in
:mod:`repro.serve.service`.  A cost answer is always
:func:`cost_payload` of a scalar-equal
:class:`~repro.core.perf.ScopeCost`, whether the engine scored it alone
or in a coalesced lineup.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.arch.accelerator import Accelerator
from repro.arch.config_io import (
    accelerator_from_dict,
    dataflow_from_dict,
    dataflow_to_dict,
    workload_from_dict,
)
from repro.arch.fabric import FabricKind, FabricSpec
from repro.core.dataflow import Dataflow
from repro.core.dse import DSEResult, Objective
from repro.core.engine import accelerator_fingerprint
from repro.core.perf import ScopeCost
from repro.core.scaleout import ScaleoutResult, ScaleoutSystem
from repro.energy.model import energy_report
from repro.ops.attention import AttentionConfig, Scope

__all__ = [
    "PROTOCOL",
    "ProtocolError",
    "Overloaded",
    "DeadlineExceeded",
    "Draining",
    "Query",
    "QUERY_RESOLVERS",
    "resolve_query",
    "resolve_sweep",
    "resolve_deadline_s",
    "encode_line",
    "ok_response",
    "error_response",
    "progress_event",
    "cost_payload",
    "search_payload",
    "scaleout_payload",
    "decode_payload",
]

#: Bump when the request or response layout changes.
PROTOCOL = "repro-serve/1"


class ProtocolError(Exception):
    """A typed request failure, carried to the client as an error line."""

    code = "bad_request"

    def __init__(self, message: str, code: Optional[str] = None) -> None:
        super().__init__(message)
        if code is not None:
            self.code = code


class Overloaded(ProtocolError):
    """Admission control shed this request (queue full)."""

    code = "overloaded"


class DeadlineExceeded(ProtocolError):
    """The request's deadline passed before evaluation started."""

    code = "deadline_exceeded"


class Draining(ProtocolError):
    """The server is shutting down and accepts no new work."""

    code = "draining"


# ----------------------------------------------------------------------
# request resolution
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Query:
    """One resolved, hashable unit of schedulable work.

    ``kind`` is ``"cost"`` (needs ``dataflow``), ``"search"`` (needs
    ``objective``), ``"scaleout"`` (needs ``chips`` + ``system``;
    ``accel`` is the per-chip die) or ``"decode"`` (a KV-cached decode
    step search: ``cfg`` is already the ``seq_q=1`` step config and
    ``variants`` says whether the attention-variant zoo competes).
    Hashability is what the scheduler's deduplication and memoization
    key on; the accelerator participates through its cost-observable
    fingerprint so two accelerators differing only in name coalesce
    (their costs — and therefore payloads — are identical by
    construction).
    """

    kind: str
    cfg: AttentionConfig
    accel: Accelerator
    scope: Scope
    dataflow: Optional[Dataflow] = None
    objective: Optional[Objective] = None
    chips: Optional[int] = None
    system: Optional[ScaleoutSystem] = None
    variants: Optional[bool] = None

    def group_key(self) -> Tuple:
        """Coalescing group: queries sharing it can share one grid call."""
        return (
            self.kind, self.cfg, accelerator_fingerprint(self.accel),
            self.scope,
        )

    def dedupe_key(self) -> Tuple:
        """Full identity: equal keys receive the same response payload.

        The scale-out fields enter through the system's name-blind
        fingerprint — two queries differing only in chip count or
        fabric must *not* dedupe to one payload.
        """
        return self.group_key() + (
            self.dataflow,
            self.objective,
            self.chips,
            self.system.fingerprint() if self.system is not None else None,
            self.variants,
        )


def _integer(req: Dict[str, Any], name: str,
             default: Optional[int] = None) -> int:
    """A JSON-integer field; ``default`` when absent (``None``: required)."""
    raw = req.get(name, default)
    if raw is None:
        raise ProtocolError(f"{req.get('op')} query needs {name!r}")
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise ProtocolError(f"{name!r} must be an integer")
    return raw


def _resolve_objective(req: Dict[str, Any]) -> Objective:
    try:
        return Objective(str(req.get("objective", "runtime")))
    except ValueError:
        raise ProtocolError(
            f"unknown objective {req.get('objective')!r}; choose from "
            f"{[o.value for o in Objective]}"
        ) from None


def _resolve_workload(req: Dict[str, Any]) -> AttentionConfig:
    from repro.models.configs import model_config

    workload = req.get("workload")
    if workload is not None:
        if not isinstance(workload, dict):
            raise ProtocolError("'workload' must be an object")
        try:
            return workload_from_dict(workload)
        except ValueError as exc:
            raise ProtocolError(str(exc)) from None
    model = req.get("model")
    if model is None:
        raise ProtocolError("request needs 'workload' or 'model'")
    seq, batch = _integer(req, "seq", 4096), _integer(req, "batch", 64)
    try:
        return model_config(str(model), seq=seq, batch=batch)
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"workload invalid: {exc}") from None


def _resolve_accelerator(req: Dict[str, Any]) -> Accelerator:
    from repro.arch.presets import get_platform

    accel = req.get("accel")
    if accel is not None:
        if not isinstance(accel, dict):
            raise ProtocolError("'accel' must be an object")
        try:
            return accelerator_from_dict(accel)
        except ValueError as exc:
            raise ProtocolError(str(exc)) from None
    platform = str(req.get("platform", "edge"))
    try:
        return get_platform(platform)
    except (KeyError, ValueError) as exc:
        raise ProtocolError(f"unknown platform {platform!r}: {exc}") from None


def _resolve_dataflow(spec: object) -> Dataflow:
    from repro.core.dataflow import parse_dataflow

    try:
        if isinstance(spec, dict):
            return dataflow_from_dict(spec)
        return parse_dataflow(str(spec))
    except ValueError as exc:
        raise ProtocolError(str(exc)) from None


# Each query op's own fields, resolved after the workload, accelerator
# and scope every query shares: the :class:`Query` fields it sets.
def _cost_fields(req: Dict[str, Any], cfg: AttentionConfig,
                 accel: Accelerator) -> Dict[str, Any]:
    spec = req.get("dataflow")
    if spec is None:
        raise ProtocolError("cost query needs 'dataflow'")
    return {"dataflow": _resolve_dataflow(spec)}


def _search_fields(req: Dict[str, Any], cfg: AttentionConfig,
                   accel: Accelerator) -> Dict[str, Any]:
    return {"objective": _resolve_objective(req)}


def _scaleout_fields(req: Dict[str, Any], cfg: AttentionConfig,
                     accel: Accelerator) -> Dict[str, Any]:
    """The ``chips`` count and :class:`ScaleoutSystem` of one request.

    Fabric and channel parameters are optional scalars with the
    library defaults (``fabric`` mesh/torus, ``link_gbs``, ``hop_ns``,
    ``chips_per_channel``, ``contention``); validation failures become
    ``bad_request`` before the scheduler sees the query.
    """
    chips = _integer(req, "chips")
    if chips < 1:
        raise ProtocolError("'chips' must be >= 1")
    kind_name = str(req.get("fabric", FabricKind.MESH.value))
    try:
        kind = FabricKind(kind_name.lower())
    except ValueError:
        raise ProtocolError(
            f"unknown fabric {kind_name!r}; choose from "
            f"{[k.value for k in FabricKind]}"
        ) from None
    chips_per_channel = _integer(req, "chips_per_channel", 1)
    defaults = FabricSpec()
    try:
        fabric = FabricSpec(
            kind=kind,
            link_bytes_per_sec=(
                float(req["link_gbs"]) * 1e9 if "link_gbs" in req
                else defaults.link_bytes_per_sec
            ),
            hop_latency_s=(
                float(req["hop_ns"]) * 1e-9 if "hop_ns" in req
                else defaults.hop_latency_s
            ),
        )
        system = ScaleoutSystem(
            chip=accel,
            fabric=fabric,
            chips_per_channel=chips_per_channel,
            channel_contention=float(req.get("contention", 1.0)),
        )
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"scaleout system invalid: {exc}") from None
    return {"chips": chips, "system": system}


def _decode_fields(req: Dict[str, Any], cfg: AttentionConfig,
                   accel: Accelerator) -> Dict[str, Any]:
    from repro.ops.decode import decode_config

    kv_len = _integer(req, "kv_len")
    objective = _resolve_objective(req)
    variants = req.get("variants", True)
    if not isinstance(variants, bool):
        raise ProtocolError("'variants' must be a boolean")
    try:
        step = decode_config(cfg, kv_len)
    except ValueError as exc:
        raise ProtocolError(str(exc)) from None
    return {"cfg": step, "objective": objective, "variants": variants}


#: The query ops: each op's resolver of its own :class:`Query` fields.
#: These keys are the only list of query ops; the daemon and the direct
#: path dispatch on them.
QUERY_RESOLVERS: Dict[str, Callable[..., Dict[str, Any]]] = {
    "cost": _cost_fields,
    "search": _search_fields,
    "scaleout": _scaleout_fields,
    "decode": _decode_fields,
}


def resolve_query(req: Dict[str, Any]) -> Query:
    """Validate one query request (an op of :data:`QUERY_RESOLVERS`)
    into a :class:`Query`.

    Raises :class:`ProtocolError` (``bad_request``) on anything
    malformed; resolution is pure, so a bad request is rejected before
    it ever reaches the scheduler.
    """
    op = req.get("op")
    fields = QUERY_RESOLVERS.get(op) if isinstance(op, str) else None
    if fields is None:
        raise ProtocolError(
            f"op {op!r} is not a query ({'/'.join(QUERY_RESOLVERS)})"
        )
    cfg = _resolve_workload(req)
    accel = _resolve_accelerator(req)
    try:
        scope = Scope.from_name(req.get("scope", "L-A"))
    except ValueError as exc:
        raise ProtocolError(str(exc)) from None
    query = {"kind": op, "cfg": cfg, "accel": accel, "scope": scope}
    query.update(fields(req, cfg, accel))
    return Query(**query)


def resolve_sweep(req: Dict[str, Any]) -> List[Query]:
    """Validate a ``sweep`` request's sub-requests into queries."""
    subs = req.get("requests")
    if not isinstance(subs, list) or not subs:
        raise ProtocolError("sweep needs a non-empty 'requests' list")
    if not all(isinstance(sub, dict) for sub in subs):
        raise ProtocolError("sweep 'requests' entries must be objects")
    return [resolve_query(sub) for sub in subs]


def resolve_deadline_s(req: Dict[str, Any]) -> Optional[float]:
    """The request's relative deadline in seconds, if any: a finite JSON
    number of milliseconds, not a string, a boolean, ``NaN`` or
    ``Infinity``."""
    raw = req.get("deadline_ms")
    if raw is None:
        return None
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ProtocolError("'deadline_ms' must be a number")
    try:
        deadline = float(raw)
    except OverflowError:  # an integer past the float range
        deadline = math.inf
    if not math.isfinite(deadline):
        raise ProtocolError("'deadline_ms' must be a number")
    if deadline < 0:
        raise ProtocolError("'deadline_ms' must be >= 0")
    return deadline / 1000.0


# ----------------------------------------------------------------------
# canonical encoding + envelopes
# ----------------------------------------------------------------------
def encode_line(obj: Dict[str, Any]) -> bytes:
    """One canonical JSON line: sorted keys, minimal separators.

    Deterministic byte-for-byte for equal values — the foundation of
    the served-vs-direct equivalence diff.
    """
    return (
        json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
    ).encode()


def ok_response(req_id: object, result: Dict[str, Any]) -> Dict[str, Any]:
    return {"id": req_id, "ok": True, "result": result}


def error_response(
    req_id: object, code: str, message: str
) -> Dict[str, Any]:
    return {"id": req_id, "ok": False, "code": code, "error": message}


def progress_event(req_id: object, done: int, total: int) -> Dict[str, Any]:
    return {"id": req_id, "event": "progress", "done": done, "total": total}


# ----------------------------------------------------------------------
# payload builders (deterministic fields only)
# ----------------------------------------------------------------------
def cost_payload(cost: ScopeCost) -> Dict[str, Any]:
    """The served fields of one evaluation, from the scalar path.

    ``energy_j`` uses the default energy table (callers with custom
    tables derive joules client-side from the activity counts, which
    are all here).
    """
    counts = cost.counts
    return {
        "total_cycles": float(cost.total_cycles),
        "dram_bytes": float(cost.dram_bytes),
        "footprint_bytes": int(cost.max_footprint_bytes),
        "macs": float(counts.macs),
        "sl_words": float(counts.sl_words),
        "sg_words": float(counts.sg_words),
        "dram_words": float(counts.dram_words),
        "sfu_ops": float(counts.sfu_ops),
        "energy_j": float(energy_report(counts).total_j),
    }


def search_payload(result: DSEResult) -> Dict[str, Any]:
    """The served fields of one DSE: the objective and the winner.

    Engine statistics (wall time, pruning counts) are deliberately
    excluded — they vary with cache warmth and engine knobs, and the
    payload must not.
    """
    best = result.best
    return {
        "objective": result.objective.value,
        "dataflow": dataflow_to_dict(best.dataflow),
        "cost": cost_payload(best.cost),
    }


def decode_payload(
    result: DSEResult, cfg: AttentionConfig, accel: Accelerator,
    scope: Scope,
) -> Dict[str, Any]:
    """The served fields of one decode-step search.

    The winner is reported like :func:`search_payload` (objective,
    dataflow, cost), extended with the step's identity (``kv_len``) and
    its compulsory-traffic split (:func:`repro.ops.decode.decode_traffic`
    — cache reads vs weights vs activations), which is what makes the
    memory-boundness of the step legible to clients.  All fields are
    deterministic: traffic is closed-form in the config, and the search
    result is byte-stable by the engine's equivalence contracts.
    """
    from repro.ops.decode import decode_traffic

    traffic = decode_traffic(
        cfg, scope=scope, bytes_per_element=accel.bytes_per_element
    )
    payload = search_payload(result)
    payload["kv_len"] = int(traffic.kv_len)
    payload["traffic"] = {
        "cache_read_bytes": int(traffic.cache_read_bytes),
        "weight_bytes": int(traffic.weight_bytes),
        "activation_bytes": int(traffic.activation_bytes),
        "cache_fraction": float(traffic.cache_fraction),
    }
    return payload


def scaleout_payload(result: ScaleoutResult) -> Dict[str, Any]:
    """The served fields of one two-level scale-out search.

    Only the winner is served: partition, schedule, per-chip dataflow
    and the cycle split.  :class:`~repro.core.scaleout.ScaleoutStats`
    and the outer grid are deliberately absent — pruning counts vary
    with cache warmth, and the payload must stay byte-identical
    served-vs-direct and against the exhaustive reference in
    ``tests/``.
    """
    best = result.best
    part = best.partition
    return {
        "chips": int(result.chips),
        "partition": {
            "batch_ways": int(part.batch_ways),
            "head_ways": int(part.head_ways),
            "seq_ways": int(part.seq_ways),
            "label": part.label,
        },
        "schedule": best.schedule.value,
        "dataflow": dataflow_to_dict(best.dataflow),
        "chip_cycles": float(best.chip_cycles),
        "fabric_cycles": float(best.fabric_cycles),
        "total_cycles": float(best.total_cycles),
        "chip_cost": cost_payload(best.chip_cost),
    }
