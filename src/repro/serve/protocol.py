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

The payload builders have two implementations of the same numbers:
:func:`cost_payload` reads a scalar :class:`~repro.core.perf.ScopeCost`
and :func:`grid_payloads` reads a vectorized
:class:`~repro.core.batch.GridEvaluation`.  The batch backend's
contract (bit-for-bit equality with the scalar model, term-by-term
energy replay) is what lets the coalescing scheduler answer a merged
grid call with the same bytes a lone query would have received.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

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
    "resolve_query",
    "encode_line",
    "ok_response",
    "error_response",
    "progress_event",
    "cost_payload",
    "grid_payloads",
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


def _resolve_scope(name: object) -> Scope:
    for scope in Scope:
        if scope.value.lower() == str(name).lower():
            return scope
    raise ProtocolError(
        f"unknown scope {name!r}; choose from {[s.value for s in Scope]}"
    )


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
    try:
        return model_config(
            str(model),
            seq=int(req.get("seq", 4096)),
            batch=int(req.get("batch", 64)),
        )
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

    if isinstance(spec, dict):
        try:
            return dataflow_from_dict(spec)
        except ValueError as exc:
            raise ProtocolError(str(exc)) from None
    try:
        return parse_dataflow(str(spec))
    except ValueError as exc:
        raise ProtocolError(str(exc)) from None


def _resolve_scaleout(req: Dict[str, Any], accel: Accelerator) -> Tuple[
    int, ScaleoutSystem
]:
    """The ``chips`` count and :class:`ScaleoutSystem` of one request.

    Fabric and channel parameters are optional scalars with the
    library defaults (``fabric`` mesh/torus, ``link_gbs``, ``hop_ns``,
    ``chips_per_channel``, ``contention``); validation failures become
    ``bad_request`` before the scheduler sees the query.
    """
    raw = req.get("chips")
    if raw is None:
        raise ProtocolError("scaleout query needs 'chips'")
    try:
        chips = int(raw)
    except (TypeError, ValueError):
        raise ProtocolError("'chips' must be an integer") from None
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
            chips_per_channel=int(req.get("chips_per_channel", 1)),
            channel_contention=float(req.get("contention", 1.0)),
        )
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"scaleout system invalid: {exc}") from None
    return chips, system


def resolve_query(req: Dict[str, Any]) -> Query:
    """Validate one ``cost``/``search``/``scaleout`` request into a
    :class:`Query`.

    Raises :class:`ProtocolError` (``bad_request``) on anything
    malformed; resolution is pure, so a bad request is rejected before
    it ever reaches the scheduler.
    """
    op = req.get("op")
    if op not in ("cost", "search", "scaleout", "decode"):
        raise ProtocolError(
            f"op {op!r} is not a query (cost/search/scaleout/decode)"
        )
    cfg = _resolve_workload(req)
    accel = _resolve_accelerator(req)
    scope = _resolve_scope(req.get("scope", "L-A"))
    if op == "decode":
        from repro.ops.decode import decode_config

        raw = req.get("kv_len")
        if raw is None:
            raise ProtocolError("decode query needs 'kv_len'")
        try:
            kv_len = int(raw)
        except (TypeError, ValueError):
            raise ProtocolError("'kv_len' must be an integer") from None
        try:
            objective = Objective(str(req.get("objective", "runtime")))
        except ValueError:
            raise ProtocolError(
                f"unknown objective {req.get('objective')!r}; choose from "
                f"{[o.value for o in Objective]}"
            ) from None
        variants = req.get("variants", True)
        if not isinstance(variants, bool):
            raise ProtocolError("'variants' must be a boolean")
        try:
            step = decode_config(cfg, kv_len)
        except ValueError as exc:
            raise ProtocolError(str(exc)) from None
        return Query(
            kind="decode", cfg=step, accel=accel, scope=scope,
            objective=objective, variants=variants,
        )
    if op == "cost":
        spec = req.get("dataflow")
        if spec is None:
            raise ProtocolError("cost query needs 'dataflow'")
        return Query(
            kind="cost", cfg=cfg, accel=accel, scope=scope,
            dataflow=_resolve_dataflow(spec),
        )
    if op == "scaleout":
        chips, system = _resolve_scaleout(req, accel)
        return Query(
            kind="scaleout", cfg=cfg, accel=accel, scope=scope,
            chips=chips, system=system,
        )
    try:
        objective = Objective(str(req.get("objective", "runtime")))
    except ValueError:
        raise ProtocolError(
            f"unknown objective {req.get('objective')!r}; choose from "
            f"{[o.value for o in Objective]}"
        ) from None
    return Query(
        kind="search", cfg=cfg, accel=accel, scope=scope,
        objective=objective,
    )


def resolve_deadline_s(req: Dict[str, Any]) -> Optional[float]:
    """The request's relative deadline in seconds, if any."""
    raw = req.get("deadline_ms")
    if raw is None:
        return None
    try:
        deadline = float(raw)
    except (TypeError, ValueError):
        raise ProtocolError("'deadline_ms' must be a number") from None
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

    Restricted to quantities :func:`grid_payloads` can reproduce
    bit-for-bit from a :class:`~repro.core.batch.GridEvaluation` row;
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


def grid_payloads(grid) -> List[Dict[str, Any]]:
    """Per-row payloads of one ``evaluate_grid`` call.

    The energy term replays ``objective_scores(ENERGY)`` — which itself
    replays ``energy_report`` term by term — so every field equals the
    scalar :func:`cost_payload` bit for bit (the batch backend's
    contract, asserted in ``tests/serve/test_protocol.py``).
    """
    energy = grid.objective_scores(Objective.ENERGY)
    out: List[Dict[str, Any]] = []
    for i in range(len(grid)):
        out.append(
            {
                "total_cycles": float(grid.total_cycles[i]),
                "dram_bytes": float(grid.dram_bytes[i]),
                "footprint_bytes": int(grid.footprint_bytes[i]),
                "macs": float(grid.macs[i]),
                "sl_words": float(grid.sl_words[i]),
                "sg_words": float(grid.sg_words[i]),
                "dram_words": float(grid.dram_words[i]),
                "sfu_ops": float(grid.sfu_ops[i]),
                "energy_j": float(energy[i]),
            }
        )
    return out


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
