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

**Paying once per distinct request.**  The daemon resolves through a
:class:`Memo` of queries keyed on a request's typed scalar fields
(:func:`resolve_query`), a :class:`Query` hashes its coalescing and
dedupe keys once, and each memoized answer is stored once, as its
canonical text (:class:`Encoded`), which :func:`encode_line` splices
into every response that carries it.

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
import sys
from collections import OrderedDict
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Hashable, List, Optional, Tuple

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
from repro.obs.metrics import active as _metrics_active
from repro.ops.attention import AttentionConfig, Scope

__all__ = [
    "PROTOCOL",
    "ProtocolError",
    "Overloaded",
    "DeadlineExceeded",
    "Draining",
    "Query",
    "QueryKey",
    "Memo",
    "Encoded",
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
class QueryKey:
    """A query identity hashed once: the scheduler's group and memo
    dictionaries probe it without rehashing its nested parts."""

    __slots__ = ("parts", "_hash")

    def __init__(self, parts: Tuple) -> None:
        self.parts = parts
        self._hash = hash(parts)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QueryKey):
            return NotImplemented
        return self._hash == other._hash and self.parts == other.parts

    def __repr__(self) -> str:
        return f"QueryKey{self.parts!r}"


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
    construction).  Both keys are built and hashed once, at
    construction.
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
    _group: QueryKey = field(init=False, repr=False, compare=False)
    _dedupe: QueryKey = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        group = (
            self.kind, self.cfg, accelerator_fingerprint(self.accel),
            self.scope,
        )
        # The scale-out fields enter through the system's name-blind
        # fingerprint — two queries differing only in chip count or
        # fabric must *not* dedupe to one payload.
        dedupe = group + (
            self.dataflow,
            self.objective,
            self.chips,
            self.system.fingerprint() if self.system is not None else None,
            self.variants,
        )
        object.__setattr__(self, "_group", QueryKey(group))
        object.__setattr__(self, "_dedupe", QueryKey(dedupe))

    def group_key(self) -> QueryKey:
        """Coalescing group: queries sharing it can share one grid call."""
        return self._group

    def dedupe_key(self) -> QueryKey:
        """Full identity: equal keys receive the same response payload."""
        return self._dedupe


class Memo:
    """A bounded least-recently-used map that counts its lookups.

    ``size`` 0 keeps nothing.  Every :meth:`get` is a hit or a miss;
    with ``metric`` set, each is mirrored to the ``<metric>_hits`` or
    ``<metric>_misses`` counter when observability is on.
    """

    __slots__ = ("size", "hits", "misses", "_metric", "_entries")

    def __init__(self, size: int, metric: Optional[str] = None) -> None:
        self.size = size
        self.hits = 0
        self.misses = 0
        self._metric = metric
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()

    def get(self, key: Hashable) -> Any:
        """The value stored under ``key`` (now most recent), or ``None``."""
        value = self._entries.get(key)
        if value is None:
            self.misses += 1
        else:
            self.hits += 1
            self._entries.move_to_end(key)
        if self._metric is not None:
            registry = _metrics_active()
            if registry is not None:
                outcome = "misses" if value is None else "hits"
                registry.counter(f"{self._metric}_{outcome}").inc()
        return value

    def put(self, key: Hashable, value: Any) -> None:
        """Store ``value``, evicting the least recently used overflow."""
        if self.size <= 0:
            return
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.size:
            self._entries.popitem(last=False)

    def __len__(self) -> int:
        return len(self._entries)


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


#: Request fields that never change what a query resolves to.
_UNRESOLVED = frozenset({"id", "deadline_ms"})
#: Only a small request is keyed, so that the memo never keeps much of
#: what a client sends (a request line may hold 64 KiB of fields the
#: resolvers ignore): at most this many fields, strings of at most
#: this many characters and integers of at most this many bits.
_MAX_KEYED_FIELDS = 32
_MAX_KEYED_CHARS = 64
_MAX_KEYED_BITS = 64


def _request_key(req: Dict[str, Any]) -> Optional[Tuple]:
    """A request's resolution identity: its fields but ``id`` and
    ``deadline_ms`` in request order, each value tagged with its JSON
    type so that ``true``, ``1`` and ``1.0`` never collide (a float is
    keyed by its repr, so ``-0.0`` is not ``0.0``); ``None`` when a
    field is a nested object or list, or the request is not small
    (such a request is always resolved in full)."""
    if len(req) > _MAX_KEYED_FIELDS:
        return None
    parts: List[Any] = []
    for name, value in req.items():
        if name in _UNRESOLVED:
            continue
        kind = type(value)
        if kind is float:
            value = repr(value)
        elif kind is str:
            if len(value) > _MAX_KEYED_CHARS:
                return None
        elif kind is int:
            if value.bit_length() > _MAX_KEYED_BITS:
                return None
        elif kind is not bool and value is not None:
            return None
        parts += (name, kind, value)
    return tuple(parts)


def resolve_query(req: Dict[str, Any], memo: Optional[Memo] = None) -> Query:
    """Validate one query request (an op of :data:`QUERY_RESOLVERS`)
    into a :class:`Query`.

    Raises :class:`ProtocolError` (``bad_request``) on anything
    malformed; resolution is pure, so a bad request is rejected before
    it ever reaches the scheduler.  With a ``memo``, a request whose
    fields are all scalars is looked up by :func:`_request_key` first,
    and a repeat returns the identical :class:`Query`; an error is
    never stored.
    """
    if memo is None:
        return _resolve(req)
    key = _request_key(req)
    query = memo.get(key)
    if query is None:
        query = _resolve(req)
        if key is not None:
            # Interned, the stored keys share one copy of each field
            # name and value instead of keeping every request's own.
            memo.put(tuple(
                sys.intern(part) if type(part) is str else part
                for part in key
            ), query)
    return query


def _resolve(req: Dict[str, Any]) -> Query:
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


def resolve_sweep(
    req: Dict[str, Any], memo: Optional[Memo] = None,
) -> List[Query]:
    """Validate a ``sweep`` request's sub-requests into queries (each
    through ``memo``, as :func:`resolve_query`)."""
    subs = req.get("requests")
    if not isinstance(subs, list) or not subs:
        raise ProtocolError("sweep needs a non-empty 'requests' list")
    if not all(isinstance(sub, dict) for sub in subs):
        raise ProtocolError("sweep 'requests' entries must be objects")
    return [resolve_query(sub, memo) for sub in subs]


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
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


class Encoded(Mapping):
    """An answer stored once, as its canonical JSON text.

    The scheduler encodes each evaluated payload once and memoizes this
    form only; :func:`encode_line` splices ``text`` into every response
    envelope that carries it.  Reading it as a mapping (in-process
    callers and tests) decodes the text on each access.
    """

    __slots__ = ("text",)

    def __init__(self, payload: Dict[str, Any]) -> None:
        self.text = _ENCODER.encode(payload)

    def payload(self) -> Dict[str, Any]:
        return json.loads(self.text)

    def __getitem__(self, key: str) -> Any:
        return self.payload()[key]

    def __iter__(self):
        return iter(self.payload())

    def __len__(self) -> int:
        return len(self.payload())

    def __repr__(self) -> str:
        return f"Encoded({self.text})"


def _holds_encoded(container: Any) -> bool:
    """Whether a plain dict or list holds an :class:`Encoded` answer."""
    items = container.values() if type(container) is dict else container
    for item in items:
        kind = type(item)
        if kind is Encoded or (
            (kind is dict or kind is list) and _holds_encoded(item)
        ):
            return True
    return False


def _canonical(value: Any) -> str:
    """Canonical JSON text of ``value``, splicing in the stored text of
    every :class:`Encoded` answer it holds (envelopes are plain dicts
    with string keys, and lists)."""
    kind = type(value)
    if kind is Encoded:
        return value.text
    if value is True:  # an envelope's "ok", without building an encoder
        return "true"
    if kind is dict and _holds_encoded(value):
        return "{" + ",".join(
            f"{_ENCODER.encode(key)}:{_canonical(value[key])}"
            for key in sorted(value)
        ) + "}"
    if kind is list and _holds_encoded(value):
        return "[" + ",".join(map(_canonical, value)) + "]"
    return _ENCODER.encode(value)


def encode_line(obj: Dict[str, Any]) -> bytes:
    """One canonical JSON line: sorted keys, minimal separators.

    Deterministic byte-for-byte for equal values — the foundation of
    the served-vs-direct equivalence diff.  An :class:`Encoded` answer
    inside ``obj`` contributes its stored text, which is the text of
    its payload, so the line is byte-identical to encoding the plain
    payload.
    """
    return (_canonical(obj) + "\n").encode()


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
