"""Declarative contract tables for the invariant linter.

The cost model's correctness rests on contracts that live in prose —
docstrings in :mod:`repro.core.perf` declaring functions "shape-
polymorphic", the batch backend's bit-for-bit equality argument, the
cache's source-fingerprint invalidation.  This module turns those
contracts into data the lint rules can enforce:

* ``CEIL_QUANTIZED`` — formula cores whose quantization is declared
  *ceil* (R1): truncating constructs (``int()``, bare ``//``,
  ``math.floor``) silently change modeled cycle counts.
* ``POLYMORPHIC_CORES`` / ``SCALAR_LUT_HELPERS`` /
  ``NON_FORMULA_IMPORTS`` — the shape-polymorphism contract (R2)
  between :mod:`repro.core.batch` and the formula modules it imports
  from.  Every batch import must be in one of the three sets;
  polymorphic cores are additionally checked for shape-breaking
  constructs.
* ``SCALAR_FLAG_PARAMS`` — parameter names the polymorphism check may
  assume are plain Python scalars (per-operator flags and config
  objects), as documented in the core docstrings.
* ``REQUIRED_FINGERPRINT_MODULES`` — the module set whose sources the
  disk cache *must* fingerprint (R3); the same set is held to the
  determinism rules, since a nondeterministic fingerprinted module
  makes identical keys map to differing cached payloads.
* ``CACHE_KEY_CLASSES`` — frozen dataclasses embedded in the engine's
  evaluation key (R4): they must stay frozen, equality-comparable and
  free of unhashable fields, or LRU/disk keys silently stop matching.

The derived halves of the contract — which names ``batch.py`` actually
imports, which modules ``cache.py`` actually fingerprints — are read
from the linted tree itself by :meth:`Contracts.discover`, so the
linter tracks drift instead of a stale copy of it.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, Mapping, Optional, Tuple

__all__ = [
    "CEIL_QUANTIZED",
    "POLYMORPHIC_CORES",
    "SCALAR_LUT_HELPERS",
    "NON_FORMULA_IMPORTS",
    "SCALAR_FLAG_PARAMS",
    "REQUIRED_FINGERPRINT_MODULES",
    "FINGERPRINT_EXCLUDED_PREFIXES",
    "CACHE_KEY_CLASSES",
    "UNIT_SUFFIXES",
    "UNIT_MODULES",
    "UNIT_MUL_TABLE",
    "UNIT_DIV_TABLE",
    "UNIT_NAME_OVERRIDES",
    "LOCK_INVENTORY",
    "EVENT_LOOP_MODULES",
    "BLOCKING_CALL_CHAINS",
    "BLOCKING_CALL_NAMES",
    "BOUND_FUNCTIONS",
    "PURE_CALL_PREFIXES",
    "PURE_CALL_NAMES",
    "PURE_BANNED_PREFIXES",
    "PURE_BANNED_NAMES",
    "MUTATOR_METHODS",
    "Contracts",
    "dump_contracts",
]


def _table(mapping: Dict[str, set]) -> Mapping[str, FrozenSet[str]]:
    return {module: frozenset(names) for module, names in mapping.items()}


#: R1 — functions whose docstrings declare ceil quantization.  A bare
#: ``//``, ``int()`` or ``math.floor`` here is a truncation bug unless
#: it spells the ``-(-a // b)`` ceiling idiom.
CEIL_QUANTIZED: Mapping[str, FrozenSet[str]] = _table({
    "repro.core.perf": {
        "_strict_axis_eff",
        "_mapping_efficiency",
        "_compute_cycles",
        "_compute_cycles_from_eff",
        "_psum_out_passes",
        "_psum_passes_from_ko",
    },
    "repro.core.tiling": {"ceil_div", "reuse_passes"},
    "repro.core.footprint": {
        "fused_la_elements",
        "operator_l3_elements",
    },
})

#: R2 — formula cores the batch backend shares with the scalar model.
#: These must stay shape-polymorphic: no branching on formula values,
#: no shape-breaking builtins on them.
POLYMORPHIC_CORES: Mapping[str, FrozenSet[str]] = _table({
    "repro.core.perf": {
        "_allocate_staging",
        "_blend_passes",
        "_compute_cycles_from_eff",
        "_phase_time",
        "_psum_passes_from_ko",
        "_strict_axis_eff",
        "_warmup_cycles",
        "partition_scratchpad",
        "sg_stream_words",
    },
    "repro.core.tiling": {"ceil_div"},
    "repro.core.footprint": {
        "fused_la_elements",
        "operator_l3_elements",
    },
})

#: R2 — helpers the batch backend may import even though they are
#: scalar-only: it calls them once per *unique* key through its LUT
#: gather (``_tile_luts``), never on arrays.  ``tile_plan`` is the
#: memoized tile record (tile and reuse passes) every tile reader shares.
SCALAR_LUT_HELPERS: Mapping[str, FrozenSet[str]] = _table({
    "repro.core.tiling": {"tile_plan"},
})

#: R2 — non-formula names (config and result classes, constants)
#: batch.py may import from the formula modules without a polymorphism
#: obligation.
NON_FORMULA_IMPORTS: FrozenSet[str] = frozenset({
    "OperatorCost",
    "PerfOptions",
    "ScopeCost",
})

#: R2 — parameters the cores' docstrings pin as plain Python scalars:
#: per-operator flags and the config/hardware objects.  Everything
#: else entering a polymorphic core may be an ndarray.
SCALAR_FLAG_PARAMS: FrozenSet[str] = frozenset({
    "self",
    "accel",
    "options",
    "extra_pass_only",
    "double_buffered",
})

#: R3 — modules whose source must be covered by
#: ``repro.core.cache._FINGERPRINT_MODULES``: everything a cached
#: (pickled) ScopeCost payload can depend on, including
#: ``repro.energy.model`` because the payload embeds ActivityCounts
#: instances defined there, plus ``repro.core.dse`` and
#: ``repro.core.candidates`` because the engine's repeat-search memos
#: cache *enumeration indices* — an index is only meaningful while the
#: family enumeration/expansion order that produced it is unchanged.
#: The energy *tables* stay out on purpose: callers re-derive joules
#: from the cached counts.  The scale-out tier (``repro.arch.fabric``,
#: ``repro.core.scaleout``) is required for the same reason as
#: dse/candidates: the disk cache stores ``scaleout-memo`` winners
#: whose identity embeds the collective cost formulas and the
#: partition enumeration/sharding model.
REQUIRED_FINGERPRINT_MODULES: FrozenSet[str] = frozenset({
    "repro.core.perf",
    "repro.core.footprint",
    "repro.core.tiling",
    "repro.core.batch",
    "repro.core.dataflow",
    "repro.core.dse",
    "repro.core.candidates",
    "repro.core.scaleout",
    "repro.energy.model",
    "repro.ops.attention",
    "repro.ops.operator",
    "repro.ops.tensor",
    "repro.arch.accelerator",
    "repro.arch.pe_array",
    "repro.arch.memory",
    "repro.arch.noc",
    "repro.arch.sfu",
    "repro.arch.cluster",
    "repro.arch.fabric",
})

#: R3 — module prefixes that must *never* appear in the fingerprint
#: list: tooling layers whose code never enters a cached payload.
#: Fingerprinting them would make every tracing or linter edit
#: spuriously invalidate the whole disk cache; the observability hooks
#: are designed to stay outside the fingerprint (and outside cached
#: payloads) for exactly this reason.
FINGERPRINT_EXCLUDED_PREFIXES: FrozenSet[str] = frozenset({
    "repro.obs",
    "repro.lint",
    # The serving layer is a pure transport over the engine: its
    # responses are byte-identical to direct calls (the
    # serving-equivalence CI job), so a scheduler or protocol edit
    # must never invalidate the disk cache.
    "repro.serve",
    # The sim tier (engine replay, continuous batching) consumes
    # TilePasses derived from already-fingerprinted formulas and never
    # contributes to a cached payload; its batching loop is also
    # seeded-random by design (``synthetic_trace``), which the
    # determinism rule would otherwise flag.
    "repro.sim",
})

#: R4 — frozen dataclasses embedded in the engine's evaluation key
#: (``(cfg, accelerator_fingerprint, dataflow, options, scope)``).
CACHE_KEY_CLASSES: Mapping[str, FrozenSet[str]] = _table({
    "repro.ops.attention": {"AttentionConfig"},
    "repro.core.dataflow": {"Dataflow", "StagingPolicy"},
    "repro.core.perf": {"PerfOptions"},
    "repro.arch.pe_array": {"PEArray"},
    "repro.arch.memory": {"ScratchpadSpec", "OffChipSpec"},
    "repro.arch.noc": {"NoCSpec"},
    "repro.arch.sfu": {"SFUSpec"},
})

# ----------------------------------------------------------------------
# R5 — unit consistency
# ----------------------------------------------------------------------
#: Identifier-suffix -> abstract unit, longest suffix matched first.
#: ``total_s + fabric_cycles`` is a bug the type system can't see; the
#: naming convention *is* the unit annotation, so the linter reads it.
UNIT_SUFFIXES: Tuple[Tuple[str, str], ...] = (
    ("_bytes_per_sec", "bytes/s"),
    ("bytes_per_sec", "bytes/s"),
    ("_bytes_per_cycle", "bytes/cycle"),
    ("bytes_per_cycle", "bytes/cycle"),
    ("_words_per_cycle", "words/cycle"),
    ("words_per_cycle", "words/cycle"),
    ("_bytes_per_element", "bytes/element"),
    ("bytes_per_element", "bytes/element"),
    ("_cycles", "cycles"),
    ("_bytes", "bytes"),
    ("_elements", "elements"),
    ("_words", "words"),
    ("_hz", "hz"),
    ("_joules", "joules"),
    ("_j", "joules"),
    ("_s", "s"),
)

#: Modules R5 runs over: everywhere seconds (fabric), cycles (perf,
#: sim), bytes and elements coexist with only the suffix convention
#: keeping them apart.
UNIT_MODULES: FrozenSet[str] = frozenset({
    "repro.core.perf",
    "repro.core.scaleout",
    "repro.arch.fabric",
    "repro.arch.noc",
    "repro.energy.model",
    "repro.energy.tables",
    "repro.sim.engine",
    "repro.sim.schedule",
    "repro.sim.trace",
    # The decode tier: KV-cache traffic splits (bytes vs elements) and
    # the serving loop's cycle accounting (TTFT/TPOT) live or die by
    # the suffix convention.
    "repro.ops.decode",
    "repro.sim.batching",
})

#: Legal unit-producing multiplications (commutative; the rule checks
#: both orders).  These are the *boundary conversions*: seconds become
#: cycles only through a frequency, elements become bytes only through
#: a bytes-per-element factor.
UNIT_MUL_TABLE: Mapping[Tuple[str, str], str] = {
    ("s", "hz"): "cycles",
    ("bytes/s", "s"): "bytes",
    ("bytes/cycle", "cycles"): "bytes",
    ("words/cycle", "cycles"): "words",
    ("elements", "bytes/element"): "bytes",
    ("words", "bytes/element"): "bytes",
}

#: Legal unit-producing divisions, ``(numerator, denominator) ->
#: quotient``.  Any same-unit division is additionally dimensionless.
UNIT_DIV_TABLE: Mapping[Tuple[str, str], str] = {
    ("bytes", "bytes/s"): "s",
    ("bytes", "bytes/cycle"): "cycles",
    ("words", "words/cycle"): "cycles",
    ("cycles", "hz"): "s",
    ("bytes", "s"): "bytes/s",
    ("bytes", "cycles"): "bytes/cycle",
    ("words", "cycles"): "words/cycle",
    ("bytes/s", "hz"): "bytes/cycle",
    ("bytes", "bytes/element"): "elements",
    ("bytes", "elements"): "bytes/element",
}

#: Identifier names whose suffix lies: map to the real unit, or to
#: ``None`` to force "unknown" (opting a name out of inference).
UNIT_NAME_OVERRIDES: Mapping[str, Optional[str]] = {}

# ----------------------------------------------------------------------
# R6 — concurrency discipline
# ----------------------------------------------------------------------
#: The machine-readable half of docs/search_engine.md's "Concurrency
#: contract".  Per module: ``locks`` maps a guarded field expression
#: (``"self.stats"`` for instance state, a bare name for module
#: globals) to the lock expression that must be held; ``write_only``
#: lists guarded fields whose *reads* are declared benignly racy;
#: ``held_by`` lists function qualnames documented to run with the
#: lock already held (internal helpers only ever called under it);
#: ``loop_confined`` lists fields owned by the event loop (never
#: locked, never touched off-loop); ``executor_only`` lists functions
#: that run on executor threads and so must never touch loop-confined
#: state (nor be called directly from a coroutine).
LOCK_INVENTORY: Mapping[str, Mapping[str, object]] = {
    "repro.core.cache": {
        "locks": {
            "self.stats": "self._lock",
            "self._conn": "self._lock",
            "self._puts": "self._lock",
            "self._touches": "self._lock",
            "self._depth": "self._lock",
            "_instances": "_INSTANCES_LOCK",
            "_live": "_LIVE_LOCK",
            "_default_dir": "_DEFAULT_DIR_LOCK",
        },
        "write_only": (),
        "held_by": (
            "PersistentCache._connection",
            "PersistentCache._attempt",
            "PersistentCache._observed",
            "PersistentCache._get",
            "PersistentCache._put",
            "PersistentCache._evict",
            "PersistentCache._disconnect",
            "PersistentCache._flush_due",
            "PersistentCache._flush_pending",
            "PersistentCache._flush",
        ),
        "loop_confined": (),
        "executor_only": (),
    },
    "repro.core.scaleout": {
        "locks": {
            "_totals": "_TOTALS_LOCK",
        },
        "write_only": (),
        "held_by": (),
        "loop_confined": (),
        "executor_only": (),
    },
    "repro.obs.metrics": {
        "locks": {
            "self.value": "_LOCK",
            "self.count": "_LOCK",
            "self.total": "_LOCK",
            "self.min": "_LOCK",
            "self.max": "_LOCK",
            "self._instruments": "_LOCK",
        },
        "write_only": (),
        "held_by": (
            "Counter.as_dict",
            "Counter.merge_dict",
            "Gauge.as_dict",
            "Gauge.merge_dict",
            "Histogram.as_dict",
            "Histogram.merge_dict",
            "MetricsRegistry._get",
        ),
        "loop_confined": (),
        "executor_only": (),
    },
    "repro.serve.scheduler": {
        "locks": {},
        "write_only": (),
        "held_by": (),
        "loop_confined": (
            "self._queue",
            "self._memo",
            "self.queries",
            "self._stats",
            "self._draining",
            "self._flush_handle",
            "self._outstanding",
            "self._idle",
        ),
        "executor_only": ("_answer_group",),
    },
    "repro.serve.server": {
        "locks": {},
        "write_only": (),
        "held_by": (),
        "loop_confined": (
            "self._connections",
            "self._draining",
            "self._done",
            "self.owed",
            "self._settled",
        ),
        "executor_only": ("_experiment_payload",),
    },
}

#: Modules whose coroutines and callbacks drive the serving event
#: loop: no blocking primitive may be statically reachable from an
#: ``async def`` here, nor from a function handed to ``call_soon``,
#: ``call_later``, ``call_soon_threadsafe`` or ``add_done_callback``,
#: except through a declared executor-only escape hatch.
EVENT_LOOP_MODULES: FrozenSet[str] = frozenset({
    "repro.serve.server",
    "repro.serve.scheduler",
})

#: Blocking primitives by dotted chain / bare name.  ``time.sleep`` on
#: the loop stalls every connection; sync file I/O and subprocesses
#: are the same failure dressed differently.
BLOCKING_CALL_CHAINS: FrozenSet[str] = frozenset({
    "time.sleep",
    "subprocess.run",
    "subprocess.call",
    "subprocess.check_call",
    "subprocess.check_output",
    "subprocess.Popen",
    "os.system",
    "os.popen",
    "os.waitpid",
    "socket.create_connection",
    "shutil.rmtree",
    "shutil.copytree",
})

BLOCKING_CALL_NAMES: FrozenSet[str] = frozenset({"open", "input"})

# ----------------------------------------------------------------------
# R7 — bound purity
# ----------------------------------------------------------------------
#: The admissible-bound roots: branch-and-bound correctness (the
#: hypothesis suites' admissibility sweeps) assumes these functions
#: and everything they transitively call are pure — an impure edit
#: silently turns "provably no winner pruned" into "maybe".
BOUND_FUNCTIONS: Mapping[str, FrozenSet[str]] = _table({
    "repro.core.candidates": {"family_lower_bound"},
    "repro.core.engine": {"bound_table"},
    "repro.arch.fabric": {"collective_floor_s"},
    "repro.core.scaleout": {"evaluate_partition_grid"},
})

#: Call targets allowed inside a bound closure without resolution:
#: pure math and array arithmetic.
PURE_CALL_PREFIXES: Tuple[str, ...] = ("math.", "np.", "numpy.")

#: Allowlisted bare callables: pure builtins, constructors of plain
#: containers, exception types (raising is not a side effect the
#: bound contract cares about), and dataclasses.replace.
PURE_CALL_NAMES: FrozenSet[str] = frozenset({
    "abs", "all", "any", "bool", "dict", "divmod", "enumerate",
    "filter", "float", "frozenset", "getattr", "hasattr", "int",
    "isinstance", "issubclass", "iter", "len", "list", "map", "max",
    "min", "next", "pow", "range", "repr", "reversed", "round", "set",
    "sorted", "str", "sum", "tuple", "zip",
    "replace", "dataclasses.replace", "asdict", "field",
    "ValueError", "TypeError", "KeyError", "IndexError",
    "RuntimeError", "AssertionError", "NotImplementedError",
    "ZeroDivisionError", "OverflowError", "ArithmeticError",
})

#: Dotted-chain prefixes that are impure on their face: clocks, RNGs,
#: process/filesystem access.  A bound that consults any of these is
#: no longer a function of its arguments.
PURE_BANNED_PREFIXES: Tuple[str, ...] = (
    "time.", "random.", "os.", "subprocess.", "secrets.", "uuid.",
    "socket.", "shutil.", "tempfile.", "sys.",
)

PURE_BANNED_NAMES: FrozenSet[str] = frozenset({
    "open", "print", "input", "exec", "eval", "globals", "vars",
    "setattr", "delattr", "hash",
})

#: Method names that mutate their receiver: calling one on a
#: parameter alias (or module global) inside a bound closure is a
#: purity violation even though the call itself resolves nowhere.
MUTATOR_METHODS: FrozenSet[str] = frozenset({
    "append", "extend", "insert", "remove", "pop", "popitem", "clear",
    "add", "discard", "update", "setdefault", "sort", "reverse",
    "write", "writelines", "fill", "sort_values", "put",
})

_BATCH_MODULE = "repro.core.batch"
_CACHE_MODULE = "repro.core.cache"
_FORMULA_MODULES = frozenset(POLYMORPHIC_CORES)


@dataclass(frozen=True)
class Contracts:
    """One resolved contract set the rules run against.

    The static tables above are the defaults; the *derived* fields
    (``batch_formula_imports``, ``fingerprinted_modules``) are filled
    in by :meth:`discover` from the tree being linted, or supplied
    explicitly by tests building synthetic fixtures.
    """

    ceil_quantized: Mapping[str, FrozenSet[str]] = field(
        default_factory=lambda: CEIL_QUANTIZED
    )
    polymorphic: Mapping[str, FrozenSet[str]] = field(
        default_factory=lambda: POLYMORPHIC_CORES
    )
    scalar_lut: Mapping[str, FrozenSet[str]] = field(
        default_factory=lambda: SCALAR_LUT_HELPERS
    )
    non_formula_imports: FrozenSet[str] = NON_FORMULA_IMPORTS
    scalar_flag_params: FrozenSet[str] = SCALAR_FLAG_PARAMS
    required_fingerprint_modules: FrozenSet[str] = (
        REQUIRED_FINGERPRINT_MODULES
    )
    fingerprint_excluded_prefixes: FrozenSet[str] = (
        FINGERPRINT_EXCLUDED_PREFIXES
    )
    cache_key_classes: Mapping[str, FrozenSet[str]] = field(
        default_factory=lambda: CACHE_KEY_CLASSES
    )
    batch_module: str = _BATCH_MODULE
    cache_module: str = _CACHE_MODULE
    formula_modules: FrozenSet[str] = _FORMULA_MODULES
    # -- R5: unit consistency ------------------------------------------
    unit_suffixes: Tuple[Tuple[str, str], ...] = UNIT_SUFFIXES
    unit_modules: FrozenSet[str] = UNIT_MODULES
    unit_mul_table: Mapping[Tuple[str, str], str] = field(
        default_factory=lambda: UNIT_MUL_TABLE
    )
    unit_div_table: Mapping[Tuple[str, str], str] = field(
        default_factory=lambda: UNIT_DIV_TABLE
    )
    unit_name_overrides: Mapping[str, Optional[str]] = field(
        default_factory=lambda: UNIT_NAME_OVERRIDES
    )
    # -- R6: concurrency discipline ------------------------------------
    lock_inventory: Mapping[str, Mapping[str, object]] = field(
        default_factory=lambda: LOCK_INVENTORY
    )
    event_loop_modules: FrozenSet[str] = EVENT_LOOP_MODULES
    blocking_call_chains: FrozenSet[str] = BLOCKING_CALL_CHAINS
    blocking_call_names: FrozenSet[str] = BLOCKING_CALL_NAMES
    # -- R7: bound purity ----------------------------------------------
    bound_functions: Mapping[str, FrozenSet[str]] = field(
        default_factory=lambda: BOUND_FUNCTIONS
    )
    pure_call_prefixes: Tuple[str, ...] = PURE_CALL_PREFIXES
    pure_call_names: FrozenSet[str] = PURE_CALL_NAMES
    pure_banned_prefixes: Tuple[str, ...] = PURE_BANNED_PREFIXES
    pure_banned_names: FrozenSet[str] = PURE_BANNED_NAMES
    mutator_methods: FrozenSet[str] = MUTATOR_METHODS
    #: Modules the determinism rule (R3) constrains.  Defaults to the
    #: required fingerprint set; :meth:`discover` widens it with
    #: whatever ``cache.py`` actually lists, so an *extra* fingerprinted
    #: module is also held to determinism.
    fingerprinted_modules: Optional[FrozenSet[str]] = None

    def determinism_modules(self) -> FrozenSet[str]:
        extra = self.fingerprinted_modules or frozenset()
        return self.required_fingerprint_modules | extra

    @classmethod
    def discover(cls, src_root: Path) -> "Contracts":
        """Resolve the derived contract halves from a source tree.

        ``src_root`` is the directory *containing* the ``repro``
        package.  Missing files degrade gracefully (the corresponding
        checks simply see the static defaults) so the linter can run
        over partial trees and fixtures.
        """
        fingerprinted = parse_fingerprint_modules(
            src_root / Path(*_CACHE_MODULE.split(".")).with_suffix(".py")
        )
        return cls(
            fingerprinted_modules=(
                frozenset(fingerprinted) if fingerprinted is not None
                else None
            ),
        )


def _jsonable(value):
    """Recursively convert contract tables to a stable JSON shape.

    Frozensets become sorted lists; mappings sort by (stringified)
    key; tuple keys join with ``" * "`` so the mul/div tables read as
    ``"bytes * hz"``.
    """
    if isinstance(value, (frozenset, set)):
        return sorted(value)
    if isinstance(value, Mapping):
        out = {}
        for key in sorted(value, key=str):
            name = " * ".join(key) if isinstance(key, tuple) else key
            out[name] = _jsonable(value[key])
        return out
    if isinstance(value, tuple):
        return [_jsonable(v) for v in value]
    return value


def dump_contracts() -> str:
    """The static contract tables as a stable JSON document.

    This is the ``--dump-contracts`` payload CI diffs against
    ``docs/contracts.json``: only the *static* halves are included
    (the discovered halves depend on the tree being linted), so the
    output is byte-stable for a given source of this module.
    """
    import json

    payload = {
        "version": 2,
        "tool": "repro.lint",
        "R1": {"ceil_quantized": _jsonable(CEIL_QUANTIZED)},
        "R2": {
            "polymorphic_cores": _jsonable(POLYMORPHIC_CORES),
            "scalar_lut_helpers": _jsonable(SCALAR_LUT_HELPERS),
            "non_formula_imports": _jsonable(NON_FORMULA_IMPORTS),
            "scalar_flag_params": _jsonable(SCALAR_FLAG_PARAMS),
        },
        "R3": {
            "required_fingerprint_modules": _jsonable(
                REQUIRED_FINGERPRINT_MODULES
            ),
            "fingerprint_excluded_prefixes": _jsonable(
                FINGERPRINT_EXCLUDED_PREFIXES
            ),
        },
        "R4": {"cache_key_classes": _jsonable(CACHE_KEY_CLASSES)},
        "R5": {
            "unit_suffixes": _jsonable(dict(UNIT_SUFFIXES)),
            "unit_modules": _jsonable(UNIT_MODULES),
            "mul_table": _jsonable(UNIT_MUL_TABLE),
            "div_table": _jsonable(UNIT_DIV_TABLE),
            "name_overrides": _jsonable(UNIT_NAME_OVERRIDES),
        },
        "R6": {
            "lock_inventory": _jsonable(LOCK_INVENTORY),
            "event_loop_modules": _jsonable(EVENT_LOOP_MODULES),
            "blocking_call_chains": _jsonable(BLOCKING_CALL_CHAINS),
            "blocking_call_names": _jsonable(BLOCKING_CALL_NAMES),
        },
        "R7": {
            "bound_functions": _jsonable(BOUND_FUNCTIONS),
            "pure_call_prefixes": _jsonable(PURE_CALL_PREFIXES),
            "pure_call_names": _jsonable(PURE_CALL_NAMES),
            "banned_prefixes": _jsonable(PURE_BANNED_PREFIXES),
            "banned_names": _jsonable(PURE_BANNED_NAMES),
            "mutator_methods": _jsonable(MUTATOR_METHODS),
        },
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def parse_fingerprint_modules(cache_path: Path) -> Optional[Tuple[str, ...]]:
    """Statically read ``_FINGERPRINT_MODULES`` from ``cache.py``.

    Returns the tuple in source order, or ``None`` when the file or
    the assignment is absent (fixture trees).
    """
    try:
        tree = ast.parse(cache_path.read_text())
    except (OSError, SyntaxError):
        return None
    for node in tree.body:
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
        for target in targets:
            if (
                isinstance(target, ast.Name)
                and target.id == "_FINGERPRINT_MODULES"
                and isinstance(node.value, (ast.Tuple, ast.List))
            ):
                names = []
                for elt in node.value.elts:
                    if isinstance(elt, ast.Constant) and isinstance(
                        elt.value, str
                    ):
                        names.append(elt.value)
                return tuple(names)
    return None
