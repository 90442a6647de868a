"""Dataflow-based rules R5-R7 (units, concurrency, bound purity).

Built on :mod:`repro.lint.dataflow`; see ``docs/lint.md`` for the
prose contracts and :mod:`repro.lint.contracts` for the tables.

* **R5** ``unit-consistency`` — abstract units (seconds, cycles,
  bytes, elements, bytes/s, ...) are inferred from identifier
  suffixes and propagated through assignments; additions,
  comparisons, min/max unification, returns and suffixed assignment
  targets that mix two *known, different* units are flagged.
  Conversions must flow through the contract's mul/div tables
  (``s * hz -> cycles``, ``bytes / bytes_per_sec -> s``, ...), which
  is exactly the "frequency-bearing boundary call" discipline the
  scale-out tier documents.  Unknown units never flag: the rule is
  deliberately one-sided so unsuffixed scratch variables stay free.
* **R6** ``concurrency-discipline`` — the machine-readable lock
  inventory (``contracts.LOCK_INVENTORY``): guarded fields touched
  only under their lock (or in declared ``held_by`` helpers),
  ``write_only`` fields allowing benign racy reads, no ``await``
  while a thread lock is held, no blocking primitive statically
  reachable from the event loop (its coroutines and the callbacks
  handed to ``call_soon``/``call_later``/``call_soon_threadsafe``/
  ``add_done_callback``), and executor-only escape hatches neither
  called nor scheduled on the loop, nor touching loop-confined state.
* **R7** ``bound-purity`` — the admissible-bound roots
  (``contracts.BOUND_FUNCTIONS``) and their transitive static call
  graph within the linted tree must stay pure: no parameter/global
  mutation, no clock/RNG/I-O, and unresolved external calls must
  match the pure allowlist.  Methods called *on parameter objects*
  are trusted unless their name is a known mutator — the bound
  modules only call frozen-dataclass accessors this way.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from repro.lint.contracts import Contracts
from repro.lint.dataflow import (
    ModuleIndex,
    ProgramIndex,
    alias_closure,
    attr_chain,
    chain_root,
    param_names,
    walk_function,
    walk_with_locks,
)
from repro.lint.engine import (
    SEVERITY_ERROR,
    SEVERITY_WARNING,
    Finding,
    ModuleUnit,
)
from repro.lint.rules import Rule, _call_name

__all__ = [
    "UnitConsistencyRule",
    "ConcurrencyRule",
    "BoundPurityRule",
]


# ----------------------------------------------------------------------
# R5 — unit consistency
# ----------------------------------------------------------------------
_UNIFYING_CALLS = {
    "min", "max", "sum",
    "np.minimum", "np.maximum", "np.where", "np.sum", "np.clip",
    "numpy.minimum", "numpy.maximum", "numpy.where", "numpy.sum",
}
_PASSTHROUGH_CALLS = {"float", "abs", "np.abs", "np.asarray"}


class UnitConsistencyRule(Rule):
    """Mixing incompatible abstract units in a unit-checked module."""

    id = "R5"
    name = "unit-consistency"
    severity = SEVERITY_ERROR
    description = (
        "no adding/comparing/returning mixed units (s, cycles, bytes, "
        "...); conversions go through the contract mul/div tables"
    )

    def check(self, unit, contracts):
        if unit.module not in contracts.unit_modules:
            return
        for stmt in unit.tree.body:
            yield from self._check_scope_stmt(unit, stmt, {}, contracts)

    # -- unit inference ------------------------------------------------
    def _unit_of_name(self, name: str, contracts) -> Optional[str]:
        if name in contracts.unit_name_overrides:
            return contracts.unit_name_overrides[name]
        for suffix, unit in contracts.unit_suffixes:
            if name == suffix.lstrip("_") or name.endswith(suffix):
                return unit
        return None

    def _infer(self, node, env, contracts, out, unit_, fn):
        """Unit of ``node`` (or None), appending findings to ``out``."""
        infer = lambda n: self._infer(n, env, contracts, out, unit_, fn)
        if isinstance(node, ast.Name):
            if node.id in env:
                return env[node.id]
            return self._unit_of_name(node.id, contracts)
        if isinstance(node, ast.Attribute):
            return self._unit_of_name(node.attr, contracts)
        if isinstance(node, ast.Subscript):
            return infer(node.value)
        if isinstance(node, ast.UnaryOp):
            return infer(node.operand)
        if isinstance(node, ast.IfExp):
            infer(node.test)
            return self._unify(
                [node.body, node.orelse], env, contracts, out, unit_,
                fn, node, "conditional branches",
            )
        if isinstance(node, ast.Compare):
            left = infer(node.left)
            for comp in node.comparators:
                right = infer(comp)
                if left and right and left != right:
                    out.append(self.finding(
                        unit_, node,
                        f"comparison of '{left}' against '{right}' in "
                        f"'{fn}': mixed units never order meaningfully",
                    ))
                left = right if right is not None else left
            return None
        if isinstance(node, ast.BinOp):
            left = infer(node.left)
            right = infer(node.right)
            if isinstance(node.op, (ast.Add, ast.Sub)):
                if left and right and left != right:
                    op = "+" if isinstance(node.op, ast.Add) else "-"
                    out.append(self.finding(
                        unit_, node,
                        f"'{left}' {op} '{right}' in '{fn}': convert "
                        "through a boundary operation first (see the "
                        "unit contract tables)",
                    ))
                return left or right
            if isinstance(node.op, ast.Mult):
                if left and right:
                    return (
                        contracts.unit_mul_table.get((left, right))
                        or contracts.unit_mul_table.get((right, left))
                    )
                return left or right
            if isinstance(node.op, (ast.Div, ast.FloorDiv)):
                if left and right:
                    if left == right:
                        return None  # dimensionless ratio
                    return contracts.unit_div_table.get((left, right))
                if right is None:
                    return left
                return None
            if isinstance(node.op, ast.Mod):
                return left
            return None
        if isinstance(node, ast.Call):
            for arg in node.args:
                infer(arg)
            for kw in node.keywords:
                infer(kw.value)
            chain = attr_chain(node.func)
            if chain in _PASSTHROUGH_CALLS and node.args:
                return infer(node.args[0])
            if chain in _UNIFYING_CALLS:
                args = list(node.args)
                if chain.endswith("where") and args:
                    args = args[1:]  # the condition carries no unit
                return self._unify(
                    args, env, contracts, out, unit_, fn, node,
                    f"arguments of {chain}()",
                )
            if chain is not None:
                return self._unit_of_name(
                    chain.rsplit(".", 1)[-1], contracts
                )
            return None
        if isinstance(node, (ast.BoolOp,)):
            for value in node.values:
                infer(value)
        return None

    def _unify(self, nodes, env, contracts, out, unit_, fn, anchor,
               what):
        units = [
            self._infer(n, env, contracts, out, unit_, fn)
            for n in nodes
        ]
        known = [u for u in units if u is not None]
        distinct = sorted(set(known))
        if len(distinct) > 1:
            out.append(self.finding(
                unit_, anchor,
                f"{what} in '{fn}' mix units {distinct}",
            ))
        return known[0] if known else None

    # -- statement walk ------------------------------------------------
    def _check_scope_stmt(self, unit_, stmt, env, contracts):
        """Module/class-level statements: find the function defs."""
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from self._check_function(unit_, stmt, dict(env),
                                            contracts)
        elif isinstance(stmt, ast.ClassDef):
            for inner in stmt.body:
                yield from self._check_scope_stmt(unit_, inner, env,
                                                  contracts)

    def _check_function(self, unit_, fn, env, contracts):
        out: List[Finding] = []
        self._visit_body(unit_, fn.body, env, contracts, out, fn.name,
                         fn)
        yield from out

    def _visit_body(self, unit_, body, env, contracts, out, fname, fn):
        infer = lambda n: self._infer(n, env, contracts, out, unit_,
                                      fn=fname)
        for stmt in body:
            if isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                # Nested def: closure variables keep their inferred
                # units; its own params contribute via their suffixes.
                self._visit_body(unit_, stmt.body, dict(env), contracts,
                                 out, stmt.name, stmt)
            elif isinstance(stmt, ast.ClassDef):
                continue
            elif isinstance(stmt, ast.Assign):
                value_unit = infer(stmt.value)
                for target in stmt.targets:
                    self._assign(unit_, target, stmt.value, value_unit,
                                 env, contracts, out, fname)
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                value_unit = infer(stmt.value)
                self._assign(unit_, stmt.target, stmt.value, value_unit,
                             env, contracts, out, fname)
            elif isinstance(stmt, ast.AugAssign):
                value_unit = infer(stmt.value)
                if isinstance(stmt.op, (ast.Add, ast.Sub)):
                    target_unit = infer(stmt.target)
                    if (
                        target_unit and value_unit
                        and target_unit != value_unit
                    ):
                        out.append(self.finding(
                            unit_, stmt,
                            f"augmented assignment mixes "
                            f"'{target_unit}' and '{value_unit}' in "
                            f"'{fname}'",
                        ))
            elif isinstance(stmt, ast.Return) and stmt.value is not None:
                value_unit = infer(stmt.value)
                fn_unit = self._unit_of_name(fname, contracts)
                if fn_unit and value_unit and fn_unit != value_unit:
                    out.append(self.finding(
                        unit_, stmt,
                        f"'{fname}' is suffixed '{fn_unit}' but "
                        f"returns '{value_unit}'",
                    ))
            elif isinstance(stmt, ast.If):
                infer(stmt.test)
                self._visit_body(unit_, stmt.body, env, contracts, out,
                                 fname, fn)
                self._visit_body(unit_, stmt.orelse, env, contracts,
                                 out, fname, fn)
            elif isinstance(stmt, ast.While):
                infer(stmt.test)
                self._visit_body(unit_, stmt.body, env, contracts, out,
                                 fname, fn)
            elif isinstance(stmt, ast.For):
                iter_unit = infer(stmt.iter)
                if isinstance(stmt.target, ast.Name) and iter_unit:
                    env[stmt.target.id] = iter_unit
                self._visit_body(unit_, stmt.body, env, contracts, out,
                                 fname, fn)
                self._visit_body(unit_, stmt.orelse, env, contracts,
                                 out, fname, fn)
            elif isinstance(stmt, ast.With):
                for item in stmt.items:
                    infer(item.context_expr)
                self._visit_body(unit_, stmt.body, env, contracts, out,
                                 fname, fn)
            elif isinstance(stmt, ast.Try):
                self._visit_body(unit_, stmt.body, env, contracts, out,
                                 fname, fn)
                for handler in stmt.handlers:
                    self._visit_body(unit_, handler.body, env,
                                     contracts, out, fname, fn)
                self._visit_body(unit_, stmt.orelse, env, contracts,
                                 out, fname, fn)
                self._visit_body(unit_, stmt.finalbody, env, contracts,
                                 out, fname, fn)
            elif isinstance(stmt, ast.Expr):
                infer(stmt.value)
            elif isinstance(stmt, ast.Assert):
                infer(stmt.test)
            elif isinstance(stmt, ast.Raise) and stmt.exc is not None:
                infer(stmt.exc)

    def _assign(self, unit_, target, value, value_unit, env, contracts,
                out, fname):
        if isinstance(target, ast.Name):
            target_unit = self._unit_of_name(target.id, contracts)
            if target_unit and value_unit and target_unit != value_unit:
                out.append(self.finding(
                    unit_, target,
                    f"'{target.id}' is suffixed '{target_unit}' but is "
                    f"assigned '{value_unit}' in '{fname}'",
                ))
            if value_unit is not None:
                env[target.id] = value_unit
            else:
                env.pop(target.id, None)
        elif isinstance(target, (ast.Attribute, ast.Subscript)):
            target_unit = self._infer(
                target, env, contracts, out, unit_, fname
            )
            if target_unit and value_unit and target_unit != value_unit:
                out.append(self.finding(
                    unit_, target,
                    f"store target carries '{target_unit}' but the "
                    f"value is '{value_unit}' in '{fname}'",
                ))
        elif isinstance(target, (ast.Tuple, ast.List)):
            # a, b = call_with_unit_suffix(...) gives both targets the
            # call's unit (the tree's tuple-returners are homogeneous).
            for elt in target.elts:
                self._assign(unit_, elt, value, value_unit, env,
                             contracts, out, fname)


# ----------------------------------------------------------------------
# R6 — concurrency discipline
# ----------------------------------------------------------------------
class ConcurrencyRule(Rule):
    """Violations of the machine-readable lock inventory."""

    id = "R6"
    name = "concurrency-discipline"
    severity = SEVERITY_ERROR
    description = (
        "guarded fields only under their lock; no await holding a "
        "thread lock; no blocking calls reachable from the event loop"
    )

    _CONSTRUCTORS = {"__init__", "__post_init__", "__new__"}

    #: Event-loop methods that take a callback to run on the loop, and
    #: the callback's argument position.
    _CALLBACK_ARGS = {
        "call_soon": 0,
        "call_soon_threadsafe": 0,
        "call_later": 1,
        "add_done_callback": 0,
    }

    def check(self, unit, contracts):
        contract = contracts.lock_inventory.get(unit.module)
        on_loop = unit.module in contracts.event_loop_modules
        if not contract and not on_loop:
            return
        index = ModuleIndex.build(unit)
        handed = self._handed_callbacks(unit.tree) if on_loop else []
        # What runs on the event loop: every coroutine, and in an
        # event-loop module every function handed to the loop.
        roots = {qual for qual, info in index.functions.items()
                 if info.is_async}
        for _, _, name in handed:
            roots.update(index.by_name.get(name, ()))
        if contract:
            yield from self._check_guarded_fields(unit, index, contract)
            yield from self._check_await_under_lock(unit, index,
                                                    contract)
            yield from self._check_executor_only(unit, index, contract,
                                                 roots, handed)
        if on_loop:
            yield from self._check_blocking(unit, index, contracts,
                                            contract or {}, roots)

    @classmethod
    def _handed_callbacks(cls, tree) -> List[Tuple[ast.Call, str, str]]:
        """``(call, loop method, function name)`` for every named
        function handed to a loop method of :attr:`_CALLBACK_ARGS`,
        looking through ``functools.partial``.  A lambda's body is
        already part of the function that builds it."""
        handed = []
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in cls._CALLBACK_ARGS):
                continue
            position = cls._CALLBACK_ARGS[node.func.attr]
            if len(node.args) <= position:
                continue
            target = node.args[position]
            if (isinstance(target, ast.Call) and target.args
                    and (attr_chain(target.func) or "").rsplit(".", 1)[-1]
                    == "partial"):
                target = target.args[0]
            chain = attr_chain(target)
            if chain is not None:
                handed.append((node, node.func.attr,
                               chain.rsplit(".", 1)[-1]))
        return handed

    # -- guarded fields ------------------------------------------------
    def _check_guarded_fields(self, unit, index, contract):
        locks: Dict[str, str] = dict(contract.get("locks", {}))
        if not locks:
            return
        write_only = frozenset(contract.get("write_only", ()))
        held_by = frozenset(contract.get("held_by", ()))
        lock_exprs = frozenset(locks.values())
        instance_fields = {f for f in locks if "." in f}
        global_fields = {f for f in locks if "." not in f}
        for qual, info in index.functions.items():
            fn = info.node
            if qual in held_by:
                continue
            # A constructor owns the instance it builds, but not the
            # module's shared state.
            own_fields = (
                () if qual.rsplit(".", 1)[-1] in self._CONSTRUCTORS
                else instance_fields
            )
            local_names = self._local_bindings(fn)
            seen: Set[Tuple[int, int, str]] = set()
            for node, held in walk_with_locks(fn, lock_exprs):
                field = store = None
                if isinstance(node, ast.Attribute):
                    chain = attr_chain(node)
                    if chain is None:
                        continue
                    for candidate in own_fields:
                        if chain == candidate or chain.startswith(
                            candidate + "."
                        ):
                            field = candidate
                            store = not isinstance(
                                node.ctx, ast.Load
                            ) or chain != candidate
                            break
                elif isinstance(node, ast.Name):
                    if (
                        node.id in global_fields
                        and node.id not in local_names
                    ):
                        field = node.id
                        store = not isinstance(node.ctx, ast.Load)
                if field is None:
                    continue
                if locks[field] in held:
                    continue
                if field in write_only and not store:
                    continue
                key = (
                    getattr(node, "lineno", 0),
                    getattr(node, "col_offset", 0),
                    field,
                )
                if key in seen:
                    continue
                seen.add(key)
                yield self.finding(
                    unit, node,
                    f"'{field}' is guarded by '{locks[field]}' but "
                    f"'{qual}' touches it without holding the lock "
                    "(declare the helper in the contract's held_by "
                    "if the lock is held by every caller)",
                )

    @staticmethod
    def _local_bindings(fn) -> Set[str]:
        """Names bound locally in ``fn`` (params + non-global stores)."""
        declared_global: Set[str] = set()
        bound: Set[str] = set(param_names(fn))
        for node in ast.walk(fn):
            if isinstance(node, ast.Global):
                declared_global.update(node.names)
        for node in ast.walk(fn):
            if isinstance(node, ast.Name) and isinstance(
                node.ctx, (ast.Store, ast.Del)
            ):
                if node.id not in declared_global:
                    bound.add(node.id)
        return bound - declared_global

    # -- await while holding a thread lock -----------------------------
    def _check_await_under_lock(self, unit, index, contract):
        lock_exprs = frozenset(
            dict(contract.get("locks", {})).values()
        )
        if not lock_exprs:
            return
        for qual, info in index.functions.items():
            if not info.is_async:
                continue
            for node, held in walk_with_locks(info.node, lock_exprs):
                if isinstance(node, ast.Await) and held:
                    yield self.finding(
                        unit, node,
                        f"'{qual}' awaits while holding thread "
                        f"lock(s) {sorted(held)}: the loop stalls "
                        "every other coroutine until the lock frees; "
                        "use an asyncio.Lock or release first",
                    )

    # -- executor-only escape hatches ----------------------------------
    def _check_executor_only(self, unit, index, contract, roots, handed):
        executor_only = frozenset(contract.get("executor_only", ()))
        loop_confined = frozenset(contract.get("loop_confined", ()))
        if not executor_only:
            return
        simple_names = {q.rsplit(".", 1)[-1] for q in executor_only}
        for node, method, name in handed:
            if name in simple_names:
                yield self.finding(
                    unit, node,
                    f"executor-only '{name}' is handed to {method}, "
                    "which runs it on the event loop: dispatch it "
                    "through run_in_executor or executor.submit",
                )
        for qual, info in index.functions.items():
            if qual in executor_only:
                for node in walk_function(info.node):
                    chain = attr_chain(node) if isinstance(
                        node, ast.Attribute
                    ) else None
                    if chain in loop_confined:
                        yield self.finding(
                            unit, node,
                            f"executor-only '{qual}' touches "
                            f"loop-confined '{chain}': executor "
                            "threads must not share event-loop state",
                        )
                continue
            if qual not in roots:
                continue
            kind = "coroutine" if info.is_async else "loop callback"
            for node in walk_function(info.node):
                if not isinstance(node, ast.Call):
                    continue
                chain = attr_chain(node.func)
                called = None
                if chain is not None and chain.startswith("self."):
                    called = chain[len("self."):]
                elif isinstance(node.func, ast.Name):
                    called = node.func.id
                if called in simple_names:
                    yield self.finding(
                        unit, node,
                        f"{kind} '{qual}' calls executor-only "
                        f"'{called}' directly: dispatch it through "
                        "run_in_executor or executor.submit so the "
                        "loop stays free",
                    )

    # -- blocking calls reachable from coroutines ----------------------
    def _check_blocking(self, unit, index, contracts, contract, roots):
        executor_only = frozenset(contract.get("executor_only", ()))
        blocking: Dict[str, List[Tuple[ast.AST, str]]] = {}
        calls: Dict[str, Set[str]] = {}
        for qual, info in index.functions.items():
            found: List[Tuple[ast.AST, str]] = []
            called: Set[str] = set()
            for node in walk_function(info.node):
                if not isinstance(node, ast.Call):
                    continue
                chain = attr_chain(node.func)
                name = _call_name(node)
                if chain in contracts.blocking_call_chains or (
                    name in contracts.blocking_call_names
                ):
                    found.append((node, chain or name))
                if chain is not None and chain.startswith("self."):
                    called.add(chain[len("self."):].split(".")[0])
                elif name is not None:
                    called.add(name)
            blocking[qual] = found
            calls[qual] = called
        for root in sorted(roots - executor_only):
            kind = ("coroutine" if index.functions[root].is_async
                    else "callback")
            seen: Set[str] = set()
            stack = [root]
            while stack:
                qual = stack.pop()
                if qual in seen:
                    continue
                seen.add(qual)
                for node, spelled in blocking.get(qual, ()):
                    via = "" if qual == root else f" via '{qual}'"
                    yield self.finding(
                        unit, node,
                        f"blocking call '{spelled}' is reachable from "
                        f"event-loop {kind} '{root}'{via}; move it "
                        "behind run_in_executor or executor.submit "
                        "(and declare the helper executor-only in the "
                        "contract)",
                    )
                for callee in calls.get(qual, ()):
                    for target in index.by_name.get(callee, ()):
                        if target not in executor_only:
                            stack.append(target)


# ----------------------------------------------------------------------
# R7 — bound purity
# ----------------------------------------------------------------------
class BoundPurityRule(Rule):
    """Impurity in the static call closure of an admissible bound."""

    id = "R7"
    name = "bound-purity"
    severity = SEVERITY_ERROR
    program = True

    description = (
        "admissible-bound functions and their call closure stay pure: "
        "no mutation, clocks, RNG or I/O"
    )

    _CONSTRUCTORS = ("__init__", "__post_init__")

    def check(self, unit: ModuleUnit, contracts: Contracts):
        """Single-unit fallback: run the program check on one unit."""
        yield from self.check_program(
            [unit], ProgramIndex.from_units([unit]), contracts
        )

    def check_program(
        self, units, index: ProgramIndex, contracts: Contracts
    ) -> Iterator[Finding]:
        units_by_module = {u.module: u for u in units}
        visited: Set[Tuple[str, str]] = set()
        for module in sorted(contracts.bound_functions):
            mindex = index.get(module)
            unit = units_by_module.get(module)
            if mindex is None or unit is None:
                continue
            for name in sorted(contracts.bound_functions[module]):
                info = mindex.functions.get(name)
                if info is None:
                    yield Finding(
                        rule=self.id,
                        severity=SEVERITY_WARNING,
                        path=unit.path,
                        line=1,
                        col=0,
                        message=(
                            f"bound function '{name}' is listed in the "
                            f"contract but not defined in {module}; "
                            "update repro.lint.contracts.BOUND_FUNCTIONS"
                        ),
                    )
                    continue
                root = f"{module}:{name}"
                stack = [(module, name)]
                while stack:
                    mod, qual = stack.pop()
                    if (mod, qual) in visited:
                        continue
                    visited.add((mod, qual))
                    target_index = index.get(mod)
                    target_unit = units_by_module.get(mod)
                    if target_index is None or target_unit is None:
                        continue
                    fninfo = target_index.functions.get(qual)
                    if fninfo is None:
                        continue
                    yield from self._check_function(
                        target_unit, target_index, index, fninfo,
                        contracts, root, stack,
                    )

    # -- one closure member --------------------------------------------
    def _check_function(self, unit, mindex, index, info, contracts,
                        root, stack):
        fn = info.node
        qual = info.qualname
        short = qual.rsplit(".", 1)[-1]
        in_constructor = short in self._CONSTRUCTORS
        seeds = set(param_names(fn))
        if in_constructor:
            seeds.discard("self")  # a fresh object may initialize itself
        aliases = alias_closure(fn, seeds)
        mutables = aliases | (mindex.module_globals - self._locals(fn))
        where = f"'{mindex.unit.module}:{qual}' (bound closure of " \
                f"'{root}')"

        for node in walk_function(fn):
            if isinstance(node, ast.Global):
                yield self.finding(
                    unit, node,
                    f"{where} declares 'global {', '.join(node.names)}'"
                    ": bound functions must not write process state",
                )
            elif isinstance(node, (ast.Assign, ast.AnnAssign,
                                   ast.AugAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    yield from self._check_store(
                        unit, target, mutables, where,
                    )
            elif isinstance(node, ast.Call):
                yield from self._check_call(
                    unit, mindex, index, node, contracts, where,
                    mutables, stack, in_constructor,
                    self._locals(fn),
                )

    @staticmethod
    def _locals(fn) -> Set[str]:
        bound: Set[str] = set(param_names(fn))
        for node in walk_function(fn):
            if isinstance(node, ast.Name) and isinstance(
                node.ctx, (ast.Store, ast.Del)
            ):
                bound.add(node.id)
            elif isinstance(node, (ast.FunctionDef,
                                   ast.AsyncFunctionDef, ast.ClassDef)):
                bound.add(node.name)
        return bound

    def _check_store(self, unit, target, mutables, where):
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                yield from self._check_store(unit, elt, mutables, where)
            return
        if isinstance(target, (ast.Attribute, ast.Subscript)):
            root_name = chain_root(target)
            if root_name is not None and root_name in mutables:
                yield self.finding(
                    unit, target,
                    f"{where} stores into '{root_name}': mutating a "
                    "parameter or module global makes the bound "
                    "stateful and its admissibility proof void",
                )

    def _check_call(self, unit, mindex, index, node, contracts, where,
                    mutables, stack, in_constructor, local_names):
        chain = attr_chain(node.func)
        # Mutator method on a parameter alias or module global.
        if isinstance(node.func, ast.Attribute):
            method = node.func.attr
            base_root = chain_root(node.func.value)
            if (
                method in contracts.mutator_methods
                and base_root is not None
                and base_root in mutables
            ):
                yield self.finding(
                    unit, node,
                    f"{where} calls '.{method}()' on '{base_root}': "
                    "mutating a parameter or module global breaks "
                    "bound purity",
                )
                return
        if chain == "object.__setattr__":
            if not in_constructor:
                yield self.finding(
                    unit, node,
                    f"{where} uses object.__setattr__ outside "
                    "__post_init__: frozen-bypass mutation is impure",
                )
            return
        if chain is not None:
            for prefix in contracts.pure_banned_prefixes:
                if chain.startswith(prefix):
                    yield self.finding(
                        unit, node,
                        f"{where} calls '{chain}': clocks, RNGs and "
                        "process/file access make the bound "
                        "non-deterministic",
                    )
                    return
            if chain in contracts.pure_banned_names:
                yield self.finding(
                    unit, node,
                    f"{where} calls '{chain}()': banned in bound "
                    "closures",
                )
                return
            if chain in contracts.pure_call_names or any(
                chain.startswith(p) for p in contracts.pure_call_prefixes
            ):
                return
        resolved = index.resolve_call(mindex.unit.module, node.func)
        if resolved.function is not None:
            stack.append(
                (resolved.function.module, resolved.function.qualname)
            )
            return
        if resolved.klass is not None:
            if resolved.method is not None:
                return  # attribute on a class that isn't a def: skip
            for ctor in self._CONSTRUCTORS:
                stack.append(
                    (resolved.klass_module,
                     f"{resolved.klass.name}.{ctor}")
                )
            return
        if resolved.unknown_repro:
            return  # target module not part of this run: degrade
        external = resolved.external
        if external is None:
            return  # computed callee (lambda var, subscript): local
        if external != chain:
            # Import resolution rewrote the spelling (``from time
            # import sleep`` -> ``time.sleep``): vet the *resolved*
            # dotted name against the same allow/deny lists.
            for prefix in contracts.pure_banned_prefixes:
                if external.startswith(prefix):
                    yield self.finding(
                        unit, node,
                        f"{where} calls '{external}': clocks, RNGs "
                        "and process/file access make the bound "
                        "non-deterministic",
                    )
                    return
            if external in contracts.pure_call_names or any(
                external.startswith(p)
                for p in contracts.pure_call_prefixes
            ):
                return
            yield self.finding(
                unit, node,
                f"{where} calls '{external}()', which is neither "
                "resolvable in the linted tree nor in the pure-call "
                "allowlist; vet it and extend "
                "repro.lint.contracts.PURE_CALL_NAMES",
            )
            return
        root_name = external.split(".")[0]
        if root_name in local_names:
            return  # method/handle on a local object
        if "." in external:
            return  # accessor method on a non-seed object
        yield self.finding(
            unit, node,
            f"{where} calls '{external}()', which is neither "
            "resolvable in the linted tree nor in the pure-call "
            "allowlist; vet it and extend "
            "repro.lint.contracts.PURE_CALL_NAMES",
        )
