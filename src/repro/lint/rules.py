"""AST rules enforcing the cost model's correctness contracts.

Four rules, one per contract (see :mod:`repro.lint.contracts` for the
tables and ``docs/lint.md`` for the prose):

* **R1** ``ceil-quantization`` — no truncating arithmetic in formula
  cores declared ceil-quantized.
* **R2** ``shape-polymorphism`` — the batch backend's imports from the
  formula modules must be contract-covered, and the polymorphic cores
  must avoid constructs that break on ndarrays.
* **R3** ``determinism`` — no nondeterminism in the modules the disk
  cache fingerprints, and the fingerprint must cover the required set.
* **R4** ``config-immutability`` — cache-key dataclasses stay frozen,
  equality-comparable and hashable; no frozen-bypass mutation.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.lint.contracts import Contracts
from repro.lint.dataflow import attr_chain
from repro.lint.engine import (
    SEVERITY_ERROR,
    SEVERITY_WARNING,
    Finding,
    ModuleUnit,
)

__all__ = [
    "Rule",
    "CeilQuantizationRule",
    "ShapePolymorphismRule",
    "DeterminismRule",
    "ConfigImmutabilityRule",
    "default_rules",
]


class Rule:
    """Base class: rules yield :class:`Finding` objects from one unit."""

    id: str = "R0"
    name: str = "base"
    severity: str = SEVERITY_ERROR
    description: str = ""

    def check(
        self, unit: ModuleUnit, contracts: Contracts
    ) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self,
        unit: ModuleUnit,
        node: ast.AST,
        message: str,
        severity: Optional[str] = None,
    ) -> Finding:
        return Finding(
            rule=self.id,
            severity=severity or self.severity,
            path=unit.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


# ----------------------------------------------------------------------
# shared AST helpers
# ----------------------------------------------------------------------
def iter_functions(
    tree: ast.AST,
) -> Iterator[Tuple[str, ast.FunctionDef]]:
    """Yield ``(qualname, def)`` for every function in the module."""
    stack: List[Tuple[str, ast.AST]] = [("", tree)]
    while stack:
        prefix, node = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                qual = f"{prefix}{child.name}"
                yield qual, child
                stack.append((f"{qual}.", child))
            elif isinstance(child, ast.ClassDef):
                stack.append((f"{prefix}{child.name}.", child))


def names_in(node: ast.AST) -> Set[str]:
    """All plain ``Name`` identifiers loaded anywhere inside ``node``."""
    return {
        n.id for n in ast.walk(node) if isinstance(n, ast.Name)
    }


def _call_name(node: ast.Call) -> Optional[str]:
    if isinstance(node.func, ast.Name):
        return node.func.id
    return None


def _terminates(body: Sequence[ast.stmt]) -> bool:
    return bool(body) and isinstance(
        body[-1], (ast.Return, ast.Raise, ast.Continue, ast.Break)
    )


def walk_scope(scope: ast.AST) -> Iterator[ast.AST]:
    """Like ``ast.walk`` but without descending into nested function,
    class or lambda scopes (the scope node itself is walked)."""
    stack: List[ast.AST] = [scope]
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child,
                (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
                 ast.Lambda),
            ):
                continue
            stack.append(child)


# ----------------------------------------------------------------------
# R1 — ceil quantization
# ----------------------------------------------------------------------
class CeilQuantizationRule(Rule):
    """Truncating arithmetic in a ceil-quantized formula core.

    The batch backend's bit-for-bit equality proof and the cost model's
    quantization-loss accounting both assume *ceiling* division at tile
    boundaries (``ceil_div``).  A bare ``//``, ``int()``, ``round()``
    or ``math.floor``/``math.trunc`` silently switches to truncation.
    The ``-(-a // b)`` ceiling idiom (the body of ``ceil_div`` itself)
    is recognized and allowed.
    """

    id = "R1"
    name = "ceil-quantization"
    severity = SEVERITY_ERROR
    description = (
        "no truncating int()/'//'/math.floor in ceil-quantized formula "
        "cores"
    )

    _BANNED_BUILTINS = {"int", "round"}
    _BANNED_MATH = {"math.floor", "math.trunc"}

    def check(self, unit, contracts):
        wanted = contracts.ceil_quantized.get(unit.module)
        if not wanted:
            return
        found: Set[str] = set()
        for qual, fn in iter_functions(unit.tree):
            if fn.name not in wanted:
                continue
            found.add(fn.name)
            yield from self._check_function(unit, fn)
        for missing in sorted(wanted - found):
            yield Finding(
                rule=self.id,
                severity=SEVERITY_WARNING,
                path=unit.path,
                line=1,
                col=0,
                message=(
                    f"ceil-quantized function '{missing}' is listed in "
                    f"the contract but not defined in {unit.module}; "
                    "update repro.lint.contracts.CEIL_QUANTIZED"
                ),
            )

    def _check_function(self, unit, fn):
        ceil_idiom: Set[int] = set()
        for node in ast.walk(fn):
            # -(-a // b): a USub whose operand is a floordiv with a
            # USub left-hand side is the sanctioned ceiling spelling.
            if (
                isinstance(node, ast.UnaryOp)
                and isinstance(node.op, ast.USub)
                and isinstance(node.operand, ast.BinOp)
                and isinstance(node.operand.op, ast.FloorDiv)
                and isinstance(node.operand.left, ast.UnaryOp)
                and isinstance(node.operand.left.op, ast.USub)
            ):
                ceil_idiom.add(id(node.operand))
        for node in ast.walk(fn):
            if (
                isinstance(node, ast.BinOp)
                and isinstance(node.op, ast.FloorDiv)
                and id(node) not in ceil_idiom
            ):
                yield self.finding(
                    unit, node,
                    f"floor division in ceil-quantized core "
                    f"'{fn.name}' truncates; use ceil_div (or the "
                    f"-(-a // b) idiom)",
                )
            elif isinstance(node, ast.AugAssign) and isinstance(
                node.op, ast.FloorDiv
            ):
                yield self.finding(
                    unit, node,
                    f"'//=' in ceil-quantized core '{fn.name}' "
                    "truncates; use ceil_div",
                )
            elif isinstance(node, ast.Call):
                called = _call_name(node)
                chain = attr_chain(node.func)
                if called in self._BANNED_BUILTINS:
                    yield self.finding(
                        unit, node,
                        f"'{called}()' in ceil-quantized core "
                        f"'{fn.name}' truncates/rounds; quantization "
                        "here is declared ceil",
                    )
                elif chain in self._BANNED_MATH:
                    yield self.finding(
                        unit, node,
                        f"'{chain}()' in ceil-quantized core "
                        f"'{fn.name}' truncates; quantization here is "
                        "declared ceil",
                    )


# ----------------------------------------------------------------------
# R2 — shape polymorphism (scalar <-> batch parity)
# ----------------------------------------------------------------------
class ShapePolymorphismRule(Rule):
    """Shape-breaking constructs in the scalar<->batch shared cores.

    Two checks.  (1) Every name the batch backend imports from the
    formula modules must be contract-covered — polymorphic core,
    scalar LUT helper, or declared non-formula — so a new shared
    helper cannot bypass review.  (2) Inside each polymorphic core,
    array-capable values (any parameter not pinned scalar by the
    contract, and anything derived from one) must not flow into plain
    ``if``/``while`` tests, conditional expressions, boolean operators
    or shape-breaking builtins (``min``/``max``/``int``/``float``/
    ``bool``/``round``/``math.*``): those run fine on scalars, raise
    or — worse — silently collapse shapes on ndarrays.  The
    ``_any_array`` dispatch idiom is understood: a leading
    ``if _any_array(...): ... return`` leaves the rest of the function
    scalar-only, where plain branching is legitimate.  ``isinstance``
    guards are likewise allowed and prove their bodies scalar.
    """

    id = "R2"
    name = "shape-polymorphism"
    severity = SEVERITY_ERROR
    description = (
        "batch-shared formula cores must stay shape-polymorphic"
    )

    _BREAKING_BUILTINS = {
        "min", "max", "int", "float", "bool", "round", "sorted", "len",
    }
    _DISPATCH_GUARD = "_any_array"

    # -- part 1: the batch module's import surface ---------------------
    def _check_batch_imports(self, unit, contracts):
        for node in ast.walk(unit.tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.module not in contracts.formula_modules:
                continue
            allowed = (
                contracts.polymorphic.get(node.module, frozenset())
                | contracts.scalar_lut.get(node.module, frozenset())
                | contracts.non_formula_imports
            )
            for alias in node.names:
                if alias.name not in allowed:
                    yield self.finding(
                        unit, node,
                        f"'{alias.name}' imported from {node.module} is "
                        "not covered by the shape-polymorphism "
                        "contract; vet it and add it to "
                        "repro.lint.contracts (POLYMORPHIC_CORES, "
                        "SCALAR_LUT_HELPERS or NON_FORMULA_IMPORTS)",
                    )

    def check(self, unit, contracts):
        if unit.module == contracts.batch_module:
            yield from self._check_batch_imports(unit, contracts)
        wanted = contracts.polymorphic.get(unit.module)
        if not wanted:
            return
        found: Set[str] = set()
        for qual, fn in iter_functions(unit.tree):
            if fn.name not in wanted:
                continue
            found.add(fn.name)
            yield from self._check_core(unit, fn, contracts)
        for missing in sorted(wanted - found):
            yield Finding(
                rule=self.id,
                severity=SEVERITY_WARNING,
                path=unit.path,
                line=1,
                col=0,
                message=(
                    f"polymorphic core '{missing}' is listed in the "
                    f"contract but not defined in {unit.module}; "
                    "update repro.lint.contracts.POLYMORPHIC_CORES"
                ),
            )

    # -- part 2: one polymorphic core ----------------------------------
    def _check_core(self, unit, fn, contracts):
        tainted = self._tainted_names(fn, contracts)
        yield from self._visit_block(unit, fn, fn.body, tainted,
                                     scalar=False)

    def _tainted_names(self, fn, contracts) -> Set[str]:
        """Array-capable names: non-scalar-flag params plus anything
        assigned from an expression involving one (fixpoint)."""
        args = fn.args
        params = [
            a.arg
            for a in (
                list(args.posonlyargs) + list(args.args)
                + list(args.kwonlyargs)
            )
        ]
        if args.vararg:
            params.append(args.vararg.arg)
        tainted = {
            p for p in params if p not in contracts.scalar_flag_params
        }
        for _ in range(10):  # fixpoint; depth-bounded for safety
            grew = False
            for node in ast.walk(fn):
                new: List[str] = []
                if isinstance(node, ast.Assign) and (
                    names_in(node.value) & tainted
                ):
                    for target in node.targets:
                        new.extend(
                            n.id for n in ast.walk(target)
                            if isinstance(n, ast.Name)
                        )
                elif (
                    isinstance(node, (ast.AugAssign, ast.AnnAssign))
                    and node.value is not None
                    and names_in(node.value) & tainted
                    and isinstance(node.target, ast.Name)
                ):
                    new.append(node.target.id)
                elif isinstance(node, ast.For) and (
                    names_in(node.iter) & tainted
                ):
                    new.extend(
                        n.id for n in ast.walk(node.target)
                        if isinstance(n, ast.Name)
                    )
                for name in new:
                    if name not in tainted:
                        tainted.add(name)
                        grew = True
            if not grew:
                break
        return tainted

    def _is_dispatch_guard(self, test: ast.AST) -> bool:
        return (
            isinstance(test, ast.Call)
            and _call_name(test) == self._DISPATCH_GUARD
        )

    def _is_isinstance_test(self, test: ast.AST) -> bool:
        if isinstance(test, ast.BoolOp):
            return all(
                self._is_isinstance_test(v) for v in test.values
            )
        if isinstance(test, ast.UnaryOp) and isinstance(
            test.op, ast.Not
        ):
            return self._is_isinstance_test(test.operand)
        return (
            isinstance(test, ast.Call)
            and _call_name(test) == "isinstance"
        )

    def _visit_block(self, unit, fn, body, tainted, scalar):
        """Walk statements, tracking the scalar-only region that an
        ``_any_array`` dispatch (with a terminating body) opens."""
        for stmt in body:
            if isinstance(stmt, ast.If):
                if self._is_dispatch_guard(stmt.test):
                    # The body IS the array implementation; everything
                    # after a terminating dispatch is scalar-only, as
                    # is the else branch.
                    yield from self._visit_block(
                        unit, fn, stmt.body, tainted, scalar=False
                    )
                    yield from self._visit_block(
                        unit, fn, stmt.orelse, tainted, scalar=True
                    )
                    if _terminates(stmt.body):
                        scalar = True
                    continue
                if self._is_isinstance_test(stmt.test):
                    # Shape dispatch by type: the guard itself is fine
                    # and its body has proven-scalar operands.
                    yield from self._visit_block(
                        unit, fn, stmt.body, tainted, scalar=True
                    )
                    yield from self._visit_block(
                        unit, fn, stmt.orelse, tainted, scalar
                    )
                    continue
                if not scalar and (names_in(stmt.test) & tainted):
                    yield self.finding(
                        unit, stmt,
                        f"'if' on formula value(s) "
                        f"{sorted(names_in(stmt.test) & tainted)} in "
                        f"polymorphic core '{fn.name}' breaks ndarray "
                        "shapes; use _where/np.where or dispatch via "
                        "_any_array",
                    )
                else:
                    yield from self._check_exprs(unit, fn, stmt.test,
                                                 tainted, scalar)
                yield from self._visit_block(unit, fn, stmt.body,
                                             tainted, scalar)
                yield from self._visit_block(unit, fn, stmt.orelse,
                                             tainted, scalar)
            elif isinstance(stmt, ast.While):
                if not scalar and (names_in(stmt.test) & tainted):
                    yield self.finding(
                        unit, stmt,
                        f"'while' on formula value(s) in polymorphic "
                        f"core '{fn.name}' breaks ndarray shapes",
                    )
                yield from self._visit_block(unit, fn, stmt.body,
                                             tainted, scalar)
            elif isinstance(stmt, ast.For):
                yield from self._check_exprs(unit, fn, stmt.iter,
                                             tainted, scalar)
                yield from self._visit_block(unit, fn, stmt.body,
                                             tainted, scalar)
            elif isinstance(stmt, (ast.With, ast.Try)):
                for inner in ast.iter_child_nodes(stmt):
                    if isinstance(inner, ast.stmt):
                        yield from self._visit_block(
                            unit, fn, [inner], tainted, scalar
                        )
            elif isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                       ast.ClassDef)
            ):
                continue  # nested defs are their own scope
            else:
                yield from self._check_exprs(unit, fn, stmt, tainted,
                                             scalar)

    def _check_exprs(self, unit, fn, node, tainted, scalar):
        if scalar:
            return
        for expr in ast.walk(node):
            if isinstance(expr, ast.IfExp) and (
                names_in(expr.test) & tainted
            ):
                yield self.finding(
                    unit, expr,
                    f"conditional expression on formula value(s) in "
                    f"polymorphic core '{fn.name}' breaks ndarray "
                    "shapes; use _where",
                )
            elif isinstance(expr, ast.BoolOp):
                hit = set()
                for value in expr.values:
                    if isinstance(value, ast.Name):
                        hit |= {value.id} & tainted
                    elif isinstance(value, (ast.Compare, ast.UnaryOp)):
                        hit |= names_in(value) & tainted
                if hit:
                    yield self.finding(
                        unit, expr,
                        f"'and'/'or' over formula value(s) "
                        f"{sorted(hit)} in polymorphic core "
                        f"'{fn.name}' raises on ndarrays; use '&'/'|' "
                        "masks",
                    )
            elif isinstance(expr, ast.Call):
                called = _call_name(expr)
                chain = attr_chain(expr.func)
                args_tainted = any(
                    names_in(a) & tainted
                    for a in list(expr.args)
                    + [kw.value for kw in expr.keywords]
                )
                if not args_tainted:
                    continue
                if called in self._BREAKING_BUILTINS:
                    yield self.finding(
                        unit, expr,
                        f"builtin '{called}()' on formula value(s) in "
                        f"polymorphic core '{fn.name}' breaks ndarray "
                        "shapes; use the polymorphic helpers "
                        "(_minimum/_maximum/ceil_div/_where)",
                    )
                elif chain is not None and chain.startswith("math."):
                    yield self.finding(
                        unit, expr,
                        f"'{chain}()' on formula value(s) in "
                        f"polymorphic core '{fn.name}' breaks ndarray "
                        "shapes; use numpy-polymorphic helpers",
                    )


# ----------------------------------------------------------------------
# R3 — determinism of cache-fingerprinted modules
# ----------------------------------------------------------------------
class DeterminismRule(Rule):
    """Nondeterminism in a module the disk cache fingerprints.

    Cached entries are keyed by the ``repr`` of frozen config objects
    under a source fingerprint; the scheme is sound only while those
    modules compute the same values in every process.  Wall-clock
    reads, RNGs, environment lookups, salted ``hash()`` and unordered
    ``set`` iteration all break that, poisoning every entry written by
    the offending process.  Also verifies (on ``cache.py`` itself)
    that ``_FINGERPRINT_MODULES`` covers the required module set, so a
    lint-relevant edit always invalidates stale disk entries.
    """

    id = "R3"
    name = "determinism"
    severity = SEVERITY_ERROR
    description = (
        "no nondeterminism in cache-fingerprinted modules; fingerprint "
        "must cover the required set"
    )

    _BANNED_MODULES = {"time", "random", "secrets", "uuid"}
    _BANNED_CHAINS = {
        "os.getenv": "environment lookups vary across runs",
        "os.urandom": "os.urandom is nondeterministic",
        "datetime.now": "wall-clock reads vary across runs",
        "datetime.utcnow": "wall-clock reads vary across runs",
        "datetime.datetime.now": "wall-clock reads vary across runs",
        "datetime.datetime.utcnow": "wall-clock reads vary across runs",
    }

    def check(self, unit, contracts):
        if unit.module == contracts.cache_module:
            yield from self._check_fingerprint_coverage(unit, contracts)
        if unit.module not in contracts.determinism_modules():
            return
        yield from self._check_module(unit)

    # -- fingerprint coverage (satellite of the cache contract) --------
    def _check_fingerprint_coverage(self, unit, contracts):
        listed = None
        anchor: ast.AST = unit.tree
        for node in unit.tree.body:
            targets = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets = [node.target]
            if any(
                isinstance(t, ast.Name)
                and t.id == "_FINGERPRINT_MODULES"
                for t in targets
            ):
                anchor = node
                if isinstance(node.value, (ast.Tuple, ast.List)):
                    listed = {
                        elt.value
                        for elt in node.value.elts
                        if isinstance(elt, ast.Constant)
                        and isinstance(elt.value, str)
                    }
        if listed is None:
            yield Finding(
                rule=self.id,
                severity=SEVERITY_WARNING,
                path=unit.path,
                line=getattr(anchor, "lineno", 1),
                col=0,
                message=(
                    "_FINGERPRINT_MODULES not found as a literal "
                    "tuple; the fingerprint-coverage check cannot run"
                ),
            )
            return
        missing = contracts.required_fingerprint_modules - listed
        if missing:
            yield self.finding(
                unit, anchor,
                "cost-model source fingerprint misses required "
                f"module(s) {sorted(missing)}: edits there would not "
                "invalidate stale disk cache entries",
            )
        excluded = sorted(
            module for module in listed
            if any(
                module == prefix or module.startswith(prefix + ".")
                for prefix in contracts.fingerprint_excluded_prefixes
            )
        )
        if excluded:
            yield self.finding(
                unit, anchor,
                f"fingerprinted module(s) {excluded} belong to tooling "
                "layers (observability/lint) that must stay outside the "
                "cost-model fingerprint: edits there would spuriously "
                "invalidate every cached evaluation",
            )

    # -- module body ---------------------------------------------------
    def _check_module(self, unit):
        yield from self._check_imports(unit)
        yield from self._check_calls(unit)
        # Set-iteration analysis runs per scope: module level plus
        # each function body.
        yield from self._check_set_iteration(unit, unit.tree)
        for _, fn in iter_functions(unit.tree):
            yield from self._check_set_iteration(unit, fn)

    def _check_imports(self, unit):
        for node in ast.walk(unit.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    if root in self._BANNED_MODULES:
                        yield self.finding(
                            unit, node,
                            f"import of '{alias.name}' in cache-"
                            "fingerprinted module: its values vary "
                            "across runs and would poison cached "
                            "entries",
                        )
            elif isinstance(node, ast.ImportFrom) and node.module:
                root = node.module.split(".")[0]
                if root in self._BANNED_MODULES:
                    yield self.finding(
                        unit, node,
                        f"import from '{node.module}' in cache-"
                        "fingerprinted module: its values vary across "
                        "runs and would poison cached entries",
                    )

    def _check_calls(self, unit):
        for node in ast.walk(unit.tree):
            if isinstance(node, ast.Call):
                called = _call_name(node)
                chain = attr_chain(node.func)
                if called == "hash":
                    yield self.finding(
                        unit, node,
                        "builtin hash() is salted per process "
                        "(PYTHONHASHSEED); use hashlib for stable "
                        "digests",
                    )
                elif chain in self._BANNED_CHAINS:
                    yield self.finding(
                        unit, node,
                        f"'{chain}()' in cache-fingerprinted module: "
                        f"{self._BANNED_CHAINS[chain]}",
                    )
            elif isinstance(node, ast.Attribute):
                chain = attr_chain(node)
                if chain == "os.environ":
                    yield self.finding(
                        unit, node,
                        "os.environ read in cache-fingerprinted "
                        "module: environment-dependent values poison "
                        "cached entries",
                    )

    # -- unordered set iteration ---------------------------------------
    @staticmethod
    def _is_set_expr(node: ast.AST) -> bool:
        return isinstance(node, (ast.Set, ast.SetComp)) or (
            isinstance(node, ast.Call)
            and _call_name(node) == "set"
        )

    def _set_names(self, scope: ast.AST) -> Set[str]:
        names: Set[str] = set()
        for node in walk_scope(scope):
            if isinstance(node, ast.Assign) and self._is_set_expr(
                node.value
            ):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
        return names

    def _check_set_iteration(self, unit, scope):
        set_names = self._set_names(scope)

        def is_setlike(node: ast.AST) -> bool:
            return self._is_set_expr(node) or (
                isinstance(node, ast.Name) and node.id in set_names
            )

        for node in walk_scope(scope):
            iters: List[ast.AST] = []
            if isinstance(node, ast.For):
                iters.append(node.iter)
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.DictComp,
                       ast.GeneratorExp)
            ):
                iters.extend(gen.iter for gen in node.generators)
            elif isinstance(node, ast.Call) and _call_name(node) in {
                "list", "tuple", "enumerate",
            }:
                iters.extend(node.args[:1])
            for it in iters:
                if is_setlike(it):
                    yield self.finding(
                        unit, it,
                        "iteration over an unordered set in a cache-"
                        "fingerprinted module: ordering varies with "
                        "PYTHONHASHSEED; wrap in sorted()",
                    )


# ----------------------------------------------------------------------
# R4 — config immutability and hashable cache keys
# ----------------------------------------------------------------------
class ConfigImmutabilityRule(Rule):
    """Frozen-config bypasses and unhashable cache-key fields.

    The engine's LRU and the disk cache key on tuples of frozen
    dataclasses; ``repr``-addressed disk entries additionally assume
    the reprs are stable.  Mutating a frozen instance through
    ``object.__setattr__`` (outside ``__post_init__``, where it is the
    sanctioned initialization idiom) or giving a key class an
    unhashable/mutable field breaks both silently.
    """

    id = "R4"
    name = "config-immutability"
    severity = SEVERITY_ERROR
    description = (
        "cache-key dataclasses stay frozen and hashable; no "
        "frozen-bypass mutation"
    )

    _MUTABLE_FACTORIES = {"list", "dict", "set", "bytearray"}
    _MUTABLE_ANNOTATIONS = {
        "list", "dict", "set", "List", "Dict", "Set", "MutableMapping",
        "MutableSequence", "MutableSet", "bytearray",
    }

    def check(self, unit, contracts):
        yield from self._check_setattr_bypass(unit)
        wanted = contracts.cache_key_classes.get(unit.module)
        if not wanted:
            return
        found: Set[str] = set()
        for node in ast.walk(unit.tree):
            if isinstance(node, ast.ClassDef) and node.name in wanted:
                found.add(node.name)
                yield from self._check_key_class(unit, node)
        for missing in sorted(wanted - found):
            yield Finding(
                rule=self.id,
                severity=SEVERITY_WARNING,
                path=unit.path,
                line=1,
                col=0,
                message=(
                    f"cache-key class '{missing}' is listed in the "
                    f"contract but not defined in {unit.module}; "
                    "update repro.lint.contracts.CACHE_KEY_CLASSES"
                ),
            )

    # -- frozen-bypass mutation ----------------------------------------
    def _check_setattr_bypass(self, unit):
        # Map each object.__setattr__ call to its enclosing function.
        enclosing: Dict[int, str] = {}
        for qual, fn in iter_functions(unit.tree):
            for node in ast.walk(fn):
                if isinstance(node, ast.Call):
                    enclosing.setdefault(id(node), fn.name)
        for node in ast.walk(unit.tree):
            if not isinstance(node, ast.Call):
                continue
            chain = attr_chain(node.func)
            if chain != "object.__setattr__":
                continue
            if enclosing.get(id(node)) == "__post_init__":
                continue
            yield self.finding(
                unit, node,
                "object.__setattr__ outside __post_init__ mutates a "
                "frozen config; build a new instance with "
                "dataclasses.replace instead",
            )

    # -- key-class shape -----------------------------------------------
    def _check_key_class(self, unit, cls):
        frozen = False
        eq_disabled = False
        is_dataclass = False
        for deco in cls.decorator_list:
            name = _call_name(deco) if isinstance(deco, ast.Call) \
                else None
            chain = attr_chain(deco.func) if isinstance(deco, ast.Call) \
                else attr_chain(deco)
            plain = deco.id if isinstance(deco, ast.Name) else None
            if "dataclass" in {name, chain, plain} or (
                chain and chain.endswith(".dataclass")
            ):
                is_dataclass = True
                if isinstance(deco, ast.Call):
                    for kw in deco.keywords:
                        if kw.arg == "frozen" and isinstance(
                            kw.value, ast.Constant
                        ):
                            frozen = bool(kw.value.value)
                        if kw.arg == "eq" and isinstance(
                            kw.value, ast.Constant
                        ):
                            eq_disabled = not kw.value.value
        if is_dataclass and not frozen:
            yield self.finding(
                unit, cls,
                f"cache-key dataclass '{cls.name}' must be declared "
                "@dataclass(frozen=True): mutable keys corrupt the "
                "LRU and disk caches",
            )
        if eq_disabled:
            yield self.finding(
                unit, cls,
                f"cache-key dataclass '{cls.name}' disables eq: "
                "identity-based keys defeat memoization",
            )
        for stmt in cls.body:
            if not isinstance(stmt, ast.AnnAssign):
                continue
            ann_root = self._annotation_root(stmt.annotation)
            if ann_root in self._MUTABLE_ANNOTATIONS:
                yield self.finding(
                    unit, stmt,
                    f"field of cache-key class '{cls.name}' has "
                    f"unhashable type '{ann_root}'; use a tuple/"
                    "frozenset (hashable, repr-stable) instead",
                )
            if (
                isinstance(stmt.value, ast.Call)
                and _call_name(stmt.value) == "field"
            ):
                for kw in stmt.value.keywords:
                    if (
                        kw.arg == "default_factory"
                        and isinstance(kw.value, ast.Name)
                        and kw.value.id in self._MUTABLE_FACTORIES
                    ):
                        yield self.finding(
                            unit, stmt,
                            f"field of cache-key class '{cls.name}' "
                            f"defaults to mutable "
                            f"'{kw.value.id}()'; cache keys must be "
                            "hashable",
                        )

    @staticmethod
    def _annotation_root(node: ast.AST) -> Optional[str]:
        if isinstance(node, ast.Subscript):
            node = node.value
        if isinstance(node, ast.Name):
            return node.id
        if isinstance(node, ast.Attribute):
            return node.attr
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            # String annotation: take the root before any subscript.
            return node.value.split("[")[0].split(".")[-1].strip()
        return None


def default_rules() -> Tuple[Rule, ...]:
    # Imported here, not at module top, so the pattern rules (this
    # file) and the dataflow rules (rules_flow) can both subclass Rule
    # without an import cycle.
    from repro.lint.rules_flow import (
        BoundPurityRule,
        ConcurrencyRule,
        UnitConsistencyRule,
    )

    return (
        CeilQuantizationRule(),
        ShapePolymorphismRule(),
        DeterminismRule(),
        ConfigImmutabilityRule(),
        UnitConsistencyRule(),
        ConcurrencyRule(),
        BoundPurityRule(),
    )
