"""Per-file analysis summaries: what each function mutates, draws, calls.

This is the first phase of the interprocedural reprolint engine.  Each
file is reduced -- independently, so the pass parallelizes and caches
per file -- to a :class:`FileSummary`: the module's imports and
top-level bindings, plus one :class:`FunctionSummary` per function,
method and lambda recording

* every call site (with enough shape to resolve it against the module
  graph later),
* writes to names the function does not bind itself (``global``
  declarations, mutations of module-level or closed-over objects),
* every RNG draw and where its receiver came from (freshly derived,
  parameter, closed-over, module-level, ``self`` attribute),
* whether the function returns an unordered collection,
* ``sum()`` calls whose iterable is another function's return value,
* and every parallel dispatch with its task expression: a worker-pool
  submission (``pool.run_batch(fn, ...)`` or ``pool.broadcast(fn,
  ...)``), where the single callable fans out to forked workers.

The summaries are plain frozen dataclasses of strings and ints: they
pickle cleanly into the artifact cache and compare structurally, which
is what makes warm (incremental) lint runs byte-identical to cold ones.
Composition into interprocedural findings happens later, in
:mod:`repro.devtools.graph` and :mod:`repro.devtools.rules_interproc`.
"""

from __future__ import annotations

import ast
import dataclasses
import hashlib
import re
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.devtools.config import SuppressionIndex, scan_pragmas
from repro.devtools.rules import (
    RNG_DRAW_METHODS,
    ModuleRuleVisitor,
    RawFinding,
    _is_order_free_value,
    _is_sorted_call,
    _is_unordered_iterable,
    _rng_receiver,
)

#: Version of the summary layout; bump to invalidate cached summaries
#: when the fields or their semantics change.
SUMMARY_VERSION = 3

#: Function names whose call result is an independent, freshly derived
#: RNG stream (or a factory handing one out).
RNG_DERIVATIONS = frozenset({"derive_rng", "Random", "rng", "child"})

#: Method names that mutate their receiver in place.
MUTATING_METHODS = frozenset(
    {
        "append",
        "add",
        "update",
        "setdefault",
        "pop",
        "popitem",
        "clear",
        "extend",
        "insert",
        "remove",
        "discard",
        "sort",
        "reverse",
    }
)

#: The parallel fan-out boundary.  Worker-pool dispatch methods --
#: ``pool.run_batch(fn, payloads)`` and ``pool.broadcast(fn, payload)``
#: -- run their first argument in forked workers, so the submitted
#: callable is a fan-out root.
POOL_DISPATCH_METHODS = frozenset({"run_batch", "broadcast"})

#: SQL statements worth summarizing for the store-schema rule.
_SQL_RE = re.compile(
    r"\b(CREATE\s+TABLE|INSERT\s+INTO|SELECT\s)", re.IGNORECASE
)


@dataclasses.dataclass(frozen=True)
class ImportEntry:
    """One imported binding: ``alias`` names ``module`` (dot ``symbol``)."""

    alias: str
    module: str
    symbol: str  # "" when the alias names the module itself
    line: int


@dataclasses.dataclass(frozen=True)
class CallRef:
    """One call site, shaped for later cross-module resolution.

    ``kind`` is how the callee was spelled:

    * ``"name"`` -- ``f(...)``; ``name`` is ``f``.
    * ``"self"`` -- ``self.m(...)``; ``name`` is ``m``.
    * ``"attr"`` -- ``a.b.f(...)`` where ``a`` is a plain name;
      ``base`` is the dotted prefix (``"a.b"``), ``name`` is ``f``.
    * ``"method"`` -- a call on any other receiver expression;
      ``base`` is the receiver's root name when it is one.

    ``base_kind`` classifies the receiver's root binding in the calling
    scope: ``local``, ``param``, ``free`` (closed over), ``module``
    (module-level binding of this file), or ``unknown``.
    """

    kind: str
    base: str
    name: str
    line: int
    col: int
    base_kind: str = "unknown"
    rng_args: Tuple[Tuple[int, str, str], ...] = ()


@dataclasses.dataclass(frozen=True)
class FreeWrite:
    """A write to a name the function does not bind itself."""

    name: str
    line: int
    col: int
    how: str  # "global-assign" | "nonlocal-assign" | "mutate"


@dataclasses.dataclass(frozen=True)
class RngDraw:
    """One RNG draw and the provenance of its receiver."""

    receiver: str
    origin: str  # "derived" | "local" | "param" | "free" | "self" | "attr"
    method: str
    line: int
    col: int


@dataclasses.dataclass(frozen=True)
class SumOverCall:
    """A ``sum()`` whose iterable is another function's return value."""

    callee: CallRef
    line: int
    col: int


@dataclasses.dataclass(frozen=True)
class TaskRef:
    """The task expression handed to a pool dispatch."""

    kind: str  # "name" | "self-method" | "attr" | "lambda" | "unknown"
    value: str
    line: int


@dataclasses.dataclass(frozen=True)
class FanoutSite:
    """One ``pool.run_batch/broadcast(fn, ...)`` site."""

    line: int
    col: int
    tasks: Tuple[TaskRef, ...]
    resolved: bool


@dataclasses.dataclass(frozen=True)
class FunctionSummary:
    """Everything the interprocedural rules need to know per function."""

    qualname: str
    name: str
    cls: str
    lineno: int
    params: Tuple[str, ...]
    local_names: Tuple[str, ...]
    calls: Tuple[CallRef, ...]
    free_writes: Tuple[FreeWrite, ...]
    rng_draws: Tuple[RngDraw, ...]
    derived_attrs: Tuple[str, ...]
    returns_unordered: bool
    return_calls: Tuple[CallRef, ...]
    sums_over_calls: Tuple[SumOverCall, ...]
    fanouts: Tuple[FanoutSite, ...]


@dataclasses.dataclass(frozen=True)
class SqlLiteral:
    """One SQL string constant (for the store-schema rule)."""

    line: int
    text: str


@dataclasses.dataclass(frozen=True)
class FileSummary:
    """One file's complete phase-1 analysis product."""

    path: str
    relpkg: Optional[str]
    content_hash: str
    module_findings: Tuple[RawFinding, ...]
    pragmas: SuppressionIndex
    imports: Tuple[ImportEntry, ...]
    module_bindings: Tuple[str, ...]
    module_rng_bindings: Tuple[str, ...]
    constants: Mapping[str, object]
    constant_lines: Mapping[str, int]
    sql_literals: Tuple[SqlLiteral, ...]
    functions: Tuple[FunctionSummary, ...]
    classes: Tuple[str, ...]

    def function_map(self) -> Dict[str, FunctionSummary]:
        """Summaries keyed by qualified name."""
        return {fn.qualname: fn for fn in self.functions}


def content_hash(source: str) -> str:
    """The cache address component for one file's source text."""
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# AST helpers
# ----------------------------------------------------------------------


def _dotted_root(node: ast.AST) -> Optional[str]:
    """The root ``Name`` of an attribute chain, or None."""
    while isinstance(node, ast.Attribute):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


def _dotted_path(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a pure Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _is_rng_derivation(node: ast.AST) -> bool:
    """Is this expression a freshly derived, independent RNG stream?"""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Name):
        return func.id in RNG_DERIVATIONS
    if isinstance(func, ast.Attribute):
        return func.attr in RNG_DERIVATIONS
    return False


def _assigned_names(target: ast.AST) -> List[str]:
    """Every plain name bound by an assignment target."""
    names: List[str] = []
    for node in ast.walk(target):
        if isinstance(node, ast.Name) and isinstance(
            node.ctx, (ast.Store, ast.Del)
        ):
            names.append(node.id)
    return names


class _BindingCollector(ast.NodeVisitor):
    """Names bound directly in one scope (never descending into
    nested function/class scopes)."""

    def __init__(self) -> None:
        self.bound: List[str] = []

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self.bound.append(node.name)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self.bound.append(node.name)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.bound.append(node.name)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        pass  # its params are its own scope

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, (ast.Store, ast.Del)):
            self.bound.append(node.id)

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self.bound.append(
                alias.asname or alias.name.split(".", 1)[0]
            )

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        for alias in node.names:
            if alias.name != "*":
                self.bound.append(alias.asname or alias.name)

    def visit_Global(self, node: ast.Global) -> None:
        pass

    def visit_Nonlocal(self, node: ast.Nonlocal) -> None:
        pass


def _scope_bindings(body: Sequence[ast.stmt]) -> List[str]:
    collector = _BindingCollector()
    for stmt in body:
        collector.visit(stmt)
    return collector.bound


# ----------------------------------------------------------------------
# Per-scope analysis
# ----------------------------------------------------------------------


class _ScopeAnalyzer(ast.NodeVisitor):
    """Analyze one function scope; recurse into nested scopes.

    Produces one :class:`FunctionSummary` per visited scope via the
    shared ``sink`` list.  Lambdas become scopes of their own with
    qualified names like ``outer.<lambda:LINE:COL>`` so fan-out task
    lambdas are first-class call-graph nodes.
    """

    def __init__(
        self,
        qualname: str,
        name: str,
        cls: str,
        node: Optional[ast.AST],
        params: Sequence[str],
        body: Sequence[ast.stmt],
        enclosing_bound: Sequence[frozenset],
        sink: List[FunctionSummary],
    ) -> None:
        self.qualname = qualname
        self.name = name
        self.cls = cls
        self.lineno = getattr(node, "lineno", 0) if node is not None else 0
        self.params = tuple(params)
        self.body = body
        self.enclosing_bound = list(enclosing_bound)
        self.sink = sink

        self.global_decls: set = set()
        self.nonlocal_decls: set = set()
        self.local = frozenset(_scope_bindings(body)) | frozenset(params)
        #: local name -> "derived" | "other" (rng-ish assignments only)
        self.rng_locals: Dict[str, str] = {}
        self._lambda_memo: Dict[str, FunctionSummary] = {}

        self.calls: List[CallRef] = []
        self.free_writes: List[FreeWrite] = []
        self.rng_draws: List[RngDraw] = []
        self.derived_attrs: List[str] = []
        self.returns_unordered = False
        self.return_calls: List[CallRef] = []
        self.sums_over_calls: List[SumOverCall] = []
        self.fanouts: List[FanoutSite] = []

    # -- entry ---------------------------------------------------------

    def analyze(self) -> FunctionSummary:
        for stmt in self.body:
            self.visit(stmt)
        summary = FunctionSummary(
            qualname=self.qualname,
            name=self.name,
            cls=self.cls,
            lineno=self.lineno,
            params=self.params,
            local_names=tuple(sorted(self.local)),
            calls=tuple(self.calls),
            free_writes=tuple(self.free_writes),
            rng_draws=tuple(self.rng_draws),
            derived_attrs=tuple(sorted(set(self.derived_attrs))),
            returns_unordered=self.returns_unordered,
            return_calls=tuple(self.return_calls),
            sums_over_calls=tuple(self.sums_over_calls),
            fanouts=tuple(self.fanouts),
        )
        self.sink.append(summary)
        return summary

    # -- name classification -------------------------------------------

    def _kind_of(self, name: str) -> str:
        """How *name* is bound as seen from this scope."""
        if name in self.global_decls:
            return "module"
        if name in self.params:
            return "param"
        if name in self.local:
            return "local"
        for bound in reversed(self.enclosing_bound[1:]):
            if name in bound:
                return "free"
        if self.enclosing_bound and name in self.enclosing_bound[0]:
            return "module"
        return "unknown"

    def _receiver_kind(self, node: ast.AST) -> Tuple[str, str]:
        """(base_kind, root name) of a receiver expression."""
        root = _dotted_root(node)
        if root is None:
            return "unknown", ""
        if root == "self":
            return "self", root
        return self._kind_of(root), root

    # -- nested scopes --------------------------------------------------

    def _child_scopes(self) -> List[frozenset]:
        return self.enclosing_bound + [self.local]

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._analyze_def(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._analyze_def(node)

    def _analyze_def(self, node) -> None:
        params = [a.arg for a in _all_args(node.args)]
        _ScopeAnalyzer(
            qualname=f"{self.qualname}.<locals>.{node.name}",
            name=node.name,
            cls="",
            node=node,
            params=params,
            body=node.body,
            enclosing_bound=self._child_scopes(),
            sink=self.sink,
        ).analyze()
        for decorator in node.decorator_list:
            self.visit(decorator)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        _analyze_class(
            node,
            prefix=f"{self.qualname}.<locals>",
            enclosing_bound=self._child_scopes(),
            sink=self.sink,
        )

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._lambda_summary(node)

    def _lambda_summary(self, node: ast.Lambda) -> FunctionSummary:
        params = [a.arg for a in _all_args(node.args)]
        qualname = (
            f"{self.qualname}.<lambda:{node.lineno}:{node.col_offset}>"
        )
        # A lambda can be revisited as a fan-out task expression after
        # the traversal already summarized it; one sink entry each.
        if qualname in self._lambda_memo:
            return self._lambda_memo[qualname]
        self._lambda_memo[qualname] = summary = _ScopeAnalyzer(
            qualname=qualname,
            name="<lambda>",
            cls="",
            node=node,
            params=params,
            body=[ast.Expr(value=node.body)],
            enclosing_bound=self._child_scopes(),
            sink=self.sink,
        ).analyze()
        return summary

    # -- declarations and assignments ----------------------------------

    def visit_Global(self, node: ast.Global) -> None:
        self.global_decls.update(node.names)

    def visit_Nonlocal(self, node: ast.Nonlocal) -> None:
        self.nonlocal_decls.update(node.names)

    def visit_Assign(self, node: ast.Assign) -> None:
        self._record_assignment(node.targets, node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._record_assignment([node.target], node.value)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._record_store_target(node.target)
        self.generic_visit(node)

    def _record_assignment(
        self, targets: Sequence[ast.expr], value: ast.expr
    ) -> None:
        derived = _is_rng_derivation(value)
        for target in targets:
            if isinstance(target, ast.Name):
                if derived:
                    self.rng_locals[target.id] = "derived"
                elif isinstance(value, ast.Call) and _rng_receiver(target):
                    self.rng_locals.setdefault(target.id, "other")
                if target.id in self.global_decls:
                    self.free_writes.append(
                        FreeWrite(
                            name=target.id,
                            line=target.lineno,
                            col=target.col_offset,
                            how="global-assign",
                        )
                    )
                elif target.id in self.nonlocal_decls:
                    self.free_writes.append(
                        FreeWrite(
                            name=target.id,
                            line=target.lineno,
                            col=target.col_offset,
                            how="nonlocal-assign",
                        )
                    )
            else:
                self._record_store_target(target)
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
                and derived
            ):
                self.derived_attrs.append(target.attr)

    def _record_store_target(self, target: ast.expr) -> None:
        """Subscript/attribute stores mutate their receiver object."""
        if isinstance(target, (ast.Subscript, ast.Attribute)):
            kind, root = self._receiver_kind(target.value)
            if kind in ("free", "module"):
                self.free_writes.append(
                    FreeWrite(
                        name=root,
                        line=target.lineno,
                        col=target.col_offset,
                        how="mutate",
                    )
                )
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._record_store_target(element)
        elif isinstance(target, ast.Name):
            if target.id in self.global_decls:
                self.free_writes.append(
                    FreeWrite(
                        name=target.id,
                        line=target.lineno,
                        col=target.col_offset,
                        how="global-assign",
                    )
                )
            elif target.id in self.nonlocal_decls:
                self.free_writes.append(
                    FreeWrite(
                        name=target.id,
                        line=target.lineno,
                        col=target.col_offset,
                        how="nonlocal-assign",
                    )
                )

    # -- returns -------------------------------------------------------

    def visit_Return(self, node: ast.Return) -> None:
        value = node.value
        if value is not None:
            if _is_unordered_iterable(value) or isinstance(
                value, (ast.Set, ast.SetComp, ast.DictComp, ast.Dict)
            ):
                self.returns_unordered = True
            elif isinstance(value, ast.Call):
                ref = self._call_ref(value)
                if ref is not None and ref.kind in ("name", "attr", "self"):
                    self.return_calls.append(ref)
        self.generic_visit(node)

    # -- calls ---------------------------------------------------------

    def _rng_arg_info(
        self, node: ast.Call
    ) -> Tuple[Tuple[int, str, str], ...]:
        """Provenance of every rng-looking positional argument."""
        info: List[Tuple[int, str, str]] = []
        for position, arg in enumerate(node.args):
            if isinstance(arg, ast.Name) and (
                _rng_receiver(arg) or arg.id in self.rng_locals
            ):
                info.append((position, self._arg_origin(arg.id), arg.id))
            elif _is_rng_derivation(arg):
                info.append((position, "derived", ""))
        return tuple(info)

    def _arg_origin(self, name: str) -> str:
        if self.rng_locals.get(name) == "derived":
            return "derived"
        kind = self._kind_of(name)
        if kind == "local":
            return "local"
        return kind  # param | free | module | unknown

    def _call_ref(self, node: ast.Call) -> Optional[CallRef]:
        func = node.func
        rng_args = self._rng_arg_info(node)
        if isinstance(func, ast.Name):
            return CallRef(
                kind="name",
                base="",
                name=func.id,
                line=node.lineno,
                col=node.col_offset,
                base_kind=self._kind_of(func.id),
                rng_args=rng_args,
            )
        if isinstance(func, ast.Attribute):
            if isinstance(func.value, ast.Name) and func.value.id == "self":
                return CallRef(
                    kind="self",
                    base="self",
                    name=func.attr,
                    line=node.lineno,
                    col=node.col_offset,
                    base_kind="self",
                    rng_args=rng_args,
                )
            path = _dotted_path(func.value)
            kind, root = self._receiver_kind(func.value)
            if path is not None and kind in ("module", "unknown"):
                # Could be a module attribute chain (obs.add) -- keep
                # the dotted path for import resolution.
                return CallRef(
                    kind="attr",
                    base=path,
                    name=func.attr,
                    line=node.lineno,
                    col=node.col_offset,
                    base_kind=kind,
                    rng_args=rng_args,
                )
            return CallRef(
                kind="method",
                base=root,
                name=func.attr,
                line=node.lineno,
                col=node.col_offset,
                base_kind=kind,
                rng_args=rng_args,
            )
        return None

    def visit_Call(self, node: ast.Call) -> None:
        ref = self._call_ref(node)
        if ref is not None:
            self.calls.append(ref)
            if (
                ref.name in POOL_DISPATCH_METHODS
                and ref.kind in ("method", "self", "attr")
            ):
                self._record_pool_dispatch(node)
            if (
                ref.kind == "method"
                and ref.name in MUTATING_METHODS
                and ref.base_kind == "free"
            ):
                # shared.append(x) on a closed-over object.  Receivers
                # classified "module" take the attr-call path instead;
                # REP009 separates them from namespace calls once the
                # module's imports are known.
                self.free_writes.append(
                    FreeWrite(
                        name=ref.base,
                        line=node.lineno,
                        col=node.col_offset,
                        how="mutate",
                    )
                )
        self._check_rng_draw(node)
        self._check_sum_over_call(node)
        self.generic_visit(node)

    # -- RNG draws ------------------------------------------------------

    def _check_rng_draw(self, node: ast.Call) -> None:
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        if func.attr not in RNG_DRAW_METHODS:
            return
        value = func.value
        if isinstance(value, ast.Name):
            name = value.id
            known = self.rng_locals.get(name)
            if known is None and not _rng_receiver(value):
                return
            kind = self._kind_of(name)
            if kind in ("local", "param") and known == "derived":
                origin = "derived"
            elif kind == "param":
                origin = "param"
            elif kind == "free":
                origin = "free"
            elif kind == "module":
                origin = "module"
            elif kind == "local":
                origin = "local"
            else:
                origin = "unknown"
            self.rng_draws.append(
                RngDraw(
                    receiver=name,
                    origin=origin,
                    method=func.attr,
                    line=node.lineno,
                    col=node.col_offset,
                )
            )
        elif isinstance(value, ast.Attribute) and _rng_receiver(value):
            kind, root = self._receiver_kind(value)
            path = _dotted_path(value) or value.attr
            if kind == "self":
                origin = "self"
            elif kind in ("free", "module"):
                origin = kind
            else:
                origin = "attr"
            self.rng_draws.append(
                RngDraw(
                    receiver=path,
                    origin=origin,
                    method=func.attr,
                    line=node.lineno,
                    col=node.col_offset,
                )
            )

    # -- sum() over another function's return value ---------------------

    def _check_sum_over_call(self, node: ast.Call) -> None:
        func = node.func
        if not (isinstance(func, ast.Name) and func.id == "sum"):
            return
        if not node.args:
            return
        arg = node.args[0]
        callee: Optional[ast.Call] = None
        if isinstance(arg, ast.Call) and not _is_sorted_call(arg):
            callee = arg
        elif isinstance(arg, (ast.GeneratorExp, ast.ListComp)):
            if _is_order_free_value(arg.elt):
                return
            first = arg.generators[0].iter
            if isinstance(first, ast.Call) and not _is_sorted_call(first):
                callee = first
        if callee is None:
            return
        if _is_unordered_iterable(callee):
            return  # already REP004's finding
        ref = self._call_ref(callee)
        if ref is None or ref.kind == "method":
            return
        self.sums_over_calls.append(
            SumOverCall(callee=ref, line=node.lineno, col=node.col_offset)
        )

    # -- fan-out task extraction ----------------------------------------

    def _record_pool_dispatch(self, node: ast.Call) -> None:
        """``pool.run_batch/broadcast(fn, ...)``.

        The submitted callable runs in forked workers, so it is
        recorded as a :class:`FanoutSite` root; REP009/REP010 then walk
        its reachable set.
        """
        fn_expr: Optional[ast.expr] = node.args[0] if node.args else None
        if fn_expr is None:
            for keyword in node.keywords:
                if keyword.arg == "fn":
                    fn_expr = keyword.value
        if fn_expr is None:
            self.fanouts.append(
                FanoutSite(
                    line=node.lineno,
                    col=node.col_offset,
                    tasks=(),
                    resolved=False,
                )
            )
            return
        ref = self._task_ref(fn_expr)
        self.fanouts.append(
            FanoutSite(
                line=node.lineno,
                col=node.col_offset,
                tasks=(ref,),
                resolved=ref.kind != "unknown",
            )
        )

    def _task_ref(self, expr: ast.expr) -> TaskRef:
        line = getattr(expr, "lineno", self.lineno)
        if isinstance(expr, ast.Name):
            return TaskRef(kind="name", value=expr.id, line=line)
        if isinstance(expr, ast.Attribute):
            if (
                isinstance(expr.value, ast.Name)
                and expr.value.id == "self"
            ):
                return TaskRef(
                    kind="self-method", value=expr.attr, line=line
                )
            path = _dotted_path(expr)
            if path is not None:
                return TaskRef(kind="attr", value=path, line=line)
        if isinstance(expr, ast.Lambda):
            summary = self._lambda_summary(expr)
            return TaskRef(
                kind="lambda", value=summary.qualname, line=line
            )
        if isinstance(expr, ast.Call):
            # functools.partial(f, ...) and friends: first argument.
            if expr.args:
                return self._task_ref(expr.args[0])
        return TaskRef(kind="unknown", value="", line=line)


def _all_args(args: ast.arguments) -> List[ast.arg]:
    every = list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
    if args.vararg is not None:
        every.append(args.vararg)
    if args.kwarg is not None:
        every.append(args.kwarg)
    return every


def _analyze_class(
    node: ast.ClassDef,
    prefix: str,
    enclosing_bound: List[frozenset],
    sink: List[FunctionSummary],
) -> None:
    qual = f"{prefix}.{node.name}" if prefix else node.name
    class_scope = enclosing_bound  # class body names are not closures
    for stmt in node.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            params = [a.arg for a in _all_args(stmt.args)]
            _ScopeAnalyzer(
                qualname=f"{qual}.{stmt.name}",
                name=stmt.name,
                cls=node.name,
                node=stmt,
                params=params,
                body=stmt.body,
                enclosing_bound=class_scope,
                sink=sink,
            ).analyze()
        elif isinstance(stmt, ast.ClassDef):
            _analyze_class(stmt, qual, class_scope, sink)


# ----------------------------------------------------------------------
# Module-level extraction
# ----------------------------------------------------------------------


def _module_imports(tree: ast.Module) -> List[ImportEntry]:
    entries: List[ImportEntry] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname is not None:
                    entries.append(
                        ImportEntry(
                            alias=alias.asname,
                            module=alias.name,
                            symbol="",
                            line=node.lineno,
                        )
                    )
                else:
                    entries.append(
                        ImportEntry(
                            alias=alias.name.split(".", 1)[0],
                            module=alias.name.split(".", 1)[0],
                            symbol="",
                            line=node.lineno,
                        )
                    )
        elif isinstance(node, ast.ImportFrom):
            if node.module is None:
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                entries.append(
                    ImportEntry(
                        alias=alias.asname or alias.name,
                        module=node.module,
                        symbol=alias.name,
                        line=node.lineno,
                    )
                )
    return entries


def _module_constants_and_lines(
    tree: ast.Module,
) -> Tuple[Dict[str, object], Dict[str, int]]:
    constants: Dict[str, object] = {}
    lines: Dict[str, int] = {}
    for stmt in tree.body:
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        if value is None:
            continue
        try:
            literal = ast.literal_eval(value)
        except (ValueError, SyntaxError):
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                constants[target.id] = literal
                lines[target.id] = value.lineno
    return constants, lines


def _module_rng_bindings(tree: ast.Module) -> List[str]:
    names: List[str] = []
    for stmt in tree.body:
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        if value is None or not _is_rng_derivation(value):
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                names.append(target.id)
    return names


def _sql_literals(tree: ast.Module) -> List[SqlLiteral]:
    literals: List[SqlLiteral] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            if _SQL_RE.search(node.value):
                literals.append(
                    SqlLiteral(line=node.lineno, text=node.value)
                )
    literals.sort(key=lambda lit: lit.line)
    return literals


def summarize_source(
    path: str,
    source: str,
    relpkg: Optional[str],
) -> FileSummary:
    """Phase 1 for one file: single-file rules plus the summary pass.

    Raises ``SyntaxError`` for unparseable input; the caller wraps it.
    """
    tree = ast.parse(source, filename=path)

    visitor = ModuleRuleVisitor(relpkg=relpkg)
    visitor.visit(tree)

    module_bound = frozenset(_scope_bindings(tree.body))
    sink: List[FunctionSummary] = []
    # Module scope is a function-like scope named "<module>" so that
    # module-level fan-out dispatches (fixtures, scripts) are analyzed.
    module_scope = _ScopeAnalyzer(
        qualname="<module>",
        name="<module>",
        cls="",
        node=None,
        params=(),
        body=[
            stmt
            for stmt in tree.body
            if not isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            )
        ],
        enclosing_bound=[module_bound],
        sink=sink,
    )
    # Pretend every module-level binding is local to the module scope
    # (it is), so writes there are not misread as free writes.
    module_scope.local = module_bound
    module_scope.analyze()

    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            params = [a.arg for a in _all_args(stmt.args)]
            _ScopeAnalyzer(
                qualname=stmt.name,
                name=stmt.name,
                cls="",
                node=stmt,
                params=params,
                body=stmt.body,
                enclosing_bound=[module_bound],
                sink=sink,
            ).analyze()
        elif isinstance(stmt, ast.ClassDef):
            _analyze_class(stmt, "", [module_bound], sink)

    constants, constant_lines = _module_constants_and_lines(tree)
    classes = tuple(
        stmt.name for stmt in tree.body if isinstance(stmt, ast.ClassDef)
    )
    return FileSummary(
        path=path,
        relpkg=relpkg,
        content_hash=content_hash(source),
        module_findings=tuple(visitor.findings),
        pragmas=scan_pragmas(source),
        imports=tuple(_module_imports(tree)),
        module_bindings=tuple(sorted(module_bound)),
        module_rng_bindings=tuple(sorted(set(_module_rng_bindings(tree)))),
        constants=constants,
        constant_lines=constant_lines,
        sql_literals=tuple(_sql_literals(tree)),
        functions=tuple(sink),
        classes=classes,
    )
