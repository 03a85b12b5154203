"""Module and call graphs composed from per-file summaries.

Phase 2 of the interprocedural engine: given every
:class:`~repro.devtools.summaries.FileSummary` of a lint run, build

* a **module graph** -- dotted module names, import-alias resolution,
  and re-export following (``from pkg.sub import f`` inside
  ``pkg/__init__.py`` makes ``pkg.f`` an alias of ``pkg.sub.f``), and
* a **call graph** -- a resolver from each recorded
  :class:`~repro.devtools.summaries.CallRef` to concrete function
  nodes, plus breadth-first reachability from fan-out task roots.

Resolution is deliberately best-effort (a linter, not an interpreter):

* plain names resolve through local defs, then imports (re-exports
  followed with a cycle guard);
* ``self.m(...)`` resolves within the enclosing class (no inheritance
  walk);
* ``a.b.f(...)`` resolves through the longest imported-module prefix;
* any other ``obj.m(...)`` falls back to *every* analyzed class method
  named ``m`` (dynamic dispatch over-approximated by name).

Unresolvable calls contribute no edges.  Cycles -- import cycles and
recursive call chains alike -- are handled by ordinary visited-set
traversal; they can never loop the analysis.
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.devtools.summaries import (
    CallRef,
    FileSummary,
    FunctionSummary,
    TaskRef,
)

#: A function node: (module name, qualified name within the module).
FuncId = Tuple[str, str]


def module_name_for(path: str, relpkg: Optional[str]) -> str:
    """Dotted module name for a summarized file.

    Files inside the ``repro`` package get their real dotted name
    (``repro.feeds.suite``); outside files (fixtures, scripts) get
    their stem, so single-file lint targets still form a one-node
    graph.
    """
    if relpkg is not None:
        parts = relpkg.replace("\\", "/").split("/")
        if parts[-1] == "__init__.py":
            parts = parts[:-1]
        else:
            parts[-1] = parts[-1][: -len(".py")]
        return ".".join(["repro"] + parts)
    stem = os.path.basename(path)
    if stem.endswith(".py"):
        stem = stem[: -len(".py")]
    return stem


class ProjectGraph:
    """Joint module/call graph over one lint run's summaries."""

    def __init__(self, summaries: Sequence[FileSummary]) -> None:
        self.summaries = list(summaries)
        #: dotted module name -> file summary
        self.modules: Dict[str, FileSummary] = {}
        #: module -> path (for reporting)
        self.module_paths: Dict[str, str] = {}
        for summary in self.summaries:
            name = module_name_for(summary.path, summary.relpkg)
            self.modules[name] = summary
            self.module_paths[name] = summary.path

        #: (module, qualname) -> FunctionSummary
        self.functions: Dict[FuncId, FunctionSummary] = {}
        #: module -> {top-level function name -> qualname}
        self._top_level: Dict[str, Dict[str, str]] = {}
        #: module -> {class -> {method -> qualname}}
        self._methods: Dict[str, Dict[str, Dict[str, str]]] = {}
        #: method name -> every (module, qualname) defining it on a class
        self._method_index: Dict[str, List[FuncId]] = {}
        #: (module, class) -> union of self attrs assigned from derivations
        self._class_derived_attrs: Dict[Tuple[str, str], Set[str]] = {}

        for name, summary in self.modules.items():
            top: Dict[str, str] = {}
            methods: Dict[str, Dict[str, str]] = {}
            for fn in summary.functions:
                self.functions[(name, fn.qualname)] = fn
                if fn.qualname == fn.name and fn.name != "<module>":
                    top[fn.name] = fn.qualname
                if fn.cls and fn.qualname == f"{fn.cls}.{fn.name}":
                    methods.setdefault(fn.cls, {})[fn.name] = fn.qualname
                    self._method_index.setdefault(fn.name, []).append(
                        (name, fn.qualname)
                    )
                    if fn.derived_attrs:
                        self._class_derived_attrs.setdefault(
                            (name, fn.cls), set()
                        ).update(fn.derived_attrs)
            self._top_level[name] = top
            self._methods[name] = methods

        self._unordered_closure: Optional[Dict[FuncId, bool]] = None

    # -- basic lookups --------------------------------------------------

    def summary_of(self, func: FuncId) -> FunctionSummary:
        return self.functions[func]

    def path_of(self, func: FuncId) -> str:
        return self.module_paths[func[0]]

    def class_derived_attrs(self, module: str, cls: str) -> Set[str]:
        return self._class_derived_attrs.get((module, cls), set())

    def methods_named(self, name: str) -> List[FuncId]:
        """Every analyzed class method called *name* (dynamic fallback)."""
        return list(self._method_index.get(name, ()))

    # -- symbol resolution ----------------------------------------------

    def _import_map(self, module: str) -> Dict[str, Tuple[str, str]]:
        mapping: Dict[str, Tuple[str, str]] = {}
        summary = self.modules.get(module)
        if summary is None:
            return mapping
        for entry in summary.imports:
            mapping[entry.alias] = (entry.module, entry.symbol)
        return mapping

    def resolve_symbol(
        self, module: str, name: str, _seen: Optional[Set[Tuple[str, str]]] = None
    ) -> Optional[FuncId]:
        """Resolve *name* as used in *module* to a function node.

        Follows import chains (including re-exports through package
        ``__init__`` modules) with a visited set, so aliased import
        cycles terminate.  A class name resolves to its ``__init__``
        method when one is defined (calling a class runs it).
        """
        if _seen is None:
            _seen = set()
        if (module, name) in _seen:
            return None
        _seen.add((module, name))
        if module not in self.modules:
            return None
        top = self._top_level[module]
        if name in top:
            return (module, top[name])
        if name in self.modules[module].classes:
            init = self._methods[module].get(name, {}).get("__init__")
            if init is not None:
                return (module, init)
            return None
        imported = self._import_map(module).get(name)
        if imported is None:
            return None
        target_module, symbol = imported
        if symbol == "":
            return None  # a module alias, not a callable
        # ``from pkg import sub`` where pkg.sub is itself a module:
        # the alias names a module, not a symbol.
        if f"{target_module}.{symbol}" in self.modules:
            return None
        return self.resolve_symbol(target_module, symbol, _seen)

    # -- call resolution ------------------------------------------------

    def resolve_call(
        self,
        caller: FuncId,
        ref: CallRef,
        dynamic: bool = True,
    ) -> List[FuncId]:
        """Every function node *ref* may dispatch to from *caller*."""
        module, qualname = caller
        if ref.kind == "name":
            nested = (module, f"{qualname}.<locals>.{ref.name}")
            if nested in self.functions:
                return [nested]
            found = self.resolve_symbol(module, ref.name)
            return [found] if found is not None else []
        if ref.kind == "self":
            fn = self.functions.get(caller)
            if fn is not None and fn.cls:
                target = self._methods.get(module, {}).get(
                    fn.cls, {}
                ).get(ref.name)
                if target is not None:
                    return [(module, target)]
            return []
        if ref.kind == "attr":
            target_module = self._resolve_attr_module(module, ref.base)
            if target_module is not None:
                top = self._top_level.get(target_module, {})
                if ref.name in top:
                    return [(target_module, top[ref.name])]
                # Re-exported through the target package's __init__.
                found = self.resolve_symbol(target_module, ref.name)
                return [found] if found is not None else []
            if dynamic:
                return self.methods_named(ref.name)
            return []
        if ref.kind == "method" and dynamic:
            return self.methods_named(ref.name)
        return []

    def _resolve_attr_module(
        self, module: str, dotted: str
    ) -> Optional[str]:
        """The analyzed module named by a dotted call receiver."""
        parts = dotted.split(".")
        imported = self._import_map(module).get(parts[0])
        if imported is None:
            # Maybe the receiver already is a full module path.
            return dotted if dotted in self.modules else None
        target_module, symbol = imported
        if symbol == "":
            base_parts = [target_module] + parts[1:]
        else:
            base_parts = [target_module, symbol] + parts[1:]
        candidate = ".".join(base_parts)
        return candidate if candidate in self.modules else None

    # -- fan-out roots --------------------------------------------------

    def resolve_task(
        self, caller: FuncId, task: TaskRef
    ) -> Optional[FuncId]:
        """The function node one fan-out task expression names."""
        module, qualname = caller
        if task.kind == "lambda":
            node = (module, task.value)
            return node if node in self.functions else None
        if task.kind == "name":
            results = self.resolve_call(
                caller,
                CallRef(
                    kind="name", base="", name=task.value,
                    line=task.line, col=0,
                ),
                dynamic=False,
            )
            return results[0] if results else None
        if task.kind == "self-method":
            fn = self.functions.get(caller)
            if fn is not None and fn.cls:
                target = self._methods.get(module, {}).get(
                    fn.cls, {}
                ).get(task.value)
                if target is not None:
                    return (module, target)
            return None
        if task.kind == "attr":
            base, _, name = task.value.rpartition(".")
            results = self.resolve_call(
                caller,
                CallRef(
                    kind="attr", base=base, name=name,
                    line=task.line, col=0,
                ),
                dynamic=False,
            )
            return results[0] if results else None
        return None

    def fanout_boundaries(self) -> List[Tuple[FuncId, "FanoutBoundary"]]:
        """Every fan-out dispatch with its resolved task roots."""
        boundaries: List[Tuple[FuncId, FanoutBoundary]] = []
        for module in sorted(self.modules):
            summary = self.modules[module]
            for fn in summary.functions:
                caller = (module, fn.qualname)
                for site in fn.fanouts:
                    roots = []
                    for task in site.tasks:
                        resolved = self.resolve_task(caller, task)
                        if resolved is not None:
                            roots.append(resolved)
                    boundaries.append(
                        (
                            caller,
                            FanoutBoundary(
                                path=summary.path,
                                line=site.line,
                                caller=caller,
                                roots=tuple(dict.fromkeys(roots)),
                            ),
                        )
                    )
        return boundaries

    # -- reachability ---------------------------------------------------

    def reachable_from(
        self, roots: Iterable[FuncId], dynamic: bool = True
    ) -> Dict[FuncId, FuncId]:
        """BFS closure over call edges; maps each node to its root.

        The visited-set traversal makes recursive and mutually
        recursive call chains terminate; the returned mapping
        remembers which task root first reached each function (for
        finding messages).
        """
        queue: List[FuncId] = []
        origin: Dict[FuncId, FuncId] = {}
        for root in roots:
            if root in self.functions and root not in origin:
                origin[root] = root
                queue.append(root)
        while queue:
            node = queue.pop(0)
            fn = self.functions[node]
            refs = list(fn.calls) + list(fn.return_calls)
            for ref in refs:
                for target in self.resolve_call(node, ref, dynamic=dynamic):
                    if target not in origin and target in self.functions:
                        origin[target] = origin[node]
                        queue.append(target)
        return origin

    # -- returns-unordered fixpoint --------------------------------------

    def returns_unordered(self, func: FuncId) -> bool:
        """Does *func* (transitively) return an unordered collection?"""
        if self._unordered_closure is None:
            self._unordered_closure = self._compute_unordered_closure()
        return self._unordered_closure.get(func, False)

    def _compute_unordered_closure(self) -> Dict[FuncId, bool]:
        closure: Dict[FuncId, bool] = {
            func: fn.returns_unordered
            for func, fn in self.functions.items()
        }
        changed = True
        while changed:
            changed = False
            for func, fn in self.functions.items():
                if closure[func]:
                    continue
                for ref in fn.return_calls:
                    targets = self.resolve_call(func, ref, dynamic=False)
                    if any(closure.get(t, False) for t in targets):
                        closure[func] = True
                        changed = True
                        break
        return closure


class FanoutBoundary:
    """One worker-pool dispatch: where, and what it runs."""

    def __init__(
        self,
        path: str,
        line: int,
        caller: FuncId,
        roots: Tuple[FuncId, ...],
    ) -> None:
        self.path = path
        self.line = line
        self.caller = caller
        self.roots = roots

    @property
    def anchor(self) -> str:
        return f"{self.path}:{self.line}"

    def __repr__(self) -> str:
        return (
            f"FanoutBoundary({self.anchor}, caller={self.caller}, "
            f"roots={len(self.roots)})"
        )
