"""Interprocedural rules REP009-REP012, run over the project graph.

Phase 3 of the v2 engine: given every file summary of a run, build a
:class:`~repro.devtools.graph.ProjectGraph` and check the properties
no single-file pass can see:

* **REP009 fork-safety** -- from every worker-pool dispatch,
  walk the call graph of its task roots and flag writes to globals,
  closed-over objects, and module-level mutables: in forked workers
  those writes land in a copy-on-write child and vanish.
* **REP010 RNG stream discipline** -- in the same reachable set, flag
  draws whose receiver is a module-level or closed-over RNG, call
  sites that pass such a stream into a drawing callee, and method
  calls on shared objects whose methods draw from a sequential
  ``self``-attribute stream (the mail-oracle bug class).
* **REP011 cross-boundary float accumulation** -- ``sum()`` over the
  result of a helper that (transitively) returns an unordered
  collection, the interprocedural extension of REP004.
* **REP012 store-schema discipline** -- SQL strings checked against
  the column tuples pinned by ``STORE_SCHEMA_PIN``.

Findings are keyed by file path, in the same ``RawFinding`` currency
as the single-file rules; the engine merges, suppresses, and sorts.
"""

from __future__ import annotations

import re
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.devtools.config import ACCUMULATION_PACKAGES
from repro.devtools.graph import FanoutBoundary, FuncId, ProjectGraph
from repro.devtools.rules import RawFinding, compute_schema_pin
from repro.devtools.summaries import (
    MUTATING_METHODS,
    FileSummary,
    FunctionSummary,
)

# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


def run_interproc_rules(
    summaries: Sequence[FileSummary],
) -> Dict[str, List[RawFinding]]:
    """All interprocedural findings for one lint run, keyed by path."""
    graph = ProjectGraph(summaries)
    findings: Dict[str, List[RawFinding]] = {}

    def emit(path: str, rule: str, line: int, col: int, message: str) -> None:
        findings.setdefault(path, []).append(
            RawFinding(rule=rule, line=line, col=col, message=message)
        )

    _check_fanout_reachable(graph, emit)
    _check_sum_over_helpers(graph, emit)
    _check_store_schema(summaries, emit)
    return findings


# ----------------------------------------------------------------------
# REP009 + REP010: properties of the fan-out reachable set
# ----------------------------------------------------------------------


def _check_fanout_reachable(graph: ProjectGraph, emit) -> None:
    """Walk each fan-out boundary once; REP009 and REP010 share it."""
    seen: Set[Tuple[str, str, int, str]] = set()

    def emit_once(
        path: str, rule: str, line: int, col: int, key: str, message: str
    ) -> None:
        dedup = (path, rule, line, key)
        if dedup in seen:
            return
        seen.add(dedup)
        emit(path, rule, line, col, message)

    for _caller, boundary in graph.fanout_boundaries():
        origin = graph.reachable_from(boundary.roots)
        for func in sorted(origin):
            summary = graph.summary_of(func)
            path = graph.path_of(func)
            _rep009_function(
                graph, boundary, origin, func, summary, path, emit_once
            )
            _rep010_function(
                graph, boundary, origin, func, summary, path, emit_once
            )


def _via(boundary: FanoutBoundary, func: FuncId, root: FuncId) -> str:
    """Human trail: which fan-out made this function parallel."""
    suffix = "" if func == root else f" via task '{root[1]}'"
    return (
        f"reachable from the parallel fan-out at "
        f"{boundary.anchor}{suffix}"
    )


def _rep009_function(
    graph: ProjectGraph,
    boundary: FanoutBoundary,
    origin: Dict[FuncId, FuncId],
    func: FuncId,
    summary: FunctionSummary,
    path: str,
    emit_once,
) -> None:
    root = origin[func]
    for write in summary.free_writes:
        if write.how == "global-assign":
            what = f"assigns the module global '{write.name}'"
        elif write.how == "nonlocal-assign":
            what = f"rebinds the enclosing-scope name '{write.name}'"
        else:
            what = f"mutates the shared object '{write.name}'"
        emit_once(
            path,
            "REP009",
            write.line,
            write.col,
            f"write:{write.name}",
            f"'{summary.qualname}' {what} but is "
            f"{_via(boundary, func, root)}; forked workers write to a "
            f"copy -- return the state from the task instead",
        )
    # Mutating method calls on module-level objects arrive as attr
    # calls; separate them from namespace calls (obs.add) by checking
    # the receiver root against the module's imports.
    module_summary = graph.modules[func[0]]
    aliases = {entry.alias for entry in module_summary.imports}
    for ref in summary.calls:
        if (
            ref.kind == "attr"
            and ref.base_kind == "module"
            and ref.name in MUTATING_METHODS
        ):
            receiver_root = ref.base.split(".")[0]
            if receiver_root in aliases or receiver_root in graph.modules:
                continue
            emit_once(
                path,
                "REP009",
                ref.line,
                ref.col,
                f"write:{ref.base}",
                f"'{summary.qualname}' calls {ref.base}.{ref.name}() on a "
                f"module-level object but is {_via(boundary, func, root)}; "
                f"forked workers mutate a copy -- return the state from "
                f"the task instead",
            )


def _rep010_function(
    graph: ProjectGraph,
    boundary: FanoutBoundary,
    origin: Dict[FuncId, FuncId],
    func: FuncId,
    summary: FunctionSummary,
    path: str,
    emit_once,
) -> None:
    root = origin[func]
    # (a) Direct draws on module-level or closed-over streams.
    for draw in summary.rng_draws:
        if draw.origin in ("module", "free"):
            where = (
                "module-level"
                if draw.origin == "module"
                else "closed-over"
            )
            emit_once(
                path,
                "REP010",
                draw.line,
                draw.col,
                f"draw:{draw.receiver}",
                f"'{summary.qualname}' draws {draw.receiver}."
                f"{draw.method}() from a {where} RNG stream but is "
                f"{_via(boundary, func, root)}; the stream position "
                f"depends on task interleaving -- derive a per-task "
                f"stream with derive_rng instead",
            )
    # (b) Call sites that feed a shared stream into a drawing callee.
    for ref in summary.calls:
        if not ref.rng_args:
            continue
        for target in graph.resolve_call(func, ref, dynamic=False):
            if target not in origin:
                continue
            callee = graph.summary_of(target)
            offset = 1 if callee.cls and ref.kind != "name" else 0
            param_draws = {
                draw.receiver
                for draw in callee.rng_draws
                if draw.origin == "param"
            }
            if not param_draws:
                continue
            for position, arg_origin, arg_name in ref.rng_args:
                index = position + offset
                if index >= len(callee.params):
                    continue
                if callee.params[index] not in param_draws:
                    continue
                if arg_origin in ("module", "free"):
                    where = (
                        "module-level"
                        if arg_origin == "module"
                        else "closed-over"
                    )
                    emit_once(
                        path,
                        "REP010",
                        ref.line,
                        ref.col,
                        f"pass:{arg_name}:{target[1]}",
                        f"'{summary.qualname}' passes the {where} RNG "
                        f"'{arg_name}' into '{target[1]}', which draws "
                        f"from it, and is {_via(boundary, func, root)}; "
                        f"derive a per-task stream with derive_rng "
                        f"instead",
                    )
    # (c) Method calls on shared objects whose methods draw from a
    # sequential self-attribute stream (oracle.observe(...) where the
    # oracle keeps self.rng from construction time).  Closed-over
    # receivers arrive as method calls; module-level receivers as attr
    # calls, which must first be separated from namespace calls.
    module_summary = graph.modules[func[0]]
    aliases = {entry.alias for entry in module_summary.imports}
    for ref in summary.calls:
        if ref.kind == "method" and ref.base_kind in ("free", "module"):
            pass
        elif ref.kind == "attr" and ref.base_kind == "module":
            receiver_root = ref.base.split(".")[0]
            if receiver_root in aliases or receiver_root in graph.modules:
                continue
        else:
            continue
        for target in graph.methods_named(ref.name):
            callee = graph.summary_of(target)
            if any(d.origin == "self" for d in callee.rng_draws):
                emit_once(
                    path,
                    "REP010",
                    ref.line,
                    ref.col,
                    f"shared:{ref.base}.{ref.name}",
                    f"'{summary.qualname}' calls {ref.base}.{ref.name}() "
                    f"on a shared object and '{target[1]}' draws from a "
                    f"sequential self-attribute stream; the call is "
                    f"{_via(boundary, func, root)}, so draws depend on "
                    f"task order -- derive a per-call stream keyed by "
                    f"the task instead",
                )
                break


# ----------------------------------------------------------------------
# REP011: sum() over unordered helper results
# ----------------------------------------------------------------------


def _accumulation_scope(relpkg: Optional[str]) -> bool:
    """Same scope gate as REP004: accumulation packages + outside files."""
    if relpkg is None:
        return True
    top = relpkg.replace("\\", "/").split("/")[0]
    return top in ACCUMULATION_PACKAGES


def _check_sum_over_helpers(graph: ProjectGraph, emit) -> None:
    for module in sorted(graph.modules):
        summary = graph.modules[module]
        if not _accumulation_scope(summary.relpkg):
            continue
        for fn in summary.functions:
            caller = (module, fn.qualname)
            for site in fn.sums_over_calls:
                targets = graph.resolve_call(
                    caller, site.callee, dynamic=False
                )
                for target in targets:
                    if graph.returns_unordered(target):
                        emit(
                            summary.path,
                            "REP011",
                            site.line,
                            site.col,
                            f"sum() accumulates floats over the result "
                            f"of '{target[1]}', which returns an "
                            f"unordered collection; wrap the call in "
                            f"sorted(...) or return a sorted sequence",
                        )
                        break


# ----------------------------------------------------------------------
# REP012: store SQL vs the pinned schema
# ----------------------------------------------------------------------

#: Constant names the store schema module must declare.
STORE_VERSION_NAME = "STORE_VERSION"
STORE_TABLE_NAME = "STORE_SCHEMA_COLUMNS"
STORE_PIN_NAME = "STORE_SCHEMA_PIN"

_CREATE_TABLE_RE = re.compile(
    r"CREATE\s+TABLE(?:\s+IF\s+NOT\s+EXISTS)?\s+(\w+)\s*\(",
    re.IGNORECASE,
)
_CREATE_INDEX_RE = re.compile(
    r"CREATE\s+(?:UNIQUE\s+)?INDEX(?:\s+IF\s+NOT\s+EXISTS)?\s+\w+\s+"
    r"ON\s+(\w+)\s*\(([^)]*)\)",
    re.IGNORECASE,
)
_INSERT_RE = re.compile(
    r"INSERT(?:\s+OR\s+\w+)?\s+INTO\s+(\w+)\s*\(([^)]*)\)",
    re.IGNORECASE,
)
_SELECT_RE = re.compile(
    r"SELECT\s+(.*?)\s+FROM\s+(\w+)",
    re.IGNORECASE | re.DOTALL,
)

#: Leading keywords of table-level constraint clauses inside a CREATE
#: TABLE body (not column definitions).
_CONSTRAINT_STARTERS = frozenset(
    {"PRIMARY", "FOREIGN", "UNIQUE", "CHECK", "CONSTRAINT"}
)

_IDENT_RE = re.compile(r"[A-Za-z_]\w*\Z")


def _split_top_level(text: str) -> List[str]:
    """Split on commas not nested inside parentheses."""
    parts: List[str] = []
    depth = 0
    current: List[str] = []
    for char in text:
        if char == "(":
            depth += 1
        elif char == ")":
            depth -= 1
        if char == "," and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(char)
    parts.append("".join(current))
    return [part.strip() for part in parts if part.strip()]


def _create_table_columns(text: str, start: int) -> Tuple[str, ...]:
    """Column names of a CREATE TABLE body starting at *start* ('(')."""
    depth = 0
    for index in range(start, len(text)):
        if text[index] == "(":
            depth += 1
        elif text[index] == ")":
            depth -= 1
            if depth == 0:
                body = text[start + 1 : index]
                break
    else:
        return ()
    columns: List[str] = []
    for segment in _split_top_level(body):
        first = segment.split()[0]
        if first.upper() in _CONSTRAINT_STARTERS:
            continue
        columns.append(first)
    return tuple(columns)


def _check_store_schema(
    summaries: Sequence[FileSummary], emit
) -> None:
    for summary in summaries:
        constants = summary.constants
        if STORE_PIN_NAME not in constants:
            continue
        pin = constants[STORE_PIN_NAME]
        pin_line = summary.constant_lines.get(STORE_PIN_NAME, 1)
        version = constants.get(STORE_VERSION_NAME)
        table = constants.get(STORE_TABLE_NAME)
        if not isinstance(version, int) or isinstance(version, bool):
            emit(
                summary.path,
                "REP012",
                pin_line,
                0,
                f"{STORE_PIN_NAME} declared without an integer "
                f"{STORE_VERSION_NAME}",
            )
            continue
        declared = _declared_columns(table)
        if declared is None:
            emit(
                summary.path,
                "REP012",
                pin_line,
                0,
                f"{STORE_PIN_NAME} declared without a literal "
                f"{STORE_TABLE_NAME} mapping table -> column names",
            )
            continue
        expected = compute_schema_pin(version, declared)
        if pin != expected:
            emit(
                summary.path,
                "REP012",
                pin_line,
                0,
                f"store schema drifted without a pin bump: "
                f"{STORE_PIN_NAME} is {pin!r} but the declared tables "
                f"pin to {expected!r}; bump {STORE_VERSION_NAME} and "
                f"re-pin",
            )
        _check_sql_literals(summary, declared, emit)


def _declared_columns(
    table: object,
) -> Optional[Dict[str, Tuple[str, ...]]]:
    if not isinstance(table, Mapping):
        return None
    declared: Dict[str, Tuple[str, ...]] = {}
    for name, columns in table.items():
        if not isinstance(name, str):
            return None
        if not isinstance(columns, (tuple, list)) or not all(
            isinstance(column, str) for column in columns
        ):
            return None
        declared[name] = tuple(columns)
    return declared


def _check_sql_literals(
    summary: FileSummary,
    declared: Dict[str, Tuple[str, ...]],
    emit,
) -> None:
    for literal in summary.sql_literals:
        text = literal.text
        for match in _CREATE_TABLE_RE.finditer(text):
            name = match.group(1)
            if name not in declared:
                emit(
                    summary.path,
                    "REP012",
                    literal.line,
                    0,
                    f"CREATE TABLE {name} is not declared in "
                    f"{STORE_TABLE_NAME}; add it and re-pin",
                )
                continue
            columns = _create_table_columns(text, match.end() - 1)
            if columns != declared[name]:
                emit(
                    summary.path,
                    "REP012",
                    literal.line,
                    0,
                    f"CREATE TABLE {name} columns {list(columns)} do "
                    f"not match the pinned "
                    f"{STORE_TABLE_NAME}[{name!r}] = "
                    f"{list(declared[name])}; bump "
                    f"{STORE_VERSION_NAME} and re-pin",
                )
        for match in _CREATE_INDEX_RE.finditer(text):
            name = match.group(1)
            if name not in declared:
                emit(
                    summary.path,
                    "REP012",
                    literal.line,
                    0,
                    f"CREATE INDEX on undeclared table {name}; add it "
                    f"to {STORE_TABLE_NAME} and re-pin",
                )
                continue
            for column in _split_top_level(match.group(2)):
                if _IDENT_RE.match(column) and column not in declared[name]:
                    emit(
                        summary.path,
                        "REP012",
                        literal.line,
                        0,
                        f"index column '{column}' is not a pinned "
                        f"column of {name}",
                    )
        for match in _INSERT_RE.finditer(text):
            name = match.group(1)
            if name not in declared:
                emit(
                    summary.path,
                    "REP012",
                    literal.line,
                    0,
                    f"INSERT INTO undeclared table {name}; add it to "
                    f"{STORE_TABLE_NAME} and re-pin",
                )
                continue
            for column in _split_top_level(match.group(2)):
                if _IDENT_RE.match(column) and column not in declared[name]:
                    emit(
                        summary.path,
                        "REP012",
                        literal.line,
                        0,
                        f"INSERT column '{column}' is not a pinned "
                        f"column of {name}",
                    )
        for match in _SELECT_RE.finditer(text):
            items, name = match.group(1), match.group(2)
            if name not in declared:
                emit(
                    summary.path,
                    "REP012",
                    literal.line,
                    0,
                    f"SELECT from undeclared table {name}; add it to "
                    f"{STORE_TABLE_NAME} and re-pin",
                )
                continue
            for item in _split_top_level(items):
                if _IDENT_RE.match(item) and item not in declared[name]:
                    emit(
                        summary.path,
                        "REP012",
                        literal.line,
                        0,
                        f"SELECT column '{item}' is not a pinned "
                        f"column of {name}",
                    )
