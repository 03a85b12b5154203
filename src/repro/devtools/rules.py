"""AST visitors implementing the single-file rules.

The single-file rules (REP001..REP005, REP007, REP008) run in one pass
per module via :class:`ModuleRuleVisitor`; the cross-file rules
(REP009..REP012) live in :mod:`repro.devtools.rules_interproc`.

All rules are heuristic in the way any useful linter is: they match
the syntactic shapes this codebase actually uses, and every finding
can be silenced with a ``# reprolint: disable=REPxxx`` pragma where
the human knows better (e.g. an integer-valued accumulation, where
order genuinely cannot matter).
"""

from __future__ import annotations

import ast
import dataclasses
import hashlib
import json
from typing import List, Mapping, Optional, Sequence

from repro.devtools.config import (
    ACCUMULATION_PACKAGES,
    OBS_PACKAGES,
    SIMULATION_PACKAGES,
)

#: Stateful module-level functions of the :mod:`random` module (draw
#: from or reset the hidden global stream).  ``random.Random`` is fine:
#: it constructs an explicitly seeded, independent generator.
RANDOM_MODULE_STATE = frozenset(
    {
        "random",
        "seed",
        "getstate",
        "setstate",
        "randint",
        "randrange",
        "randbytes",
        "getrandbits",
        "choice",
        "choices",
        "shuffle",
        "sample",
        "uniform",
        "triangular",
        "betavariate",
        "binomialvariate",
        "expovariate",
        "gammavariate",
        "gauss",
        "lognormvariate",
        "normalvariate",
        "vonmisesvariate",
        "paretovariate",
        "weibullvariate",
    }
)

#: Wall-clock reads: ``time.<attr>`` calls that return host time.
#: ``time.perf_counter`` is deliberately absent -- durations for
#: progress reporting are harmless.
TIME_MODULE_WALLCLOCK = frozenset(
    {"time", "time_ns", "localtime", "gmtime", "ctime", "strftime"}
)

#: Wall-clock constructors on ``datetime``/``date`` objects.
DATETIME_WALLCLOCK = frozenset({"now", "today", "utcnow"})

#: Every host-clock read on the ``time`` module, monotonic sources
#: included.  REP008 quarantines all of them inside ``repro.obs`` --
#: even duration-only clocks, so the timing feeding traces and run
#: manifests has exactly one auditable home.
TIME_MODULE_HOSTTIME = TIME_MODULE_WALLCLOCK | frozenset(
    {
        "perf_counter",
        "perf_counter_ns",
        "monotonic",
        "monotonic_ns",
        "process_time",
        "process_time_ns",
        "thread_time",
        "thread_time_ns",
    }
)

#: Methods of ``random.Random`` that consume the stream.
RNG_DRAW_METHODS = RANDOM_MODULE_STATE - {"seed", "getstate", "setstate"}

#: Method names whose return value is an unordered (or
#: insertion-ordered, hence path-dependent) collection view.
UNORDERED_VIEW_METHODS = frozenset({"values", "items", "unique_domains"})

#: Pool/executor methods that yield results in *completion* order --
#: never acceptable in reproducible code without an explicit pragma.
COMPLETION_ORDER_METHODS = frozenset({"imap_unordered", "as_completed"})

#: Pool/executor fan-out methods whose reduction order callers must
#: make explicit (flagged only on pool/executor-named receivers).
POOL_MAP_METHODS = frozenset(
    {"map", "imap", "starmap", "map_async", "starmap_async"}
)

#: Modules whose ``cpu_count`` reads host hardware into the run.
CPU_COUNT_MODULES = frozenset({"os", "multiprocessing"})

#: Binary set operators (``&``, ``|``, ``^``); ``-`` is excluded
#: because numeric subtraction is far more common.
_SET_BINOPS = (ast.BitAnd, ast.BitOr, ast.BitXor)


def _is_sorted_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "sorted"
    )


def _is_unordered_iterable(node: ast.AST) -> bool:
    """Heuristic: does this expression iterate in container order that
    may differ between equal-content collections?"""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
            return True
        if (
            isinstance(func, ast.Attribute)
            and func.attr in UNORDERED_VIEW_METHODS
        ):
            return True
    if isinstance(node, ast.BinOp) and isinstance(node.op, _SET_BINOPS):
        return True
    return False


def _is_order_free_value(node: ast.AST) -> bool:
    """True for expressions whose sum is order-independent (integers)."""
    if isinstance(node, ast.Constant):
        return isinstance(node.value, int)  # bool is an int subtype
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("int", "len", "ord", "bool")
    if isinstance(node, ast.IfExp):
        return _is_order_free_value(node.body) and _is_order_free_value(
            node.orelse
        )
    return False


def _rng_receiver(node: ast.AST) -> bool:
    """Does this expression look like a ``random.Random`` instance?"""
    if isinstance(node, ast.Name):
        return "rng" in node.id.lower()
    if isinstance(node, ast.Attribute):
        return "rng" in node.attr.lower()
    return False


def _pool_receiver(node: ast.AST) -> bool:
    """Does this expression look like a worker pool or executor?"""
    if isinstance(node, ast.Name):
        name = node.id.lower()
    elif isinstance(node, ast.Attribute):
        name = node.attr.lower()
    else:
        return False
    return "pool" in name or "executor" in name


@dataclasses.dataclass(frozen=True)
class RawFinding:
    """A rule hit before severity assignment and pragma filtering."""

    rule: str
    line: int
    col: int
    message: str


def _first_package(relpkg: Optional[str]) -> Optional[str]:
    if relpkg is None:
        return None
    return relpkg.replace("\\", "/").split("/", 1)[0]


class ModuleRuleVisitor(ast.NodeVisitor):
    """One-pass visitor for the single-file rules (REP001..REP005,
    REP007, REP008).

    Parameters
    ----------
    relpkg:
        Path of the module relative to the ``repro`` package root
        (e.g. ``"analysis/volume.py"``), or None for files outside the
        package.  Scoped rules (REP003, REP004) apply inside their
        scope packages and -- so fixtures exercise them -- to files
        outside the package entirely.  REP008 is the inverse shape: it
        applies to every file *inside* the package except the
        ``repro.obs`` quarantine, and never to outside files (whose
        host-clock reads are not this project's timing sources).
    """

    def __init__(self, relpkg: Optional[str] = None):
        first = _first_package(relpkg)
        outside = relpkg is None
        self.check_wallclock = outside or first in SIMULATION_PACKAGES
        self.check_accumulation = outside or first in ACCUMULATION_PACKAGES
        self.check_hosttime = not outside and first not in OBS_PACKAGES
        self.findings: List[RawFinding] = []
        #: Stack of loop/comprehension iterables that are unordered.
        self._unordered_loops: List[ast.AST] = []

    # -- helpers -------------------------------------------------------

    def _emit(self, rule: str, node: ast.AST, message: str) -> None:
        self.findings.append(
            RawFinding(
                rule=rule,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0),
                message=message,
            )
        )

    # -- REP001 / REP003: imports --------------------------------------

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "random":
            bad = sorted(
                alias.name
                for alias in node.names
                if alias.name in RANDOM_MODULE_STATE
            )
            if bad:
                self._emit(
                    "REP001",
                    node,
                    "importing module-level random state "
                    f"({', '.join(bad)}) from 'random'; derive a "
                    "per-component stream with stats.rng.derive_rng",
                )
        if node.module in CPU_COUNT_MODULES and any(
            alias.name == "cpu_count" for alias in node.names
        ):
            self._emit(
                "REP007",
                node,
                f"importing cpu_count from '{node.module}' reads host "
                "hardware into the run; core count may only set "
                "execution width (reduce results by task index)",
            )
        if node.module == "concurrent.futures" and any(
            alias.name == "as_completed" for alias in node.names
        ):
            self._emit(
                "REP007",
                node,
                "importing as_completed: iterating futures in "
                "completion order is scheduler-dependent; collect "
                "results by task index instead",
            )
        if self.check_wallclock and node.module == "time":
            bad = sorted(
                alias.name
                for alias in node.names
                if alias.name in TIME_MODULE_WALLCLOCK
            )
            if bad:
                self._emit(
                    "REP003",
                    node,
                    f"importing wall-clock function ({', '.join(bad)}) "
                    "from 'time' in simulation code; use the simulation "
                    "clock (repro.simtime)",
                )
        if self.check_hosttime and node.module == "time":
            bad = sorted(
                alias.name
                for alias in node.names
                if alias.name in TIME_MODULE_HOSTTIME
            )
            if bad:
                self._emit(
                    "REP008",
                    node,
                    f"importing host-clock function ({', '.join(bad)}) "
                    "from 'time' outside repro.obs; route timing "
                    "through repro.obs.hosttime",
                )
        self.generic_visit(node)

    # -- Calls: REP001, REP002, REP003, REP004, REP005 -----------------

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            self._check_attribute_call(node, func)
        elif isinstance(func, ast.Name):
            if func.id == "hash":
                self._emit(
                    "REP002",
                    node,
                    "builtin hash() is salted per process "
                    "(PYTHONHASHSEED) and must not feed seeds or "
                    "derived keys; use stats.rng.derive_seed",
                )
            elif func.id == "sum" and self.check_accumulation:
                self._check_sum(node)
            elif func.id == "as_completed":
                self._emit(
                    "REP007",
                    node,
                    "as_completed() yields futures in completion "
                    "order, which depends on OS scheduling; collect "
                    "results by task index instead",
                )
        self.generic_visit(node)

    def _check_attribute_call(
        self, node: ast.Call, func: ast.Attribute
    ) -> None:
        value = func.value
        if (
            isinstance(value, ast.Name)
            and value.id == "random"
            and func.attr in RANDOM_MODULE_STATE
        ):
            self._emit(
                "REP001",
                node,
                f"random.{func.attr}() uses the hidden module-level "
                "stream; derive a per-component stream with "
                "stats.rng.derive_rng",
            )
        if self.check_wallclock:
            if (
                isinstance(value, ast.Name)
                and value.id == "time"
                and func.attr in TIME_MODULE_WALLCLOCK
            ):
                self._emit(
                    "REP003",
                    node,
                    f"time.{func.attr}() reads the wall clock in "
                    "simulation code; use the simulation clock "
                    "(repro.simtime)",
                )
            if func.attr in DATETIME_WALLCLOCK and self._is_datetime_ref(
                value
            ):
                self._emit(
                    "REP003",
                    node,
                    f"datetime wall-clock call .{func.attr}() in "
                    "simulation code; use the simulation clock "
                    "(repro.simtime)",
                )
        if self.check_hosttime:
            if (
                isinstance(value, ast.Name)
                and value.id == "time"
                and func.attr in TIME_MODULE_HOSTTIME
            ):
                self._emit(
                    "REP008",
                    node,
                    f"time.{func.attr}() reads a host clock outside "
                    "repro.obs; route timing through "
                    "repro.obs.hosttime",
                )
            if func.attr in DATETIME_WALLCLOCK and self._is_datetime_ref(
                value
            ):
                self._emit(
                    "REP008",
                    node,
                    f"datetime host-clock call .{func.attr}() outside "
                    "repro.obs; route timing through "
                    "repro.obs.hosttime",
                )
        if (
            func.attr in RNG_DRAW_METHODS
            and _rng_receiver(value)
            and self._unordered_loops
        ):
            self._emit(
                "REP005",
                node,
                f"RNG draw .{func.attr}() while iterating an unordered "
                "collection consumes the stream in container order; "
                "iterate sorted(...) instead",
            )
        if func.attr == "cpu_count" and (
            isinstance(value, ast.Name) and value.id in CPU_COUNT_MODULES
        ):
            self._emit(
                "REP007",
                node,
                f"{value.id}.cpu_count() reads host hardware into the "
                "run; core count may only set execution width (reduce "
                "results by task index)",
            )
        if func.attr in COMPLETION_ORDER_METHODS:
            self._emit(
                "REP007",
                node,
                f".{func.attr}() yields results in completion order, "
                "which depends on OS scheduling; collect results by "
                "task index instead",
            )
        elif func.attr in POOL_MAP_METHODS and _pool_receiver(value):
            self._emit(
                "REP007",
                node,
                f".{func.attr}() on a worker pool: make the reduction "
                "order explicit (index-tagged results reassembled by "
                "task index) and record it with a pragma",
            )

    @staticmethod
    def _is_datetime_ref(node: ast.AST) -> bool:
        if isinstance(node, ast.Name):
            return node.id in ("datetime", "date")
        if isinstance(node, ast.Attribute):
            return node.attr in ("datetime", "date")
        return False

    # -- REP004: unsorted float accumulation ---------------------------

    def _check_sum(self, node: ast.Call) -> None:
        if not node.args:
            return
        arg = node.args[0]
        if _is_sorted_call(arg):
            return
        if _is_unordered_iterable(arg):
            self._emit(
                "REP004",
                node,
                "sum() over an unordered iterable accumulates floats "
                "in container order; wrap the iterable in sorted(...)",
            )
            return
        if isinstance(arg, (ast.GeneratorExp, ast.ListComp)):
            if _is_order_free_value(arg.elt):
                return
            first = arg.generators[0]
            if _is_sorted_call(first.iter):
                return
            if _is_unordered_iterable(first.iter):
                self._emit(
                    "REP004",
                    node,
                    "sum() over a comprehension of an unordered "
                    "iterable accumulates floats in container order; "
                    "iterate sorted(...) instead",
                )

    # -- Loop tracking for REP004 (AugAssign) and REP005 ---------------

    def _loop_is_unordered(self, iter_node: ast.AST) -> bool:
        return not _is_sorted_call(iter_node) and _is_unordered_iterable(
            iter_node
        )

    def visit_For(self, node: ast.For) -> None:
        unordered = self._loop_is_unordered(node.iter)
        if unordered:
            self._unordered_loops.append(node.iter)
        self.generic_visit(node)
        if unordered:
            self._unordered_loops.pop()

    def _visit_comprehension(self, node: ast.AST) -> None:
        pushed = 0
        for comp in node.generators:  # type: ignore[attr-defined]
            if self._loop_is_unordered(comp.iter):
                self._unordered_loops.append(comp.iter)
                pushed += 1
        self.generic_visit(node)
        for _ in range(pushed):
            self._unordered_loops.pop()

    visit_GeneratorExp = _visit_comprehension
    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_DictComp = _visit_comprehension

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if (
            self.check_accumulation
            and isinstance(node.op, ast.Add)
            and self._unordered_loops
            and not _is_order_free_value(node.value)
        ):
            self._emit(
                "REP004",
                node,
                "augmented accumulation inside a loop over an "
                "unordered collection adds floats in container order; "
                "iterate sorted(...) instead",
            )
        self.generic_visit(node)


# ----------------------------------------------------------------------
# Schema pins (REP012 checks the store's)
# ----------------------------------------------------------------------


def compute_schema_pin(
    version: int, schemas: Mapping[str, Sequence[str]]
) -> str:
    """The expected pin for a *version* and its *schemas* table.

    The pin embeds the version, so any field change forces an edit to
    the pin and makes the absent version bump visible in review.
    """
    canonical = json.dumps(
        {kind: list(fields) for kind, fields in schemas.items()},
        sort_keys=True,
        separators=(",", ":"),
    )
    digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]
    return f"v{version}:{digest}"
