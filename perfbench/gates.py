"""Correctness gates: pure checks over the outputs a run produced.

Each function returns ``[(gate name, passed), ...]``.  A failed gate
counts as a failed operation (it raises ``failed`` and ``error_rate``)
and makes the benchmark exit non-zero.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional, Tuple

Gate = Tuple[str, bool]


def batch_gates(
    cold: str, warms: List[str], joined: Optional[str] = None
) -> List[Gate]:
    """Warm reruns equal the cold text byte for byte; so does the join
    of the per-renderer outputs a traced run captured."""
    gates = [
        (f"batch.warm{i}==cold", text == cold) for i, text in enumerate(warms)
    ]
    gates.append(("batch.text-nonempty", bool(cold.strip())))
    if joined is not None:
        gates.append(("batch.renderer-join==render_all", joined == cold))
    return gates


def store_gates(result: Dict[str, Any]) -> List[Gate]:
    """Every record landed once; a re-land adds nothing; lookups agree."""
    landed, relanded = result["landed"], result["relanded"]
    return [
        ("store.bronze==total_samples", landed["bronze"] == result["records"]),
        ("store.silver+rejected==bronze",
         landed["silver"] + landed["rejected"] == landed["bronze"]),
        ("store.reland-adds-0-rows",
         all(relanded[k] == landed[k]
             for k in ("bronze", "silver", "gold", "rejected"))),
        ("store.first_seen==analysis",
         not result["first_seen_mismatches"]
         and result["first_seen_checked"] > 0),
        ("store.first_seen-earliest-first", bool(result["first_seen_ordered"])),
    ]


def first_seen_matches(body: bytes, expected: List[List[Any]]) -> bool:
    """A ``/v1/first-seen`` body against ``[feed, first, last]`` rows."""
    try:
        sightings = json.loads(body)["sightings"]
        rows = sorted(
            [s["feed"], s["first_seen"], s["last_seen"]] for s in sightings
        )
    except (ValueError, KeyError, TypeError):
        return False
    return rows == expected


def serve_gates(
    reference: str, answers: List[Tuple[str, bytes]], exits: List[int]
) -> List[Gate]:
    """Served tables equal the batch text; the daemons drain cleanly."""
    expected = reference.encode("utf-8")
    gates = [
        (f"serve.{label}-tables==batch", body == expected)
        for label, body in answers
    ]
    gates += [
        (f"serve.daemon{i}-exit==0", code == 0) for i, code in enumerate(exits)
    ]
    return gates


def default_cache_gate(sentinel: str) -> Gate:
    """Nothing wrote to the default cache location the run pointed at."""
    return ("default-cache-untouched", not os.path.exists(sentinel))
