"""Smoke test of the benchmark itself (miniature world, 1-second loops).

Run from the repository root::

    python3 -m pytest perfbench/test_smoke.py -q

It is not part of the tier-1 suite (``testpaths`` names ``tests``); it
takes about a minute because every workload runs once per mode.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import gates
import ledger

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))


#: Loop seconds per smoke run: serve's loop must reach every endpoint
#: of its request mix for each ``serve.app.<endpoint>`` to read above 0.
SECONDS = {"batch": 1, "store": 1, "serve": 3}


def _run(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", "7",
         "--seconds", str(SECONDS[workload]), "--trace", str(trace),
         "--small"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_benchmark_json_matches_the_registry():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert [w["name"] for w in spec["workloads"]] == ["batch", "store", "serve"]
    assert [
        (m["name"], m["unit"], m["better"], m["bound"])
        for m in spec["end_to_end"]
    ] == list(ledger.END_TO_END)
    assert [
        (m["name"], m["unit"], m["better"]) for m in spec["per_layer"]
    ] == [entry[:3] for entry in ledger.PER_LAYER]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert max(bounds.values()) <= 0.25
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["batch", "store", "serve"])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    done = _run(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    record, result = json.loads(lines[-2]), json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = ledger.END_TO_END if trace == 0 else ledger.PER_LAYER
    assert {
        name: value["unit"] for name, value in result["metrics"].items()
    } == {entry[0]: entry[1] for entry in expected}
    assert all(
        isinstance(value["value"], (int, float))
        for value in result["metrics"].values()
    )
    if trace == 0:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        # A layer the workload runs must read above 0: a wrapper that
        # stopped firing would otherwise pass as a free layer.
        silent = [
            name for name in ledger.measured_on(workload)
            if not result["metrics"][name]["value"] > 0
        ]
        assert silent == []
    assert record["host"]["available_cpus"] >= 1
    assert record["host"]["seed"] == 7
    assert all(gate["passed"] for gate in record["gates"])


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        HERE, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    done = _run(str(tmp_path), "batch", 0)
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def _corrupt(text: str) -> str:
    middle = len(text) // 2
    return text[:middle] + ("#" if text[middle] != "#" else "%") + text[middle + 1:]


def test_batch_gates_fire_on_a_corrupted_render():
    from repro.ecosystem import small_config
    from repro.pipeline import PaperPipeline

    with PaperPipeline(small_config(), seed=7) as pipeline:
        text = pipeline.render_all()
    assert all(ok for _, ok in gates.batch_gates(text, [text], joined=text))
    assert not all(ok for _, ok in gates.batch_gates(text, [_corrupt(text)]))
    assert not all(
        ok for _, ok in gates.batch_gates(text, [text], joined=_corrupt(text))
    )


def test_store_and_serve_gates_fire_on_corrupted_outputs(tmp_path):
    import child

    params = {
        "seed": 7, "draw_seed": 7, "small": True, "seconds": 0.2,
        "trace": False, "store_path": str(tmp_path / "s.db"),
    }
    result = child.role_store(params)
    assert all(ok for _, ok in gates.store_gates(result))

    lost = json.loads(json.dumps(result))
    lost["landed"]["bronze"] -= 1
    assert not all(ok for _, ok in gates.store_gates(lost))
    duplicated = json.loads(json.dumps(result))
    duplicated["relanded"]["silver"] += 1
    assert not all(ok for _, ok in gates.store_gates(duplicated))
    wrong = json.loads(json.dumps(result))
    wrong["first_seen_mismatches"] = ["example.com"]
    assert not all(ok for _, ok in gates.store_gates(wrong))

    reference = "Table 1\n"
    good = [("cold", reference.encode())]
    assert all(ok for _, ok in gates.serve_gates(reference, good, [0]))
    bad = [("cold", _corrupt(reference).encode())]
    assert not all(ok for _, ok in gates.serve_gates(reference, bad, [0]))
    assert not all(ok for _, ok in gates.serve_gates(reference, good, [1]))
    rows = [["Hu", 10, 20]]
    body = json.dumps({"domain": "a.com", "sightings": [
        {"feed": "Hu", "first_seen": 10, "last_seen": 20, "n_sightings": 2}
    ]}).encode()
    assert gates.first_seen_matches(body, rows)
    assert not gates.first_seen_matches(body.replace(b"10", b"11"), rows)
