"""reprolint v2 throughput over the real ``src/repro`` tree.

Three benches around the summary cache and the parallel summarizer:

* cold serial lint (every file summarized from source, fresh cache);
* warm lint (every summary served from the content-hash cache); and
* cold parallel lint (``jobs=4`` on a forked ``WorkerPool``).

Every bench asserts its findings are empty (the tree is lint-clean)
and identical across paths, so a fast-but-divergent engine cannot
slip through as a throughput win.
"""

from __future__ import annotations

import itertools
import pathlib

from repro.devtools.lint import iter_python_files, lint_paths
from repro.io.artifacts import ArtifactCache

SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src" / "repro")


def _render(findings):
    return [f.to_dict() for f in findings]


def test_lint_cold_serial(benchmark, tmp_path, show):
    n_files = len(list(iter_python_files([SRC])))
    dirs = iter(str(tmp_path / f"cold{i}") for i in itertools.count())

    def cold():
        return lint_paths([SRC], cache=ArtifactCache(next(dirs)))

    findings = benchmark.pedantic(cold, rounds=3)
    assert findings == []
    rate = n_files / benchmark.stats.stats.mean
    benchmark.extra_info["files"] = n_files
    benchmark.extra_info["files_per_sec"] = round(rate, 1)
    show(f"[lint] cold serial: {n_files} files, {rate:,.1f} files/s")


def test_lint_warm_cache(benchmark, tmp_path, show):
    n_files = len(list(iter_python_files([SRC])))
    cache = ArtifactCache(str(tmp_path / "warm"))
    cold = lint_paths([SRC], cache=cache)

    def warm():
        return lint_paths([SRC], cache=cache)

    findings = benchmark.pedantic(warm, rounds=3)
    assert _render(findings) == _render(cold)
    rate = n_files / benchmark.stats.stats.mean
    benchmark.extra_info["files"] = n_files
    benchmark.extra_info["files_per_sec"] = round(rate, 1)
    show(f"[lint] warm cache: {n_files} files, {rate:,.1f} files/s")


def test_lint_cold_parallel(benchmark, tmp_path, show):
    n_files = len(list(iter_python_files([SRC])))
    serial = lint_paths([SRC], cache=ArtifactCache(str(tmp_path / "ser")))
    dirs = iter(str(tmp_path / f"par{i}") for i in itertools.count())

    def parallel():
        return lint_paths([SRC], jobs=4, cache=ArtifactCache(next(dirs)))

    findings = benchmark.pedantic(parallel, rounds=3)
    assert _render(findings) == _render(serial)
    rate = n_files / benchmark.stats.stats.mean
    benchmark.extra_info["files"] = n_files
    benchmark.extra_info["jobs"] = 4
    benchmark.extra_info["files_per_sec"] = round(rate, 1)
    show(f"[lint] cold parallel (4 jobs): {n_files} files, {rate:,.1f} files/s")
