"""Streaming engine throughput over the paper-scale record volume.

One bench: build an engine over the collected datasets, drain it, and
render Table 1/2/3 from the drained snapshot -- the work a ``stream``
run does after collection.  It reports records/sec via ``extra_info``
so throughput regressions are visible in the benchmark log, and
re-asserts batch equivalence on the rendered tables so a
fast-but-wrong optimization cannot slip through.
"""

from __future__ import annotations

from repro.stream import StreamEngine


def test_engine_throughput(benchmark, pipeline, show):
    result = pipeline.run()
    total = sum(ds.total_samples for ds in result.datasets.values())

    def drain_and_render():
        engine = StreamEngine(
            result.world, result.datasets,
            seed=pipeline.seed, feed_order=pipeline.feed_order,
        )
        engine.run()
        snapshot = engine.snapshot()
        return engine, snapshot, snapshot.render_tables()

    engine, snapshot, tables = benchmark(drain_and_render)
    assert engine.records_processed == total
    assert tables == "\n\n".join(
        [
            pipeline.render_table1(),
            pipeline.render_table2(),
            pipeline.render_table3(),
        ]
    )
    rate = total / benchmark.stats.stats.mean
    benchmark.extra_info["records"] = total
    benchmark.extra_info["records_per_sec"] = round(rate)
    show(
        f"[stream] drain + render: {total:,} records, "
        f"{rate:,.0f} records/s\n\n" + snapshot.header()
    )
