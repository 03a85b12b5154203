"""Measure the world build and the serial scale summary across scales.

Writes ``BENCH_world.json``: wall-clock seconds and peak RSS for the
ecosystem build at 1x / 10x the paper scale, assembled into a
:class:`~repro.ecosystem.world.World`, and for the unit-by-unit scale
summary (:func:`~repro.ecosystem.summarize_world`) at 10x / 100x.
Run it directly:

    PYTHONPATH=src python benchmarks/world_scale.py --out BENCH_world.json

Every scenario runs in a **fresh subprocess** because ``ru_maxrss`` is a
process-lifetime high-water mark: measuring two scenarios in one
process would report the larger build's peak for both.  The 100x
assembled world is never built -- its row is extrapolated linearly
from the measured 10x world.

The host core count is embedded (``available_cpus``) so every number
names its host; every scenario runs in one process on one core.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

#: (label, scale, mode).  mode "world" assembles the full World object
#: graph in one heap ("monolithic"); mode "summary" folds units into the
#: scale summary one at a time without materializing a world.
SCENARIOS = [
    ("1x-monolithic-world", 1.0, "world"),
    ("10x-monolithic-world", 10.0, "world"),
    ("10x-serial-summary", 10.0, "summary"),
    ("100x-serial-summary", 100.0, "summary"),
]

_CHILD = r"""
import json, resource, sys, time
from repro.ecosystem import (
    build_world, paper_config, scaled_config, summarize_world,
    world_fingerprint,
)

scale, mode, seed = float(sys.argv[1]), sys.argv[2], int(sys.argv[3])
config = paper_config()
if scale != 1.0:
    config = scaled_config(config, scale)

start = time.perf_counter()
if mode == "world":
    world = build_world(config, seed=seed)
    payload = {
        "campaigns": len(world.campaigns),
        "fingerprint": world_fingerprint(world),
    }
else:
    summary = summarize_world(config, seed=seed)
    payload = {
        "campaigns": summary.campaigns,
        "placements": summary.placements,
        "merged_events": summary.merged_events,
        "fingerprint": summary.fingerprint,
    }
elapsed = time.perf_counter() - start
payload["wall_seconds"] = round(elapsed, 3)
payload["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps(payload))
"""


def run_scenario(label, scale, mode, seed):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, str(scale), mode, str(seed)],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    result.update(label=label, scale=scale, mode=mode)
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_world.json")
    parser.add_argument("--seed", type=int, default=2012)
    parser.add_argument(
        "--quick", action="store_true",
        help="only the 1x scenarios (CI smoke)",
    )
    args = parser.parse_args(argv)

    scenarios = [
        s for s in SCENARIOS if not args.quick or s[1] == 1.0
    ]
    results = []
    for label, scale, mode in scenarios:
        print(f"[world-scale] {label} ...", file=sys.stderr, flush=True)
        results.append(run_scenario(label, scale, mode, args.seed))
        row = results[-1]
        print(
            f"[world-scale] {label}: {row['wall_seconds']}s, "
            f"peak {row['peak_rss_kib']} KiB",
            file=sys.stderr, flush=True,
        )

    by_label = {r["label"]: r for r in results}
    derived = {}
    world10 = by_label.get("10x-monolithic-world")
    if world10 is not None:
        # Never actually built: linear extrapolation of the measured
        # 10x assembled world, the cost the summary avoids.
        derived["100x-monolithic-extrapolated"] = {
            "wall_seconds": round(world10["wall_seconds"] * 10, 1),
            "peak_rss_kib": world10["peak_rss_kib"] * 10,
        }
        summary100 = by_label.get("100x-serial-summary")
        if summary100 is not None:
            derived["rss_ratio_100x_summary_vs_extrapolated"] = round(
                summary100["peak_rss_kib"]
                / (world10["peak_rss_kib"] * 10),
                3,
            )

    report = {
        "available_cpus": os.cpu_count(),
        "seed": args.seed,
        "scenarios": results,
        "derived": derived,
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"[world-scale] wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
