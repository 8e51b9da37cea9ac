#!/usr/bin/env python3
"""Fails when the benchmark's sources reach for an API that the roadmap
deletes or folds away.

The benchmark must keep measuring the same thing while those refactors land,
and later changes may not edit it, so it may only call the stable public
surface: no serve engine, no lazy-refresh internals, no process-wide metric
singletons, no reference-only lookups and no bench scaffolding.

    python3 perfbench/tests/check_surface.py
"""
import pathlib
import re
import sys

FORBIDDEN = [
    r"serve::",
    r"serve/",
    r"\bEngine\b",
    r"\bWorldGate\b",
    r"\begress_pop_stale\b",
    r"\bviewpoint_fib_generation\b",
    r"\bviewpoint_delta_cursor\b",
    r"\brib_generation\b",
    r"::global\(\)",
    r"\bCounters\b",
    r"\bFlatFibMetrics\b",
    r"\bConvergenceMetrics\b",
    r"\bTrafficMetrics\b",
    r"\bMetricsRegistry\b",
    r"\bAttrTable\b",
    r"\bconvergence_stats\b",
    r"\blookup_uncompiled\b",
    r"bench_common\.hpp",
    r"\bgenerate_trace\b",
    # Config fields the metrics-path refactor plumbs away: the benchmark
    # runs default configs apart from the fields a workload needs.
    r"\bpublish_gauges\b",
    r"\brecord_metrics\b",
    r"\bfib_patch_max_dirty_fraction\b",
    r"\bstream_flush_prefixes\b",
]

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "cpp").glob("*.[ch]pp")) + [ROOT / "run.py"]


def main() -> int:
    hits = []
    for path in SOURCES:
        for number, line in enumerate(path.read_text().splitlines(), 1):
            for pattern in FORBIDDEN:
                if re.search(pattern, line):
                    hits.append(f"{path.relative_to(ROOT)}:{number}: {pattern}: {line.strip()}")
    for hit in hits:
        print(hit, file=sys.stderr)
    if hits:
        print(f"{len(hits)} reference(s) to APIs the benchmark must not use", file=sys.stderr)
        return 1
    print(f"checked {len(SOURCES)} files: no forbidden API references")
    return 0


if __name__ == "__main__":
    sys.exit(main())
