#!/usr/bin/env python3
"""Builds and runs the vnskit benchmark.

    python3 perfbench/run.py --workload serve_paper --seed 1 --seconds 18 --trace 0

Run it from the repository root.  The first run configures and builds the
library modules of ../src plus the perfbench program (a CMake project of its
own, perfbench/CMakeLists.txt) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench; later runs reuse the build.  The program builds the
paper-scale world three times, runs one workload's mix of request classes for
about --seconds, checks its answers against the Loc-RIB oracle and prints one
JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are every end-to-end metric; with --trace 1 they
are every per-layer metric, taken from spans the program
records around each call into the library (spans.jsonl and a per-layer
table land in the run's artifact directory, printed below the metrics).

Exit status: 0 for a complete run, 1 for a failed build or run, 2 when the
library sources are missing or the arguments are bad.
"""
import argparse
import fcntl
import json
import os
import pathlib
import signal
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ["serve_paper", "churn_paper", "campaign_paper"]
# Every workload prints every metric, in this order; the names and units are
# declared in BENCHMARK.json, and why each workload exists is recorded there
# and beside its definition in cpp/workloads.hpp.
END_TO_END = ["setup_s", "peak_rss_mb", "resolve_rate", "call_p90_us", "flap_p50_ms",
              "flap_p99_ms", "failover_p50_ms", "sessions_per_s",
              "probe_rounds_per_s", "te_passes_per_s"]
PER_LAYER = [
    "measure.world_build_s", "measure.world_build_rss_mb", "bgp.feed_s", "bgp.feed_messages",
    "bgp.feed_cpu_ratio", "bgp.feed_rss_mb", "bgp.geo_flip_s", "bgp.geo_flip_messages",
    "core.fib_compile_ms",
    "core.egress_pop_ns", "core.fib_refresh_us", "core.fib_refreshes", "core.select_ingress_ns",
    "core.internal_rtt_ns",
    "bgp.flap_apply_us", "bgp.flap_converge_us", "bgp.flap_messages", "bgp.flap_useful_ratio",
    "core.flap_refresh_us", "core.flap_dirty_prefixes",
    "bgp.link_fault_ms", "bgp.upstream_fault_ms", "bgp.fault_messages", "bgp.fault_useful_ratio",
    "bgp.fault_cpu_ratio", "core.fault_refresh_ms", "core.fault_dirty_fraction",
    "measure.stream_s", "measure.stream_cpu_ratio", "measure.stream_paths_us", "measure.train_s",
    "measure.train_cpu_ratio", "measure.probe_segments_us", "traffic.matrix_ms",
    "traffic.assign_us", "traffic.offload_us", "traffic.offload_accept_ratio",
    "host.clock_ns", "host.mem_probe_ns", "trace.overhead_pct",
]

BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def fail(message, status=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(status)


def build_dir():
    base = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def run_group(cmd, timeout, **kwargs):
    """Runs cmd in its own process group; on timeout or interrupt the whole
    group (compilers under make, say) is killed and reaped."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        raise
    return proc.returncode, out


def build(bdir):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {ROOT / 'src'}", 2)
    bdir.mkdir(parents=True, exist_ok=True)
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    with open(bdir / ".build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (bdir / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                          "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", str(bdir), "--target", "perfbench", "-j", jobs])
        for step in steps:
            remaining = deadline - time.monotonic()
            try:
                status, _ = run_group(step, remaining, stdout=sys.stderr)
            except subprocess.TimeoutExpired:
                fail("build timed out")
            if status != 0:
                fail(f"build step failed: {' '.join(step)}")
    return bdir / "perfbench"


def check_result(line, trace):
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        return "last line is not JSON"
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed",
                                                        "metrics"}:
        return "result keys are not correct/attempted/failed/metrics"
    if not isinstance(result["correct"], bool):
        return "correct is not a boolean"
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            return f"{key} is not a whole number"
    if result["attempted"] < 1:
        return "no operation attempted"
    expected = PER_LAYER if trace else END_TO_END
    metrics = result["metrics"]
    if list(metrics) != expected:
        return f"metrics {list(metrics)} differ from {expected}"
    for name, metric in metrics.items():
        value = metric.get("value") if isinstance(metric, dict) else None
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            return f"metric {name} has no numeric value"
        if not isinstance(metric.get("unit"), str):
            return f"metric {name} has no unit"
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        fail("--seed must be >= 0 and --seconds in [1, 600]", 2)

    bdir = build_dir()
    binary = build(bdir)
    out_dir = bdir / "artifacts" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(out_dir)]
    try:
        status, out = run_group(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = out.rstrip("\n").splitlines()
    if status != 0 or not lines:
        sys.stderr.write(out)
        fail(f"run failed with status {status}")
    problem = check_result(lines[-1], args.trace == 1)
    if problem:
        sys.stderr.write(out)
        fail(f"malformed result: {problem}")
    for line in lines[:-1]:
        print(line)
    print(f"artifacts: {out_dir}")
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
