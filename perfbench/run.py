#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its result.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call configures and builds the
benchmark (perfbench/CMakeLists.txt, which compiles ../src) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later calls
only rebuild what changed. The benchmark binary then generates the
workload's inputs from the seed, measures for the given seconds and checks
every output.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are the
end_to_end set of BENCHMARK.json, with --trace 1 the per_layer set. The
line before it records the run's environment (nproc, SIMD tier, compiler,
build type, seed). Each result and, for traced runs, the span file are
also kept under <build dir>/runs. Build output goes to standard error.
"""

import argparse
import json
import math
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return json.load(f)
    except (OSError, ValueError) as err:
        fail(f"cannot read BENCHMARK.json: {err}")


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


# The child process running now, killed and waited for if this process is
# terminated, so no build step or benchmark outlives the runner.
_child = None


def _terminate(signum, _frame):
    if _child is not None and _child.poll() is None:
        _child.kill()
        _child.wait()
    sys.exit(128 + signum)


def run_child(cmd, timeout=None, **kwargs):
    """Runs `cmd` to completion (killing it after `timeout` seconds) and
    returns (returncode, stdout)."""
    global _child
    _child = subprocess.Popen(cmd, cwd=ROOT, text=True, **kwargs)
    try:
        stdout, _ = _child.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        _child.kill()
        _child.wait()
        fail(f"{os.path.basename(cmd[0])} exceeded {timeout} s")
    return _child.returncode, stdout


def run_checked(cmd):
    """Runs a build step with its output on stderr; exits on failure."""
    code, _ = run_child(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if code != 0:
        fail(f"build step failed ({code}): {' '.join(cmd)}")


def build():
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        run_checked(["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_checked(["cmake", "--build", out, "-j", jobs])
    binary = os.path.join(out, "perfbench")
    if not os.access(binary, os.X_OK):
        fail(f"benchmark binary not built: {binary}")
    return binary


def check_result(result, expected):
    """Checks the result line against the contract and the metric list."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"unexpected result keys {sorted(result)}")
    if not isinstance(result["correct"], bool):
        fail("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            fail(f"{key} is not a whole number")
    if result["attempted"] < 1:
        fail("nothing was attempted")
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        fail(f"metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(expected)}")
    for name, metric in metrics.items():
        if metric.get("unit") != expected[name]:
            fail(f"{name}: unit {metric.get('unit')} is not {expected[name]}")
        value = metric.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(f"{name}: value {value} is not a finite number")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    # Used by the benchmark's own tests: a tiny lake, and a deliberately
    # corrupted ranking that must be counted as a failed operation.
    parser.add_argument("--scale", type=float, default=1.0, help=argparse.SUPPRESS)
    parser.add_argument("--corrupt", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, _terminate)
    signal.signal(signal.SIGINT, _terminate)

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload}; expected one of {names}")
    if not args.seconds > 0 or not args.scale > 0:
        fail("--seconds and --scale must be positive")
    expected = {m["name"]: m["unit"]
                for m in spec["per_layer" if args.trace else "end_to_end"]}

    binary = build()
    runs = os.path.join(build_dir(), "runs")
    os.makedirs(runs, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--scale", repr(args.scale), "--out-dir", runs]
    if args.corrupt:
        cmd.append("--corrupt")
    code, stdout = run_child(cmd, timeout=RUN_TIMEOUT_S, stdout=subprocess.PIPE)
    if code != 0:
        fail(f"benchmark exited with {code}")
    lines = [line for line in stdout.splitlines() if line.strip()]
    if len(lines) < 2:
        fail("benchmark printed no result")
    try:
        info = json.loads(lines[-2])["info"]
        result = json.loads(lines[-1])
    except (ValueError, KeyError, TypeError) as err:
        fail(f"unreadable benchmark output: {err}")
    check_result(result, expected)

    record = os.path.join(
        runs, f"result-{args.workload}-{args.seed}-trace{args.trace}.json")
    with open(record, "w") as f:
        json.dump({"info": info, "result": result}, f, indent=1)
    print(json.dumps({"info": info}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
