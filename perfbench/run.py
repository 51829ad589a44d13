#!/usr/bin/env python3
"""Run one workload of the TaskCheck benchmark.

Builds the benchmark binary from this checkout's sources (perfbench/
CMakeLists.txt compiles ../src) into $CARGO_TARGET_DIR (default
.bench_build), runs the workload, checks its verdicts, prints a table of
every metric (median, quartiles, sample count) and, as the last line of
standard output, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json; with
--trace 1 they are the per-layer ones, a Chrome trace-event file is written
next to the build and linted with tools/validate_trace.py.

    python3 perfbench/run.py --workload kernels-1w --seed 1 --seconds 20 \\
        --trace 0 [--record runs.jsonl]

See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("kernels-1w", "kernels-4w", "trace-fleet", "wide-trace")
DEFAULT_SEED = 1
# The contract's limit on one run is 180 s; leave room to report.
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(code)


def build_root():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return root if os.path.isabs(root) else os.path.join(ROOT, root)


def build(build_dir):
    """Configures (once) and builds the benchmark; returns the binary."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the TaskCheck sources (src/) are not next to perfbench/; "
             "run from the root of a full checkout")
    if shutil.which("cmake") is None:
        fail("cmake is not installed")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "--build", build_dir, "--target", "perfbench",
              "-j", jobs]]
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", build_dir])
    for step in steps:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("building the benchmark failed", 1)
    return os.path.join(build_dir, "perfbench")


def data_dir():
    path = os.path.join(build_root(), "perfbench-data")
    os.makedirs(path, exist_ok=True)
    return path


def run_workload(binary, args, trace_path):
    cmd = [binary, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}",
           f"--data={data_dir()}", f"--refs={os.path.join(HERE, 'refs')}"]
    if trace_path:
        cmd.append(f"--trace-out={trace_path}")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", 1)
    if proc.returncode != 0:
        fail(f"{args.workload} exited with code {proc.returncode}", 1)
    for line in reversed(proc.stdout.splitlines()):
        if line.startswith("PERFBENCH_RESULT "):
            return json.loads(line.split(" ", 1)[1])
    fail(f"{args.workload} printed no result", 1)


def probe_rss(binary, args, runs=5):
    """peak_rss_mb: the median over fresh processes that each set up once
    and run one round (kernels: one checked pass), so the figure is one
    pass's footprint rather than whatever the allocator kept from the
    many rounds of the timed run."""
    cmd = [binary, "--rss-probe", f"--workload={args.workload}",
           f"--seed={args.seed}", f"--data={data_dir()}",
           f"--refs={os.path.join(HERE, 'refs')}"]
    values = []
    for _ in range(runs):
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail(f"{args.workload} memory probe timed out", 1)
        lines = [l for l in proc.stdout.splitlines()
                 if l.startswith("PERFBENCH_RSS ")]
        if proc.returncode != 0 or not lines:
            fail(f"{args.workload} memory probe failed", 1)
        values.append(float(lines[-1].split()[1]))
    values.sort()
    return {"value": statistics.median(values), "unit": "MiB",
            "median": statistics.median(values), "q1": values[0],
            "q3": values[-1], "n": len(values)}


def lint_trace(trace_path):
    """Runs the repository's trace linter; returns (ok, its output)."""
    linter = os.path.join(ROOT, "tools", "validate_trace.py")
    proc = subprocess.run([sys.executable, linter, trace_path],
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True)
    return proc.returncode == 0, proc.stdout.strip()


def print_table(result):
    print(f"workload {result['workload']}  seed {result['seed']}  "
          f"trace {result['trace']}")
    print(f"  {'metric':34} {'value':>14} {'unit':6} {'q1':>12} "
          f"{'q3':>12} {'n':>7}")
    rows = list(result["metrics"].items())
    rows += [(name + " (not listed)", m) for name, m in result["reported"].items()]
    for name, m in rows:
        print(f"  {name:34} {m['value']:14.6g} {m['unit']:6} "
              f"{m['q1']:12.6g} {m['q3']:12.6g} {m['n']:7d}")
    attempted = result["attempted"]
    print(f"  {'failed_fraction':34} "
          f"{result['failed'] / max(1, attempted):14.6g} ratio  "
          f"({result['failed']} of {attempted} checks)")
    if result["layers"]:
        print(f"  {'span (layer)':34} {'spans':>8} {'1 in':>6} "
              f"{'total ms':>12} {'self ms':>12}")
        for layer in result["layers"]:
            print(f"  {layer['name']:34} {layer['spans']:8d} "
                  f"{layer['sample_every']:6d} {layer['total_ms']:12.2f} "
                  f"{layer['self_ms']:12.2f}")
    for note in result["notes"]:
        print(f"  note: {note}")


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", metavar="FILE",
                        help="also append the full result as one JSON line")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    started = time.monotonic()
    binary = build(os.path.join(build_root(), "perfbench"))
    trace_path = None
    if args.trace:
        trace_dir = os.path.join(build_root(), "perfbench-traces")
        os.makedirs(trace_dir, exist_ok=True)
        trace_path = os.path.join(
            trace_dir, f"{args.workload}-seed{args.seed}.trace.json")
    result = run_workload(binary, args, trace_path)
    if not args.trace:
        result["metrics"]["peak_rss_mb"] = probe_rss(binary, args)
    correct = result["correct"]
    if trace_path:
        ok, output = lint_trace(trace_path)
        result["notes"].append(f"validate_trace.py: {output}")
        correct = correct and ok
    print_table(result)
    print(f"  (run took {time.monotonic() - started:.1f} s)")

    final = {
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in result["metrics"].items()},
    }
    if args.record:
        with open(args.record, "a") as f:
            f.write(json.dumps(dict(result, correct=correct)) + "\n")
    print(json.dumps(final))


if __name__ == "__main__":
    main()
