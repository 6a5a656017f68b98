#!/usr/bin/env python3
"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the root of a deltanc checkout.  It builds deltanc_cli and the
measurement harness from source into .bench_build/ (CMake, see
perfbench/CMakeLists.txt), generates the workload's inputs from the seed
(workloads.py), runs the harness, and prints every metric by name and
unit.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics, with --trace 1
the per-layer metrics (metrics.py).  `failed / attempted` is the
fail_frac: units that failed, were refused or were wrong.  The exit
code is 0 only when a result was printed.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave the checkout as it was

import metrics  # noqa: E402
import workloads  # noqa: E402

BUILD_DIR = ".bench_build"
HARNESS_DEADLINE_S = 165.0


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def stop_group(proc):
    """Kills whatever is left of the harness's process group and waits
    until every member has ended."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    for _ in range(500):
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def build(root, log_path):
    """Configures (once) and builds deltanc_cli and the harness."""
    source = os.path.join(root, "perfbench")
    build_dir = os.path.join(root, BUILD_DIR, "perfbench")
    jobs = str(os.cpu_count() or 1)
    with open(log_path, "w") as log:
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            rc = subprocess.call(
                ["cmake", "-S", source, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                stdout=log, stderr=subprocess.STDOUT)
            if rc != 0:
                fail(f"cmake configure failed; see {log_path}")
        rc = subprocess.call(
            ["cmake", "--build", build_dir, "--target", "perfbench_harness",
             "-j", jobs], stdout=log, stderr=subprocess.STDOUT)
        if rc != 0:
            fail(f"build failed; see {log_path}")
    return (os.path.join(build_dir, "perfbench_harness"),
            os.path.join(build_dir, "deltanc", "tools", "deltanc_cli"))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not args.seconds > 0:
        fail("--seconds must be > 0")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail(f"no deltanc source tree under {root} (missing src/)")
    os.makedirs(os.path.join(root, BUILD_DIR), exist_ok=True)
    harness, cli = build(root, os.path.join(root, BUILD_DIR, "build.log"))

    # Relative to the checkout root (the harness's working directory too),
    # which keeps the Unix socket paths under the 108-byte limit.
    run_dir = os.path.join(BUILD_DIR, "runs",
                           f"{args.workload}-trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    spec_path = os.path.join(run_dir, "spec.txt")
    with open(spec_path, "w") as f:
        f.write(workloads.generate(args.workload, args.seed, args.seconds))
    out_path = os.path.join(run_dir, "result.json")
    threads = os.cpu_count() or 1
    command = [harness, "--workload", args.workload, "--input", spec_path,
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--threads", str(threads), "--workdir", run_dir,
               "--cli", cli, "--out", out_path]
    with open(os.path.join(run_dir, "harness.err"), "w") as err:
        # Its own process group, so that servers it started cannot
        # outlive it even when it dies early.
        proc = subprocess.Popen(command, stdout=subprocess.DEVNULL,
                                stderr=err, start_new_session=True)
        try:
            rc = proc.wait(timeout=HARNESS_DEADLINE_S)
        except subprocess.TimeoutExpired:
            rc = None
        stop_group(proc)
    if rc is None:
        fail(f"harness overran its {HARNESS_DEADLINE_S:.0f} s budget")
    if rc != 0:
        with open(os.path.join(run_dir, "harness.err")) as f:
            sys.stderr.write(f.read())
        fail(f"harness exited with {rc}")
    with open(out_path) as f:
        raw = json.load(f)

    attempted = max(1, raw["attempted"])
    failed = min(raw["failed"], attempted)
    print(f"perfbench: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} threads={threads}")
    print(f"  unit: {metrics.UNIT[args.workload]}")
    if args.trace:
        spans = []
        with open(os.path.join(run_dir, "spans.jsonl")) as f:
            spans = [json.loads(line) for line in f]
        values = metrics.per_layer(args.workload, raw, spans)
        selftimes = metrics.self_times(spans)
        for layer, ms in sorted(selftimes.items()):
            print(f"  selftime.{layer} = {ms:.3f} ms (spans)")
        out = {name: {"value": v, "unit": u} for name, (v, u) in values.items()}
        for name, (v, u) in values.items():
            print(f"  {name} = {v:.6g} {u}")
    else:
        values = metrics.end_to_end(raw)
        out = {name: {"value": v, "unit": u}
               for name, (v, u, _) in values.items()}
        for name, (v, u, note) in values.items():
            print(f"  {name} = {v:.6g} {u} ({note})")
        p50, p99, n = metrics.unit_latency(raw)
        print(f"  latency per unit: p50 {p50:.6g} ms, p99 {p99:.6g} ms "
              f"(n={n}, highest supported p{metrics.highest_supported(n):g}; "
              f"reported, not a metric)")
    print(f"  fail_frac = {failed / attempted:.6g} ({failed}/{attempted})")
    for why in raw["failures"]:
        print(f"  failure: {why}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": out}))


if __name__ == "__main__":
    main()
