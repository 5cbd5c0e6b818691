#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

Run from the root of a checkout:

  python3 perfbench/run.py --workload b2w_replay --seed 42 --seconds 25 --trace 0
  python3 perfbench/run.py --workload all      # every workload, all metrics
  python3 perfbench/run.py --list              # workloads and their seeds
  python3 perfbench/run.py --selftest          # faithfulness tests

The driver is compiled from source into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench); the first run builds it. The last line
of a workload run is one JSON object with the keys correct, attempted,
failed and metrics; its metric names and units are checked against
BENCHMARK.json before it is printed.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(
    os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                    os.path.join(ROOT, ".bench_build")), "perfbench")
# Wall-clock limit of one invocation once perfbench_driver is built.
RUN_LIMIT_S = 175.0


def fail(message, code=1):
    print("perfbench: error: " + message, file=sys.stderr)
    sys.exit(code)


def run(cmd, timeout):
    """Runs cmd in its own process group; kills the whole group on timeout."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("timed out after %.0f s: %s" % (timeout, " ".join(cmd)))
    return proc.returncode, out


def build(targets, timeout):
    """Configures (once) and builds `targets`; returns seconds spent."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no P-Store sources at %s; the benchmark builds them" %
             os.path.join(ROOT, "src"), 2)
    start = time.monotonic()
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        code, out = run(["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=Release"], timeout)
        if code != 0:
            sys.stderr.write(out)
            fail("cmake configure failed", 2)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    code, out = run(["cmake", "--build", BUILD, "-j", jobs, "--target"] +
                    targets, timeout - (time.monotonic() - start))
    if code != 0:
        sys.stderr.write(out)
        fail("build failed", 2)
    return time.monotonic() - start


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def driver():
    return os.path.join(BUILD, "perfbench_driver")


def list_workloads():
    """The driver's workload table: (name, baseline seed, held-out seed)."""
    code, out = run([driver(), "--list"], 60.0)
    if code != 0:
        sys.stderr.write(out)
        fail("perfbench_driver --list exited with %d" % code)
    return [line.split() for line in out.splitlines() if line.strip()]


def run_workload(workload, seed, seconds, trace, build_s):
    """Runs the driver; seed None means the workload's baseline seed."""
    limit = RUN_LIMIT_S - build_s if build_s < 60.0 else RUN_LIMIT_S
    out_dir = os.path.join(BUILD, "out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [driver(), "--workload=" + workload, "--seconds=%g" % seconds,
           "--trace=%d" % trace, "--out-dir=" + out_dir]
    if seed is not None:
        cmd.append("--seed=%d" % seed)
    code, out = run(cmd, limit)
    lines = out.rstrip("\n").split("\n")
    if code != 0:
        sys.stderr.write(out)
        fail("driver exited with %d" % code)
    result = json.loads(lines[-1])
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected_metrics(trace):
        sys.stderr.write(out)
        fail("driver metrics do not match BENCHMARK.json")
    return lines, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload",
                        help="a workload name (see --list) or all")
    parser.add_argument("--seed", type=int,
                        help="defaults to the workload's baseline seed")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the faithfulness tests")
    parser.add_argument("--list", action="store_true",
                        help="print each workload with its baseline and "
                             "held-out seed")
    args = parser.parse_args()
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be >= 0")

    if args.selftest:
        build(["perfbench_selftest"], 1800.0)
        code, out = run([os.path.join(BUILD, "perfbench_selftest")], 1800.0)
        sys.stdout.write(out)
        sys.exit(code)

    if not args.list and not args.workload:
        parser.error("--workload, --list or --selftest is required")
    build_s = build(["perfbench_driver"], 900.0)
    if args.list:
        for name, baseline, heldout in list_workloads():
            print("%-16s baseline seed %-4s held-out seed %s" %
                  (name, baseline, heldout))
        return

    if args.workload == "all":
        for name, _, _ in list_workloads():
            lines, _ = run_workload(name, args.seed, args.seconds, 0, build_s)
            print("\n".join(lines[:-1]))
            build_s = 0.0
        return

    lines, _ = run_workload(args.workload, args.seed, args.seconds, args.trace,
                            build_s)
    print("\n".join(lines))


if __name__ == "__main__":
    main()
