#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

Run from the repository root:

  python3 perfbench/run.py --workload table1_mix --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --self-test
  python3 perfbench/run.py --compare .bench_out/a.json .bench_out/b.json

The first call configures and builds perfbench (and the system's libraries
from src/) into .bench_build; later calls rebuild incrementally. Build output
goes to stderr; the benchmark's stdout is passed through unchanged, so its
last line is the JSON result.
"""
import argparse
import ctypes
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = ".bench_build"
WORKLOADS = ["table1_mix", "desktop_session", "fleet_mixed"]
RUN_TIMEOUT_S = 170


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    binary = os.path.join(BUILD_DIR, "perfbench")
    return binary if os.path.exists(binary) else None


def fixed_layout():
    """Runs the benchmark with address-space randomisation off, so heap
    and stack placement (and the cache conflicts that follow from it) are
    the same from run to run. Best effort: ignored where not permitted."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        addr_no_randomize = 0x0040000
        current = libc.personality(0xffffffff)
        if current != -1:
            libc.personality(current | addr_no_randomize)
    except (OSError, AttributeError):
        pass


def run(binary, workload, seed, seconds, trace, capture=False):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE if capture else None,
                              text=True, timeout=RUN_TIMEOUT_S,
                              preexec_fn=fixed_layout)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1, ""
    return proc.returncode, proc.stdout if capture else ""


def self_test(binary):
    """Short run of every workload, untraced and traced: the result line
    must parse, be correct, and name every metric BENCHMARK.json declares."""
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = {0: [m["name"] for m in spec["end_to_end"]],
              1: [m["name"] for m in spec["per_layer"]]}
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, out = run(binary, workload, 7, 8, trace, capture=True)
            lines = out.strip().splitlines()
            problems = []
            result = None
            if code != 0 or not lines:
                problems.append("exit code %d" % code)
            else:
                try:
                    result = json.loads(lines[-1])
                except ValueError as e:
                    problems.append("last line is not JSON: %s" % e)
            if result is not None:
                if sorted(result) != ["attempted", "correct", "failed",
                                      "metrics"]:
                    problems.append("result keys %s" % sorted(result))
                if result.get("correct") is not True or result.get("failed"):
                    problems.append("incorrect run")
                missing = [n for n in wanted[trace]
                           if n not in result.get("metrics", {})]
                if missing:
                    problems.append("missing metrics %s" % missing)
            status = "ok" if not problems else "FAIL " + "; ".join(problems)
            print("self-test %s trace=%d: %s" % (workload, trace, status))
            ok = ok and not problems
    return 0 if ok else 1


def compare(a_path, b_path):
    """Refuses to compare results stamped with different configurations."""
    with open(a_path) as f:
        a = json.load(f)
    with open(b_path) as f:
        b = json.load(f)
    ca, cb = a["config"], b["config"]
    if ca["config_id"] != cb["config_id"] or ca["workload"] != cb["workload"] \
            or ca["trace"] != cb["trace"]:
        print("not comparable: %s vs %s" % (json.dumps(ca), json.dumps(cb)))
        return 1
    bm = {m["name"]: m for m in b["metrics"]}
    for m in a["metrics"]:
        other = bm.get(m["name"])
        if other is None:
            continue
        rel = (other["value"] / m["value"] - 1.0) if m["value"] else 0.0
        print("%-28s %14.6g -> %14.6g %s (%+.2f%%)" % (
            m["name"], m["value"], other["value"], m["unit"], rel * 100))
    return 0


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--self-test", action="store_true")
    p.add_argument("--compare", nargs=2, metavar="REPORT")
    args = p.parse_args()
    if args.compare:
        return compare(*args.compare)
    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if args.self_test:
        return self_test(binary)
    if args.workload is None:
        p.error("--workload is required")
    code, _ = run(binary, args.workload, args.seed, args.seconds, args.trace)
    return code


if __name__ == "__main__":
    sys.exit(main())
