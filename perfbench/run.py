#!/usr/bin/env python3
"""Builds and runs the MobRep benchmark.

Run from the repository root:

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \\
      --trace <0|1>
  python3 perfbench/run.py --selftest
  python3 perfbench/run.py --pin-expected

The first call configures and builds perfbench/ (which compiles the
program's libraries from src/) into $CARGO_TARGET_DIR, or .bench_build when
that is unset; later calls only rebuild what changed. Build output goes to
stderr. The benchmark's own output goes to stdout; its last line is one JSON
object (correct, attempted, failed, metrics). Before printing it, this
script checks that the metric names match BENCHMARK.json.

Exit code: the benchmark's (0 when every output was correct); 1 when the
build fails or the metric names disagree; 2 on a usage error.

Every run checks the seed's deterministic outputs against expected_outputs.txt
when that table pins the seed (PINNED_SEEDS); other seeds are checked only
against the program's own warm-up and oracles.

--selftest builds, runs the statistics self-tests, then a short traced run
whose span export is checked with tools/validate_trace.py.

--pin-expected rewrites expected_outputs.txt from the current build, one
set-up per workload and pinned seed. Run it only when a change to the
program or the benchmark is meant to change the deterministic outputs.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 175
EXPECTED = os.path.join(HERE, "expected_outputs.txt")
WORKLOADS = ("paper_serial", "lossy_timed", "fanout_multi", "cost_sweep",
             "chaos_matrix")
# Seeds whose deterministic outputs are pinned: small seeds, the ten
# measurement seeds and the held-out seed.
PINNED_SEEDS = list(range(0, 32)) + list(range(501, 511)) + [9001]


def build_dir() -> str:
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                           os.path.join(ROOT, ".bench_build"))


def configured_source(cache: str) -> str:
    """The source directory a CMake cache was configured from."""
    with open(cache, encoding="utf-8", errors="replace") as f:
        for line in f:
            if line.startswith("CMAKE_HOME_DIRECTORY:INTERNAL="):
                return line.split("=", 1)[1].strip()
    return ""


def build() -> str:
    """Configures and builds the benchmark; returns the build directory."""
    out = build_dir()
    cache = os.path.join(out, "CMakeCache.txt")
    if os.path.exists(cache) and configured_source(cache) != HERE:
        os.remove(cache)  # configured from another checkout: reconfigure
    steps = []
    if not os.path.exists(cache):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", out, "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            print(f"perfbench: build step failed: {' '.join(step)}",
                  file=sys.stderr)
            sys.exit(1)
    return out


def declared_metrics(trace: int):
    """Metric names BENCHMARK.json declares for this mode, or None."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def run(args) -> int:
    out = build()
    binary = os.path.join(out, "mobrep_perfbench")
    scratch = os.path.join(ROOT, ".bench_out")
    os.makedirs(scratch, exist_ok=True)
    done = subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--out-dir", scratch, "--expected", EXPECTED],
        stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
        timeout=RUN_TIMEOUT_S, check=False)
    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stdout.write(done.stdout)
        print("perfbench: the benchmark printed no result", file=sys.stderr)
        return done.returncode or 1
    declared = declared_metrics(args.trace)
    if declared is not None:
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if got != declared:
            sys.stdout.write("\n".join(lines[:-1]) + "\n")
            print(f"perfbench: metrics {sorted(got.items())} do not match "
                  f"BENCHMARK.json {sorted(declared.items())}",
                  file=sys.stderr)
            return 1
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return done.returncode


def selftest() -> int:
    out = build()
    status = subprocess.run([os.path.join(out, "perfbench_selftest")],
                            check=False).returncode
    if status != 0:
        return status
    scratch = os.path.join(ROOT, ".bench_out")
    os.makedirs(scratch, exist_ok=True)
    traced = subprocess.run(
        [os.path.join(out, "mobrep_perfbench"), "--workload", "lossy_timed",
         "--seed", "1", "--seconds", "1", "--trace", "1", "--out-dir",
         scratch], stdout=subprocess.DEVNULL, check=False)
    if traced.returncode != 0:
        print("perfbench: traced self-test run failed", file=sys.stderr)
        return traced.returncode
    validator = os.path.join(ROOT, "tools", "validate_trace.py")
    return subprocess.run(
        [sys.executable, validator, "--require-spans",
         os.path.join(scratch, "spans_lossy_timed.json")],
        check=False).returncode


def pin_expected() -> int:
    binary = os.path.join(build(), "mobrep_perfbench")
    scratch = os.path.join(ROOT, ".bench_out")
    os.makedirs(scratch, exist_ok=True)
    rows = []
    for workload in WORKLOADS:
        for seed in PINNED_SEEDS:
            done = subprocess.run(
                [binary, "--workload", workload, "--seed", str(seed),
                 "--seconds", "1", "--trace", "0", "--out-dir", scratch,
                 "--setup-only", "1"],
                stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S,
                check=False)
            if done.returncode != 0:
                print(f"perfbench: set-up failed: {workload} seed {seed}",
                      file=sys.stderr)
                return 1
            rows.append(done.stdout.strip())
    with open(EXPECTED, "w", encoding="utf-8") as f:
        f.write("\n".join(rows) + "\n")
    print(f"perfbench: pinned {len(rows)} rows in {EXPECTED}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--pin-expected", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    if args.pin_expected:
        return pin_expected()
    if not args.workload:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
