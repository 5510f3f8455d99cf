#!/usr/bin/env python3
"""Serving benchmark of the VEAL translation service.

Builds the measuring program (perfbench/harness.cc and the VEAL
libraries it links) from the checkout's sources, runs one workload for
a fixed time, checks the service's per-tenant digests and modeled cycle
totals, and prints every metric with its unit and sample count.  The
last line of standard output is the result as one JSON object.

    python3 perfbench/run.py --workload serve-warm --seed 1 \\
        --seconds 10 --trace 0

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(and writes the spans as Chrome trace-event JSON under the build
directory).  See perfbench/README.md for the workloads and metrics.

Maintenance modes:
    --record SEEDS   store the expected digests for SEEDS (e.g. 0-99)
                     of --workload in --expected, from a one-shard,
                     one-thread reference run.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("serve-warm", "serve-cold", "restart")
SIZES = ("full", "tiny")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
RECORD_JOBS = min(2, os.cpu_count() or 1)


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    configured = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    path = Path(configured)
    return path if path.is_absolute() else ROOT / path


def build():
    """Configure once, then bring the harness up to date; returns it."""
    if not (ROOT / "src" / "veal" / "service" / "service.h").is_file():
        fail(f"VEAL sources not found under {ROOT / 'src'}")
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    started = time.monotonic()
    if not (out / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(out),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        run_build_step(configure, BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    remaining = BUILD_TIMEOUT_S - (time.monotonic() - started)
    run_build_step(["cmake", "--build", str(out), "-j", jobs,
                    "--target", "veal_perfbench"], remaining)
    binary = out / "veal_perfbench"
    if not binary.is_file():
        fail("build produced no veal_perfbench")
    return binary


def run_build_step(command, timeout):
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE,
                                stderr=subprocess.STDOUT, text=True,
                                timeout=max(1.0, timeout), check=False)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if result.returncode != 0:
        sys.stderr.write(result.stdout[-4000:])
        fail(f"build step failed: {' '.join(command)}")


def run_harness(binary, args, tag):
    """Run the harness with @p args; returns its JSON object."""
    work = build_dir() / f"work-{tag}-{os.getpid()}"
    command = [str(binary), *args, "--work-dir", str(work)]
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True,
                                timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail("measurement timed out", 3)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if result.returncode != 0 or not result.stdout.strip():
        sys.stderr.write(result.stderr[-4000:])
        fail(f"harness failed with exit code {result.returncode}", 3)
    return json.loads(result.stdout.strip().splitlines()[-1])


def load_expected(path):
    if not path.is_file():
        return {}
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def expected_entry(expected, size, workload, seed):
    return expected.get(size, {}).get(workload, {}).get(str(seed))


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-", 1)
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def record(binary, args):
    """Store reference digests for every seed in args.record."""
    seeds = parse_seeds(args.record)

    def one(seed):
        out = run_harness(binary, ["--workload", args.workload, "--size",
                                   args.size, "--seed", str(seed),
                                   "--reference-only"],
                          f"record-{seed}")
        return seed, out["reference"]

    with ThreadPoolExecutor(max_workers=RECORD_JOBS) as pool:
        results = list(pool.map(one, seeds))
    expected = load_expected(args.expected)
    table = expected.setdefault(args.size, {}).setdefault(args.workload, {})
    for seed, check in results:
        table[str(seed)] = check
    for size in expected:
        if size in SIZES:
            for workload in expected[size]:
                expected[size][workload] = dict(sorted(
                    expected[size][workload].items(),
                    key=lambda item: int(item[0])))
    with open(args.expected, "w", encoding="utf-8") as handle:
        handle.write(format_expected(expected))
    print(f"recorded {len(results)} seeds of {args.workload} ({args.size})")


def format_expected(expected):
    """JSON with one line per (size, workload, seed) entry."""
    def compact(value):
        return json.dumps(value, sort_keys=True, separators=(",", ":"))

    lines = []
    for key in sorted(expected):
        if key not in SIZES:
            lines.append(f' "{key}": {compact(expected[key])}')
            continue
        workloads = []
        for workload in sorted(expected[key]):
            seeds = ",\n".join(
                f'   "{seed}": {compact(check)}'
                for seed, check in expected[key][workload].items())
            workloads.append(f'  "{workload}": {{\n{seeds}\n  }}')
        lines.append(f' "{key}": {{\n' + ",\n".join(workloads) + "\n }")
    return "{\n" + ",\n".join(lines) + "\n}\n"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=SIZES,
                        help="tiny is for the self-test")
    parser.add_argument("--expected", type=Path,
                        default=HERE / "expected.json")
    parser.add_argument("--record", metavar="SEEDS")
    args = parser.parse_args()

    binary = build()
    if args.record:
        record(binary, args)
        return 0
    if args.seed is None or args.seed < 0 or args.seconds is None or \
            args.seconds < 1 or args.trace is None:
        parser.error("--seed N (>= 0), --seconds S (>= 1) and --trace 0|1 "
                     "are required")

    expected = expected_entry(load_expected(args.expected), args.size,
                              args.workload, args.seed)
    harness_args = ["--workload", args.workload, "--size", args.size,
                    "--seed", str(args.seed), "--seconds",
                    str(args.seconds), "--trace", str(args.trace)]
    if args.trace == 1:
        harness_args += ["--trace-out", str(
            build_dir() / f"trace-{args.workload}.json")]
    recorded = expected is not None
    if not recorded:
        # No stored values for this seed: the determinism reference (one
        # shard, one thread, batch 1), run by the same program, supplies
        # them, so only the determinism contract is checked.
        harness_args.append("--reference")
    out = run_harness(binary, harness_args, args.workload)
    if not recorded:
        expected = out["reference"]

    attempted = out["attempted"]
    matches = out["check"] == expected
    failed = out["inconsistent"] if matches else attempted
    problems = []
    if not matches:
        problems.append("digests or modeled totals differ from expected")
    if out["inconsistent"]:
        problems.append("repetitions disagree with each other")
    mismatch = out["metrics"].get("sched.replay.mismatch")
    if mismatch is not None and mismatch["value"] != 0:
        problems.append("translator phase replay disagrees on II")
    correct = not problems

    print(f"# workload {out['workload']} seed {args.seed} size {args.size}"
          f" trace {args.trace}: {out['repetitions']} repetitions in "
          f"{out['measured_s']:.2f} s, {attempted} requests")
    if not recorded:
        print(f"# no stored expected values for seed {args.seed}: "
              "determinism-only gate against the one-thread reference")
    if args.trace == 1:
        print(f"# spans: {out['spans_recorded']} recorded, "
              f"{out['spans_kept']} written to {out['trace_file']}")
    if "wall" in out:
        wall = out["wall"]
        print(f"# wall clock, not thread CPU time: requests_per_s "
              f"{wall['requests_per_s']:.6g}, tick_p50_ms "
              f"{wall['tick_p50_ms']:.6g}, tick_p99_ms "
              f"{wall['tick_p99_ms']:.6g}")
        print(f"# reference mix: median {wall['reference_ms']:.4g} ms of "
              "thread CPU time; the timings below are scaled to "
              f"{wall['reference_nominal_ms']:g} ms")
    for name, metric in out["metrics"].items():
        print(f"{name:48s} {metric['value']:>16.6g} {metric['unit']:8s} "
              f"samples={metric['samples']}")
    for problem in problems:
        print(f"# CHECK FAILED: {problem}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metric["value"],
                           "unit": metric["unit"]}
                    for name, metric in out["metrics"].items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
