#!/usr/bin/env python3
"""Self-test of the serving benchmark, on tiny sizes.

Asserts two things for every workload:
  * each metric BENCHMARK.json names (end-to-end with --trace 0,
    per-layer with --trace 1) is printed with its unit, and
  * a deliberately wrong expected digest fails the run.

    python3 perfbench/selftest.py
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"
sys.path.insert(0, str(HERE))
from run import build_dir  # noqa: E402
SEED = 3


def run(args):
    return subprocess.run([sys.executable, str(RUN), *args],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, cwd=ROOT, timeout=900, check=False)


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise AssertionError(f"no output; stderr:\n{proc.stderr}")
    return json.loads(lines[-1])


def check_metrics(workload, trace, wanted, expected_file):
    proc = run(["--workload", workload, "--size", "tiny", "--seed",
                str(SEED), "--seconds", "1", "--trace", str(trace),
                "--expected", str(expected_file)])
    result = result_of(proc)
    assert proc.returncode == 0 and result["correct"], \
        f"{workload} trace {trace}: run failed:\n{proc.stdout}{proc.stderr}"
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in wanted}, \
        f"{workload} trace {trace}: metric names differ"
    for metric in wanted:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"], \
            f"{workload}: {metric['name']} has unit {got['unit']}"
        assert isinstance(got["value"], (int, float))
        # The human-readable table names it too, with its sample count.
        assert any(line.startswith(metric["name"] + " ") and
                   "samples=" in line
                   for line in proc.stdout.splitlines()), metric["name"]


def check_wrong_digest_fails(workload, expected_file):
    expected = json.loads(expected_file.read_text())
    entry = expected["tiny"][workload][str(SEED)]
    first = sorted(entry["digests"])[0]
    entry["digests"][first] = "%016x" % (int(entry["digests"][first], 16)
                                         ^ 1)
    wrong = expected_file.with_name(f"wrong-{workload}.json")
    wrong.write_text(json.dumps(expected))
    proc = run(["--workload", workload, "--size", "tiny", "--seed",
                str(SEED), "--seconds", "1", "--trace", "0", "--expected",
                str(wrong)])
    result = result_of(proc)
    assert proc.returncode != 0, f"{workload}: wrong digest passed"
    assert not result["correct"] and result["failed"] == result["attempted"]


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    scratch = build_dir() / "selftest"
    scratch.mkdir(parents=True, exist_ok=True)
    expected_file = scratch / "expected.json"
    expected_file.unlink(missing_ok=True)
    for workload in (w["name"] for w in spec["workloads"]):
        proc = run(["--workload", workload, "--size", "tiny", "--record",
                    str(SEED), "--expected", str(expected_file)])
        assert proc.returncode == 0, proc.stdout + proc.stderr
        check_metrics(workload, 0, spec["end_to_end"], expected_file)
        check_metrics(workload, 1, spec["per_layer"], expected_file)
        check_wrong_digest_fails(workload, expected_file)
        print(f"ok {workload}")
    print("perfbench self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
