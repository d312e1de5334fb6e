#!/usr/bin/env python3
"""End-to-end benchmark entry point.

Builds the harness (this directory's CMake package, which compiles the
xcrypt library from ../src), runs one workload, checks the result line and
relays the harness output; the last stdout line is the JSON result.

    python3 e2ebench/run.py --workload nasa-read --seed 1 --seconds 10 --trace 0
    python3 e2ebench/run.py --selftest

Build products, catalog directories and span files go under
$CARGO_TARGET_DIR (default .bench_build) in the checkout root.
"""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# A run must end within 180 s; leave the harness the rest after the build.
HARNESS_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build_root():
    root = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return root if root.is_absolute() else ROOT / root


def build(target):
    """Configures (once) and builds `target`; returns the binary path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("e2ebench: no xcrypt sources at %s" % (ROOT / "src"))
    bdir = build_root() / "e2ebench"
    if not (bdir / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(bdir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(bdir), "--target", target,
                    "-j", str(os.cpu_count() or 1)],
                   stdout=sys.stderr, check=True)
    return bdir / target


def parse_result(line, required=()):
    """Parses and validates a result line; raises ValueError if malformed."""
    result = json.loads(line)
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        raise ValueError("result keys %r" % sorted(result))
    if not isinstance(result["correct"], bool):
        raise ValueError("correct is not a bool")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            raise ValueError("%s is not an integer" % key)
    if result["attempted"] < 1 or not 0 <= result["failed"] <= result["attempted"]:
        raise ValueError("attempted/failed out of range")
    metrics = result["metrics"]
    if not isinstance(metrics, dict):
        raise ValueError("metrics is not an object")
    for name, metric in metrics.items():
        if not isinstance(metric, dict) or set(metric) != {"value", "unit"}:
            raise ValueError("metric %s malformed" % name)
        value = metric["value"]
        if (not isinstance(value, (int, float)) or isinstance(value, bool)
                or not math.isfinite(value)):
            raise ValueError("metric %s value %r" % (name, value))
        if not isinstance(metric["unit"], str) or not metric["unit"]:
            raise ValueError("metric %s unit" % name)
    missing = [name for name in required if name not in metrics]
    if missing:
        raise ValueError("missing metrics %s" % ", ".join(missing))
    return result


def declared_metrics(trace):
    """Metric names BENCHMARK.json promises for this kind of run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def relay(stdout, required):
    """Validates the last line, then prints everything; returns ok."""
    lines = stdout.rstrip("\n").split("\n")
    try:
        parse_result(lines[-1], required)
    except (ValueError, IndexError) as err:
        sys.stderr.write(stdout)
        print("e2ebench: bad result line: %s" % err, file=sys.stderr)
        return False
    sys.stdout.write("\n".join(lines) + "\n")
    sys.stdout.flush()
    return True


def selftest():
    binary = build("e2ebench_stats_test")
    proc = subprocess.run([str(binary)], stdout=subprocess.PIPE, text=True,
                          timeout=60)
    if proc.returncode != 0 or not relay(proc.stdout, ()):
        return 1
    # The validator itself must reject what the contract forbids.
    for bad in ('{"correct": true}',
                '{"correct": 1, "attempted": 1, "failed": 0, "metrics": {}}',
                '{"correct": true, "attempted": 0, "failed": 0, "metrics": {}}',
                '{"correct": true, "attempted": 1, "failed": 0, '
                '"metrics": {"x": {"value": "1", "unit": "ms"}}}',
                'not json'):
        try:
            parse_result(bad)
        except ValueError:
            continue
        print("e2ebench: validator accepted %s" % bad, file=sys.stderr)
        return 1
    print("selftest ok")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    if not args.workload:
        parser.error("--workload is required")

    binary = build("e2ebench_harness")
    work = build_root() / "e2ebench-work"
    traces = build_root() / "e2ebench-traces"
    traces.mkdir(parents=True, exist_ok=True)
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--work-dir", str(work)]
    if args.trace:
        command += ["--trace-out",
                    str(traces / ("%s-seed%d.jsonl" % (args.workload, args.seed)))]
    proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          timeout=HARNESS_TIMEOUT_S)
    if not relay(proc.stdout, declared_metrics(args.trace)):
        return 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
