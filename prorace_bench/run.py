#!/usr/bin/env python3
"""Run one workload of the ProRace ledger benchmark and print its result.

    python3 prorace_bench/run.py --workload <name> --seed <N> \\
        --seconds <S> --trace <0|1> [--out result.json]

Run from the root of a checkout. It configures and builds prorace_bench
in Release mode from the checkout's sources into .bench_build/: a full
build on first use, an incremental one after that. It then runs the harness
once and prints, as the last line of stdout, one JSON object with the keys
correct, attempted, failed and metrics. --trace 0 reports the end_to_end
metrics of BENCHMARK.json, --trace 1 the per_layer metrics (spans go to
.bench_build/spans/). --out keeps a copy of the harness's full JSON
output, which compare.py reads.

Exit codes: 0 with a result line (correct is false when an output check
failed), 1 without one when the build or the harness itself failed.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "prorace_bench")
BINARY = os.path.join(BUILD_DIR, "prorace_bench")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
CHECKS_FAILED = 3  # the harness's exit code when an output check fails


def run_group(cmd, timeout, **kwargs):
    """Run @cmd in its own process group; kill the whole group on timeout.

    Returns the exit code, or None on timeout.
    """
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return None


def build():
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "--target", "prorace_bench",
         "--parallel", "4"],
    ]
    for step in steps:
        # Build output goes to stderr: stdout ends with the result line.
        code = run_group(step, BUILD_TIMEOUT_S, stdout=sys.stderr,
                         stderr=sys.stderr)
        if code != 0:
            print("run.py: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    if not build():
        return 1

    tag = "%s.seed%d.trace%d" % (args.workload, args.seed, args.trace)
    results = os.path.join(ROOT, ".bench_build", "results")
    os.makedirs(results, exist_ok=True)
    out_json = os.path.join(results, tag + ".json")
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--out", out_json]
    if args.trace:
        spans = os.path.join(ROOT, ".bench_build", "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--trace", os.path.join(spans, tag + ".json")]
    sys.stdout.flush()
    code = run_group(cmd, RUN_TIMEOUT_S)
    if code not in (0, CHECKS_FAILED):
        print("run.py: prorace_bench %s (exit %s)" %
              ("timed out" if code is None else "failed", code),
              file=sys.stderr)
        return 1

    with open(out_json) as f:
        produced = json.load(f)
    metrics = {}
    for metric in wanted:
        name = metric["name"]
        if name not in produced["metrics"]:
            print("run.py: prorace_bench did not report " + name,
                  file=sys.stderr)
            return 1
        metrics[name] = produced["metrics"][name]
    if args.out:
        shutil.copyfile(out_json, args.out)
    print(json.dumps({
        "correct": code == 0 and produced["correct"],
        "attempted": produced["attempted"],
        "failed": produced["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
