#!/usr/bin/env python3
"""Compare ledger runs of two commits, and validate BENCHMARK.json.

Compare N runs of the parent with N runs of the change (the JSON files
prorace_bench --out or run.py --out writes, any workload mix):

    compare.py --parent p/*.json --change c/*.json

For each workload and metric it prints both medians and quartiles, the
change's win fraction over the runs paired in file order (ties count for
neither side), and a verdict against the metric's BENCHMARK.json bound:

    regression    the change's median is worse by more than the bound
    unresolved    the parent's own spread exceeds the bound and not every
                  change run beats (or loses to) every parent run
    gain          the change wins >= 90% of pairs and its median differs
                  by more than the parent's interquartile distance
    pass          none of the above

Per-layer metrics have no bound; they print with verdict "info".
Exits 1 when any metric regressed.

    compare.py --check-schema [BENCHMARK.json]
    compare.py --smoke BINARY [--benchmark BENCHMARK.json]

--check-schema validates the file against its schema (keys,
name and unit syntax, caps of 8 workloads, 16 end-to-end and 128
per-layer metrics, bounds). --smoke runs BINARY --workload all --smoke in
both modes and checks that it prints every metric BENCHMARK.json names,
for every workload, with no failed check.

Standard library only.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_BENCHMARK = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")
GAIN_WIN_FRACTION = 0.9
MAX_TOTAL_S = 3420


# --------------------------------------------------------------------
# Schema
# --------------------------------------------------------------------

def check_schema(path):
    """Return a list of problems with the BENCHMARK.json at @path."""
    problems = []

    def need(cond, what):
        if not cond:
            problems.append(what)

    if os.path.getsize(path) > 64 * 1024:
        return ["file is larger than 64 KiB"]
    with open(path) as f:
        spec = json.load(f)
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"}
    need(isinstance(spec, dict) and set(spec) == keys,
         "top-level keys must be exactly " + ", ".join(sorted(keys)))
    if problems:
        return problems

    command = spec["command"]
    need(isinstance(command, list) and 1 <= len(command) <= 32 and
         all(isinstance(a, str) and len(a) <= 200 for a in command),
         "command: 1-32 strings of at most 200 characters")
    for arg in command if isinstance(command, list) else []:
        need(not str(arg).startswith("/") and ".." not in str(arg).split("/"),
             "command: no absolute path or '..': %r" % arg)

    paths = spec["paths"]
    need(isinstance(paths, list) and 1 <= len(paths) <= 16,
         "paths: 1-16 directories")
    for p in paths if isinstance(paths, list) else []:
        need(isinstance(p, str) and PATH.match(p) and not p.startswith("/")
             and ".." not in p.split("/"), "paths: bad path %r" % p)

    run_s = spec["run_seconds"]
    need(isinstance(run_s, int) and not isinstance(run_s, bool) and
         1 <= run_s <= 60, "run_seconds: a whole number from 1 to 60")

    def check_list(key, lo, hi, fields):
        items = spec[key]
        need(isinstance(items, list) and lo <= len(items) <= hi,
             "%s: %d to %d entries" % (key, lo, hi))
        if not isinstance(items, list):
            return []
        names = []
        for item in items:
            if not (isinstance(item, dict) and set(item) == set(fields)):
                problems.append("%s: entry keys must be exactly %s: %r" %
                                (key, ", ".join(fields), item))
                continue
            name = item["name"]
            need(isinstance(name, str) and NAME.match(name),
                 "%s: bad name %r" % (key, name))
            names.append(name)
            if "unit" in fields:
                need(isinstance(item["unit"], str) and UNIT.match(item["unit"]),
                     "%s: bad unit for %s" % (key, name))
            if "better" in fields:
                need(item["better"] in ("higher", "lower"),
                     "%s: better must be higher or lower for %s" %
                     (key, name))
            if "bound" in fields:
                b = item["bound"]
                need(isinstance(b, (int, float)) and not isinstance(b, bool)
                     and 0 < b <= 0.25,
                     "%s: bound of %s must be in (0, 0.25]" % (key, name))
            if "why" in fields:
                why = item["why"]
                need(isinstance(why, str) and 0 < len(why) <= 200 and
                     "\n" not in why,
                     "%s: why of %s must be one line of at most 200 "
                     "characters" % (key, name))
        return names

    workloads = check_list("workloads", 2, 8, ("name", "why"))
    e2e = check_list("end_to_end", 1, 16, ("name", "unit", "better", "bound"))
    layers = check_list("per_layer", 1, 128, ("name", "unit", "better"))
    need(len(set(workloads)) == len(workloads), "workload names repeat")
    metrics = e2e + layers
    need(len(set(metrics)) == len(metrics), "metric names repeat")

    setup = [m for m in spec["end_to_end"] if isinstance(m, dict) and
             m.get("name") == "setup_s"]
    need(len(setup) == 1 and setup[0].get("unit") == "s" and
         setup[0].get("better") == "lower",
         "end_to_end must hold setup_s, unit s, better lower")
    if setup and all(isinstance(m, dict) and "bound" in m
                     for m in spec["end_to_end"]):
        need(setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"]),
             "setup_s must have the largest bound")
    if isinstance(run_s, int) and workloads:
        runs = 4 + 22 * len(workloads)
        need(runs * run_s < MAX_TOTAL_S,
             "%d runs of %d s exceed the %d s budget before set-up" %
             (runs, run_s, MAX_TOTAL_S))
    return problems


# --------------------------------------------------------------------
# Comparison
# --------------------------------------------------------------------

def load_runs(files):
    """{workload: {metric: [values in file order]}} of harness JSON."""
    runs = {}
    for path in files:
        with open(path) as f:
            data = json.load(f)
        for item in data if isinstance(data, list) else [data]:
            per = runs.setdefault(item["workload"], {})
            for name, metric in item["metrics"].items():
                per.setdefault(name, []).append(metric["value"])
    return runs


def summary(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent, change, better, bound):
    """(win fraction, verdict) of @change against @parent."""
    sign = 1 if better == "lower" else -1
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (p - c) > 0)
    win_fraction = wins / len(pairs) if pairs else 0.0
    if bound is None:
        return win_fraction, "info"
    p_q1, p_med, p_q3 = summary(parent)
    _, c_med, _ = summary(change)
    if p_med == 0:
        return win_fraction, "pass" if c_med == 0 else "unresolved"
    worse_by = sign * (c_med - p_med) / abs(p_med)
    noisy = (p_q3 - p_q1) / abs(p_med) > bound
    all_better = all(sign * (p - c) > 0 for p in parent for c in change)
    all_worse = all(sign * (c - p) > 0 for p in parent for c in change)
    if worse_by > bound:
        return win_fraction, ("unresolved" if noisy and not all_worse
                              else "regression")
    if (worse_by < 0 and win_fraction >= GAIN_WIN_FRACTION and
            abs(c_med - p_med) > p_q3 - p_q1):
        return win_fraction, "gain"
    if noisy and not all_better:
        return win_fraction, "unresolved"
    return win_fraction, "pass"


def compare(benchmark, parent_files, change_files):
    with open(benchmark) as f:
        spec = json.load(f)
    meta = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    meta.update({m["name"]: (m["better"], None) for m in spec["per_layer"]})
    parent = load_runs(parent_files)
    change = load_runs(change_files)
    regressions = 0
    header = "%-14s %-34s %12s %12s %12s %12s %12s %12s %5s  %s" % (
        "workload", "metric", "parent q1", "median", "q3", "change q1",
        "median", "q3", "win", "verdict")
    print(header)
    for workload in sorted(set(parent) & set(change)):
        for name in sorted(set(parent[workload]) & set(change[workload])):
            if name not in meta:
                continue
            better, bound = meta[name]
            p, c = parent[workload][name], change[workload][name]
            win, result = verdict(p, c, better, bound)
            regressions += result == "regression"
            print("%-14s %-34s %12.5g %12.5g %12.5g %12.5g %12.5g %12.5g "
                  "%5.2f  %s" % ((workload, name) + summary(p) + summary(c) +
                                 (win, result)))
    missing = sorted(set(parent) ^ set(change))
    if missing:
        print("workloads measured on one side only: " + ", ".join(missing))
    return 1 if regressions else 0


# --------------------------------------------------------------------
# Smoke
# --------------------------------------------------------------------

def printed_metrics(stdout):
    """{workload: set of metric names} from the harness's stdout."""
    printed, current = {}, None
    for line in stdout.splitlines():
        fields = line.split()
        if fields[:2] == ["#", "workload"] and len(fields) >= 3:
            current = printed.setdefault(fields[2], set())
        elif current is not None and len(fields) == 3 and fields[0][0] != "#":
            float(fields[1])
            current.add(fields[0])
    return printed


def smoke(binary, benchmark):
    with open(benchmark) as f:
        spec = json.load(f)
    workloads = {w["name"] for w in spec["workloads"]}
    problems = []
    os.makedirs("smoke", exist_ok=True)
    for mode, key in (("run", "end_to_end"), ("trace", "per_layer")):
        out = os.path.join("smoke", mode + ".json")
        cmd = [binary, "--workload", "all", "--seed", "1", "--smoke",
               "--out", out]
        if mode == "trace":
            cmd += ["--trace", os.path.join("smoke", "spans.json")]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=300)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            problems.append("%s mode exited %d" % (mode, proc.returncode))
        printed = printed_metrics(proc.stdout)
        if set(printed) != workloads:
            problems.append("%s mode printed workloads %s, BENCHMARK.json "
                            "names %s" % (mode, sorted(printed),
                                          sorted(workloads)))
        for workload, names in printed.items():
            for metric in spec[key]:
                if metric["name"] not in names:
                    problems.append("%s: %s not printed in %s mode" %
                                    (workload, metric["name"], mode))
        with open(out) as f:
            for item in json.load(f):
                if item["failed"] != 0 or item["attempted"] < 1:
                    problems.append("%s: %d of %d operations failed in %s "
                                    "mode" % (item["workload"],
                                              item["failed"],
                                              item["attempted"], mode))
    return problems


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--check-schema", nargs="?", const=DEFAULT_BENCHMARK,
                        metavar="BENCHMARK.json")
    parser.add_argument("--smoke", metavar="BINARY")
    parser.add_argument("--benchmark", default=DEFAULT_BENCHMARK)
    parser.add_argument("--parent", nargs="+", metavar="RUN.json")
    parser.add_argument("--change", nargs="+", metavar="RUN.json")
    args = parser.parse_args()

    if args.check_schema:
        problems = check_schema(args.check_schema)
        for problem in problems:
            print("schema: " + problem)
        print("schema %s" % ("FAILED" if problems else "ok"))
        return 1 if problems else 0
    if args.smoke:
        problems = check_schema(args.benchmark) + smoke(args.smoke,
                                                        args.benchmark)
        for problem in problems:
            print("smoke: " + problem)
        print("smoke %s" % ("FAILED" if problems else "ok"))
        return 1 if problems else 0
    if args.parent and args.change:
        return compare(args.benchmark, args.parent, args.change)
    parser.error("give --check-schema, --smoke, or --parent and --change")
    return 2


if __name__ == "__main__":
    sys.exit(main())
