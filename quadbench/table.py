#!/usr/bin/env python3
"""Runs the benchmark over several seeds and prints one table per workload.

    python3 quadbench/table.py                      # 5 seeds, every workload
    python3 quadbench/table.py --seeds 1-10 --workloads hs-qd1 --trace 1

For each metric: name, unit, median, first and third quartile
(statistics.quantiles, n=4), sample count, and the spread (IQR / median)
against the metric's bound from BENCHMARK.json. Like the CatBoost training
speed table, training is shown both as total wall and as wall per tree.
With --trace 1 over all workloads it also checks that each workload
stresses the layers it was chosen for. A seed listed twice (--seeds 1,1)
checks that the deterministic outputs repeat exactly. --out appends every
raw result line (JSON) to a file.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

from run import HERE, ROOT, WORKLOADS

# Outputs fixed by the seed: equal on every run of one seed.
DETERMINISTIC = ("valid_quality", "cluster.bytes_per_tree",
                 "cluster.comm_model_s_per_tree", "model_digest")


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def one_run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit("run failed: %s (exit %d)" % (" ".join(cmd),
                                                       proc.returncode))
    lines = proc.stdout.rstrip("\n").split("\n")
    info = {}
    for line in lines:
        if line.startswith("# %s " % workload):
            for field in line.split()[2:]:
                key, _, value = field.partition("=")
                info[key] = value
    return json.loads(lines[-1]), info


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def print_table(workload, results, infos, bounds):
    print("\n== %s: %d runs, %d failed ops" % (
        workload, len(results), sum(r["failed"] for r in results)))
    print("%-34s %-10s %14s %14s %14s %3s %8s %6s" % (
        "metric", "unit", "median", "q1", "q3", "n", "spread", "bound"))
    rows = {}
    for name in results[0]["metrics"]:
        rows[name] = ([r["metrics"][name]["value"] for r in results],
                      results[0]["metrics"][name]["unit"])
    trees = [float(i["trees"]) for i in infos if "trees" in i]
    if "train_wall_s" in rows and len(trees) == len(results):
        walls = rows["train_wall_s"][0]
        rows["train_wall_s_per_tree"] = (
            [w / t for w, t in zip(walls, trees)], "s/tree")
    for name, (values, unit) in rows.items():
        q1, med, q3 = quartiles(values)
        spread = (q3 - q1) / abs(med) if med else 0.0
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and spread > bound / 3:
            flag = " !"
        print("%-34s %-10s %14.6g %14.6g %14.6g %3d %7.2f%% %6s%s" % (
            name, unit, med, q1, q3, len(values), 100 * spread,
            "" if bound is None else "%.2f" % bound, flag))
    digests = {i.get("model_digest") for i in infos}
    print("model digests: %d distinct over %d runs" % (len(digests),
                                                       len(infos)))


def check_repeats(seeds, results, infos):
    """Returns False when a deterministic output differs between runs of
    one seed."""
    ok = True
    first = {}
    for seed, result, info in zip(seeds, results, infos):
        values = {k: result["metrics"][k]["value"]
                  for k in DETERMINISTIC if k in result["metrics"]}
        values["model_digest"] = info.get("model_digest")
        if seed in first and first[seed] != values:
            print("FAIL seed %d repeats differently: %s vs %s" % (
                seed, first[seed], values))
            ok = False
        first.setdefault(seed, values)
    return ok


def check_layers(medians):
    """Cross-workload expectations of the traced run."""
    ok = True

    def expect(cond, what):
        nonlocal ok
        print("%s %s" % ("ok  " if cond else "FAIL", what))
        ok = ok and cond

    get = lambda w, m: medians[w][m]
    expect(get("ld-qd2", "partition.transform_model_s") == 0 and
           get("hs-qd1", "partition.transform_model_s") == 0 and
           get("mc-qd4", "partition.transform_model_s") > 0,
           "transform runs only on mc-qd4")
    expect(get("hs-qd1", "cluster.bytes_per_tree") >=
           100 * get("ld-qd2", "cluster.bytes_per_tree"),
           "hs-qd1 sends >= 100x the bytes per tree of ld-qd2")
    expect(get("ld-qd2", "core.hist_threads") == 2 and
           get("hs-qd1", "core.hist_threads") == 1 and
           get("mc-qd4", "core.hist_threads") == 1,
           "histogram threads are 2 only on ld-qd2")
    expect(all(get(w, "obs.anatomy_exact") == 1 for w in WORKLOADS),
           "anatomy exact-sum invariant on every workload")
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", default="1-5")
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workloads.split(",")
    medians = {}
    ok = True
    seeds = parse_seeds(args.seeds)
    for workload in workloads:
        results, infos = [], []
        for seed in seeds:
            result, info = one_run(workload, seed, seconds, args.trace)
            results.append(result)
            infos.append(info)
            if args.out:
                with open(args.out, "a") as out:
                    out.write(json.dumps({"workload": workload, "seed": seed,
                                          "trace": args.trace,
                                          "result": result}) + "\n")
        print_table(workload, results, infos, bounds)
        ok = check_repeats(seeds, results, infos) and ok
        ok = ok and all(r["correct"] for r in results)
        medians[workload] = {
            name: statistics.median(r["metrics"][name]["value"]
                                    for r in results)
            for name in results[0]["metrics"]}
    if args.trace == 1 and set(workloads) == set(WORKLOADS):
        print()
        ok = check_layers(medians) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
