#!/usr/bin/env python3
"""The committed performance trajectory: one file of perfbench medians per
recorded commit, under bench/trajectory/, so a change can be compared with
the commits before it.

    tools/trajectory.py record --label NAME
    tools/trajectory.py show METRIC

`record` runs perfbench/spread.py over seeds 1-5 of every BENCHMARK.json
workload, 10 s per run, twice: once end to end (--trace 0) and once traced
(--trace 1) for the per-layer metrics. It writes
bench/trajectory/BENCH_<NAME>.json with the host (nproc, CPU model), the
commit and whether the tree differed from it, the seeds, the run length, and
per workload the median, quartiles and IQR of every metric. The seeds and
the run length are fixed so that every file can be compared with every
other. Run it from a clean checkout of the commit being recorded, on an
otherwise idle host.

`show` prints one metric per workload across every committed file, oldest
first, as median [q1, q3]. It refuses files recorded with other seeds or
another run length.
"""

import argparse
import glob
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TRAJECTORY = os.path.join(ROOT, "bench", "trajectory")
SEEDS = [1, 2, 3, 4, 5]
SECONDS = 10


def git(*args):
    out = subprocess.run(["git"] + list(args), cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True)
    return out.stdout.strip() if out.returncode == 0 else ""


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def summarize(values):
    """Median, quartiles and IQR of one metric's per-seed values."""
    if len(values) > 1:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1,
            "n": len(values)}


def spread(workloads, trace, scratch):
    """Runs perfbench/spread.py and returns its per-workload values."""
    out = os.path.join(scratch, "trace%d.json" % trace)
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "spread.py"),
           "--workloads", ",".join(workloads),
           "--seeds", "%d-%d" % (SEEDS[0], SEEDS[-1]),
           "--seconds", str(SECONDS), "--trace", str(trace), "--json", out]
    if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
        raise SystemExit("trajectory: perfbench/spread.py failed (trace %d)"
                         % trace)
    with open(out) as f:
        return json.load(f)


def record(args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    doc = {
        "label": args.label,
        "recorded_unix": int(time.time()),
        "commit": git("rev-parse", "HEAD"),
        "dirty": bool(git("status", "--porcelain", "--", "src", "perfbench")),
        "host": {"nproc": os.cpu_count(), "cpu_model": cpu_model()},
        "seeds": SEEDS,
        "seconds": SECONDS,
        "workloads": {w: {} for w in workloads},
    }
    with tempfile.TemporaryDirectory() as scratch:
        for trace, part in ((0, "end_to_end"), (1, "per_layer")):
            report = spread(workloads, trace, scratch)
            for w in workloads:
                doc["workloads"][w][part] = {
                    name: summarize(m["values"])
                    for name, m in sorted(report[w].items())}
    os.makedirs(TRAJECTORY, exist_ok=True)
    path = os.path.join(TRAJECTORY, "BENCH_%s.json" % args.label)
    with open(path, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")
    print("trajectory: wrote %s" % os.path.relpath(path, ROOT))


def show(args):
    docs = []
    for path in sorted(glob.glob(os.path.join(TRAJECTORY, "BENCH_*.json"))):
        with open(path) as f:
            d = json.load(f)
        if d["seeds"] != SEEDS or d["seconds"] != SECONDS:
            raise SystemExit(
                "trajectory: %s was recorded with seeds %s and %s s runs, "
                "not seeds %s and %s s; its medians are not comparable" %
                (os.path.relpath(path, ROOT), d["seeds"], d["seconds"], SEEDS,
                 SECONDS))
        docs.append(d)
    if not docs:
        raise SystemExit("trajectory: no files under %s" % TRAJECTORY)
    docs.sort(key=lambda d: d["recorded_unix"])
    print("%-12s %-10s %-14s %s" % ("label", "commit", "workload", args.metric))
    for d in docs:
        for w, parts in sorted(d["workloads"].items()):
            for part in parts.values():
                m = part.get(args.metric)
                if m is None:
                    continue
                print("%-12s %-10s %-14s %.6g [%.6g, %.6g]" %
                      (d["label"], d["commit"][:10], w, m["median"], m["q1"],
                       m["q3"]))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="command", required=True)
    rec = sub.add_parser("record", help="run perfbench and write one file")
    rec.add_argument("--label", required=True,
                     help="names the file: bench/trajectory/BENCH_<label>.json")
    rec.set_defaults(run=record)
    sh = sub.add_parser("show", help="print one metric across the files")
    sh.add_argument("metric")
    sh.set_defaults(run=show)
    args = ap.parse_args()
    args.run(args)


if __name__ == "__main__":
    main()
