#!/usr/bin/env python3
"""Run the benchmark ten times per workload, each with another seed, and
record how much each end-to-end metric spreads within the set and how far
its median moved from earlier sets.

    python3 perfbench/steadiness.py [--runs 10] [--workloads te-stream,typing,hot]
        [--out perfbench/steadiness.json]

Run from the root of a checkout. Seeds are 1..runs. Each call appends one
set to the `sets` list of the output file, keeping the sets already there.
For every workload and end-to-end metric a set records the median and
quartiles of its runs (statistics.quantiles, n=4), the spread
(q3 - q1) / median and the metric's bound from BENCHMARK.json, over the
runs that succeeded, next to each run's values, host probes and
duration; a run that fails is recorded with its exit code. A failed run
is flagged, as is a spread at or above a third of its bound (setup_s
excepted) and a median that differs by more than the bound from that of
an earlier set made with the same benchmark (the same digest of
BENCHMARK.json and the benchmark's code). The exit code is 1 when
anything is flagged.
"""

import argparse
import datetime
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 3:
        sys.stderr.write(proc.stderr)
        return proc.returncode, None, None, None
    header, host, result = (json.loads(lines[0]), json.loads(lines[-2]),
                            json.loads(lines[-1]))
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect output")
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    return 0, header, host["host"], metrics


def bench_digest():
    """MD5 of BENCHMARK.json and the files that make the measurement."""
    h = hashlib.md5()
    names = ["BENCHMARK.json"] + sorted(
        os.path.join("perfbench", f) for f in os.listdir("perfbench")
        if f.endswith(".ml") or f in ("dune", "run.sh"))
    for name in names:
        h.update(name.encode())
        with open(name, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--out", default="perfbench/steadiness.json")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    record = {"host": {"cores": os.cpu_count(), "machine": platform.machine()},
              "sets": []}
    if os.path.exists(args.out):
        record = json.load(open(args.out))
    new = {
        "started": datetime.datetime.now(datetime.timezone.utc)
                   .strftime("%Y-%m-%dT%H:%M:%SZ"),
        "run_seconds": bench["run_seconds"],
        "bench_digest": bench_digest(),
        "runs": args.runs,
        "workloads": {},
    }
    flagged = []
    for workload in args.workloads.split(","):
        runs, host_ms, failed, each = [], [], [], []
        for seed in range(1, args.runs + 1):
            t0 = time.monotonic()
            code, header, host, metrics = run_once(
                bench["command"], workload, seed, bench["run_seconds"])
            elapsed = time.monotonic() - t0
            if code != 0:
                failed.append({"seed": seed, "exit": code})
                flagged.append(f"{workload} seed {seed}: exit {code}")
                print(f"{workload} seed {seed}: exit {code}", flush=True)
                continue
            new["source_digest"] = header["source_digest"]
            runs.append(metrics)
            each.append({"seed": seed, "seconds": round(elapsed, 1),
                         "probes_ms": host["probes_ms"],
                         "drift": host["drift"], **metrics})
            host_ms.extend(host["probes_ms"])
            print(f"{workload} seed {seed}: {elapsed:.0f} s, "
                  f"drift {host['drift']:.3f}, "
                  + ", ".join(f"{k}={v:.4g}" for k, v in metrics.items()),
                  flush=True)
        rows = {"failed_runs": failed, "runs": each}
        new["workloads"][workload] = rows
        if len(runs) < 2:
            continue
        rows["host_probe_ms_median"] = statistics.median(host_ms)
        for name, bound in bounds.items():
            values = [r[name] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            rows[name] = {"median": median, "q1": q1, "q3": q3,
                          "spread": spread, "bound": bound}
            if name != "setup_s" and spread >= bound / 3:
                flagged.append(f"{workload} {name}: spread {spread:.4f} "
                               f">= bound/3 {bound / 3:.4f}")
            for i, old in enumerate(record["sets"]):
                if old.get("bench_digest") != new["bench_digest"]:
                    continue
                prev = old["workloads"].get(workload, {}).get(name)
                if not isinstance(prev, dict):
                    continue
                moved = abs(median - prev["median"]) / prev["median"]
                if moved > bound:
                    flagged.append(f"{workload} {name}: median {median:.6g} is "
                                   f"{moved:.4f} from set {i}'s "
                                   f"{prev['median']:.6g} (bound {bound})")
    record["sets"].append(new)
    with open(args.out, "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    for workload, rows in new["workloads"].items():
        if "host_probe_ms_median" not in rows:
            continue
        print(f"\n{workload} (host probe median "
              f"{rows['host_probe_ms_median']:.3f} ms)")
        for name in bounds:
            r = rows[name]
            print(f"  {name:16s} median {r['median']:12.6g}  "
                  f"q1 {r['q1']:12.6g}  q3 {r['q3']:12.6g}  "
                  f"spread {r['spread']:.4f}  bound {r['bound']}")
    for line in flagged:
        print("FLAG " + line)
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
