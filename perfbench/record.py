#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise the spread.

Runs `bash perfbench/run.sh --workload W --seed S --seconds N --trace T`
for every workload and seed given, from the repository root, keeps each
run's result line, and reports per workload and metric the median, the
quartiles (statistics.quantiles(n=4)) and the spread (q3 - q1) / median
against the metric's bound in BENCHMARK.json.

    python3 perfbench/record.py --seeds 1-10 --out results.json
    python3 perfbench/record.py --seeds 2022,7 --trace 0,1 --out both.json
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds, trace):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} failed ({proc.returncode}):\n"
                 f"{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result.update(workload=workload, seed=seed, trace=trace,
                  detail=lines[:-1], wall_s=round(wall, 1))
    return result


def summarise(runs, bounds):
    summary = {}
    for run in runs:
        per = summary.setdefault(run["workload"], {})
        for name, m in run["metrics"].items():
            per.setdefault(name, {"unit": m["unit"], "values": []})
            per[name]["values"].append(m["value"])
    for per in summary.values():
        for name, s in per.items():
            v = s["values"]
            s["median"] = statistics.median(v)
            if len(v) >= 2:
                q1, _, q3 = statistics.quantiles(v, n=4)
                s["q1"], s["q3"] = q1, q3
                s["spread"] = (q3 - q1) / s["median"] if s["median"] else 0.0
            if name in bounds:
                s["bound"] = bounds[name]
    return summary


def main():
    spec = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="2022", help="e.g. 1-10 or 2022,7")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", default="0", help="0, 1 or 0,1")
    ap.add_argument("--label", default="",
                    help="free text stored with the results (commit, host)")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = []
    for workload in args.workloads.split(","):
        for trace in (int(t) for t in args.trace.split(",")):
            for seed in parse_seeds(args.seeds):
                run = run_once(workload, seed, args.seconds, trace)
                print(f"{workload} seed {seed} trace {trace}: "
                      f"correct={run['correct']} attempted={run['attempted']}"
                      f" failed={run['failed']} ({run['wall_s']} s)",
                      flush=True)
                runs.append(run)
    summary = summarise(runs, bounds)
    for workload, per in summary.items():
        print(f"== {workload}")
        for name, s in per.items():
            spread = s.get("spread")
            note = ""
            if spread is not None and "bound" in s:
                note = (f"  bound {s['bound']}"
                        f"{'' if spread < s['bound'] / 3 else '  WIDE'}")
            print(f"  {name:30s} median {s['median']:<14.6g} {s['unit']:8s}"
                  + (f" spread {spread:.4f}" if spread is not None else "")
                  + note)
    with open(args.out, "w") as f:
        json.dump({"label": args.label, "seconds": args.seconds,
                   "runs": runs, "summary": summary},
                  f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
