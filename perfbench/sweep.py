"""Run workloads over several seeds and summarise each metric.

    python3 perfbench/sweep.py --seeds 1,2,3,4,5,6,7,8,9,10 [--workload NAME ...]
        [--trace 0|1] [--seconds S] [--out perfbench/results/FILE.json]

Each run is a separate process, started after the previous one ended, as
``run.py`` is run for a real measurement.  For every metric the summary
holds the ten values, their median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread, which is the
inter-quartile distance as a share of the median.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def summarise(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def sweep(workload, seeds, seconds, trace):
    runs = []
    for seed in seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(trace)],
            capture_output=True, text=True, check=True)
        lines = proc.stdout.splitlines()
        header = {k: v for k, _, v in (line[2:].partition(": ")
                                        for line in lines
                                        if line.startswith("# "))}
        result = json.loads(lines[-1])
        runs.append({"seed": seed, "header": header, "result": result})
        print(workload, seed, result["correct"], result["attempted"],
              result["failed"], {k: round(m["value"], 4) for k, m
                                 in result["metrics"].items()}, flush=True)
    names = runs[0]["result"]["metrics"]
    return {
        "runs": runs,
        "metrics": {name: summarise([r["result"]["metrics"][name]["value"]
                                     for r in runs]) for name in names},
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seeds", required=True)
    parser.add_argument("--seconds", type=int, default=BENCH["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    workloads = args.workload or [w["name"] for w in BENCH["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in BENCH["end_to_end"]}
    summary = {}
    for wl in workloads:
        summary[wl] = sweep(wl, seeds, args.seconds, args.trace)
        for name, s in summary[wl]["metrics"].items():
            bound = bounds.get(name)
            flag = "" if bound is None or s["spread"] < bound / 3 else \
                "  (spread is not below a third of the bound)"
            print(f"{wl} {name}: median {s['median']:.6g} spread "
                  f"{s['spread']:.4f}{flag}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")


if __name__ == "__main__":
    main()
