#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

For every workload given, runs the benchmark command from BENCHMARK.json
once per seed, then prints per metric: the median of the runs, the
distance between the first and third quartile (Python's
statistics.quantiles(values, n=4)) as a share of that median, the bound
BENCHMARK.json fixes, and whether the spread stays under a third of it.

    python3 picbench/spread.py --workloads dense_pauli sparse_oracle \
        --seeds 1 2 3 4 5 [--seconds 20] [--trace 0]

Run it from the repository root. Each run's last stdout line is kept in
the JSON summary printed at the end.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds, trace):
    args = command + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(args, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["raw"] = json.loads(lines[-2]).get("details", {}).get("raw", {})
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    opts = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = opts.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    summary = {}
    for workload in opts.workloads:
        results = []
        for seed in opts.seeds:
            result = run_once(bench["command"], workload, seed, seconds, opts.trace)
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed}: incorrect result {result}")
            results.append(result)
            print(f"{workload} seed {seed} done", file=sys.stderr, flush=True)
        print(f"\n{workload} ({len(results)} seeds, {seconds} s)")
        rows = {}
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            verdict = ""
            if bound is not None:
                verdict = "ok" if spread < bound / 3 else "WIDE"
            rows[name] = {"median": med, "spread": spread, "values": values}
            shown = f"{bound:.3f}" if bound is not None else "-"
            raw = ""
            if all(name in r["raw"] for r in results):
                rv = [r["raw"][name] for r in results]
                rq1, _, rq3 = statistics.quantiles(rv, n=4)
                raw = f"  (raw spread {(rq3 - rq1) / statistics.median(rv):.4f})"
            print(f"  {name:<30} median {med:>14.4f}  spread {spread:7.4f}  bound {shown:>6} {verdict}{raw}")
        summary[workload] = rows
    print(json.dumps(summary))


if __name__ == "__main__":
    main()
