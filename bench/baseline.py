"""Run the benchmark over several seeds and record the result:

    python3 bench/baseline.py --out bench/baseline.json

For every workload of BENCHMARK.json, in one sitting: RUNS untraced runs
(seeds 1..RUNS), then TRACED traced runs (seeds 1..TRACED).  For each
metric the record holds the median, the quartiles (statistics.quantiles,
n=4), the spread (interquartile distance over the median) and every value,
with the number of runs.  Every end-to-end spread is compared with a third
of its bound in BENCHMARK.json; the exit code is 1 if one is wider.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
RUNS = 10
TRACED = 3


def summarize(values):
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"runs": len(values), "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def run_one(workload, seed, seconds, trace):
    done = subprocess.run([sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=200)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{done.stderr}")
    out = json.loads(done.stdout.strip().splitlines()[-1])
    if not out["correct"]:
        raise SystemExit(f"{workload} seed {seed}: wrong answers\n{done.stderr}")
    return out


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {"machine": {"platform": platform.platform(), "python": platform.python_version(),
                          "cpus": os.cpu_count()},
              "run_seconds": spec["run_seconds"], "workloads": {}}
    steady = True
    for workload in (w["name"] for w in spec["workloads"]):
        entry = {}
        for trace, count, section in ((0, RUNS, "end_to_end"), (1, TRACED, "per_layer")):
            values = {}
            for seed in range(1, count + 1):
                out = run_one(workload, seed, spec["run_seconds"], trace)
                for name, metric in out["metrics"].items():
                    values.setdefault(name, []).append(metric["value"])
            entry[section] = {name: summarize(v) for name, v in values.items()}
        for name, bound in bounds.items():
            spread = entry["end_to_end"][name]["spread"]
            ok = spread < bound / 3
            steady &= ok
            print(f"{workload:8} {name:13} median {entry['end_to_end'][name]['median']:10.4f} "
                  f"spread {spread:.4f} bound {bound} {'ok' if ok else 'WIDE'}")
        record["workloads"][workload] = entry
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=1)
            handle.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
