"""Repeat the benchmark over seeds and summarize its spread.

    python3 bench/history.py --runs 10 --first-seed 100 [--workload suite ...]
                             [--record history/<name>.json]

Runs ``bench/run.py`` once per seed and workload, one process at a time,
from the root of the checkout, with the run length from BENCHMARK.json.
For each workload and end-to-end metric it prints the median, the first and
third quartile and their distance as a share of the median, next to the
metric's bound; and the same for ``host_ref_s``, the time of a fixed loop
that does not touch einlocus, which shows how fast the host ran.  Like
``wall_s`` it is read at each run's slowest pass.  ``--record`` also
writes the summary, with the machine fingerprint of the first run, under
``bench/``; committed summaries there are the benchmark's history.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def out_path(workload, seed):
    return BENCH_DIR / "out" / f"{workload}-seed{seed}-trace0.json"


def run_once(spec, workload, seed, trace=0):
    command = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
    ]  # fmt: skip
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(command)} exited {done.returncode}:\n{done.stdout}{done.stderr}")
    return json.loads(lines[-1])


def summarize(values, bound):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "iqr_share": (q3 - q1) / med,
        "bound": bound,
        "values": values,
    }


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--record", help="path under bench/ to write the summary to")
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"run_seconds": spec["run_seconds"], "runs": args.runs, "workloads": {}}
    for workload in args.workload or names:
        seeds = list(range(args.first_seed, args.first_seed + args.runs))
        values = {name: [] for name in bounds}
        host_ref = []
        for seed in seeds:
            result = run_once(spec, workload, seed)
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed}: {result['failed']} wrong verdicts")
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            record = json.loads(out_path(workload, seed).read_text())
            host_ref.append(max(record["host_ref_s"]))
        rows = {name: summarize(v, bounds[name]) for name, v in values.items()}
        rows["host_ref_s"] = summarize(host_ref, None)
        summary["workloads"][workload] = {"seeds": seeds, "metrics": rows}
        for name, row in rows.items():
            print(
                f"{workload:<9} {name:<17} median {row['median']:<10.4g} "
                f"q1 {row['q1']:<10.4g} q3 {row['q3']:<10.4g} "
                f"iqr/median {row['iqr_share']:.3f} (bound {row['bound'] or '-'})",
                flush=True,
            )
    if args.record:
        workload, runs = next(iter(summary["workloads"].items()))
        first = out_path(workload, runs["seeds"][0])
        summary["machine"] = json.loads(first.read_text())["machine"]
        path = BENCH_DIR / args.record
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(summary, indent=1) + "\n")
        print(f"summary written to {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
