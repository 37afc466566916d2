"""Fast self-check of the benchmark harness.

    python3 bench/selfcheck.py

Runs every workload at two ambient and two locus samples per verdict, once
untraced and twice traced with the same seed, and checks that

* exactly the end-to-end and per-layer metrics named in BENCHMARK.json are
  emitted, with the units named there;
* every verdict passes the oracle;
* every hook in ``spans.HOOKS`` was found in the package;
* no timed pass built a jet table (``run.py`` refuses such a run);
* the ``jets.*.calls`` counts of the two traced runs are identical;
* the reports of one seed have the same bytes in two processes with
  different ``PYTHONHASHSEED``, so that they depend neither on set or dict
  order nor on anything else that changes between processes.

Writes nothing.  Exit code 0 when every check holds, 1 otherwise.

    python3 bench/selfcheck.py --digests WORKLOAD

prints the SHA-256 of each report of one untraced tiny run, as JSON.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import run

TINY_SAMPLES = 2
HASH_SEEDS = ("1", "2")


def tiny(name, trace):
    return run.execute(name, 0, 0, trace, cap=TINY_SAMPLES, write=False)


def digests_in_subprocess(name, hash_seed):
    env = {**os.environ, "PYTHONHASHSEED": hash_seed}
    done = subprocess.run(
        [sys.executable, __file__, "--digests", name],
        env=env, capture_output=True, text=True, check=False,
    )  # fmt: skip
    if done.returncode != 0:
        return None, done.stderr.strip().splitlines()[-1:]
    return json.loads(done.stdout.strip().splitlines()[-1]), None


def check_workload(name, expected):
    problems = []
    results = {}
    for trace, repeat in ((0, 0), (1, 0), (1, 1)):
        try:
            record = tiny(name, trace)
        except run.BenchmarkError as exc:
            return [f"{name} trace {trace}: {exc}"]
        results[trace, repeat] = record
        units = {k: m["unit"] for k, m in record["metrics"].items()}
        if units != expected[trace]:
            problems.append(f"{name} trace {trace}: metrics {sorted(units)} != BENCHMARK.json")
        if record["failed"]:
            problems.append(f"{name} trace {trace}: wrong verdicts {record['failures']}")
        if record.get("hooks_missing"):
            problems.append(f"{name}: hooks not found in the package: {record['hooks_missing']}")
    first, second = (
        {k: m["value"] for k, m in results[1, r]["metrics"].items()
         if k.startswith("jets.") and k.endswith(".calls")}
        for r in (0, 1)
    )  # fmt: skip
    if first != second:
        problems.append(f"{name}: jets call counts differ between traced runs: {first} vs {second}")
    digests = []
    for hash_seed in HASH_SEEDS:
        digest, error = digests_in_subprocess(name, hash_seed)
        if error is not None:
            problems.append(f"{name}: run with PYTHONHASHSEED={hash_seed} failed: {error}")
        digests.append(digest)
    if None not in digests and digests[0] != digests[1]:
        differ = sorted(k for k in digests[0] if digests[0][k] != digests[1].get(k))
        problems.append(f"{name}: report bytes differ between processes for {differ}")
    return problems


def main(argv):
    if argv[:1] == ["--digests"] and len(argv) == 2:
        print(json.dumps(tiny(argv[1], 0)["report_sha256"], sort_keys=True))
        return 0
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for name in run.WORKLOADS:
        found = check_workload(name, expected)
        print(f"{name}: {'FAILED' if found else 'ok'}", flush=True)
        problems.extend(found)
    for p in problems:
        print(p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
