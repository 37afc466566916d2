#!/usr/bin/env python3
"""Print the sha256 of each built-in's report, one `label seed json text` line.

Covers the default suite plus cpn-6, quadric-4 and toric-fs-4, at
--samples ambient and locus samples, once per seed in --seeds.  Each line
holds the sha256 of the JSON report and of its text rendering.  Reports
are byte-identical for a fixed seed, so two checkouts that should agree
are compared with `diff` on this script's output:

    python scripts/report_digests.py --samples 40 --seeds 0 1 > after.txt
"""

import argparse
import hashlib
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from einlocus import make_builtin, verdict  # noqa: E402
from einlocus.bundles import DEFAULT_SUITE  # noqa: E402
from einlocus.sampling import SamplingConfig  # noqa: E402

EXTRA = (("cpn", 6), ("quadric", 4), ("toric-fs", 4))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--samples", type=int, default=12)
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1])
    args = parser.parse_args()
    for name, n in DEFAULT_SUITE + EXTRA:
        bundle = make_builtin(name, n)
        for seed in args.seeds:
            report = verdict(bundle, SamplingConfig(args.samples, args.samples, seed=seed))
            digests = (hashlib.sha256(r.encode()).hexdigest() for r in (report.to_json(), report.to_text()))
            print(bundle.label, seed, *digests, flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
