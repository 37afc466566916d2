#!/usr/bin/env python3
"""Run the verification pipeline over every built-in manifold.

Writes one JSON report per bundle into --outdir and prints a summary table
with the fitted constants.  Reports are reproducible byte for byte for a
fixed seed.
"""

import argparse
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from einlocus import make_builtin, verdict  # noqa: E402
from einlocus.bundles import DEFAULT_SUITE  # noqa: E402
from einlocus.sampling import SamplingConfig  # noqa: E402


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--samples", type=int, default=50)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--outdir", default="reports")
    args = parser.parse_args()

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    config = SamplingConfig(
        ambient_samples=args.samples, locus_samples=args.samples, seed=args.seed
    )

    header = f"{'bundle':<14} {'status':<18} {'lambda':>12} {'kappa':>12} {'C':>12} {'time':>7}"
    print(header)
    print("-" * len(header))
    worst = 0
    for name, n in DEFAULT_SUITE:
        bundle = make_builtin(name, n)
        start = time.perf_counter()
        report = verdict(bundle, config)
        elapsed = time.perf_counter() - start
        worst = max(worst, report.exit_code)
        c = report.data["constants"]
        path = outdir / f"{bundle.label}.json"
        path.write_text(report.to_json())
        print(
            f"{bundle.label:<14} {report.data['verdict']['status']:<18} "
            f"{_fmt(c['lambda_est']):>12} {_fmt(c['kappa_est']):>12} "
            f"{_fmt(c['C_est']):>12} {elapsed:>6.2f}s"
        )
    print(f"\nreports in {outdir}/")
    return worst


def _fmt(x):
    return "n/a" if x is None else f"{x:.6f}"


if __name__ == "__main__":
    raise SystemExit(main())
