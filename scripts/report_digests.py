#!/usr/bin/env python3
"""Print the sha256 of each bundle's report, one `label seed json text` line.

Covers the default suite plus cpn-6, quadric-4 and toric-fs-4, and six
bundles that end elsewhere than exit 0 or lift a callable: the CP^1 x CP^2
product (exit 2), projective space under a contracting map, a perturbed
flat potential and cpn-2 on a complex plane (all exit 3), cpn-2 with its
potential as a black-box callable, and a potential whose lift overflows
(exit 4).  Each runs at --samples ambient and locus samples, once per seed
in --seeds.  Each line holds the sha256 of the JSON report and of its text
rendering.  Reports are byte-identical for a fixed seed, so two checkouts
that should agree are compared with `diff` on this script's output:

    python scripts/report_digests.py --samples 40 --seeds 0 1 > after.txt

With --values it prints the reported numbers instead: one `label seed key
value` line per numeric leaf of each JSON report, the key path joined by
`.` (list entries by their index) and the value as its `repr`, so that two
checkouts' listings can be joined on (label, seed, key) to find the largest
change per bundle.
"""

import argparse
import hashlib
import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from einlocus import (  # noqa: E402
    AntiholoMap,
    FixedLocusParam,
    ManifoldBundle,
    PotentialChart,
    builtin_cpn,
    exprs,
    make_builtin,
    verdict,
)
from einlocus.bundles import DEFAULT_SUITE  # noqa: E402
from einlocus.sampling import SamplingConfig  # noqa: E402

EXTRA = (("cpn", 6), ("quadric", 4), ("toric-fs", 4))


def _real_slice(n, extent):
    return FixedLocusParam(exprs.coord_names(n, prefix="t"), ((-extent, extent),) * n)


def product():
    """CP^1 x CP^2 scaled to Einstein constant 1: every hypothesis holds, but
    the trace operator is not a multiple of the identity (exit 2)."""
    psi = (
        "+",
        ("*", 2, ("log", ("+", 1, ("abs2", "w1")))),
        ("*", 3, ("log", ("+", 1, ("abs2", "w2"), ("abs2", "w3")))),
    )
    return ManifoldBundle(
        chart=PotentialChart(3, psi, ((-1.0, 1.0),) * 6, label="product"),
        mapping=builtin_cpn(3).mapping,
        locus=_real_slice(3, 1.0),
        label="product",
    )


def contracted_cpn2():
    """w -> conj(w) / 2 on cpn-2: anti-holomorphic, not an isometry (exit 3)."""
    base = builtin_cpn(2)
    halved = AntiholoMap(tuple(("*", 0.5, ("conj", w)) for w in exprs.coord_names(2)))
    return ManifoldBundle(base.chart, halved, base.locus, label="contracted-cpn-2")


def perturbed_flat():
    """|w|^2 plus a quartic bump: not Kahler-Einstein (exit 3)."""
    psi = ("+", ("abs2", "w1"), ("abs2", "w2"), ("*", 0.1, ("pow", ("abs2", "w1"), 2)))
    return ManifoldBundle(
        chart=PotentialChart(2, psi, ((-0.8, 0.8),) * 4, label="perturbed-flat"),
        mapping=builtin_cpn(2).mapping,
        locus=_real_slice(2, 0.8),
        c1_sign="zero",
        label="perturbed-flat",
    )


def blackbox_cpn2():
    """The cpn-2 potential log(1 + |x|^2) as a callable, lifted by finite
    differences, with tolerances wide enough for that lift to pass."""

    def potential(xy):
        return float(np.log1p(np.dot(xy, xy)))

    return ManifoldBundle(
        chart=PotentialChart(2, potential, ((-1.0, 1.0),) * 4, label="blackbox-cpn-2"),
        mapping=builtin_cpn(2).mapping,
        locus=_real_slice(2, 1.0),
        label="blackbox-cpn-2",
        tolerance_overrides=(
            ("gate_ambient_einstein", 5e-2),
            ("tol_sym", 1e-2),
            ("tol_eig", 1e-2),
            ("tol_const", 1e-2),
            ("gate_geodesic", 1e-3),
            ("report_cross_route", 1e-3),
        ),
    )


def complex_plane_cpn2():
    """cpn-2 on the plane t -> (t1 + i t2, 0), which J maps into itself: it
    is complex, so totally_real reads 1, and conjugation does not fix it
    (exit 3)."""
    base = builtin_cpn(2)
    plane = FixedLocusParam((("+", "t1", ("*", "I", "t2")), 0), ((-0.5, 0.5),) * 2)
    return ManifoldBundle(base.chart, base.mapping, plane, label="complex-plane-cpn-2")


def overflowing_series():
    """A real potential, Re 1 / (u (1 + |w|^2)) with u = (3 + 2i) 1e84, whose
    order-4 lift takes the reciprocal of a constant term near 1e84: the
    series' Taylor coefficients from u^4 on overflow, and the run ends as
    degenerate (exit 4) with a warning that names the series."""
    u = ("+", 3e84, ("*", 2e84, "I"))
    psi = ("re", ("/", 1, ("*", u, ("+", 1, ("abs2", "w1")))))
    base = builtin_cpn(1)
    chart = PotentialChart(1, psi, ((-1.0, 1.0),) * 2, label="overflowing-series")
    return ManifoldBundle(chart, base.mapping, base.locus, label="overflowing-series")


def bundles():
    """Every bundle the script reports on, in print order."""
    builtins = [make_builtin(name, n) for name, n in DEFAULT_SUITE + EXTRA]
    return builtins + [
        product(),
        contracted_cpn2(),
        perturbed_flat(),
        blackbox_cpn2(),
        complex_plane_cpn2(),
        overflowing_series(),
    ]


def numeric_leaves(data, path=()):
    """(key path, value) of each int or float leaf of a report's data."""
    if isinstance(data, dict):
        items = data.items()
    elif isinstance(data, list):
        items = enumerate(data)
    else:
        if isinstance(data, (int, float)) and not isinstance(data, bool):
            yield ".".join(map(str, path)), data
        return
    for key, value in items:
        yield from numeric_leaves(value, path + (key,))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--samples", type=int, default=12)
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1])
    parser.add_argument("--values", action="store_true", help="print reported numbers, not hashes")
    args = parser.parse_args()
    for bundle in bundles():
        for seed in args.seeds:
            report = verdict(bundle, SamplingConfig(args.samples, args.samples, seed=seed))
            if args.values:
                for key, value in numeric_leaves(json.loads(report.to_json())):
                    print(bundle.label, seed, key, repr(value), flush=True)
                continue
            digests = (hashlib.sha256(r.encode()).hexdigest() for r in (report.to_json(), report.to_text()))
            print(bundle.label, seed, *digests, flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
