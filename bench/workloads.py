"""The four benchmark workloads and the closed-form oracle for their verdicts.

A workload is a fixed list of cases.  Each case builds one manifold bundle
through the public einlocus API, names its sample counts, and states what a
correct verdict looks like: the exit code, the constants that have a closed
form (or must be absent), and the hypothesis gate that must fail.

Bundles are built from the package object handed in, because the harness
re-imports einlocus for every set-up it times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

# Constants an exact-jet run must reproduce, and the looser bar for the
# finite-difference fallback (about five digits on fourth derivatives).
EXACT_TOL = 1e-9
FD_TOL = 1e-3

# Overrides that make the finite-difference fallback pass on a curved
# potential, following the flat black-box precedent in the test suite.  The
# ambient Einstein gate is wider: at n = 2 the fallback's residual reaches
# 2.5e-2 in the corners of the sampling box (every |x_i| = 0.95), so a
# 1e-2 gate would fail on the seeds whose samples land there.
FD_OVERRIDES = (
    ("gate_ambient_einstein", 5e-2),
    ("tol_sym", 1e-2),
    ("tol_eig", 1e-2),
    ("tol_const", 1e-2),
    ("gate_geodesic", 1e-3),
    ("report_cross_route", 1e-3),
)

@dataclass(frozen=True)
class Case:
    label: str
    build: Callable  # einlocus package -> ManifoldBundle
    n: int
    ambient: int
    locus: int
    exit_code: int
    # constant name -> closed-form value, or None when the constant must be
    # absent from the report; names left out are not checked
    constants: dict = field(default_factory=dict)
    tol: float = EXACT_TOL
    failing_gate: Optional[str] = None
    overrides: tuple = ()


@dataclass(frozen=True)
class Workload:
    name: str
    cases: tuple
    # labels of two cases of one family; their per-verdict times give the
    # scaling exponent log(t_big / t_small) / log(n_big / n_small)
    scaling_pair: tuple


def _projective(n):
    return {"lambda_est": n + 1.0, "kappa_est": (n - 1) / 2.0, "C_est": (n + 3) / 2.0}


_CLOSED_FORM = {
    "cpn": _projective,
    "toric-fs": _projective,
    "quadric": lambda n: {"lambda_est": float(n), "kappa_est": n - 1.0, "C_est": 1.0},
    "flat-torus": lambda n: {"lambda_est": 0.0, "kappa_est": 0.0, "C_est": 0.0},
    "toric-flat": lambda n: {"lambda_est": 0.0, "kappa_est": 0.0, "C_est": 0.0},
}

_FACTORY = {
    "cpn": "builtin_cpn",
    "quadric": "builtin_quadric",
    "flat-torus": "builtin_flat_torus",
    "toric-fs": "builtin_toric_fs",
    "toric-flat": "builtin_toric_flat",
}


def _builtin(family, n, samples):
    factory = _FACTORY[family]
    return Case(
        label=f"{family}-{n}",
        build=lambda el: getattr(el, factory)(n),
        n=n,
        ambient=samples,
        locus=samples,
        exit_code=0,
        constants=_CLOSED_FORM[family](n),
    )


def _real_slice(el, n, extent):
    names = el.exprs.coord_names(n, prefix="t")
    return el.FixedLocusParam(components=names, box=((-extent, extent),) * n, label="real-slice")


def _conjugation(el, n):
    # the built-in projective bundle carries plain conjugation as its map
    return el.builtin_cpn(n).mapping


def _blackbox(el, n):
    """The projective potential log(1 + |x|^2) as an opaque callable."""
    import numpy as np

    def potential(xy):
        return float(np.log1p(np.dot(xy, xy)))

    chart = el.PotentialChart(n, potential, ((-1.0, 1.0),) * (2 * n), label=f"blackbox-cpn-{n}")
    return el.ManifoldBundle(
        chart=chart,
        mapping=_conjugation(el, n),
        locus=_real_slice(el, n, 1.0),
        c1_sign="positive",
        label=f"blackbox-cpn-{n}",
    )


def _product(el):
    """CP^1 x CP^2 scaled to a common Einstein constant 1: every hypothesis
    holds, but the trace operator has eigenvalues -1, -5/6, -5/6."""
    psi = (
        "+",
        ("*", 2, ("log", ("+", 1, ("abs2", "w1")))),
        ("*", 3, ("log", ("+", 1, ("abs2", "w2"), ("abs2", "w3")))),
    )
    chart = el.PotentialChart(3, psi, ((-1.0, 1.0),) * 6, label="product")
    return el.ManifoldBundle(
        chart=chart,
        mapping=_conjugation(el, 3),
        locus=_real_slice(el, 3, 1.0),
        c1_sign="positive",
        label="product",
    )


def _perturbed_flat(el):
    """|w|^2 plus a quartic bump: not Kahler-Einstein."""
    psi = ("+", ("abs2", "w1"), ("abs2", "w2"), ("*", 0.1, ("pow", ("abs2", "w1"), 2)))
    chart = el.PotentialChart(2, psi, ((-0.8, 0.8),) * 4, label="perturbed-flat")
    return el.ManifoldBundle(
        chart=chart,
        mapping=_conjugation(el, 2),
        locus=_real_slice(el, 2, 0.8),
        c1_sign="zero",
        label="perturbed-flat",
    )


def _contracted(el, n):
    """Projective space with w -> conj(w) / 2: anti-holomorphic and inside
    the chart, but no isometry and with the origin as its only fixed point."""
    base = el.builtin_cpn(n)
    contraction = el.AntiholoMap(
        tuple(("*", 0.5, ("conj", w)) for w in el.exprs.coord_names(n)), label="conj/2"
    )
    return el.ManifoldBundle(
        chart=base.chart,
        mapping=contraction,
        locus=base.locus,
        c1_sign="positive",
        label=f"contracted-cpn-{n}",
    )


# Ten built-ins, n <= 3: the default suite of the acceptance checklist, fixed
# here so that a change to the package's own suite does not change the workload.
_SUITE = (
    ("cpn", 1), ("cpn", 2), ("cpn", 3),
    ("quadric", 1), ("quadric", 2), ("quadric", 3),
    ("flat-torus", 1), ("flat-torus", 2),
    ("toric-fs", 2), ("toric-flat", 2),
)  # fmt: skip

_NO_CONSTANTS = {"kappa_est": None, "C_est": None}

WORKLOADS = {
    "suite": Workload(
        "suite",
        tuple(_builtin(family, n, 50) for family, n in _SUITE),
        scaling_pair=("cpn-2", "cpn-3"),
    ),
    "highdim": Workload(
        "highdim",
        (
            _builtin("cpn", 4, 4),
            _builtin("cpn", 5, 4),
            _builtin("cpn", 6, 4),
            _builtin("toric-fs", 4, 4),
        ),
        scaling_pair=("cpn-4", "cpn-6"),
    ),
    "blackbox": Workload(
        "blackbox",
        tuple(
            Case(
                label=f"blackbox-cpn-{n}",
                build=lambda el, n=n: _blackbox(el, n),
                n=n,
                ambient=20,
                locus=20,
                exit_code=0,
                constants=_projective(n),
                tol=FD_TOL,
                overrides=FD_OVERRIDES,
            )
            for n in (1, 2)
        ),
        scaling_pair=("blackbox-cpn-1", "blackbox-cpn-2"),
    ),
    "controls": Workload(
        "controls",
        (
            Case(
                "product", _product, n=3, ambient=50, locus=50, exit_code=2,
                constants={"lambda_est": 1.0, "kappa_est": 1.0 / 9.0, "C_est": 8.0 / 9.0},
            ),
            Case(
                "perturbed-flat", _perturbed_flat, n=2, ambient=50, locus=50, exit_code=3,
                constants=_NO_CONSTANTS, failing_gate="ambient_einstein",
            ),
            *(
                Case(
                    f"contracted-cpn-{n}", lambda el, n=n: _contracted(el, n), n=n,
                    ambient=50, locus=50, exit_code=3,
                    constants={"lambda_est": n + 1.0, **_NO_CONSTANTS}, failing_gate="isometry",
                )
                for n in (2, 3)
            ),
        ),  # fmt: skip
        scaling_pair=("contracted-cpn-2", "contracted-cpn-3"),
    ),
}


def check(case, report):
    """Reasons the verdict is wrong; an empty list means it is correct."""
    data = report.data
    problems = []
    code = data["verdict"]["exit_code"]
    if code != case.exit_code:
        problems.append(f"exit {code}, expected {case.exit_code}")
    constants = data["constants"]
    for key, expected in case.constants.items():
        got = constants.get(key)
        if expected is None:
            if got is not None:
                problems.append(f"{key}={got!r}, expected none")
        elif got is None or not math.isfinite(got) or abs(got - expected) > case.tol:
            problems.append(f"{key}={got!r}, expected {expected!r} within {case.tol:g}")
    if case.failing_gate is not None:
        gate = data["hypotheses"].get(case.failing_gate)
        if gate is None or gate["passed"]:
            problems.append(f"gate {case.failing_gate} did not fail")
    return problems
