"""Built-in manifold bundles: chart + map + fixed locus, ready to verify.

Each bundle packages a potential chart, an anti-holomorphic self-map in
chart coordinates, a parametrization of its fixed locus and the declared
sign of the first Chern class.  The built-ins cover the projective space
with its real form, a smooth quadric patch with its sphere locus, a flat
fundamental-domain chart, and torus-invariant (log-coordinate) potentials.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import exprs
from .antiholo import AntiholoMap, FixedLocusParam
from .metrics import PotentialChart


@dataclass(frozen=True)
class ManifoldBundle:
    chart: PotentialChart
    mapping: Optional[AntiholoMap]
    locus: Optional[FixedLocusParam]
    c1_sign: str = "positive"  # negative | zero | positive
    assumed_hypotheses: tuple = ()
    label: str = "bundle"
    tolerance_overrides: tuple = ()


def _sum(terms):
    terms = list(terms)
    return terms[0] if len(terms) == 1 else ("+",) + tuple(terms)


def _conjugation(n):
    return AntiholoMap(
        components=tuple(("conj", w) for w in exprs.coord_names(n)),
        declared_involution=True,
        label="conjugation",
    )


def _real_slice(n, extent):
    return FixedLocusParam(
        components=exprs.coord_names(n, prefix="t"),
        box=((-extent, extent),) * n,
        label="real-slice",
    )


def builtin_cpn(n: int) -> ManifoldBundle:
    """Projective space on its standard affine chart with the log potential
    of the unit-normalized form; conjugation fixes the real points."""
    if n < 1:
        raise ValueError("n must be at least 1")
    ws = exprs.coord_names(n)
    potential = ("log", _sum([1] + [("abs2", w) for w in ws]))
    extent = 1.5
    chart = PotentialChart(
        dimension=n,
        potential=potential,
        box=((-extent, extent),) * (2 * n),
        label=f"cpn-{n}",
    )
    return ManifoldBundle(
        chart=chart,
        mapping=_conjugation(n),
        locus=_real_slice(n, extent),
        c1_sign="positive",
        label=f"cpn-{n}",
    )


def builtin_flat_torus(n: int) -> ManifoldBundle:
    """Flat fundamental-domain chart with potential |w|^2; the class
    equality of the negated pullback form is assumed, not checkable here."""
    if n < 1:
        raise ValueError("n must be at least 1")
    ws = exprs.coord_names(n)
    chart = PotentialChart(
        dimension=n,
        potential=_sum([("abs2", w) for w in ws]),
        box=((-0.5, 0.5),) * (2 * n),
        label=f"flat-torus-{n}",
    )
    return ManifoldBundle(
        chart=chart,
        mapping=_conjugation(n),
        locus=_real_slice(n, 0.5),
        c1_sign="zero",
        assumed_hypotheses=("negated-pullback-class-equals-original",),
        label=f"flat-torus-{n}",
    )


def builtin_quadric(n: int) -> ManifoldBundle:
    """The quadric hypersurface patch solved as a graph.

    On the affine chart the hypersurface is sum_j w_j^2 = 1 with one extra
    coordinate; the branch with positive real part at the center is taken,
    the chart coordinates are the remaining n, and the potential is the
    ambient log potential composed with the graph.  The real locus is the
    sphere patch t -> (t, sqrt(1 - |t|^2)).
    """
    if not 1 <= n <= 4:
        raise ValueError("quadric built-in supports 1 <= n <= 4")
    ws = exprs.coord_names(n)
    sum_sq = _sum([("pow", w, 2) for w in ws])
    graph = ("sqrt", ("-", 1, sum_sq))
    potential = ("log", _sum([1] + [("abs2", w) for w in ws] + [("abs2", graph)]))
    # keep clear of the branch cut of the graph coordinate
    domain = ("-", ("re", ("-", 1, sum_sq)), 0.3)
    extent = 0.4
    chart = PotentialChart(
        dimension=n,
        potential=potential,
        box=((-extent, extent),) * (2 * n),
        domain=domain,
        label=f"quadric-{n}",
    )
    return ManifoldBundle(
        chart=chart,
        mapping=_conjugation(n),
        locus=_real_slice(n, extent),
        c1_sign="positive",
        label=f"quadric-{n}",
    )


def builtin_toric_chart(
    potential_in_x,
    n: int,
    label: str = "toric",
    c1_sign: str = "positive",
    assumed_hypotheses: tuple = (),
) -> ManifoldBundle:
    """A torus-invariant chart from a convex function of x_i = log |z_i|^2.

    ``potential_in_x`` is an expression in identifiers x1..xn; it is
    composed with x_i = log |w_i|^2 on the torus chart (zero excluded by
    the domain predicate).  The locus is the positive real orthant
    w_i = exp(t_i).
    """
    ws = exprs.coord_names(n)
    xs = exprs.coord_names(n, prefix="x")
    x_of_w = {x: ("log", ("abs2", w)) for x, w in zip(xs, ws)}
    exprs.validate(potential_in_x, set(xs))
    potential = exprs.substitute(potential_in_x, x_of_w)
    # admitted annulus: |x_i| < 1 for each coordinate
    domain = _mul([("-", 1, ("pow", ("log", ("abs2", w)), 2)) for w in ws])
    extent = 1.7
    chart = PotentialChart(
        dimension=n,
        potential=potential,
        box=((-extent, extent),) * (2 * n),
        domain=domain,
        label=f"{label}-{n}",
    )
    locus = FixedLocusParam(
        components=tuple(("*", 1.0, ("exp", t)) for t in exprs.coord_names(n, prefix="t")),
        box=((-0.45, 0.45),) * n,
        label="real-orthant",
    )
    return ManifoldBundle(
        chart=chart,
        mapping=_conjugation(n),
        locus=locus,
        c1_sign=c1_sign,
        assumed_hypotheses=assumed_hypotheses,
        label=f"{label}-{n}",
    )


def _mul(terms):
    terms = list(terms)
    return terms[0] if len(terms) == 1 else ("*",) + tuple(terms)


def toric_fs_potential(n):
    xs = exprs.coord_names(n, prefix="x")
    return ("log", _sum([1] + [("exp", x) for x in xs]))


def toric_flat_potential(n):
    xs = exprs.coord_names(n, prefix="x")
    return _sum([("*", 0.5, ("pow", x, 2)) for x in xs])


def builtin_toric_fs(n: int) -> ManifoldBundle:
    return builtin_toric_chart(toric_fs_potential(n), n, label="toric-fs")


def builtin_toric_flat(n: int) -> ManifoldBundle:
    return builtin_toric_chart(
        toric_flat_potential(n),
        n,
        label="toric-flat",
        c1_sign="zero",
        assumed_hypotheses=("negated-pullback-class-equals-original",),
    )


BUILTINS = {
    "cpn": (builtin_cpn, "projective space, affine chart, real-points locus", (1, 12)),
    "quadric": (builtin_quadric, "quadric graph patch, sphere locus", (1, 4)),
    "flat-torus": (builtin_flat_torus, "flat fundamental domain, real slice", (1, 3)),
    "toric-fs": (builtin_toric_fs, "torus chart of the log-sum potential", (1, 4)),
    "toric-flat": (builtin_toric_flat, "torus chart of the quadratic x-potential", (1, 4)),
}

DEFAULT_SUITE = (
    ("cpn", 1),
    ("cpn", 2),
    ("cpn", 3),
    ("quadric", 1),
    ("quadric", 2),
    ("quadric", 3),
    ("flat-torus", 1),
    ("flat-torus", 2),
    ("toric-fs", 2),
    ("toric-flat", 2),
)


def make_builtin(name: str, n: int) -> ManifoldBundle:
    if name not in BUILTINS:
        raise KeyError(f"unknown builtin {name!r}; see list_builtins()")
    factory, _, (lo, hi) = BUILTINS[name]
    if not lo <= n <= hi:
        raise ValueError(f"builtin {name!r} supports {lo} <= n <= {hi}")
    return factory(n)


def list_builtins():
    return [
        {"name": name, "description": desc, "n_range": list(rng)}
        for name, (_, desc, rng) in BUILTINS.items()
    ]
