"""Acceptance criteria, one test per criterion at its stated tolerance.

Each test prints `PASS criterion k: ...` (visible with pytest -s / -v) and
asserts the same condition, so the suite doubles as a checklist.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from einlocus import (
    AntiholoMap,
    ChartPoint,
    PotentialChart,
    builtin_cpn,
    builtin_flat_torus,
    LocusGeometry,
    einstein_residual,
    j_matrix,
    make_builtin,
    spectral_test,
    trace_operator_at,
    verdict,
)
from einlocus.bundles import DEFAULT_SUITE, ManifoldBundle, _conjugation, _real_slice
from einlocus.criterion import map_normal_projector
from einlocus.locus import FixedLocusParam
from einlocus.sampling import SamplingConfig, sample_chart_points, sample_parameters
from einlocus.verify import Tolerances

from conftest import (
    admitted_geometries,
    admitted_points,
    map_geometries,
    curvature_endomorphism,
    pullback_potential,
    random_tangents,
    riemann,
)


def _report(k, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {k}: {detail}")
    assert ok, f"criterion {k}: {detail}"


def test_criterion_01_projective_space_baseline():
    details = []
    ok = True
    for n in (1, 2, 3):
        bundle = builtin_cpn(n)
        start = time.perf_counter()
        geoms, stats = sample_chart_points(bundle.chart, 50, seed=101)
        lam, res = einstein_residual(geoms)
        elapsed = time.perf_counter() - start
        good = (
            len(geoms) >= 50
            and abs(lam - (n + 1)) < 1e-9
            and res < 1e-7
            and elapsed < 10.0
        )
        ok &= good
        details.append(f"n={n}: lambda={lam:.9f} residual={res:.2e} {elapsed:.2f}s")
    _report(1, ok, "; ".join(details))


def test_criterion_02_conjugation_is_isometry():
    from einlocus import anti_isometry_residual, isometry_residual

    worst_iso, worst_anti = 0.0, 0.0
    for n in (1, 2, 3):
        bundle = builtin_cpn(n)
        for p in admitted_points(bundle.chart, 25, seed=102):
            args = map_geometries(bundle.mapping, bundle.chart, p)
            worst_iso = max(worst_iso, isometry_residual(*args))
            worst_anti = max(worst_anti, anti_isometry_residual(*args))
    ok = worst_iso < 1e-9 and worst_anti < 1e-9
    _report(2, ok, f"worst isometry {worst_iso:.2e}, anti-isometry {worst_anti:.2e}")


def test_criterion_03_totally_geodesic_loci():
    worst_rp = 0.0
    for n in (1, 2, 3):
        bundle = builtin_cpn(n)
        for t in sample_parameters(bundle.locus, 8, seed=103):
            worst_rp = max(worst_rp, LocusGeometry(bundle.chart, bundle.locus, t).sff_max_norm)
    worst_q = 0.0
    for n in (1, 2, 3):
        bundle = make_builtin("quadric", n)
        for t in sample_parameters(bundle.locus, 8, seed=104):
            worst_q = max(worst_q, LocusGeometry(bundle.chart, bundle.locus, t).sff_max_norm)
    euclid = PotentialChart(1, ("*", 0.5, ("abs2", "w1")), ((-3.0, 3.0),) * 2, label="euclid")
    circle_ok = True
    circle_vals = []
    for r in (0.5, 1.0, 2.0):
        circle = FixedLocusParam(
            (("*", r, ("exp", ("*", "I", "t1"))),), ((-0.7, 0.7),), label=f"circle-{r}"
        )
        h = LocusGeometry(euclid, circle, (0.2,)).sff_max_norm
        circle_vals.append(f"r={r}: {h:.4f}")
        circle_ok &= abs(h - 1.0 / r) <= 0.05 / r
    ok = worst_rp < 1e-7 and worst_q < 1e-6 and circle_ok
    _report(
        3,
        ok,
        f"real-form worst {worst_rp:.2e}, quadric worst {worst_q:.2e}, "
        + ", ".join(circle_vals),
    )


def test_criterion_04_projection_identities():
    families = [("cpn", 2), ("quadric", 2), ("flat-torus", 2), ("toric-fs", 2), ("toric-flat", 2)]
    worst_swap = 0.0
    exact_sum = True
    for name, n in families:
        bundle = make_builtin(name, n)
        ts = sample_parameters(bundle.locus, 4, seed=105)
        rng = np.random.default_rng(hash(name) % 2**32)
        J = j_matrix(n)
        per_point = 1000 // len(ts) + 1
        for t in ts:
            lp = LocusGeometry(bundle.chart, bundle.locus, t)
            P = map_normal_projector(bundle.mapping, lp.point)
            for _ in range(per_point):
                v = rng.standard_normal(2 * n)
                vp = P @ v
                vt = v - vp
                exact_sum &= bool(np.array_equal(vt + vp, v))
                jvp = P @ (J @ v)
                worst_swap = max(worst_swap, float(np.max(np.abs(J @ vt - jvp))))
    ok = exact_sum and worst_swap < 1e-12
    _report(4, ok, f"decomposition exact={exact_sum}, J-swap worst {worst_swap:.2e}")


def test_criterion_05_trace_operator_routes_agree():
    worst = 0.0
    for name, n in DEFAULT_SUITE:
        bundle = make_builtin(name, n)
        for t in sample_parameters(bundle.locus, 4, seed=106):
            lp = LocusGeometry(bundle.chart, bundle.locus, t)
            op = trace_operator_at(lp, map_normal_projector(bundle.mapping, lp.point))
            worst = max(worst, float(np.max(np.abs(op.matrix - op.cross_matrix))))
    ok = worst < 1e-8
    _report(5, ok, f"worst entrywise route gap {worst:.2e}")


def test_criterion_06_biconditional_and_constant_splitting():
    details = []
    ok = True
    for n in (2, 3):
        rep = verdict(builtin_cpn(n), SamplingConfig(30, 25, seed=107))
        code = rep.exit_code
        d = rep.data
        gap = abs(d["constants"]["lambda_minus_kappa_minus_C"])
        good = (
            code == 0
            and d["verdict"]["einstein_by_spectrum"]
            and d["verdict"]["einstein_by_restricted_ricci"]
            and gap < 1e-6
        )
        ok &= good
        details.append(
            f"cpn-{n}: lambda={d['constants']['lambda_est']:.6f} "
            f"kappa={d['constants']['kappa_est']:.6f} C={d['constants']['C_est']:.6f} "
            f"gap={gap:.2e}"
        )
    rep = verdict(builtin_flat_torus(2), SamplingConfig(20, 15, seed=108))
    code = rep.exit_code
    c = rep.data["constants"]
    flat_ok = (
        code == 0
        and abs(c["lambda_est"]) < 1e-10
        and abs(c["kappa_est"]) < 1e-10
        and abs(c["C_est"]) < 1e-10
    )
    ok &= flat_ok
    details.append(
        f"flat: lambda={c['lambda_est']:.2e} kappa={c['kappa_est']:.2e} C={c['C_est']:.2e}"
    )
    _report(6, ok, "; ".join(details))


def test_criterion_07_pullback_preserves_einstein_constant():
    details = []
    ok = True
    for name, n in DEFAULT_SUITE:
        bundle = make_builtin(name, n)
        geoms = admitted_geometries(bundle.chart, 10, seed=109)
        lam0, _ = einstein_residual(geoms)
        pulled = pullback_potential(bundle.mapping, bundle.chart)
        lam1, _ = einstein_residual(pulled.geometry(g.point) for g in geoms)
        good = abs(lam1 - lam0) < 1e-7
        ok &= good
        details.append(f"{bundle.label}: {abs(lam1 - lam0):.1e}")
    _report(7, ok, "lambda gaps " + ", ".join(details))


def test_criterion_08_commutation_and_bianchi():
    chart = builtin_cpn(2).chart
    geoms = admitted_geometries(chart, 20, seed=110)
    worst_comm, worst_bianchi = 0.0, 0.0
    count = 0
    rng = np.random.default_rng(110)
    J = j_matrix(2)
    while count < 1000:
        geom = geoms[count % len(geoms)]
        z, e, r, u = random_tangents(geom.point, 4, seed=int(rng.integers(1 << 30)))
        lhs = curvature_endomorphism(geom, z, e, J @ r)
        rhs = J @ curvature_endomorphism(geom, z, e, r)
        worst_comm = max(worst_comm, float(np.linalg.norm(lhs - rhs)))
        b = riemann(geom, z, e, r, u) + riemann(geom, e, r, z, u) + riemann(geom, r, z, e, u)
        worst_bianchi = max(worst_bianchi, abs(b))
        count += 1
    ok = worst_comm < 1e-9 and worst_bianchi < 1e-9
    _report(8, ok, f"commutation {worst_comm:.2e}, first Bianchi {worst_bianchi:.2e} over 1000 draws")


def test_criterion_09_negative_controls():
    perturbed = PotentialChart(
        2,
        ("+", ("abs2", "w1"), ("abs2", "w2"), ("*", 0.1, ("pow", ("abs2", "w1"), 2))),
        ((-0.8, 0.8),) * 4,
        label="perturbed",
    )
    non_ke = ManifoldBundle(
        chart=perturbed,
        mapping=_conjugation(2),
        locus=_real_slice(2, 0.8),
        c1_sign="zero",
        label="perturbed",
    )
    code_a = verdict(non_ke, SamplingConfig(15, 10, seed=111)).exit_code

    base = builtin_cpn(1)
    stretched = ManifoldBundle(
        chart=base.chart,
        mapping=AntiholoMap((("*", 2, ("conj", "w1")),), label="2conj"),
        locus=base.locus,
        c1_sign="positive",
        label="stretched-map",
    )
    code_b = verdict(stretched, SamplingConfig(15, 10, seed=112)).exit_code

    tol = Tolerances()
    sv = spectral_test(np.diag([-3.0, -3.5]), tol.tol_sym, tol.tol_eig)
    ok = code_a == 3 and code_b == 3 and sv.einstein is False
    _report(
        9,
        ok,
        f"non-Einstein ambient exit {code_a}, non-isometric map exit {code_b}, "
        f"spread fixture einstein={sv.einstein}",
    )


def test_criterion_10_determinism_and_suite_runtime():
    config = SamplingConfig(50, 50, seed=113)
    start = time.perf_counter()
    codes = {}
    for name, n in DEFAULT_SUITE:
        codes[f"{name}-{n}"] = verdict(make_builtin(name, n), config).exit_code
    elapsed = time.perf_counter() - start
    rep1 = verdict(builtin_cpn(2), config)
    rep2 = verdict(builtin_cpn(2), config)
    identical = rep1.to_json() == rep2.to_json()
    ok = identical and elapsed < 120.0 and all(c == 0 for c in codes.values())
    _report(
        10,
        ok,
        f"byte-identical={identical}, suite of {len(codes)} built-ins in {elapsed:.1f}s, "
        f"exit codes {sorted(set(codes.values()))}",
    )


def _stop_case(name):
    """A cpn-2 bundle (cpn-1 for the overflow) edited so that the run stops
    before stage 5 along one path."""
    cpn1, cpn2 = builtin_cpn(1), builtin_cpn(2)
    far = FixedLocusParam(("t1", "t2"), ((5.0, 6.0),) * 2)  # outside the chart box
    shifted = (("+", ("conj", "w1"), 10), ("conj", "w2"))  # images escape the chart
    holomorphic_part = (("+", ("conj", "w1"), ("*", 0.001, "w1")), ("conj", "w2"))
    swap = (("conj", "w2"), ("*", 2, ("conj", "w1")))
    imaginary = ("*", "I", ("abs2", "w1"))
    overflowing = ("exp", ("exp", ("exp", ("*", 30, ("abs2", "w1")))))
    return {
        "no-ambient-point": replace(cpn2, chart=replace(cpn2.chart, domain=("-", -1, ("abs2", "w1")))),
        "no-map": replace(cpn2, mapping=None),
        "no-locus": replace(cpn2, locus=None),
        "curve-locus": replace(cpn2, locus=FixedLocusParam(("t1", 0.0), ((-1.0, 1.0),))),
        "escaping-map": replace(cpn2, mapping=AntiholoMap(shifted)),
        "escaping-involution": replace(cpn2, mapping=AntiholoMap(shifted, declared_involution=True)),
        "complex-potential": replace(cpn2, chart=replace(cpn2.chart, potential=imaginary)),
        "far-locus": replace(cpn2, locus=far),
        "far-locus-holomorphic-part": replace(cpn2, locus=far, mapping=AntiholoMap(holomorphic_part)),
        "far-locus-swap": replace(cpn2, locus=far, mapping=AntiholoMap(swap)),
        "overflow": replace(cpn1, chart=replace(cpn1.chart, potential=overflowing)),
    }[name]


@pytest.mark.parametrize(
    "name, code, failed",
    [
        ("no-ambient-point", 4, set()),
        ("no-map", 3, {"map_present"}),
        ("no-locus", 3, {"locus_present"}),
        ("curve-locus", 3, {"locus_rank"}),
        ("escaping-map", 4, set()),
        ("escaping-involution", 3, {"involution"}),
        ("complex-potential", 3, {"real_potential"}),
        ("far-locus", 4, set()),
        ("far-locus-holomorphic-part", 3, {"antiholomorphy", "isometry"}),
        ("far-locus-swap", 3, {"isometry"}),
        ("overflow", 4, set()),
    ],
)
def test_every_stop_takes_its_exit_code_from_the_failed_gates(name, code, failed):
    # a run that stops before stage 5 exits 3 when a recorded hypothesis
    # failed and 4 otherwise; a numerical failure is 4 whatever failed
    # before it.  The one report-only hypothesis is stage 5's
    data = verdict(_stop_case(name), SamplingConfig(12, 12, seed=0)).data
    got = {h for h, rec in data["hypotheses"].items() if not rec["passed"]}
    assert (data["verdict"]["exit_code"], got) == (code, failed)
    assert "trace_route_agreement" not in data["hypotheses"]
