"""Built-in bundles: closed-form checks, gates, determinism."""

import numpy as np
import pytest

from einlocus import (
    ChartPoint,
    builtin_cpn,
    builtin_flat_torus,
    builtin_quadric,
    builtin_toric_flat,
    builtin_toric_fs,
    einstein_residual,
    list_builtins,
    make_builtin,
    verdict,
)
from einlocus.bundles import DEFAULT_SUITE
from einlocus.sampling import SamplingConfig, sample_chart_points, sample_parameters

from conftest import admitted_points


def test_registry_and_ranges():
    names = {b["name"] for b in list_builtins()}
    assert names == {"cpn", "quadric", "flat-torus", "toric-fs", "toric-flat"}
    with pytest.raises(KeyError):
        make_builtin("nope", 2)
    with pytest.raises(ValueError):
        make_builtin("quadric", 9)
    with pytest.raises(ValueError):
        make_builtin("cpn", 13)
    with pytest.raises(ValueError):
        builtin_quadric(5)


def _projective_constants(n):
    return (n + 1.0, (n - 1) / 2.0, (n + 3) / 2.0)


@pytest.mark.parametrize(
    "name, n, expected",
    [
        ("cpn", 12, _projective_constants(12)),
        ("quadric", 4, (4.0, 3.0, 1.0)),
        ("toric-fs", 4, _projective_constants(4)),
        ("toric-flat", 4, (0.0, 0.0, 0.0)),
    ],
)
def test_top_of_builtin_range(name, n, expected):
    ranges = {b["name"]: b["n_range"] for b in list_builtins()}
    assert ranges[name][1] == n
    rep = verdict(make_builtin(name, n), SamplingConfig(10, 10, seed=0))
    code = rep.exit_code
    assert code == 0
    c = rep.data["constants"]
    got = (c["lambda_est"], c["kappa_est"], c["C_est"])
    assert got == pytest.approx(expected, abs=1e-9)


def test_cpn_basics():
    b = builtin_cpn(1)
    assert b.chart.geometry(ChartPoint((0.0,))).g == pytest.approx(np.eye(1))
    b2 = builtin_cpn(2)
    lam, res = einstein_residual(b2.chart, admitted_points(b2.chart, 20, seed=1))
    assert lam == pytest.approx(3.0, abs=1e-9)
    for t in sample_parameters(b2.locus, 5, seed=1):
        p = b2.locus.point(t)
        assert max(abs(z.imag) for z in p.holo) == 0.0


def test_quadric_locus_on_variety():
    for n in (1, 2, 3):
        q = builtin_quadric(n)
        for t in sample_parameters(q.locus, 8, seed=2):
            p = q.locus.point(t)
            w = np.array(p.holo)
            # the graph coordinate closes the defining equation of the patch
            graph = np.sqrt(1.0 - np.sum(w**2))
            assert abs(np.sum(w**2) + graph**2 - 1.0) < 1e-12
            assert max(abs(z.imag) for z in p.holo) == 0.0


def test_quadric_metric_positive_definite():
    q = builtin_quadric(2)
    pts, stats = sample_chart_points(q.chart, 50, seed=3)
    assert len(pts) == 50
    for p in pts:
        eigs = np.linalg.eigvalsh(q.chart.geometry(p).g)
        assert eigs[0] > 0


def test_quadric_einstein_constant_is_dimension():
    for n in (1, 2):
        q = builtin_quadric(n)
        lam, res = einstein_residual(q.chart, admitted_points(q.chart, 15, seed=4))
        assert lam == pytest.approx(float(n), abs=1e-8)
        assert res < 1e-7


def test_flat_torus_run():
    rep = verdict(builtin_flat_torus(2), SamplingConfig(15, 10, seed=11))
    code = rep.exit_code
    assert code == 0
    c = rep.data["constants"]
    assert abs(c["lambda_est"]) < 1e-12
    assert abs(c["C_est"]) < 1e-12
    assert abs(c["kappa_est"]) < 1e-12
    assert rep.data["checks"]["lagrangian"]["max"] < 1e-13


def test_toric_fs_reproduces_projective_metric():
    toric = builtin_toric_fs(2)
    fs = builtin_cpn(2)
    for p in admitted_points(toric.chart, 10, seed=5):
        gt = toric.chart.geometry(p).g
        gf = fs.chart.geometry(p).g
        assert np.max(np.abs(gt - gf)) < 1e-10


def test_toric_flat_matches_hand_formula():
    toric = builtin_toric_flat(2)
    for p in admitted_points(toric.chart, 8, seed=6):
        z = np.array(p.holo)
        want = np.diag(1.0 / (np.abs(z) ** 2)).astype(complex)
        got = toric.chart.geometry(p).g
        assert np.max(np.abs(got - want)) < 1e-12


def test_toric_conjugation_invariance():
    toric = builtin_toric_fs(2)
    from einlocus import potential_invariance_residual

    for p in admitted_points(toric.chart, 8, seed=7):
        assert potential_invariance_residual(toric.mapping, toric.chart, p) < 1e-14


def test_chart_invariants_across_builtins():
    # Hermitian symmetry, positive definiteness, J-invariance of G
    from einlocus.coords import j_matrix

    for name, n in DEFAULT_SUITE:
        bundle = make_builtin(name, n)
        pts, _ = sample_chart_points(bundle.chart, 50, seed=8)
        assert len(pts) >= 40, bundle.label
        J = j_matrix(n)
        for p in pts[:50]:
            geom = bundle.chart.geometry(p)
            g = geom.g
            assert np.linalg.norm(g - g.conj().T) / (1 + np.linalg.norm(g)) < 1e-10
            assert np.min(np.linalg.eigvalsh(0.5 * (g + g.conj().T))) > 0
            G = geom.G
            assert np.max(np.abs(J.T @ G @ J - G)) / (1 + np.max(np.abs(G))) < 1e-10


def test_every_builtin_passes_gates_and_is_einstein():
    # >= 50 locus points per bundle: totally-real, Lagrangian and the second
    # fundamental form must all stay far below their thresholds
    for name, n in DEFAULT_SUITE:
        bundle = make_builtin(name, n)
        rep = verdict(bundle, SamplingConfig(25, 50, seed=9))
        code = rep.exit_code
        assert code == 0, (bundle.label, rep.data["hypotheses"], rep.data["warnings"])
        assert all(h["passed"] for h in rep.data["hypotheses"].values()), bundle.label
        checks = rep.data["checks"]
        assert checks["totally_real"]["max"] < 1e-7, bundle.label
        assert checks["lagrangian"]["max"] < 1e-7, bundle.label
        assert checks["second_fundamental_form"]["max"] < 1e-7, bundle.label
        assert checks["totally_real"]["count"] >= 50, bundle.label
        gap = rep.data["constants"]["lambda_minus_kappa_minus_C"]
        assert abs(gap) < 1e-6, bundle.label


def test_curvature_j_commutation_on_every_builtin():
    from einlocus import j_matrix

    from conftest import curvature_endomorphism, random_tangents

    for name, n in DEFAULT_SUITE:
        bundle = make_builtin(name, n)
        J = j_matrix(n)
        for i, p in enumerate(admitted_points(bundle.chart, 5, seed=14)):
            z, e, r = random_tangents(p, 3, seed=i)
            geom = bundle.chart.geometry(p)
            lhs = curvature_endomorphism(geom, z, e, J @ r)
            rhs = J @ curvature_endomorphism(geom, z, e, r)
            assert np.linalg.norm(lhs - rhs) < 1e-9, bundle.label


def test_product_space_is_not_einstein_on_its_real_form():
    # ambient Einstein, every hypothesis intact, but the locus fails the
    # criterion: unequal factor curvatures split the operator spectrum
    from einlocus import PotentialChart
    from einlocus.bundles import ManifoldBundle, _conjugation, _real_slice

    psi = (
        "+",
        ("*", 2, ("log", ("+", 1, ("abs2", "w1")))),
        ("*", 3, ("log", ("+", 1, ("abs2", "w2"), ("abs2", "w3")))),
    )
    chart = PotentialChart(3, psi, ((-1.0, 1.0),) * 6, label="product")
    bundle = ManifoldBundle(
        chart=chart,
        mapping=_conjugation(3),
        locus=_real_slice(3, 1.0),
        c1_sign="positive",
        label="product",
    )
    rep = verdict(bundle, SamplingConfig(10, 8, seed=10))
    code = rep.exit_code
    assert code == 2
    d = rep.data
    assert all(h["passed"] for h in d["hypotheses"].values())
    assert d["verdict"]["einstein"] is False
    assert d["verdict"]["einstein_by_restricted_ricci"] is False
    assert d["verdict"]["routes_agree"] is True
    eigs = sorted(d["spectral"]["per_point"][0]["eigenvalues"])
    assert eigs[0] == pytest.approx(-1.0, abs=1e-9)
    assert eigs[1] == pytest.approx(-5.0 / 6.0, abs=1e-9)


def test_black_box_potential_flagged_low_precision():
    # a callable potential goes through the finite-difference fallback and
    # the report says so; the flat case stays within the default gates
    from einlocus import PotentialChart
    from einlocus.bundles import ManifoldBundle, _conjugation, _real_slice

    def psi(xy):
        return float(np.sum(np.asarray(xy) ** 2))

    chart = PotentialChart(1, psi, ((-0.5, 0.5),) * 2, label="flat-blackbox")
    bundle = ManifoldBundle(
        chart=chart,
        mapping=_conjugation(1),
        locus=_real_slice(1, 0.5),
        c1_sign="zero",
        label="flat-blackbox",
        # the fallback keeps ~5 digits on fourth derivatives, so the
        # exact-jet default gates are out of reach by design
        tolerance_overrides=(
            ("gate_ambient_einstein", 1e-3),
            ("gate_geodesic", 1e-3),
            ("tol_sym", 1e-3),
            ("tol_eig", 1e-3),
            ("tol_const", 1e-3),
        ),
    )
    rep = verdict(bundle, SamplingConfig(8, 6, seed=13))
    code = rep.exit_code
    assert rep.data["differentiation"] == "finite-difference-low-precision"
    assert code == 0
    # at the default gates the same bundle is honestly rejected
    strict = ManifoldBundle(
        chart=chart,
        mapping=_conjugation(1),
        locus=_real_slice(1, 0.5),
        c1_sign="zero",
        label="flat-blackbox-strict",
    )
    strict_code = verdict(strict, SamplingConfig(8, 6, seed=13)).exit_code
    assert strict_code == 3


def test_black_box_potential_cannot_serialize():
    from einlocus import PotentialChart, SpecFormatError
    from einlocus.bundles import ManifoldBundle, _conjugation, _real_slice
    from einlocus.specfile import bundle_to_dict

    chart = PotentialChart(1, lambda xy: float(xy[0] ** 2 + xy[1] ** 2), ((-1, 1),) * 2)
    bundle = ManifoldBundle(chart, _conjugation(1), _real_slice(1, 1.0), label="bb")
    with pytest.raises(SpecFormatError):
        bundle_to_dict(bundle)


def test_escaping_isometry_is_degenerate_not_failed():
    # translation on the flat chart is isometric but pushes most samples out
    # of the box: nothing failed, there is just not enough usable data
    from einlocus import AntiholoMap, PotentialChart
    from einlocus.bundles import ManifoldBundle, _real_slice

    chart = PotentialChart(1, ("abs2", "w1"), ((-0.5, 0.5),) * 2, label="flat-small")
    far = AntiholoMap((("+", ("conj", "w1"), 0.7),), label="conj+0.7")
    bundle = ManifoldBundle(chart, far, _real_slice(1, 0.5), c1_sign="zero", label="escaper")
    rep = verdict(bundle, SamplingConfig(20, 10, seed=15))
    code = rep.exit_code
    assert code == 4
    assert rep.data["counts"]["map_escapes"] > 10
    assert rep.data["hypotheses"]["isometry"]["passed"]


def test_c1_mismatch_warning():
    from einlocus.bundles import ManifoldBundle

    b = builtin_cpn(1)
    wrong = ManifoldBundle(
        chart=b.chart, mapping=b.mapping, locus=b.locus, c1_sign="negative", label="wrong-c1"
    )
    rep = verdict(wrong, SamplingConfig(8, 6, seed=12))
    code = rep.exit_code
    assert any("does not match measured" in w for w in rep.data["warnings"])
