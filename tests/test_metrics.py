"""Metric, Ricci, curvature and their cross-pipeline checks."""

import gc
import os
import pathlib
import subprocess
import sys
import weakref
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import einlocus

from einlocus import (
    EXIT_DEGENERATE,
    AntiholoMap,
    ChartGeometry,
    ChartPoint,
    DegenerateMetricError,
    FixedLocusParam,
    Jet,
    LocusGeometry,
    ManifoldBundle,
    PotentialChart,
    SamplingConfig,
    builtin_cpn,
    einstein_residual,
    j_matrix,
    make_builtin,
    verdict,
)
from einlocus import exprs, jets
from einlocus import metrics as metrics_module
from einlocus.bundles import BUILTINS, DEFAULT_SUITE
from einlocus.errors import JetOrderError, NonAnalyticFieldError
from einlocus.metrics import METRIC_ORDER, lift_to_jet
from einlocus.sampling import sample_chart_points
from einlocus.verify import _check

from conftest import (
    admitted_geometries,
    admitted_points,
    curvature_endomorphism,
    curvature_from_derivatives,
    laplace_log_det_ricci,
    random_tangents,
    real_metric_derivatives,
    real_psi_jet,
    report_digests,
    ricci_pairing,
    riemann,
    riemann_tensor,
    tensordot_wirtinger,
)

FS1 = builtin_cpn(1).chart
FS2 = builtin_cpn(2).chart
FLAT2 = PotentialChart(
    2, ("+", ("abs2", "w1"), ("abs2", "w2")), ((-1.0, 1.0),) * 4, label="flat-2"
)


def fs_metric_formula(w):
    """Independent evaluation of the closed-form projective-space metric."""
    w = np.asarray(w, dtype=complex)
    s = 1.0 + float(np.sum(np.abs(w) ** 2))
    return (s * np.eye(len(w)) - np.outer(np.conj(w), w)) / s**2


def test_fs_metric_values():
    assert FS1.geometry(ChartPoint((0.0,))).g == pytest.approx(np.array([[1.0]]))
    assert FS1.geometry(ChartPoint((1.0,))).g == pytest.approx(np.array([[0.25]]))
    for w in [(0.3 + 0.4j,), (0.9 - 0.2j,)]:
        got = FS1.geometry(ChartPoint(w)).g
        assert got == pytest.approx(fs_metric_formula(w), abs=1e-13)
    w2 = (0.2 - 0.7j, -0.4 + 0.1j)
    assert FS2.geometry(ChartPoint(w2)).g == pytest.approx(fs_metric_formula(w2), abs=1e-13)


def test_flat_metric_is_identity():
    for p in admitted_points(FLAT2, 5):
        assert FLAT2.geometry(p).g == pytest.approx(np.eye(2))


def test_real_metric_normalization_and_j_invariance():
    flat1 = PotentialChart(1, ("abs2", "w1"), ((-1, 1),) * 2, label="flat-1")
    assert flat1.geometry(ChartPoint((0.1 + 0.2j,))).G == pytest.approx(2.0 * np.eye(2))
    assert FS1.geometry(ChartPoint((0.0,))).G == pytest.approx(2.0 * np.eye(2))
    J = j_matrix(2)
    for i, p in enumerate(admitted_points(FS2, 6)):
        G = FS2.geometry(p).G
        assert np.linalg.norm(G - G.T) < 1e-12
        assert np.min(np.linalg.eigvalsh(G)) > 0
        for v in random_tangents(p, 3, seed=i):
            jv = J @ v
            a = float(v @ G @ v)
            b = float(jv @ G @ jv)
            assert b == pytest.approx(a, rel=1e-12)


def test_kahler_form():
    flat1 = PotentialChart(1, ("abs2", "w1"), ((-1, 1),) * 2, label="flat-1")
    p = ChartPoint((0.2 - 0.1j,))

    def pairing(W):
        return lambda v, w: float(v @ W @ w)

    omega = pairing(flat1.geometry(p).kahler_form)
    dx, dy = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    assert omega(dx, dy) == pytest.approx(2.0)
    assert omega(dx, dx) == 0.0
    J = j_matrix(2)
    for i, p in enumerate(admitted_points(FS2, 4)):
        omega = pairing(FS2.geometry(p).kahler_form)
        for v, w in zip(random_tangents(p, 3, seed=i), random_tangents(p, 3, seed=i + 50)):
            assert omega(v, v) == pytest.approx(0.0, abs=1e-14)
            assert omega(v, w) == pytest.approx(-omega(w, v), abs=1e-13)
            assert omega(J @ v, J @ w) == pytest.approx(omega(v, w), abs=1e-12)


def test_ricci_flat_and_fs():
    for p in admitted_points(FLAT2, 4):
        assert np.max(np.abs(FLAT2.geometry(p).ricci)) < 1e-14
    # constant Ricci/metric ratio over >= 20 points for each dimension
    for chart, expected in [(FS1, 2.0), (FS2, 3.0), (builtin_cpn(3).chart, 4.0)]:
        pts = admitted_points(chart, 20, seed=3)
        for p in pts:
            geom = chart.geometry(p)
            ric, g = geom.ricci, geom.g
            assert np.max(np.abs(ric - expected * g)) < 1e-11
            oracle = laplace_log_det_ricci(geom)
            assert np.max(np.abs(oracle - expected * g)) < 1e-11
    assert len(admitted_points(FS1, 20, seed=3)) == 20


def test_einstein_residual_flat_fs_perturbed():
    lam, res = einstein_residual(admitted_geometries(FLAT2, 10))
    assert lam == pytest.approx(0.0, abs=1e-12)
    assert res < 1e-10
    lam, res = einstein_residual(admitted_geometries(FS2, 25, seed=1))
    assert lam == pytest.approx(3.0, abs=1e-10)
    assert res < 1e-8
    # quartic bump: a genuinely non-Einstein Kahler potential near 0
    perturbed = PotentialChart(
        2,
        ("+", ("abs2", "w1"), ("abs2", "w2"), ("*", 0.1, ("pow", ("abs2", "w1"), 2))),
        ((-0.8, 0.8),) * 4,
        label="perturbed",
    )
    lam, res = einstein_residual(admitted_geometries(perturbed, 12, seed=2))
    assert res > 0.01


def test_einstein_residual_needs_two_points():
    with pytest.raises(ValueError):
        einstein_residual([FLAT2.geometry(ChartPoint((0.0, 0.0)))])


def test_the_einstein_constant_does_not_move_with_a_unitary_change_of_chart():
    # w = U u, U unitary, carries the perturbed flat potential to a chart in
    # u; tr(g^-1 Ric) and the Frobenius norms of g and Ric - lambda g agree
    # at corresponding points, where entrywise Ric/g ratios do not
    psi = ("+", ("abs2", "w1"), ("abs2", "w2"), ("*", 0.1, ("pow", ("abs2", "w1"), 2)))
    chart = PotentialChart(2, psi, ((-0.8, 0.8),) * 4, label="perturbed")
    c, s, phase = np.cos(0.7), np.sin(0.7), np.exp(0.4j)
    U = np.array([[c, -s], [s * phase, c * phase]])

    def literal(z):
        return ("+", float(z.real), ("*", float(z.imag), "I"))

    rows = {f"w{j + 1}": ("+", ("*", literal(U[j, 0]), "w1"), ("*", literal(U[j, 1]), "w2")) for j in range(2)}
    moved = PotentialChart(2, exprs.substitute(psi, rows), ((-2.0, 2.0),) * 4, label="moved")
    points = admitted_points(chart, 9, seed=0)
    lam, res = einstein_residual(chart.geometry(p) for p in points)
    lam_u, res_u = einstein_residual(
        moved.geometry(ChartPoint(tuple(U.conj().T @ np.array(p.holo)))) for p in points
    )
    assert res > 0.1
    assert abs(lam_u - lam) < 1e-12
    assert abs(res_u - res) < 1e-12


def test_a_nan_ricci_tensor_is_a_nan_residual():
    # a nan that is not first must not be dropped on the way to the gate
    g = np.eye(2, dtype=complex)
    stubs = [SimpleNamespace(g=g, ricci=ric) for ric in (2.0 * g, np.full((2, 2), np.nan + 0j), 2.0 * g)]
    _, res = einstein_residual(stubs)
    assert np.isnan(res)


def test_a_nan_value_fails_the_hypothesis_it_is_checked_against():
    report = {"checks": {}, "hypotheses": {}}
    _check(report, "ambient_einstein", [0.0, float("nan")], 1e-6)
    hypothesis = report["hypotheses"]["ambient_einstein"]
    assert hypothesis["passed"] is False and np.isnan(hypothesis["worst"])


def test_curvature_flat_and_symmetries():
    for p in admitted_points(FLAT2, 3):
        assert np.max(np.abs(FLAT2.geometry(p).curvature)) < 1e-14
    for p in admitted_points(FS2, 8, seed=5):
        R = FS2.geometry(p).curvature
        # conj(R_{i jbar k lbar}) = R_{j ibar l kbar}, and R_{i jbar k lbar} = R_{k jbar i lbar}
        assert np.max(np.abs(np.conj(R) - R.transpose(1, 0, 3, 2))) < 1e-10
        assert np.max(np.abs(R - R.transpose(2, 1, 0, 3))) < 1e-10


def test_curvature_fs_cp1_constant_sectional():
    # the sectional curvature of span(dx, dy) must be point-independent
    vals = []
    for p in admitted_points(FS1, 12, seed=7):
        geom = FS1.geometry(p)
        dx, dy = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        num = riemann(geom, dx, dy, dy, dx)
        G = geom.G
        den = G[0, 0] * G[1, 1] - G[0, 1] ** 2
        vals.append(num / den)
    assert np.max(np.abs(np.array(vals) - vals[0])) < 1e-10
    assert vals[0] == pytest.approx(2.0, abs=1e-10)  # matches Ric = 2 g in dim 1


def test_riemann_real_antisymmetry_and_flatness():
    p = admitted_points(FS2, 1, seed=11)[0]
    vs = random_tangents(p, 4, seed=11)
    geom = FS2.geometry(p)
    a = riemann(geom, *vs)
    b = riemann(geom, vs[1], vs[0], vs[2], vs[3])
    assert a == pytest.approx(-b, abs=1e-10)
    c = riemann(geom, vs[0], vs[1], vs[3], vs[2])
    assert a == pytest.approx(-c, abs=1e-10)
    pf = admitted_points(FLAT2, 1)[0]
    assert riemann(FLAT2.geometry(pf), *random_tangents(pf, 4)) == 0.0


def test_riemann_trace_reproduces_ricci():
    for i, p in enumerate(admitted_points(FS2, 5, seed=13)):
        geom = FS2.geometry(p)
        frame = np.linalg.cholesky(np.linalg.inv(geom.G))
        v, w = random_tangents(p, 2, seed=i)
        trace = sum(riemann(geom, frame[:, a], v, w, frame[:, a]) for a in range(4))
        assert trace == pytest.approx(geom.ricci_real(v, w), abs=1e-8)
        oracle = laplace_log_det_ricci(geom)
        assert trace == pytest.approx(ricci_pairing(oracle, v, w), abs=1e-8)


def test_first_bianchi_identity():
    for i, p in enumerate(admitted_points(FS2, 5, seed=17)):
        z, e, r, u = random_tangents(p, 4, seed=i + 3)
        geom = FS2.geometry(p)
        total = riemann(geom, z, e, r, u) + riemann(geom, e, r, z, u) + riemann(geom, r, z, e, u)
        assert abs(total) < 1e-9


def test_curvature_endomorphism_j_commutation_and_pairing():
    J = j_matrix(2)
    for i, p in enumerate(admitted_points(FS2, 6, seed=19)):
        z, e, r, u = random_tangents(p, 4, seed=i + 9)
        geom = FS2.geometry(p)
        lhs = curvature_endomorphism(geom, z, e, J @ r)
        rhs = J @ curvature_endomorphism(geom, z, e, r)
        assert np.linalg.norm(lhs - rhs) < 1e-9
        paired = float(curvature_endomorphism(geom, z, e, r) @ geom.G @ u)
        assert paired == pytest.approx(riemann(geom, z, e, r, u), abs=1e-10)
    pf = admitted_points(FLAT2, 1)[0]
    zero = curvature_endomorphism(FLAT2.geometry(pf), *random_tangents(pf, 3))
    assert np.max(np.abs(zero)) < 1e-14


def test_christoffel_symmetry_flatness_compatibility():
    pf = admitted_points(FLAT2, 1)[0]
    assert np.max(np.abs(FLAT2.geometry(pf).christoffel)) < 1e-14
    for p in admitted_points(FS2, 4, seed=23):
        geom = FS2.geometry(p)
        gamma = geom.christoffel
        # torsion-free symmetry holds bit for bit
        assert np.array_equal(gamma, gamma.transpose(0, 2, 1))
        dG, G = geom.dG, geom.G
        # metric compatibility: d_c G_ab = Gamma^e_ca G_eb + Gamma^e_cb G_ae
        recon = np.einsum("eca,eb->cab", gamma, G) + np.einsum("ecb,ae->cab", gamma, G)
        assert np.max(np.abs(dG - recon)) < 1e-9


def test_two_pipeline_curvature_agreement():
    # potential route vs the Christoffel route of G, whose derivatives come
    # from the real-variable lift alone
    for i, p in enumerate(admitted_points(FS2, 5, seed=29)):
        geom = FS2.geometry(p)
        direct = curvature_from_derivatives(*real_metric_derivatives(geom))[0]
        scale = np.max(np.abs(direct))
        for _ in range(5):
            vs = random_tangents(p, 4, seed=100 * i + _)
            via_complex = riemann(geom, *vs)
            via_real = float(np.einsum("abcd,a,b,c,d->", direct, *vs))
            norm = max(1.0, abs(via_real))
            assert abs(via_complex - via_real) / norm < 1e-12
        assert scale > 0


TENSOR_CHARTS = [("cpn", 2), ("quadric", 3), ("toric-fs", 2)]


@pytest.mark.parametrize("name, n", TENSOR_CHARTS)
def test_riemann_tensor_matches_per_vector_covector(name, n):
    # the test-side tensor built once per point against the per-vector complex pairing
    chart = make_builtin(name, n).chart
    for i, p in enumerate(admitted_points(chart, 3, seed=37)):
        geom = chart.geometry(p)
        for k in range(10):
            vs = random_tangents(p, 3, seed=10 * i + k)
            reference = geom.riemann_covector(*vs)
            read_off = np.einsum("xyzw,x,y,z->w", riemann_tensor(geom), *vs)
            scale = max(1.0, float(np.max(np.abs(reference))))
            assert np.max(np.abs(read_off - reference)) < 1e-12 * scale


@pytest.mark.parametrize("name, n", TENSOR_CHARTS)
def test_riemann_tensor_matches_christoffel_pipeline(name, n):
    # potential route vs the real Christoffel route of G, entry by entry
    chart = make_builtin(name, n).chart
    for p in admitted_points(chart, 2, seed=41):
        geom = chart.geometry(p)
        direct = curvature_from_derivatives(*real_metric_derivatives(geom))[0]
        Rm = riemann_tensor(geom)
        assert direct.shape == Rm.shape == (2 * n,) * 4
        scale = max(1.0, float(np.max(np.abs(direct))))
        assert np.max(np.abs(Rm - direct)) < 1e-12 * scale


def test_degenerate_metric_rejected():
    bad = PotentialChart(1, ("-", 0, ("abs2", "w1")), ((-1, 1),) * 2, label="negative")
    with pytest.raises(DegenerateMetricError):
        bad.geometry(ChartPoint((0.1,))).g


def test_vanishing_metric_is_a_degenerate_verdict():
    # log|w|^2 is pluriharmonic: g vanishes identically while its Hessian
    # does not, so only a floor relative to the Hessian can reject it
    harmonic = PotentialChart(1, ("log", ("abs2", "w1")), ((-1.0, 1.0),) * 2, label="log-abs2")
    with pytest.raises(DegenerateMetricError):
        harmonic.geometry(ChartPoint((0.3 - 0.2j,))).g
    bundle = ManifoldBundle(
        chart=harmonic,
        mapping=AntiholoMap((("conj", "w1"),), declared_involution=True),
        locus=FixedLocusParam(("t1",), ((-1.0, 1.0),)),
        label="log-abs2",
    )
    report = verdict(bundle, SamplingConfig(10, 10, seed=0))
    assert report.exit_code == EXIT_DEGENERATE
    counts = report.data["counts"]
    assert counts["ambient_admitted"] == 0
    assert counts["ambient_rejected_degenerate"] > 0


def test_fd_scale_sets_finite_difference_step():
    for scale in (1.0, 4.0):
        steps = set()

        def black_box(xy):
            # at the origin the mixed-partial stencil points (+-s, +-s) sit one
            # step s out along both axes, and no other point is on a diagonal
            if xy[0] != 0.0 and abs(xy[0]) == abs(xy[1]):
                steps.add(abs(xy[0]))
            return float(np.log1p(xy @ xy))

        chart = PotentialChart(
            1, black_box, ((-1.0, 1.0),) * 2, label=f"black-box-{scale}", fd_scale=scale,
        )
        ChartGeometry(chart, ChartPoint((0.0,))).psi_jet
        h = jets.FD_STEP_FACTOR * scale
        assert steps == {h, h / 2.0}


def black_box_cpn(n):
    """The projective potential log(1 + |x|^2) as an opaque callable."""
    return PotentialChart(
        n, lambda xy: float(np.log1p(xy @ xy)), ((-1.0, 1.0),) * (2 * n), label=f"bb-cpn-{n}"
    )


@pytest.mark.parametrize(
    "chart",
    [FS2, make_builtin("quadric", 3).chart, make_builtin("toric-fs", 2).chart, black_box_cpn(2)],
    ids=["cpn-2", "quadric-3", "toric-fs-2", "black-box-cpn-2"],
)
def test_metric_order_lift_is_bit_equal_to_the_full_lift(chart):
    # a map image is lifted to METRIC_ORDER only; its metric must be the
    # order-4 lift's to the last bit, so reports do not depend on the order
    for p in admitted_points(chart, 6, seed=17):
        low, full = ChartGeometry(chart, p, METRIC_ORDER), ChartGeometry(chart, p)
        for name in ("g", "G", "kahler_form"):
            assert np.array_equal(getattr(low, name), getattr(full, name)), name
        hessians = [geom.psi_jet.wirtinger_tensor((True, True)) for geom in (low, full)]
        assert np.array_equal(*hessians)
        assert (low.psi_jet.order, full.psi_jet.order) == (METRIC_ORDER, jets.DEFAULT_ORDER)


def test_metric_order_geometry_refuses_curvature():
    # a geometry lifted to METRIC_ORDER holds the metric only: it never lifts
    # again, and every member that reads third or fourth partials raises
    p = ChartPoint((0.3, -0.4))
    image = FS2.geometry(p, METRIC_ORDER)
    assert np.array_equal(image.G, FS2.geometry(p).G)
    for name in ("dg", "ddg", "curvature", "ricci", "christoffel"):
        with pytest.raises(JetOrderError):
            getattr(image, name)
    assert image.lift_order == image.psi_jet.order == METRIC_ORDER


def test_verdict_lifts_each_point_once_per_order(monkeypatch):
    # ambient and locus points are lifted once, at order 4; only map
    # images that are neither are lifted at METRIC_ORDER
    # (a stacked run lifts a list of points, each of them once)
    lifts = []
    lift = metrics_module.lift_to_jet

    def recording(field, point, order=jets.DEFAULT_ORDER, fd_scale=1.0):
        lifts.extend((p, order) for p in (point if isinstance(point, list) else [point]))
        return lift(field, point, order, fd_scale)

    monkeypatch.setattr(metrics_module, "lift_to_jet", recording)
    for bundle in (builtin_cpn(2), make_builtin("quadric", 2)):
        lifts.clear()
        report = verdict(bundle, SamplingConfig(8, 8, seed=0))
        assert report.exit_code == 0
        assert len(lifts) == len(set(lifts))
        assert {order for _, order in lifts} == {METRIC_ORDER, 4}
        images = {bundle.mapping.apply(p) for p, order in lifts if order == 4}
        assert all(p in images for p, order in lifts if order == METRIC_ORDER)
        assert sum(order == 4 for _, order in lifts) >= 8 + 8


def test_no_geometry_outlives_its_verdict(monkeypatch):
    # every chart and locus geometry a verdict builds is garbage once the
    # verdict returns: nothing in the package keeps a point's geometry
    built = []
    for cls in (ChartGeometry, LocusGeometry):
        init = cls.__init__

        def recording(self, *args, init=init, **kwargs):
            built.append(weakref.ref(self))
            init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", recording)
    for bundle, seed in ((builtin_cpn(2), 0), (make_builtin("quadric", 2), 1), (builtin_cpn(2), 2)):
        verdict(bundle, SamplingConfig(6, 6, seed=seed))
    gc.collect()
    assert len(built) >= 3 * (6 + 6)
    assert [ref() for ref in built if ref() is not None] == []


def test_report_bytes_do_not_depend_on_earlier_verdicts():
    # the same report in a fresh interpreter and after other verdicts, on
    # the same chart with overlapping Halton streams, ran in this one
    config = SamplingConfig(6, 6, seed=1)
    for samples, seed in ((4, 1), (8, 1), (6, 0)):
        verdict(builtin_cpn(2), SamplingConfig(samples, samples, seed=seed))
    verdict(make_builtin("quadric", 2), config)
    here = verdict(builtin_cpn(2), config).to_json()
    src = str(pathlib.Path(einlocus.__file__).resolve().parents[1])
    fresh = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys; from einlocus import SamplingConfig, builtin_cpn, verdict; "
            "sys.stdout.write(verdict(builtin_cpn(2), SamplingConfig(6, 6, seed=1)).to_json())",
        ],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert fresh.returncode == 0, fresh.stderr
    assert fresh.stdout == here


def test_chart_geometry_makes_no_jet_products(monkeypatch):
    geom = ChartGeometry(builtin_cpn(5).chart, ChartPoint((0.1, -0.2j, 0.3, 0.1 + 0.1j, -0.4)))
    geom.psi_jet
    calls = []
    mul = Jet.__mul__

    def counting(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(Jet, "__mul__", counting)
    monkeypatch.setattr(Jet, "__rmul__", counting)
    for name in ("g", "dg", "ddg", "ricci", "curvature", "christoffel"):
        getattr(geom, name)
    assert calls == []


def test_geometry_members_are_computed_once_per_object(monkeypatch):
    # a cached member is computed on first read and kept on its own object:
    # G is built once and the Kahler form reads that G; a second geometry at
    # the same point keeps values of its own
    built = []
    real_metric_matrix = metrics_module._real_metric_matrix

    def counting(g):
        built.append(g)
        return real_metric_matrix(g)

    monkeypatch.setattr(metrics_module, "_real_metric_matrix", counting)
    p = ChartPoint((0.2 - 0.1j, 0.3j))
    geom = FS2.geometry(p)
    assert geom.G is geom.G
    geom.kahler_form
    assert len(built) == 1
    other = FS2.geometry(p)
    for name in ("g", "G", "kahler_form"):
        assert np.array_equal(getattr(other, name), getattr(geom, name)), name
        assert vars(other)[name] is not vars(geom)[name], name
    assert geom.psi_jet is geom.psi_jet
    assert other.psi_jet is not geom.psi_jet
    assert isinstance(vars(ChartGeometry)["G"], property)
    lg = LocusGeometry(builtin_cpn(2).chart, builtin_cpn(2).locus, (0.25, -0.4))
    lg.sff_max_norm
    assert not hasattr(lg, "_cache") and not hasattr(lg.geom, "_cache")


def test_domain_violation_rejected():
    from einlocus import ChartDomainError

    with pytest.raises(ChartDomainError):
        FLAT2.geometry(ChartPoint((5.0, 0.0))).g  # outside the box
    fenced = PotentialChart(
        1,
        ("abs2", "w1"),
        ((-1, 1),) * 2,
        domain=("-", ("abs2", "w1"), 0.25),  # admit only |w| > 1/2
        label="fenced",
    )
    with pytest.raises(ChartDomainError):
        fenced.geometry(ChartPoint((0.1,))).g
    assert fenced.geometry(ChartPoint((0.8,))).g == pytest.approx(np.eye(1))


def test_box_length_is_checked_on_construction():
    # a box must bound all 2n real coordinates; a chart with too few sides
    # is refused when it is built, not when the first point is admitted
    with pytest.raises(ValueError, match="box must bound"):
        PotentialChart(2, FS2.potential, ((-1.0, 1.0),) * 2, label="short-box")


def test_non_finite_metric_is_degenerate():
    # exp(1000 |w|^2) overflows over most of the box; with numpy warnings
    # silenced the overflowed metrics are NaN, and must be rejected rather
    # than admitted by a degeneracy test whose comparisons are all False
    chart = PotentialChart(
        1, ("exp", ("*", 1000, ("abs2", "w1"))), ((-1.0, 1.0),) * 2, label="exp-1000"
    )
    with np.errstate(all="ignore"):
        geoms, stats = sample_chart_points(chart, 10, seed=0)
        assert stats.rejected_degenerate > 0
        assert all(np.all(np.isfinite(geom.g)) for geom in geoms)
        with pytest.raises(DegenerateMetricError, match="not finite"):
            ChartGeometry(chart, ChartPoint((0.9 + 0.9j,))).g


def test_an_overflowing_taylor_series_ends_the_verdict_as_degenerate():
    # the reciprocal of a constant term near (3 + 2i) 1e84 has Taylor
    # coefficients u^-4 and u^-5 that Python's complex arithmetic overflows
    # to nan without a floating-point flag; the series raises under the
    # verdict's error state, so the run stops with the series named instead
    # of reading nan metrics
    bundle = report_digests().overflowing_series()
    report = verdict(bundle, SamplingConfig(6, 6, seed=0))
    assert report.exit_code == EXIT_DEGENERATE
    (warning,) = report.data["warnings"]
    assert warning.startswith("numerical failure (FloatingPointError): reciprocal series")
    assert report.data["checks"] == {}
    # an order-2 lift needs only u^-1 .. u^-3, which stay finite
    point = ChartPoint((0.1 + 0.2j,))
    with np.errstate(over="raise"):
        jet, _ = metrics_module.lift_to_jet(bundle.chart.potential, point, order=2)
        assert np.all(np.isfinite(jet.coeffs))
        with pytest.raises(FloatingPointError, match="reciprocal series"):
            metrics_module.lift_to_jet(bundle.chart.potential, point)


WIRTINGER_PATTERNS = ((True, False), (True, True, False), (True, False, True, False), (True, True))

EVERY_BUILTIN = [
    (name, n) for name, (_, _, (lo, hi)) in BUILTINS.items() for n in range(lo, hi + 1)
]


def oracle_geometry(chart, point):
    """A fresh chart geometry whose potential jet is the real-variable
    oracle jet, converted to (z, zbar)."""
    geom = ChartGeometry(chart, point)
    vars(geom)["_lift"] = (real_psi_jet(geom).to_wirtinger(), 0.0)
    return geom


@pytest.mark.parametrize("name, n", EVERY_BUILTIN)
def test_wirtinger_tables_match_tensordot_oracle(name, n):
    # the read-off gathers, on the oracle jet converted to (z, zbar), against
    # k contractions of its real partial tensors with the Wirtinger matrix
    chart = make_builtin(name, n).chart
    for p in admitted_points(chart, 2, seed=n):
        geom = oracle_geometry(chart, p)
        hessian = geom.psi_jet.wirtinger_tensor((True, True))
        for holo, got in zip(WIRTINGER_PATTERNS, (geom.g, geom.dg, geom.ddg, hessian)):
            want = tensordot_wirtinger(geom, holo)
            assert got.shape == want.shape == (n,) * len(holo)
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want)), (name, n, holo)


@pytest.mark.parametrize("name, n", EVERY_BUILTIN)
def test_wirtinger_lift_matches_real_oracle(name, n):
    # two exact routes to the same coefficients, rounded differently: the
    # (z, zbar) lift and the real-variable lift converted to (z, zbar)
    chart = make_builtin(name, n).chart
    for p in admitted_points(chart, 2, seed=n):
        geom = chart.geometry(p)
        want = real_psi_jet(geom).to_wirtinger().coeffs
        got = geom.psi_jet.coeffs
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want)), (name, n)
        # every built-in passes the dust test far inside its 1e-8 threshold
        space = geom.psi_jet.space
        coords = [
            Jet(space, space.variable(2 * j, z).coeffs, space.capacity, 1, wirtinger=True)
            for j, z in enumerate(p.holo)
        ]
        raw = exprs.evaluate(chart.potential, dict(zip(exprs.coord_names(n), coords)))
        defect = np.max(np.abs(raw.coeffs - raw.conjugate().coeffs))
        assert defect <= 1e-13 * (1.0 + np.max(np.abs(raw.coeffs))), (name, n, defect)


@pytest.mark.parametrize(
    "name, n", [("cpn", 3), ("quadric", 2), ("toric-fs", 2), ("toric-flat", 3)]
)
def test_real_hessian_norm_from_wirtinger_partials(name, n):
    # |Hess_R psi|_F = 2 sqrt(2 (|d d psi|^2 + |g|^2)), the degeneracy floor's scale
    chart = make_builtin(name, n).chart
    for p in admitted_points(chart, 3, seed=5):
        geom = chart.geometry(p)
        hol, g = geom.psi_jet.wirtinger_tensor((True, True)), geom.g
        got = 2.0 * np.sqrt(2.0 * (np.linalg.norm(hol) ** 2 + np.linalg.norm(g) ** 2))
        want = np.linalg.norm(real_psi_jet(geom).derivative_tensor(2).real)
        assert got == pytest.approx(want, rel=1e-13)


def test_dust_test_rejects_non_real_potentials():
    point = ChartPoint((0.3 - 0.2j,))
    for potential in (
        ("*", "I", ("abs2", "w1")),  # imaginary at every bidegree it touches
        ("+", ("abs2", "w1"), ("*", "I", ("re", ("pow", "w1", 2)))),  # only (2, 0) and (0, 2)
        ("+", ("abs2", "w1"), ("*", 1e-6, "I")),  # a small imaginary constant
    ):
        with pytest.raises(NonAnalyticFieldError):
            lift_to_jet(potential, point)
    # the imaginary unit cancels in a real field
    real = ("+", ("abs2", "w1"), ("*", "I", ("-", "w1", ("conj", "w1"))))
    jet, defect = lift_to_jet(real, point)
    assert defect < 1e-15
    assert np.array_equal(jet.conjugate().coeffs, jet.coeffs)
    assert jet.value == pytest.approx(abs(0.3 - 0.2j) ** 2 + 0.4)


def test_metric_hermitian_reports_the_lift_defect():
    # an imaginary part 1e-12 |w1|^2 is far below the real_potential gate, and
    # the metric drops it; the check reports it, and 0 for a black box
    cpn1 = builtin_cpn(1)
    potential = ("+", cpn1.chart.potential, ("*", 1e-12, "I", ("abs2", "w1")))
    perturbed = ManifoldBundle(
        chart=PotentialChart(1, potential, cpn1.chart.box, label="cpn-1-imaginary"),
        mapping=cpn1.mapping,
        locus=cpn1.locus,
        label="cpn-1-imaginary",
    )
    report = verdict(perturbed, SamplingConfig(10, 10, seed=0))
    assert report.exit_code == 0
    check = report.data["checks"]["metric_hermitian"]
    assert check["count"] == 10
    assert 5e-13 <= check["min"] and check["max"] <= 5e-12
    exact = verdict(cpn1, SamplingConfig(10, 10, seed=0)).data["checks"]["metric_hermitian"]
    assert exact["max"] <= 1e-15
    black_box = ManifoldBundle(
        chart=PotentialChart(1, lambda xy: float(np.log1p(xy @ xy)), cpn1.chart.box, label="bb"),
        mapping=cpn1.mapping,
        locus=cpn1.locus,
        label="black-box-cpn-1",
    )
    checks = verdict(black_box, SamplingConfig(4, 4, seed=0)).data["checks"]
    assert checks["metric_hermitian"]["max"] == 0.0


def test_a_pluriharmonic_gauge_term_leaves_the_report_unchanged():
    # psi + c Re(i w1 wn) has the metric of psi, so no verdict, count,
    # constant or check may read the gauge term, however large
    config = SamplingConfig(12, 12, seed=0)
    for n in (1, 2):
        bundle = builtin_cpn(n)
        base = verdict(bundle, config).data
        for c in (1.0, 1e3, 1e6):
            gauge = ("*", c, ("re", ("*", "I", "w1", f"w{n}")))
            chart = replace(bundle.chart, potential=("+", bundle.chart.potential, gauge))
            got = verdict(replace(bundle, chart=chart), config).data
            assert got["verdict"]["exit_code"] == base["verdict"]["exit_code"] == 0
            assert got["counts"] == base["counts"]
            for key in ("lambda_est", "kappa_est", "C_est"):
                assert got["constants"][key] == pytest.approx(base["constants"][key], abs=1e-9)
            assert got["checks"].keys() == base["checks"].keys()
            for name, stat in base["checks"].items():
                for field in ("min", "median", "max"):
                    assert got["checks"][name][field] == pytest.approx(stat[field], abs=1e-9), (
                        n, c, name, field,
                    )


def test_chart_tensors_make_no_tensordot_call(monkeypatch):
    geom = ChartGeometry(builtin_cpn(5).chart, ChartPoint((0.1, -0.2j, 0.3, 0.1 + 0.1j, -0.4)))
    geom.psi_jet
    calls = []
    tensordot = np.tensordot

    def counting(*args, **kwargs):
        calls.append(1)
        return tensordot(*args, **kwargs)

    monkeypatch.setattr(np, "tensordot", counting)
    for name in ("g", "dg", "ddg"):
        getattr(geom, name)
    assert calls == []


# -- stacked runs and their point-by-point fallback ----------------------------------


def fallback_reports(monkeypatch, bundle, config):
    """(report, report of the point-by-point path, whether a stacked run
    raised): the second with every stacked run failing, as ``at_once``
    reports a raising run, so that each point runs alone.  Stacks of four
    points already count, so that small samples exercise them."""
    from einlocus import locus as locus_module, verify as verify_module

    raised, at_once = [], metrics_module.at_once

    def recording(run):
        out = at_once(run)
        raised.append(out is None)
        return out

    with monkeypatch.context() as patch:
        patch.setattr(metrics_module, "STACK_POINTS", 4)
        for module in (metrics_module, locus_module, verify_module):
            patch.setattr(module, "at_once", recording)
        stacked = verdict(bundle, config).to_json()
        for module in (metrics_module, locus_module, verify_module):
            patch.setattr(module, "at_once", lambda run: None)
        alone = verdict(bundle, config).to_json()
    return stacked, alone, any(raised)


def exp_chart(domain=None):
    """|w|^2 + exp(1000 Re w): its lift overflows where Re w passes about 0.7."""
    psi = ("+", ("abs2", "w1"), ("exp", ("*", 1000, ("re", "w1"))))
    return PotentialChart(1, psi, ((-1.0, 1.0),) * 2, domain=domain, label="exp")


def test_a_lift_overflowing_at_one_point_of_a_stack_ends_the_run_there(monkeypatch):
    base = builtin_cpn(1)
    bundle = ManifoldBundle(exp_chart(), base.mapping, base.locus, label="exp")
    stacked, alone, raised = fallback_reports(monkeypatch, bundle, SamplingConfig(12, 12, seed=0))
    assert raised
    assert stacked == alone
    assert '"exit_code": 4' in stacked and "overflow" in stacked


def test_a_candidate_past_the_stage_one_stop_never_raises(monkeypatch):
    # at seed 7 the first draw of four admits three (one lies outside the
    # disc), and the second draw's first candidate completes the sample; its
    # fourth overflows, and is lifted in the draw's stack only
    base = builtin_cpn(1)
    bundle = ManifoldBundle(exp_chart(("-", 0.8, ("abs2", "w1"))), base.mapping, base.locus)
    config = SamplingConfig(4, 4, seed=7)
    stacked, alone, raised = fallback_reports(monkeypatch, bundle, config)
    assert raised
    assert stacked == alone
    ambient, stats = sample_chart_points(bundle.chart, 4, seed=7)
    assert (len(ambient), stats.rejected_domain) == (4, 1)


def test_a_degenerate_candidate_inside_a_stack_is_rejected_as_alone(monkeypatch):
    base = builtin_cpn(1)
    half = ("*", ("+", ("re", "w1"), ("abs2", ("re", "w1"))), ("abs2", "w1"))
    chart = PotentialChart(1, half, ((-1.0, 1.0),) * 2, label="half")
    bundle = ManifoldBundle(chart, base.mapping, base.locus, label="half")
    stacked, alone, _ = fallback_reports(monkeypatch, bundle, SamplingConfig(8, 8, seed=1))
    assert stacked == alone
    assert '"ambient_rejected_degenerate": 0' not in stacked


def test_map_images_escaping_or_dividing_by_zero_at_one_point_count_as_alone(monkeypatch):
    base = builtin_cpn(2)
    tripled = AntiholoMap(tuple(("*", 3, ("conj", w)) for w in exprs.coord_names(2)))
    stacked, alone, _ = fallback_reports(
        monkeypatch, replace(base, mapping=tripled), SamplingConfig(10, 10, seed=0)
    )
    assert stacked == alone
    assert '"map_escapes": 0' not in stacked
    # a map with a pole at the third ambient point: 1 / (conj w - conj w0)
    chart = builtin_cpn(1).chart
    w0 = sample_chart_points(chart, 10, seed=0)[0][2].point.holo[0]
    pole = ("/", 1, ("-", ("conj", "w1"), ("+", w0.real, ("*", -w0.imag, "I"))))
    bundle = ManifoldBundle(chart, AntiholoMap((pole,)), builtin_cpn(1).locus, label="pole")
    stacked, alone, raised = fallback_reports(monkeypatch, bundle, SamplingConfig(10, 10, seed=0))
    assert raised
    assert stacked == alone
    assert "ZeroDivisionError" in stacked


def test_stacked_lifts_equal_single_lifts_bit_for_bit():
    # every built-in of the suite and cpn-6, whose largest products sum
    # point by point, at both lift orders
    for name, n in tuple(DEFAULT_SUITE) + (("cpn", 6),):
        chart = make_builtin(name, n).chart
        points = [g.point for g in sample_chart_points(chart, 3, seed=2)[0]]
        for order in (METRIC_ORDER, jets.DEFAULT_ORDER):
            with np.errstate(all="raise"):
                stacked = lift_to_jet(chart._programs[0], points, order)
                for point, (jet, defect) in zip(points, stacked):
                    alone, alone_defect = lift_to_jet(chart._programs[0], point, order)
                    assert jet.coeffs.tobytes() == alone.coeffs.tobytes(), (name, n, order)
                    assert defect == alone_defect and jet.degree == alone.degree


def test_no_stacked_run_of_the_default_suite_falls_back(monkeypatch):
    # at the default stack size, every stacked run of the suite's verdicts
    # returns (none falls back to per-point runs), and every point a stacked
    # lift admits is lifted in it: a fault only the stacked path meets fails here
    from einlocus import locus as locus_module, verify as verify_module

    returned, made = [], []
    at_once, lifts = metrics_module.at_once, PotentialChart.lifts

    def recording(run):
        out = at_once(run)
        returned.append(out is not None)
        return out

    def recording_lifts(self, points, lift_order=jets.DEFAULT_ORDER):
        out = lifts(self, points, lift_order)
        made.extend(out)
        return out

    for module in (metrics_module, locus_module, verify_module):
        monkeypatch.setattr(module, "at_once", recording)
    monkeypatch.setattr(PotentialChart, "lifts", recording_lifts)
    assert metrics_module.STACK_POINTS == 8
    for name, n in DEFAULT_SUITE:
        verdict(make_builtin(name, n), SamplingConfig(12, 12, seed=0))
    assert len(returned) > 100 and all(returned)
    assert any(isinstance(one, tuple) for one in made)
    assert all(isinstance(one, tuple) or one is False for one in made)


def test_lifts_stack_no_jet_past_the_stacked_product_size():
    # cpn-6's order-4 jet has 1820 coefficients, past STACKED_TERMS: its lifts
    # run per point, with the domain left to each geometry; its order-2 jet stacks
    chart = make_builtin("cpn", 6).chart
    points = [g.point for g in sample_chart_points(chart, 8, seed=0)[0]]
    assert jets.jet_space(12, 4).size > jets.STACKED_TERMS >= jets.jet_space(12, 2).size
    assert chart.lifts(points) == [None] * 8
    assert all(isinstance(one, tuple) for one in chart.lifts(points, METRIC_ORDER))
    assert chart.lifts(points[:7], METRIC_ORDER) == [None] * 7


@pytest.mark.parametrize("count", [4, 12])
def test_stage_one_checks_each_candidate_against_the_domain_once(monkeypatch, count):
    # a disc that refuses some candidates, at 12 points (stacked) and 4 (alone)
    disc = PotentialChart(1, ("abs2", "w1"), ((-1.0, 1.0),) * 2, domain=("-", 0.3, ("abs2", "w1")))
    checked, admits = [], PotentialChart.admits

    def recording(self, point):
        checked.append(point.holo)
        return admits(self, point)

    monkeypatch.setattr(PotentialChart, "admits", recording)
    ambient, stats = sample_chart_points(disc, count, seed=0)
    assert len(ambient) == count and stats.rejected_domain > 0
    assert len(checked) == len(set(checked)) >= count + stats.rejected_domain


def test_a_raising_stacked_parameter_run_leaves_each_locus_point_its_own(monkeypatch):
    # the stacked lifts of stage 4 stand while its stacked parameter-jet run
    # raises: each locus geometry reads its derivatives off its own jets
    want = verdict(builtin_cpn(2), SamplingConfig(10, 10, seed=2)).to_json()
    component_jets = FixedLocusParam.component_jets

    def stacked_raises(self, t, order=4):
        if isinstance(t, list):
            raise FloatingPointError("stacked run")
        return component_jets(self, t, order)

    monkeypatch.setattr(FixedLocusParam, "component_jets", stacked_raises)
    monkeypatch.setattr(metrics_module, "STACK_POINTS", 4)
    assert verdict(builtin_cpn(2), SamplingConfig(10, 10, seed=2)).to_json() == want
