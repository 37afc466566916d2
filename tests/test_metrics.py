"""Metric, Ricci, curvature and their cross-pipeline checks."""

import numpy as np
import pytest

from einlocus import (
    EXIT_DEGENERATE,
    AntiholoMap,
    ChartGeometry,
    ChartPoint,
    DegenerateMetricError,
    FixedLocusParam,
    Jet,
    ManifoldBundle,
    PotentialChart,
    RealTangent,
    SamplingConfig,
    apply_J,
    builtin_cpn,
    christoffel_real,
    curvature_at,
    curvature_endomorphism,
    einstein_residual,
    kahler_form_at,
    make_builtin,
    metric_at,
    real_metric_at,
    ricci_form_at,
    riemann_real,
    verdict,
)
from einlocus import jets
from einlocus.realcurv import curvature_from_metric_jets
from einlocus.sampling import sample_chart_points

from conftest import (
    admitted_points,
    laplace_log_det_ricci,
    random_tangents,
    real_metric_jets,
    ricci_pairing,
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
    assert metric_at(FS1, ChartPoint((0.0,))).matrix == pytest.approx(np.array([[1.0]]))
    assert metric_at(FS1, ChartPoint((1.0,))).matrix == pytest.approx(np.array([[0.25]]))
    for w in [(0.3 + 0.4j,), (0.9 - 0.2j,)]:
        got = metric_at(FS1, ChartPoint(w)).matrix
        assert got == pytest.approx(fs_metric_formula(w), abs=1e-13)
    w2 = (0.2 - 0.7j, -0.4 + 0.1j)
    assert metric_at(FS2, ChartPoint(w2)).matrix == pytest.approx(
        fs_metric_formula(w2), abs=1e-13
    )


def test_flat_metric_is_identity():
    for p in admitted_points(FLAT2, 5):
        assert metric_at(FLAT2, p).matrix == pytest.approx(np.eye(2))


def test_real_metric_normalization_and_j_invariance():
    flat1 = PotentialChart(1, ("abs2", "w1"), ((-1, 1),) * 2, label="flat-1")
    assert real_metric_at(flat1, ChartPoint((0.1 + 0.2j,))).matrix == pytest.approx(
        2.0 * np.eye(2)
    )
    assert real_metric_at(FS1, ChartPoint((0.0,))).matrix == pytest.approx(2.0 * np.eye(2))
    for i, p in enumerate(admitted_points(FS2, 6)):
        G = real_metric_at(FS2, p).matrix
        assert np.linalg.norm(G - G.T) < 1e-12
        assert np.min(np.linalg.eigvalsh(G)) > 0
        for v in random_tangents(p, 3, seed=i):
            jv = apply_J(v)
            a = float(v.components @ G @ v.components)
            b = float(jv.components @ G @ jv.components)
            assert b == pytest.approx(a, rel=1e-12)


def test_kahler_form():
    flat1 = PotentialChart(1, ("abs2", "w1"), ((-1, 1),) * 2, label="flat-1")
    p = ChartPoint((0.2 - 0.1j,))
    omega = kahler_form_at(flat1, p)
    dx = RealTangent(np.array([1.0, 0.0]), p)
    dy = RealTangent(np.array([0.0, 1.0]), p)
    assert omega(dx, dy) == pytest.approx(2.0)
    assert omega(dx, dx) == 0.0
    for i, p in enumerate(admitted_points(FS2, 4)):
        omega = kahler_form_at(FS2, p)
        for v, w in zip(random_tangents(p, 3, seed=i), random_tangents(p, 3, seed=i + 50)):
            assert omega(v, v) == pytest.approx(0.0, abs=1e-14)
            assert omega(v, w) == pytest.approx(-omega(w, v), abs=1e-13)
            assert omega(apply_J(v), apply_J(w)) == pytest.approx(omega(v, w), abs=1e-12)


def test_ricci_flat_and_fs():
    for p in admitted_points(FLAT2, 4):
        assert np.max(np.abs(ricci_form_at(FLAT2, p).matrix)) < 1e-14
    # constant Ricci/metric ratio over >= 20 points for each dimension
    for chart, expected in [(FS1, 2.0), (FS2, 3.0), (builtin_cpn(3).chart, 4.0)]:
        pts = admitted_points(chart, 20, seed=3)
        for p in pts:
            ric = ricci_form_at(chart, p).matrix
            g = metric_at(chart, p).matrix
            assert np.max(np.abs(ric - expected * g)) < 1e-11
            oracle = laplace_log_det_ricci(chart.geometry(p))
            assert np.max(np.abs(oracle - expected * g)) < 1e-11
    assert len(admitted_points(FS1, 20, seed=3)) == 20


def test_einstein_residual_flat_fs_perturbed():
    lam, res = einstein_residual(FLAT2, admitted_points(FLAT2, 10))
    assert lam == pytest.approx(0.0, abs=1e-12)
    assert res < 1e-10
    lam, res = einstein_residual(FS2, admitted_points(FS2, 25, seed=1))
    assert lam == pytest.approx(3.0, abs=1e-10)
    assert res < 1e-8
    # quartic bump: a genuinely non-Einstein Kahler potential near 0
    perturbed = PotentialChart(
        2,
        ("+", ("abs2", "w1"), ("abs2", "w2"), ("*", 0.1, ("pow", ("abs2", "w1"), 2))),
        ((-0.8, 0.8),) * 4,
        label="perturbed",
    )
    lam, res = einstein_residual(perturbed, admitted_points(perturbed, 12, seed=2))
    assert res > 0.01


def test_einstein_residual_needs_two_points():
    with pytest.raises(ValueError):
        einstein_residual(FLAT2, [ChartPoint((0.0, 0.0))])


def test_curvature_flat_and_symmetries():
    for p in admitted_points(FLAT2, 3):
        assert np.max(np.abs(curvature_at(FLAT2, p).tensor)) < 1e-14
    for p in admitted_points(FS2, 8, seed=5):
        K = curvature_at(FS2, p)
        assert K.hermitian_defect() < 1e-10
        assert K.kahler_defect() < 1e-10


def test_curvature_fs_cp1_constant_sectional():
    # the sectional curvature of span(dx, dy) must be point-independent
    vals = []
    for p in admitted_points(FS1, 12, seed=7):
        geom = FS1.geometry(p)
        dx = RealTangent(np.array([1.0, 0.0]), p)
        dy = RealTangent(np.array([0.0, 1.0]), p)
        num = geom.riemann(dx, dy, dy, dx)
        G = geom.G
        den = G[0, 0] * G[1, 1] - G[0, 1] ** 2
        vals.append(num / den)
    assert np.max(np.abs(np.array(vals) - vals[0])) < 1e-10
    assert vals[0] == pytest.approx(2.0, abs=1e-10)  # matches Ric = 2 g in dim 1


def test_riemann_real_antisymmetry_and_flatness():
    p = admitted_points(FS2, 1, seed=11)[0]
    vs = random_tangents(p, 4, seed=11)
    a = riemann_real(FS2, p, *vs)
    b = riemann_real(FS2, p, vs[1], vs[0], vs[2], vs[3])
    assert a == pytest.approx(-b, abs=1e-10)
    c = riemann_real(FS2, p, vs[0], vs[1], vs[3], vs[2])
    assert a == pytest.approx(-c, abs=1e-10)
    pf = admitted_points(FLAT2, 1)[0]
    assert riemann_real(FLAT2, pf, *random_tangents(pf, 4)) == 0.0


def test_riemann_trace_reproduces_ricci():
    for i, p in enumerate(admitted_points(FS2, 5, seed=13)):
        geom = FS2.geometry(p)
        frame = np.linalg.cholesky(np.linalg.inv(geom.G))
        v, w = random_tangents(p, 2, seed=i)
        trace = sum(
            riemann_real(
                FS2, p, RealTangent(frame[:, a], p), v, w, RealTangent(frame[:, a], p)
            )
            for a in range(4)
        )
        assert trace == pytest.approx(geom.ricci_real(v, w), abs=1e-8)
        oracle = laplace_log_det_ricci(geom)
        assert trace == pytest.approx(ricci_pairing(oracle, v, w), abs=1e-8)


def test_first_bianchi_identity():
    for i, p in enumerate(admitted_points(FS2, 5, seed=17)):
        z, e, r, u = random_tangents(p, 4, seed=i + 3)
        total = (
            riemann_real(FS2, p, z, e, r, u)
            + riemann_real(FS2, p, e, r, z, u)
            + riemann_real(FS2, p, r, z, e, u)
        )
        assert abs(total) < 1e-9


def test_curvature_endomorphism_j_commutation_and_pairing():
    for i, p in enumerate(admitted_points(FS2, 6, seed=19)):
        z, e, r, u = random_tangents(p, 4, seed=i + 9)
        lhs = curvature_endomorphism(FS2, p, z, e, apply_J(r)).components
        rhs = apply_J(curvature_endomorphism(FS2, p, z, e, r)).components
        assert np.linalg.norm(lhs - rhs) < 1e-9
        G = FS2.geometry(p).G
        paired = float(curvature_endomorphism(FS2, p, z, e, r).components @ G @ u.components)
        assert paired == pytest.approx(riemann_real(FS2, p, z, e, r, u), abs=1e-10)
    pf = admitted_points(FLAT2, 1)[0]
    zero = curvature_endomorphism(FLAT2, pf, *random_tangents(pf, 3))
    assert np.max(np.abs(zero.components)) < 1e-14


def test_christoffel_symmetry_flatness_compatibility():
    pf = admitted_points(FLAT2, 1)[0]
    assert np.max(np.abs(christoffel_real(FLAT2, pf))) < 1e-14
    for p in admitted_points(FS2, 4, seed=23):
        gamma = christoffel_real(FS2, p)
        # torsion-free symmetry holds bit for bit
        assert np.array_equal(gamma, gamma.transpose(0, 2, 1))
        geom = FS2.geometry(p)
        dG, G = geom.dG, geom.G
        # metric compatibility: d_c G_ab = Gamma^e_ca G_eb + Gamma^e_cb G_ae
        recon = np.einsum("eca,eb->cab", gamma, G) + np.einsum("ecb,ae->cab", gamma, G)
        assert np.max(np.abs(dG - recon)) < 1e-9


def test_two_pipeline_curvature_agreement():
    # potential route vs Christoffel-of-G route, both on exact jets
    for i, p in enumerate(admitted_points(FS2, 5, seed=29)):
        geom = FS2.geometry(p)
        direct = curvature_from_metric_jets(real_metric_jets(geom))["riemann"]
        scale = np.max(np.abs(direct))
        for _ in range(5):
            vs = random_tangents(p, 4, seed=100 * i + _)
            via_complex = geom.riemann(*vs)
            via_real = float(
                np.einsum("abcd,a,b,c,d->", direct, *[v.components for v in vs])
            )
            norm = max(1.0, abs(via_real))
            assert abs(via_complex - via_real) / norm < 1e-7
        assert scale > 0


TENSOR_CHARTS = [("cpn", 2), ("quadric", 3), ("toric-fs", 2)]


@pytest.mark.parametrize("name, n", TENSOR_CHARTS)
def test_riemann_tensor_matches_per_vector_covector(name, n):
    # the tensor built once per point against the per-vector complex pairing
    chart = make_builtin(name, n).chart
    for i, p in enumerate(admitted_points(chart, 3, seed=37)):
        geom = chart.geometry(p)
        for k in range(10):
            vs = random_tangents(p, 3, seed=10 * i + k)
            reference = geom.riemann_covector(*vs)
            read_off = np.einsum(
                "xyzw,x,y,z->w", geom.riemann_tensor, *[v.components for v in vs]
            )
            scale = max(1.0, float(np.max(np.abs(reference))))
            assert np.max(np.abs(read_off - reference)) < 1e-12 * scale


@pytest.mark.parametrize("name, n", TENSOR_CHARTS)
def test_riemann_tensor_matches_christoffel_pipeline(name, n):
    # potential route vs the real Christoffel route of G, entry by entry
    chart = make_builtin(name, n).chart
    for p in admitted_points(chart, 2, seed=41):
        geom = chart.geometry(p)
        direct = curvature_from_metric_jets(real_metric_jets(geom))["riemann"]
        assert direct.shape == geom.riemann_tensor.shape == (2 * n,) * 4
        scale = max(1.0, float(np.max(np.abs(direct))))
        assert np.max(np.abs(geom.riemann_tensor - direct)) < 1e-10 * scale


def test_degenerate_metric_rejected():
    bad = PotentialChart(1, ("-", 0, ("abs2", "w1")), ((-1, 1),) * 2, label="negative")
    with pytest.raises(DegenerateMetricError):
        metric_at(bad, ChartPoint((0.1,)))


def test_vanishing_metric_is_a_degenerate_verdict():
    # log|w|^2 is pluriharmonic: g vanishes identically while its Hessian
    # does not, so only a floor relative to the Hessian can reject it
    harmonic = PotentialChart(1, ("log", ("abs2", "w1")), ((-1.0, 1.0),) * 2, label="log-abs2")
    with pytest.raises(DegenerateMetricError):
        metric_at(harmonic, ChartPoint((0.3 - 0.2j,)))
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


def test_domain_violation_rejected():
    from einlocus import ChartDomainError

    with pytest.raises(ChartDomainError):
        metric_at(FLAT2, ChartPoint((5.0, 0.0)))  # outside the box
    fenced = PotentialChart(
        1,
        ("abs2", "w1"),
        ((-1, 1),) * 2,
        domain=("-", ("abs2", "w1"), 0.25),  # admit only |w| > 1/2
        label="fenced",
    )
    with pytest.raises(ChartDomainError):
        metric_at(fenced, ChartPoint((0.1,)))
    assert metric_at(fenced, ChartPoint((0.8,))).matrix == pytest.approx(np.eye(1))


def test_non_finite_metric_is_degenerate():
    # exp(1000 |w|^2) overflows over most of the box; with numpy warnings
    # silenced the overflowed metrics are NaN, and must be rejected rather
    # than admitted by a degeneracy test whose comparisons are all False
    chart = PotentialChart(
        1, ("exp", ("*", 1000, ("abs2", "w1"))), ((-1.0, 1.0),) * 2, label="exp-1000"
    )
    with np.errstate(all="ignore"):
        points, stats = sample_chart_points(chart, 10, seed=0)
        assert stats.rejected_degenerate > 0
        assert all(np.all(np.isfinite(chart.geometry(p).g)) for p in points)
        with pytest.raises(DegenerateMetricError, match="not finite"):
            ChartGeometry(chart, ChartPoint((0.9 + 0.9j,))).g
