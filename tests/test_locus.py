"""Frames, projections, second fundamental form, restricted Ricci."""

import numpy as np
import pytest

from einlocus import (
    AntiholoMap,
    ChartPoint,
    FixedLocusParam,
    HypothesesNotVerifiedError,
    NonAnalyticFieldError,
    PotentialChart,
    RankDeficiencyError,
    RealTangent,
    SamplingConfig,
    apply_J,
    build_frame,
    builtin_cpn,
    builtin_flat_torus,
    builtin_quadric,
    builtin_toric_fs,
    lagrangian_residual,
    locus_point,
    project_tn,
    restricted_ricci,
    riemann_real,
    second_fundamental_form,
    sff_max_norm,
    totally_real_residual,
    verdict,
)
from einlocus import locus as locus_module
from einlocus.locus import intrinsic_ricci_on_frame, locus_geometry
from einlocus.sampling import sample_parameters

from conftest import laplace_log_det_ricci, random_tangents, ricci_pairing

EUCLID1 = PotentialChart(1, ("*", 0.5, ("abs2", "w1")), ((-3.0, 3.0),) * 2, label="euclid")
FLAT2 = PotentialChart(2, ("+", ("abs2", "w1"), ("abs2", "w2")), ((-1.0, 1.0),) * 4, label="flat-2")


def circle_locus(r):
    return FixedLocusParam(
        components=(("*", r, ("exp", ("*", "I", "t1"))),),
        box=((-0.7, 0.7),),
        label=f"circle-{r}",
    )


def complex_line_locus():
    # a complex line inside C^2: J-invariant, so decidedly not totally real
    return FixedLocusParam(
        components=(("+", "t1", ("*", "I", "t2")), 0.0),
        box=((-0.8, 0.8),) * 2,
        label="complex-line",
    )


def test_frame_orthonormality_across_builtins():
    for bundle in (builtin_cpn(1), builtin_cpn(2), builtin_quadric(2), builtin_flat_torus(2)):
        chart, locus = bundle.chart, bundle.locus
        for t in sample_parameters(locus, 50, seed=1):
            frame = build_frame(chart, locus, t)
            G = chart.geometry(frame.base).G
            assert frame.orthonormality_defect(G) < 1e-10
            # normal half is J of the tangent half, exactly
            for a in range(frame.n):
                je = apply_J(RealTangent(frame.tangent[a], frame.base))
                assert np.array_equal(frame.normal[a], je.components)


def test_rp1_frame_is_normalized_x_direction():
    chart = builtin_cpn(1).chart
    locus = builtin_cpn(1).locus
    frame = build_frame(chart, locus, (0.4,))
    G = chart.geometry(frame.base).G
    expected = np.array([1.0, 0.0]) / np.sqrt(G[0, 0])
    assert frame.tangent[0] == pytest.approx(expected)


def test_flat_slice_frame_is_rescaled_basis():
    bundle = builtin_flat_torus(2)
    frame = build_frame(bundle.chart, bundle.locus, (0.1, -0.2))
    # G = 2 Id, so the frame is the x-basis divided by sqrt(2)
    want = np.zeros((2, 4))
    want[0, 0] = want[1, 2] = 1.0 / np.sqrt(2.0)
    assert frame.tangent == pytest.approx(want)


def test_rank_deficient_parametrization_raises():
    degenerate = FixedLocusParam(
        components=("t1", "t1"), box=((-1.0, 1.0),) * 2, label="collapsed"
    )
    with pytest.raises(RankDeficiencyError):
        build_frame(FLAT2, degenerate, (0.2, 0.3))


def jet_gram_schmidt(lg):
    """The frame as jets in the parameters: Gram-Schmidt of the tangent field
    jets (one re-orthogonalization pass) under the metric jets on the locus,
    which come from the joint expansion of the potential."""
    Gt = lg.metric_jets_on_locus

    def inner(X, Y):
        return sum(Gt[a][b] * X[a] * Y[b] for a in range(len(X)) for b in range(len(Y)))

    es = []
    for vec in lg.tangent_field_jets:
        u = list(vec)
        for _ in range(2):
            for e in es:
                c = inner(u, e)
                u = [ua - c * ea for ua, ea in zip(u, e)]
        inv_norm = inner(u, u).pow(-0.5)
        es.append([inv_norm * ua for ua in u])
    return es


def test_first_order_frame_matches_jet_gram_schmidt():
    for bundle in (builtin_cpn(2), builtin_quadric(2), builtin_toric_fs(2)):
        for t in sample_parameters(bundle.locus, 3, seed=9):
            lg = locus_geometry(bundle.chart, bundle.locus, t)
            es = jet_gram_schmidt(lg)
            E = np.array([[comp.value.real for comp in e] for e in es])
            assert np.max(np.abs(lg.frame.tangent - E)) < 1e-12
            C = lg.frame_in_param_basis
            gamma, G = lg.geom.christoffel, lg.geom.G
            worst = 0.0
            for a in range(lg.m):
                for b in range(lg.m):
                    directional = np.array(
                        [
                            sum(C[a, d] * comp.deriv(d).value.real for d in range(lg.m))
                            for comp in es[b]
                        ]
                    )
                    want = directional + np.einsum("kij,i,j->k", gamma, E[a], E[b])
                    assert np.max(np.abs(lg.ambient_derivative(a, b) - want)) < 1e-12
                    h = want - E.T @ (E @ G @ want)
                    worst = max(worst, float(np.sqrt(h @ G @ h)))
            assert abs(lg.sff_max_norm - worst) < 1e-12


def test_black_box_frame_needs_no_joint_expansion():
    # the frame reads only the chart geometry, so a callable potential works;
    # the joint expansion behind the intrinsic-curvature oracle refuses it
    black_box = PotentialChart(1, lambda xy: float(xy @ xy), ((-1.0, 1.0),) * 2, label="bb")
    lg = locus_geometry(black_box, FixedLocusParam(("t1",), ((-1.0, 1.0),)), (0.2,))
    assert lg.frame.tangent == pytest.approx(np.array([[1.0, 0.0]]) / np.sqrt(2.0))
    assert lg.sff_max_norm < 1e-6
    with pytest.raises(NonAnalyticFieldError):
        lg.intrinsic_curvature


def test_totally_real_residuals():
    for bundle in (builtin_cpn(2), builtin_cpn(3)):
        for t in sample_parameters(bundle.locus, 10, seed=2):
            lp = locus_point(bundle.chart, bundle.locus, t)
            assert totally_real_residual(bundle.chart, lp) < 1e-10
    q = builtin_quadric(2)
    for t in sample_parameters(q.locus, 10, seed=3):
        lp = locus_point(q.chart, q.locus, t)
        assert totally_real_residual(q.chart, lp) < 1e-9
    # the complex line keeps J of its tangent inside the tangent space
    lp = locus_point(FLAT2, complex_line_locus(), (0.2, -0.3))
    assert totally_real_residual(FLAT2, lp) == pytest.approx(1.0, abs=1e-8)


def test_projection_identities():
    bundle = builtin_cpn(2)
    chart, mp = bundle.chart, bundle.mapping
    lp = locus_point(chart, bundle.locus, (0.25, -0.4))
    es = lp.frame.tangent_vectors()
    vt, vp = project_tn(mp, chart, lp.point, es[0])
    assert np.array_equal(vt.components, es[0].components)
    assert np.max(np.abs(vp.components)) == 0.0
    je = apply_J(es[0])
    vt, vp = project_tn(mp, chart, lp.point, je)
    assert np.max(np.abs(vt.components)) == 0.0
    assert np.array_equal(vp.components, je.components)
    rng = np.random.default_rng(5)
    G = chart.geometry(lp.point).G
    for _ in range(25):
        v = RealTangent(rng.standard_normal(4), lp.point)
        vt, vp = project_tn(mp, chart, lp.point, v)
        # exact decomposition and orthogonality of the parts
        assert np.array_equal(vt.components + vp.components, v.components)
        assert abs(vt.components @ G @ vp.components) < 1e-10
        # J swaps the tangent and normal projections
        jv = apply_J(v)
        jvt, jvp = project_tn(mp, chart, lp.point, jv)
        assert np.max(np.abs(apply_J(vt).components - jvp.components)) < 1e-12
        assert np.max(np.abs(apply_J(vp).components - jvt.components)) < 1e-12
        # idempotence: projecting the tangent part returns it unchanged
        vtt, vtp = project_tn(mp, chart, lp.point, vt)
        assert np.array_equal(vtt.components, vt.components)
        assert np.max(np.abs(vtp.components)) == 0.0


def test_second_fundamental_form_vanishes_on_real_forms():
    for n in (1, 2, 3):
        bundle = builtin_cpn(n)
        for t in sample_parameters(bundle.locus, 6, seed=4):
            assert sff_max_norm(bundle.chart, bundle.locus, t) < 1e-8
    for n in (1, 2):
        q = builtin_quadric(n)
        for t in sample_parameters(q.locus, 6, seed=5):
            assert sff_max_norm(q.chart, q.locus, t) < 1e-7


def test_second_fundamental_form_symmetry():
    q = builtin_quadric(2)
    lp_t = (0.21, -0.17)
    for a in range(2):
        for b in range(2):
            hab = second_fundamental_form(q.chart, q.locus, lp_t, a, b).components
            hba = second_fundamental_form(q.chart, q.locus, lp_t, b, a).components
            assert np.max(np.abs(hab - hba)) < 1e-9


def test_circle_control_recovers_classical_curvature():
    # euclidean plane: a circle of radius r has curvature 1/r
    for r in (0.5, 1.0, 2.0):
        h = sff_max_norm(EUCLID1, circle_locus(r), (0.15,))
        assert h == pytest.approx(1.0 / r, rel=0.05)


def test_restricted_ricci_curve_and_flat():
    b1 = builtin_cpn(1)
    lp = locus_point(b1.chart, b1.locus, (0.3,))
    e1 = lp.frame.tangent_vectors()[0]
    assert restricted_ricci(b1.chart, lp, e1, e1) == pytest.approx(0.0, abs=1e-10)
    bf = builtin_flat_torus(2)
    lp = locus_point(bf.chart, bf.locus, (0.1, 0.2))
    es = lp.frame.tangent_vectors()
    assert restricted_ricci(bf.chart, lp, es[0], es[1]) == pytest.approx(0.0, abs=1e-12)


def test_restricted_ricci_matches_intrinsic_oracle():
    b2 = builtin_cpn(2)
    for t in sample_parameters(b2.locus, 5, seed=6):
        lp = locus_point(b2.chart, b2.locus, t)
        es = lp.frame.tangent_vectors()
        via_split = np.array(
            [
                [restricted_ricci(b2.chart, lp, es[a], es[b]) for b in range(2)]
                for a in range(2)
            ]
        )
        assert via_split == pytest.approx(via_split.T, abs=1e-10)
        via_param = intrinsic_ricci_on_frame(b2.chart, lp)
        assert np.max(np.abs(via_split - via_param)) < 1e-6


def test_restricted_ricci_guards_geodesic_hypothesis():
    lp = locus_point(EUCLID1, circle_locus(1.0), (0.15,))
    e1 = lp.frame.tangent_vectors()[0]
    with pytest.raises(HypothesesNotVerifiedError):
        restricted_ricci(EUCLID1, lp, e1, e1)


def test_lagrangian_residuals():
    b2 = builtin_cpn(2)
    for t in sample_parameters(b2.locus, 8, seed=7):
        lp = locus_point(b2.chart, b2.locus, t)
        assert lagrangian_residual(b2.chart, lp) < 1e-10
    b1 = builtin_cpn(1)
    lp1 = locus_point(b1.chart, b1.locus, (0.4,))
    assert lagrangian_residual(b1.chart, lp1) == 0.0
    # on the complex line w(e, Je) = G(Je, Je) = 1 for the orthonormal frame
    lp = locus_point(FLAT2, complex_line_locus(), (0.2, -0.3))
    assert lagrangian_residual(FLAT2, lp) == pytest.approx(1.0, abs=1e-8)


def test_frame_trace_identity():
    # summing Rm over the full frame reproduces the ambient Ricci
    b2 = builtin_cpn(2)
    for i, t in enumerate(sample_parameters(b2.locus, 4, seed=8)):
        lp = locus_point(b2.chart, b2.locus, t)
        geom = b2.chart.geometry(lp.point)
        v, w = random_tangents(lp.point, 2, seed=i)
        total = 0.0
        for e in lp.frame.tangent_vectors() + lp.frame.normal_vectors():
            total += riemann_real(b2.chart, lp.point, e, v, w, e)
        assert total == pytest.approx(geom.ricci_real(v, w), abs=1e-8)
        oracle = laplace_log_det_ricci(geom)
        assert total == pytest.approx(ricci_pairing(oracle, v, w), abs=1e-8)


def test_one_locus_jacobian_per_locus_point(monkeypatch):
    # the stage-4 rank test, locus_point and the frame's parameter
    # coefficients all read the Jacobian cached on the locus geometry
    locus_module._locus_geometry.cache_clear()
    calls = []
    jacobian = FixedLocusParam.jacobian

    def counting(self, t):
        calls.append(t)
        return jacobian(self, t)

    monkeypatch.setattr(FixedLocusParam, "jacobian", counting)
    report = verdict(builtin_cpn(2), SamplingConfig(8, 8, seed=3))
    counts = report.data["counts"]
    assert report.exit_code == 0
    assert counts["locus_admitted"] == 8
    assert len(calls) == 8
