"""Frames, projections, second fundamental form, restricted Ricci."""

from dataclasses import replace

import numpy as np
import pytest

from einlocus import (
    AntiholoMap,
    ChartPoint,
    FixedLocusParam,
    LocusGeometry,
    ManifoldBundle,
    NonAnalyticFieldError,
    PotentialChart,
    RankDeficiencyError,
    SamplingConfig,
    builtin_cpn,
    builtin_flat_torus,
    builtin_quadric,
    builtin_toric_fs,
    j_matrix,
    lagrangian_residual,
    locus_point,
    make_builtin,
    restricted_ricci,
    totally_real_residual,
    verdict,
)
from einlocus.criterion import map_normal_projector
from einlocus.locus import intrinsic_ricci_on_frame
from einlocus.sampling import sample_parameters

from conftest import laplace_log_det_ricci, random_tangents, ricci_pairing, riemann

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
        J = j_matrix(chart.dimension)
        for t in sample_parameters(locus, 50, seed=1):
            lg = LocusGeometry(chart, locus, t)
            frame, G = lg.frame, lg.geom.G
            stacked = np.vstack([frame.tangent, frame.normal])
            assert np.max(np.abs(stacked @ G @ stacked.T - np.eye(len(stacked)))) < 1e-10
            # normal half is J of the tangent half, exactly
            assert np.array_equal(frame.normal, frame.tangent @ J.T)


def test_rp1_frame_is_normalized_x_direction():
    chart = builtin_cpn(1).chart
    locus = builtin_cpn(1).locus
    lg = LocusGeometry(chart, locus, (0.4,))
    frame, G = lg.frame, lg.geom.G
    expected = np.array([1.0, 0.0]) / np.sqrt(G[0, 0])
    assert frame.tangent[0] == pytest.approx(expected)


def test_flat_slice_frame_is_rescaled_basis():
    bundle = builtin_flat_torus(2)
    frame = LocusGeometry(bundle.chart, bundle.locus, (0.1, -0.2)).frame
    # G = 2 Id, so the frame is the x-basis divided by sqrt(2)
    want = np.zeros((2, 4))
    want[0, 0] = want[1, 2] = 1.0 / np.sqrt(2.0)
    assert frame.tangent == pytest.approx(want)


def test_rank_deficient_parametrization_raises():
    degenerate = FixedLocusParam(
        components=("t1", "t1"), box=((-1.0, 1.0),) * 2, label="collapsed"
    )
    with pytest.raises(RankDeficiencyError):
        LocusGeometry(FLAT2, degenerate, (0.2, 0.3)).frame
    # locus_point builds the frame, so the verdict's stage 4 sees the error
    with pytest.raises(RankDeficiencyError):
        locus_point(LocusGeometry(FLAT2, degenerate, (0.25, 0.35)))


def test_collapsing_parametrizations_are_rank_deficient_not_linalg_failures():
    # a nearly collapsed locus factors with a diagonal entry of 1e-12, below
    # RANK_TOL; an exactly collapsed one fails the Cholesky factorization.
    # Both are rank deficiencies: a LinAlgError would end a verdict as exit 4
    nearly = FixedLocusParam(
        components=("t1", ("+", "t1", ("*", 1e-12, "t2"))), box=((-1.0, 1.0),) * 2
    )
    with pytest.raises(RankDeficiencyError):
        LocusGeometry(FLAT2, nearly, (0.2, 0.3)).frame
    collapsed = FixedLocusParam(components=("t1", "t1"), box=((-0.5, 0.5),) * 2)
    conjugation = AntiholoMap((("conj", "w1"), ("conj", "w2")), declared_involution=True)
    for locus in (nearly, collapsed):
        report = verdict(
            ManifoldBundle(chart=FLAT2, mapping=conjugation, locus=locus, label="collapsed"),
            SamplingConfig(6, 6, seed=0),
        )
        counts = report.data["counts"]
        assert counts["locus_rank_deficient"] == counts["locus_requested"] > 0
        assert not any(w.startswith("numerical failure") for w in report.data["warnings"])


def test_locus_point_builds_the_frame_of_the_geometry_it_is_given():
    # one object per locus point: locus_point builds the frame on the
    # geometry stage 4 built and returns that very object
    bundle = builtin_cpn(2)
    t = (0.25, -0.4)
    lg = LocusGeometry(bundle.chart, bundle.locus, t)
    assert "frame" not in vars(lg)
    lp = locus_point(lg)
    assert lp is lg and "frame" in vars(lg)
    assert lp.frame is vars(lg)["frame"]


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
            lg = LocusGeometry(bundle.chart, bundle.locus, t)
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


def test_frame_reads_parameter_jets_of_order_two():
    # the frame's derivative reads second partials of the locus components;
    # lifted at order 2 they are those of the order-4 lift, bit for bit
    for bundle in (builtin_cpn(2), builtin_quadric(3), make_builtin("toric-fs", 4)):
        for t in sample_parameters(bundle.locus, 3, seed=4):
            lg = LocusGeometry(bundle.chart, bundle.locus, t)
            assert {w.order for w in lg.param_jets} == {2}
            for low, full in zip(lg.param_jets, bundle.locus.component_jets(t, order=4)):
                assert np.array_equal(low.derivative_tensor(2), full.derivative_tensor(2))
                assert np.array_equal(low.derivative_tensor(1), full.derivative_tensor(1))


def test_black_box_frame_needs_no_joint_expansion():
    # the frame reads only the chart geometry, so a callable potential works;
    # the joint expansion behind the intrinsic-curvature oracle refuses it
    black_box = PotentialChart(1, lambda xy: float(xy @ xy), ((-1.0, 1.0),) * 2, label="bb")
    lg = LocusGeometry(black_box, FixedLocusParam(("t1",), ((-1.0, 1.0),)), (0.2,))
    assert lg.frame.tangent == pytest.approx(np.array([[1.0, 0.0]]) / np.sqrt(2.0))
    assert lg.sff_max_norm < 1e-6
    with pytest.raises(NonAnalyticFieldError):
        intrinsic_ricci_on_frame(lg)


def test_totally_real_residuals():
    for bundle in (builtin_cpn(2), builtin_cpn(3)):
        for t in sample_parameters(bundle.locus, 10, seed=2):
            lp = LocusGeometry(bundle.chart, bundle.locus, t)
            assert totally_real_residual(lp) < 1e-10
    q = builtin_quadric(2)
    for t in sample_parameters(q.locus, 10, seed=3):
        lp = LocusGeometry(q.chart, q.locus, t)
        assert totally_real_residual(lp) < 1e-9
    # the complex line keeps J of its tangent inside the tangent space
    lp = LocusGeometry(FLAT2, complex_line_locus(), (0.2, -0.3))
    assert totally_real_residual(lp) == pytest.approx(1.0, abs=1e-8)


def split_tn(mapping, point, v):
    """v as (tangent, normal) parts through the map's splitting projector."""
    v_nor = map_normal_projector(mapping, point) @ v
    return v - v_nor, v_nor


def test_projection_identities():
    bundle = builtin_cpn(2)
    chart, mp = bundle.chart, bundle.mapping
    lp = LocusGeometry(chart, bundle.locus, (0.25, -0.4))
    e0, J = lp.frame.tangent[0], j_matrix(2)
    vt, vp = split_tn(mp, lp.point, e0)
    assert np.array_equal(vt, e0)
    assert np.max(np.abs(vp)) == 0.0
    je = J @ e0
    vt, vp = split_tn(mp, lp.point, je)
    assert np.max(np.abs(vt)) == 0.0
    assert np.array_equal(vp, je)
    rng = np.random.default_rng(5)
    G = lp.geom.G
    for _ in range(25):
        v = rng.standard_normal(4)
        vt, vp = split_tn(mp, lp.point, v)
        # exact decomposition and orthogonality of the parts
        assert np.array_equal(vt + vp, v)
        assert abs(vt @ G @ vp) < 1e-10
        # J swaps the tangent and normal projections
        jvt, jvp = split_tn(mp, lp.point, J @ v)
        assert np.max(np.abs(J @ vt - jvp)) < 1e-12
        assert np.max(np.abs(J @ vp - jvt)) < 1e-12
        # idempotence: projecting the tangent part returns it unchanged
        vtt, vtp = split_tn(mp, lp.point, vt)
        assert np.array_equal(vtt, vt)
        assert np.max(np.abs(vtp)) == 0.0


def test_second_fundamental_form_vanishes_on_real_forms():
    for n in (1, 2, 3):
        bundle = builtin_cpn(n)
        for t in sample_parameters(bundle.locus, 6, seed=4):
            assert LocusGeometry(bundle.chart, bundle.locus, t).sff_max_norm < 1e-8
    for n in (1, 2):
        q = builtin_quadric(n)
        for t in sample_parameters(q.locus, 6, seed=5):
            assert LocusGeometry(q.chart, q.locus, t).sff_max_norm < 1e-7


def test_second_fundamental_form_symmetry():
    q = builtin_quadric(2)
    lg = LocusGeometry(q.chart, q.locus, (0.21, -0.17))
    for a in range(2):
        for b in range(2):
            hab = lg.second_fundamental_form(a, b)
            hba = lg.second_fundamental_form(b, a)
            assert np.max(np.abs(hab - hba)) < 1e-9


def test_circle_control_recovers_classical_curvature():
    # euclidean plane: a circle of radius r has curvature 1/r
    for r in (0.5, 1.0, 2.0):
        h = LocusGeometry(EUCLID1, circle_locus(r), (0.15,)).sff_max_norm
        assert h == pytest.approx(1.0 / r, rel=0.05)


def test_restricted_ricci_curve_and_flat():
    b1 = builtin_cpn(1)
    lp = LocusGeometry(b1.chart, b1.locus, (0.3,))
    assert restricted_ricci(lp) == pytest.approx(np.zeros((1, 1)), abs=1e-10)
    bf = builtin_flat_torus(2)
    lp = LocusGeometry(bf.chart, bf.locus, (0.1, 0.2))
    assert restricted_ricci(lp) == pytest.approx(np.zeros((2, 2)), abs=1e-12)


def test_restricted_ricci_matches_intrinsic_oracle():
    b2 = builtin_cpn(2)
    for t in sample_parameters(b2.locus, 5, seed=6):
        lp = LocusGeometry(b2.chart, b2.locus, t)
        via_split = restricted_ricci(lp)
        assert via_split.shape == (2, 2)
        assert via_split == pytest.approx(via_split.T, abs=1e-10)
        via_param = intrinsic_ricci_on_frame(lp)
        assert np.max(np.abs(via_split - via_param)) < 1e-6


@pytest.mark.parametrize("name, n", [("cpn", 2), ("quadric", 3), ("toric-fs", 2)])
def test_report_reads_kappa_off_restricted_ricci(name, n):
    # kappa_est and restricted_einstein_spread are the median trace and the
    # spread of restricted_ricci at the report's locus points, to the bit
    bundle = make_builtin(name, n)
    report = verdict(bundle, SamplingConfig(8, 8, seed=3))
    kappas, spreads = [], []
    for point in report.data["spectral"]["per_point"]:
        R = restricted_ricci(LocusGeometry(bundle.chart, bundle.locus, point["t"]))
        kappa = float(np.trace(R) / R.shape[0])
        kappas.append(kappa)
        spreads.append(
            float(np.linalg.norm(R - kappa * np.eye(R.shape[0])) / max(1.0, abs(kappa)))
        )
    assert report.data["constants"]["kappa_est"] == float(np.median(kappas))
    assert report.data["checks"]["restricted_einstein_spread"] == {
        "count": len(spreads),
        "min": min(spreads),
        "median": float(np.median(spreads)),
        "max": max(spreads),
    }


def test_lagrangian_residuals():
    b2 = builtin_cpn(2)
    for t in sample_parameters(b2.locus, 8, seed=7):
        lp = LocusGeometry(b2.chart, b2.locus, t)
        assert lagrangian_residual(lp) < 1e-10
    b1 = builtin_cpn(1)
    lp1 = LocusGeometry(b1.chart, b1.locus, (0.4,))
    assert lagrangian_residual(lp1) == 0.0
    # on the complex line w(e, Je) = G(Je, Je) = 1 for the orthonormal frame
    lp = LocusGeometry(FLAT2, complex_line_locus(), (0.2, -0.3))
    assert lagrangian_residual(lp) == pytest.approx(1.0, abs=1e-8)


def test_frame_trace_identity():
    # summing Rm over the full frame reproduces the ambient Ricci
    b2 = builtin_cpn(2)
    for i, t in enumerate(sample_parameters(b2.locus, 4, seed=8)):
        lp = LocusGeometry(b2.chart, b2.locus, t)
        geom = lp.geom
        v, w = random_tangents(lp.point, 2, seed=i)
        total = 0.0
        for e in np.vstack([lp.frame.tangent, lp.frame.normal]):
            total += riemann(geom, e, v, w, e)
        assert total == pytest.approx(geom.ricci_real(v, w), abs=1e-8)
        oracle = laplace_log_det_ricci(geom)
        assert total == pytest.approx(ricci_pairing(oracle, v, w), abs=1e-8)


def test_one_locus_jacobian_per_locus_point(monkeypatch):
    # the stage-4 rank test, locus_point and the frame's parameter
    # coefficients all read the Jacobian cached on the locus geometry
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


def test_stage_four_evaluates_each_parameter_once(monkeypatch):
    # admission, the fixed-locus residual and the locus geometry share the
    # point the locus geometry evaluates
    calls = []
    point = FixedLocusParam.point

    def counting(self, t):
        calls.append(tuple(t))
        return point(self, t)

    monkeypatch.setattr(FixedLocusParam, "point", counting)
    report = verdict(builtin_cpn(2), SamplingConfig(10, 10))
    assert report.exit_code == 0
    assert report.data["counts"]["locus_requested"] == 10
    assert len(calls) == len(set(calls)) == 10


def test_verdict_fails_locus_rank_on_a_locus_of_the_wrong_dimension():
    # m = 1 parameter on an n = 2 chart: the gate fails before any locus sample
    bundle = builtin_cpn(2)
    curve = FixedLocusParam(components=("t1", 0.0), box=((-1.0, 1.0),))
    report = verdict(replace(bundle, locus=curve), SamplingConfig(4, 4, seed=0))
    assert report.exit_code == 3
    assert report.data["hypotheses"]["locus_rank"] == {"passed": False, "worst": 1.0, "tolerance": 0.5}
    assert "locus_requested" not in report.data["counts"]
    assert any("m = 1" in w and "n = 2" in w for w in report.data["warnings"])
