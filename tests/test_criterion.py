"""Trace operator, spectral test, and their invariances."""

import numpy as np
import pytest

from einlocus import (
    ChartGeometry,
    ChartPoint,
    LocusGeometry,
    PotentialChart,
    SamplingConfig,
    Tolerances,
    builtin_cpn,
    builtin_flat_torus,
    locus_point,
    spectral_test,
    trace_operator_at,
    verdict,
)
from einlocus.criterion import map_normal_projector
from einlocus.sampling import sample_parameters

from conftest import j_normal_curvature, riemann, rotated_frame

TOL = Tolerances()


def spectral(M):
    """The spectral test at the default tolerances."""
    return spectral_test(M, TOL.tol_sym, TOL.tol_eig)


def projector(bundle, lp):
    return map_normal_projector(bundle.mapping, lp.point)


def reframed(lp, Q):
    """A fresh, uncached locus geometry at the same point on the frame
    rotated by Q."""
    out = LocusGeometry(lp.chart, lp.locus, lp.t)
    out._cache["frame"] = rotated_frame(lp.frame, Q)
    return out


def test_flat_trace_operator_vanishes():
    b = builtin_flat_torus(2)
    lp = locus_point(b.chart, b.locus, (0.1, -0.2))
    op = trace_operator_at(lp, projector(b, lp))
    assert np.max(np.abs(op.matrix)) < 1e-13
    es = lp.frame.tangent
    out = j_normal_curvature(lp, es[0], es[1], es[0], projector(b, lp))
    assert np.max(np.abs(out)) < 1e-13


def test_output_is_tangent_to_locus():
    b = builtin_cpn(2)
    for t in sample_parameters(b.locus, 6, seed=1):
        lp = locus_point(b.chart, b.locus, t)
        G = b.chart.geometry(lp.point).G
        es = lp.frame.tangent
        for zeta in es:
            for eta in es:
                out = j_normal_curvature(lp, zeta, eta, zeta, projector(b, lp))
                for je in lp.frame.normal:
                    assert abs(out @ G @ je) < 1e-9


def test_dimension_one_trace_matches_single_component():
    b = builtin_cpn(1)
    lp = locus_point(b.chart, b.locus, (0.35,))
    e1 = lp.frame.tangent[0]
    op = trace_operator_at(lp, projector(b, lp))
    sv = spectral(op.matrix)
    out = j_normal_curvature(lp, e1, e1, e1, projector(b, lp))
    G = b.chart.geometry(lp.point).G
    # the operator sends e1 to -C e1
    assert float(out @ G @ e1) == pytest.approx(-sv.C_est, abs=1e-10)


def test_two_routes_agree_and_projectors_match():
    for bundle in (builtin_cpn(2), builtin_quadric_2()):
        for t in sample_parameters(bundle.locus, 5, seed=2):
            lp = locus_point(bundle.chart, bundle.locus, t)
            assert trace_operator_at(lp, projector(bundle, lp)).route_agreement < 1e-8
            # the map's splitting projector is the G-orthogonal projector
            # onto the span of the normal frame
            N = lp.frame.normal
            assert np.max(np.abs(N.T @ N @ lp.geom.G - projector(bundle, lp))) < 1e-9


def builtin_quadric_2():
    from einlocus import builtin_quadric

    return builtin_quadric(2)


def test_frame_rotation_conjugates_operator():
    b = builtin_cpn(2)
    lp = locus_point(b.chart, b.locus, (0.3, 0.2))
    op = trace_operator_at(lp, projector(b, lp))
    rng = np.random.default_rng(7)
    for _ in range(5):
        A = rng.standard_normal((2, 2))
        Q, _ = np.linalg.qr(A)
        rotated = trace_operator_at(reframed(lp, Q), projector(b, lp))
        assert np.max(np.abs(rotated.matrix - Q.T @ op.matrix @ Q)) < 1e-9


def test_real_form_of_cp2_constant_operator():
    b = builtin_cpn(2)
    values = []
    for t in sample_parameters(b.locus, 50, seed=3):
        lp = locus_point(b.chart, b.locus, t)
        op = trace_operator_at(lp, projector(b, lp))
        off = op.matrix - np.diag(np.diag(op.matrix))
        assert np.max(np.abs(off)) < 1e-9
        values.extend(np.diag(op.matrix).tolist())
    values = np.array(values)
    assert np.max(np.abs(values - np.median(values))) < 1e-7


def test_mixed_trace_symmetry_and_route_sign():
    b = builtin_cpn(2)
    for t in sample_parameters(b.locus, 4, seed=4):
        lp = locus_point(b.chart, b.locus, t)
        M = lp.mixed_curvature
        assert M[0, 1] == pytest.approx(M[1, 0], abs=1e-9)
        op = trace_operator_at(lp, projector(b, lp))
        assert np.max(np.abs(op.matrix + M.T)) < 1e-8


def test_mixed_trace_per_direction_structure():
    # dimension one: the single summand is the whole (proportional) trace
    b1 = builtin_cpn(1)
    lp = locus_point(b1.chart, b1.locus, (0.2,))
    e1, je1 = lp.frame.tangent[0], lp.frame.normal[0]
    geom = b1.chart.geometry(lp.point)
    single = riemann(geom, je1, e1, e1, je1)
    assert single == pytest.approx(lp.mixed_curvature[0, 0])
    # higher dimensions: the summed trace is proportional to the metric on
    # the frame even though individual summands are not
    b2 = builtin_cpn(2)
    lp2 = locus_point(b2.chart, b2.locus, (0.3, -0.1))
    M = lp2.mixed_curvature
    c = M[0, 0]
    assert M == pytest.approx(c * np.eye(2), abs=1e-9)


def test_spectral_test_arithmetic():
    sv = spectral(-3.0 * np.eye(3))
    assert sv.einstein and sv.C_est == pytest.approx(3.0)
    assert sv.eigenvalue_spread == 0.0
    sv = spectral_test(np.diag([-3.0, -3.5]), TOL.tol_sym, 0.01)
    assert not sv.einstein
    assert sv.eigenvalue_spread == pytest.approx(0.5 / 3.25)
    assert sv.C_est == pytest.approx(3.25)
    skew = np.array([[0.0, 1.0], [-1.0, 0.0]])
    sv = spectral(skew)
    assert not sv.einstein
    assert sv.complex_eigenvalues
    assert sv.symmetric_residual > 0.5


def test_verdict_frame_independence():
    # ten random orthogonal re-framings per point leave the verdict alone
    b = builtin_cpn(2)
    rng = np.random.default_rng(31)
    for t in sample_parameters(b.locus, 3, seed=9):
        lp = locus_point(b.chart, b.locus, t)
        base = spectral(trace_operator_at(lp, projector(b, lp)).matrix)
        for _ in range(10):
            Q, _r = np.linalg.qr(rng.standard_normal((2, 2)))
            rotated = spectral(trace_operator_at(reframed(lp, Q), projector(b, lp)).matrix)
            assert rotated.einstein == base.einstein
            assert rotated.C_est == pytest.approx(base.C_est, abs=1e-9)


def test_scale_covariance_of_constant():
    # scaling the potential by s scales the operator (hence C) by 1/s
    base = builtin_cpn(2)
    for s in (0.5, 2.0, 3.0):
        scaled_chart = PotentialChart(
            2,
            ("*", s, base.chart.potential),
            base.chart.box,
            label=f"fs-scaled-{s}",
        )
        t = (0.25, -0.35)
        lp0 = locus_point(base.chart, base.locus, t)
        lps = locus_point(scaled_chart, base.locus, t)
        c0 = spectral(trace_operator_at(lp0, projector(base, lp0)).matrix)
        cs = spectral(trace_operator_at(lps, projector(base, lps)).matrix)
        assert cs.C_est == pytest.approx(c0.C_est / s, rel=1e-7)
        assert cs.einstein == c0.einstein


def test_verdict_reads_curvature_off_one_tensor(monkeypatch):
    # every stage-5 quantity is a contraction of the per-point Riemann
    # tensor; the per-vector pairing stays a reference for the tests only
    calls = []
    per_vector = ChartGeometry.riemann_covector

    def counting(self, *vectors):
        calls.append(vectors)
        return per_vector(self, *vectors)

    monkeypatch.setattr(ChartGeometry, "riemann_covector", counting)
    report = verdict(builtin_cpn(3), SamplingConfig(10, 10, seed=0))
    assert report.exit_code == 0
    assert report.data["constants"]["C_est"] == pytest.approx(3.0, abs=1e-9)
    assert calls == []
