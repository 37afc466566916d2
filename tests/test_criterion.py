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
    spectral_test,
    trace_operator_at,
    verdict,
)
from einlocus.antiholo import FixedLocusParam
from einlocus.bundles import ManifoldBundle, builtin_quadric, builtin_toric_fs
from einlocus.coords import j_matrix
from einlocus.criterion import map_normal_projector
from einlocus.sampling import sample_parameters

from conftest import j_normal_curvature, riemann, riemann_tensor, rotated_frame

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
    vars(out)["frame"] = rotated_frame(lp.frame, Q)
    return out


def test_flat_trace_operator_vanishes():
    b = builtin_flat_torus(2)
    lp = LocusGeometry(b.chart, b.locus, (0.1, -0.2))
    op = trace_operator_at(lp, projector(b, lp))
    assert np.max(np.abs(op.matrix)) < 1e-13
    es = lp.frame.tangent
    out = j_normal_curvature(lp, es[0], es[1], es[0], projector(b, lp))
    assert np.max(np.abs(out)) < 1e-13


def test_output_is_tangent_to_locus():
    b = builtin_cpn(2)
    for t in sample_parameters(b.locus, 6, seed=1):
        lp = LocusGeometry(b.chart, b.locus, t)
        G = lp.geom.G
        es = lp.frame.tangent
        for zeta in es:
            for eta in es:
                out = j_normal_curvature(lp, zeta, eta, zeta, projector(b, lp))
                for je in lp.frame.normal:
                    assert abs(out @ G @ je) < 1e-9


def test_dimension_one_trace_matches_single_component():
    b = builtin_cpn(1)
    lp = LocusGeometry(b.chart, b.locus, (0.35,))
    e1 = lp.frame.tangent[0]
    op = trace_operator_at(lp, projector(b, lp))
    sv = spectral(op.matrix)
    out = j_normal_curvature(lp, e1, e1, e1, projector(b, lp))
    G = lp.geom.G
    # the operator sends e1 to -C e1
    assert float(out @ G @ e1) == pytest.approx(-sv.C_est, abs=1e-10)


def test_two_routes_agree_and_projectors_match():
    for bundle in (builtin_cpn(2), builtin_quadric_2()):
        for t in sample_parameters(bundle.locus, 5, seed=2):
            lp = LocusGeometry(bundle.chart, bundle.locus, t)
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
    lp = LocusGeometry(b.chart, b.locus, (0.3, 0.2))
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
        lp = LocusGeometry(b.chart, b.locus, t)
        op = trace_operator_at(lp, projector(b, lp))
        off = op.matrix - np.diag(np.diag(op.matrix))
        assert np.max(np.abs(off)) < 1e-9
        values.extend(np.diag(op.matrix).tolist())
    values = np.array(values)
    assert np.max(np.abs(values - np.median(values))) < 1e-7


def test_mixed_trace_symmetry_and_route_sign():
    b = builtin_cpn(2)
    for t in sample_parameters(b.locus, 4, seed=4):
        lp = LocusGeometry(b.chart, b.locus, t)
        M = lp.mixed_curvature
        assert M[0, 1] == pytest.approx(M[1, 0], abs=1e-9)
        op = trace_operator_at(lp, projector(b, lp))
        assert np.max(np.abs(op.matrix + M.T)) < 1e-8


def test_mixed_trace_per_direction_structure():
    # dimension one: the single summand is the whole (proportional) trace
    b1 = builtin_cpn(1)
    lp = LocusGeometry(b1.chart, b1.locus, (0.2,))
    e1, je1 = lp.frame.tangent[0], lp.frame.normal[0]
    geom = lp.geom
    single = riemann(geom, je1, e1, e1, je1)
    assert single == pytest.approx(lp.mixed_curvature[0, 0])
    # higher dimensions: the summed trace is proportional to the metric on
    # the frame even though individual summands are not
    b2 = builtin_cpn(2)
    lp2 = LocusGeometry(b2.chart, b2.locus, (0.3, -0.1))
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
        lp = LocusGeometry(b.chart, b.locus, t)
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
        lp0 = LocusGeometry(base.chart, base.locus, t)
        lps = LocusGeometry(scaled_chart, base.locus, t)
        c0 = spectral(trace_operator_at(lp0, projector(base, lp0)).matrix)
        cs = spectral(trace_operator_at(lps, projector(base, lps)).matrix)
        assert cs.C_est == pytest.approx(c0.C_est / s, rel=1e-7)
        assert cs.einstein == c0.einstein


def test_verdict_reads_curvature_off_one_tensor(monkeypatch):
    # every stage-5 quantity is a contraction of the per-point complex
    # curvature tensor over the frame; the per-vector pairing stays a
    # reference for the tests only
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


def real_tensor_frame_sums(lp, projector):
    """(mixed trace, trace matrix) contracted from the real (2n)^4 Riemann
    tensor over the frames E and N: the reference for the complex form."""
    geom, E, N = lp.geom, lp.frame.tangent, lp.frame.normal
    Rm = riemann_tensor(geom)
    mixed = E @ np.tensordot(N.T @ N, Rm, axes=([0, 1], [0, 3])) @ E.T
    cov = E @ np.tensordot(N.T @ E, Rm, axes=([0, 1], [0, 2]))
    M = E @ geom.G @ (j_matrix(lp.n) @ projector @ geom.G_inv @ cov.T)
    return mixed, M


def product_bundle():
    """CP^1 x CP^2 scaled to a common Einstein constant: not Einstein on its
    real form, so the trace matrix is not a multiple of the identity."""
    cpn3 = builtin_cpn(3)
    psi = (
        "+",
        ("*", 2, ("log", ("+", 1, ("abs2", "w1")))),
        ("*", 3, ("log", ("+", 1, ("abs2", "w2"), ("abs2", "w3")))),
    )
    chart = PotentialChart(3, psi, ((-1.0, 1.0),) * 6, label="product")
    locus = FixedLocusParam(("t1", "t2", "t3"), ((-1.0, 1.0),) * 3)
    return ManifoldBundle(chart, cpn3.mapping, locus, label="product")


@pytest.mark.parametrize(
    "build",
    [
        lambda: builtin_cpn(2),
        lambda: builtin_cpn(6),
        lambda: builtin_quadric(3),
        lambda: builtin_toric_fs(2),
        product_bundle,
    ],
    ids=["cpn-2", "cpn-6", "quadric-3", "toric-fs-2", "product"],
)
def test_complex_frame_sums_match_real_tensor(build):
    bundle = build()
    for t in sample_parameters(bundle.locus, 3, seed=5):
        lp = LocusGeometry(bundle.chart, bundle.locus, t)
        P = projector(bundle, lp)
        mixed, M = real_tensor_frame_sums(lp, P)
        scale = max(1.0, float(np.max(np.abs(M))))
        assert np.max(np.abs(lp.mixed_curvature - mixed)) < 1e-12 * scale
        assert np.max(np.abs(trace_operator_at(lp, P).matrix - M)) < 1e-12 * scale


def test_complex_frame_sums_match_real_tensor_on_a_rotated_frame():
    # the complex form reads the frame it is given, not the Gram-Schmidt one
    bundle = builtin_cpn(3)
    lp = LocusGeometry(bundle.chart, bundle.locus, (0.3, -0.2, 0.4))
    Q, _ = np.linalg.qr(np.random.default_rng(11).standard_normal((3, 3)))
    rotated, P = reframed(lp, Q), projector(bundle, lp)
    mixed, M = real_tensor_frame_sums(rotated, P)
    assert np.max(np.abs(rotated.mixed_curvature - mixed)) < 1e-12 * np.max(np.abs(M))
    assert np.max(np.abs(trace_operator_at(rotated, P).matrix - M)) < 1e-12 * np.max(np.abs(M))
    assert np.max(np.abs(rotated.mixed_curvature - Q.T @ lp.mixed_curvature @ Q)) < 1e-12
