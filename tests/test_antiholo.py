"""Anti-holomorphic maps: residuals, pullbacks, fixed loci."""

from dataclasses import replace

import numpy as np
import pytest

from einlocus import (
    AntiholoMap,
    ChartPoint,
    FixedLocusParam,
    PotentialChart,
    RealTangent,
    SamplingConfig,
    anti_isometry_residual,
    antiholomorphy_residual,
    apply_J,
    builtin_cpn,
    builtin_toric_fs,
    einstein_residual,
    find_fixed_point,
    fixed_locus_residual,
    isometry_residual,
    metric_at,
    potential_invariance_residual,
    pullback_potential,
    pushforward,
    verdict,
)
from einlocus.antiholo import involution_residual, pullback_consistency_residual

from conftest import admitted_points

CONJ1 = AntiholoMap((("conj", "w1"),), declared_involution=True, label="conj")
FLAT1 = PotentialChart(1, ("abs2", "w1"), ((-2.0, 2.0),) * 2, label="flat-1")
FS1 = builtin_cpn(1).chart
FS2 = builtin_cpn(2).chart
CONJ2 = builtin_cpn(2).mapping


def test_pushforward_conjugation():
    p = ChartPoint((0.5 + 0.0j,))
    out = pushforward(CONJ1, p, RealTangent(np.array([1.0, 0.0]), p))
    assert np.array_equal(out.components, np.array([1.0, 0.0]))
    out = pushforward(CONJ1, p, RealTangent(np.array([0.0, 1.0]), p))
    assert np.array_equal(out.components, np.array([0.0, -1.0]))


def test_pushforward_fixes_locus_tangents():
    # on the fixed locus the differential is the identity on tangents and
    # minus the identity on their J-images
    b = builtin_cpn(2)
    p = ChartPoint((0.3 + 0.0j, -0.7 + 0.0j))
    v = RealTangent(np.array([0.2, 0.0, -1.3, 0.0]), p)  # tangent to the real slice
    assert np.allclose(pushforward(b.mapping, p, v).components, v.components)
    jv = apply_J(v)
    assert np.allclose(pushforward(b.mapping, p, jv).components, -jv.components)


def test_antiholomorphy_residual():
    for p in admitted_points(FS1, 6, seed=1):
        assert antiholomorphy_residual(CONJ1, p) < 1e-12
    square = AntiholoMap((("pow", "w1", 2),), label="square")
    assert antiholomorphy_residual(square, ChartPoint((1.0,))) > 0.1


def test_isometry_residual():
    for p in admitted_points(FS2, 8, seed=2):
        assert isometry_residual(CONJ2, FS2, p) < 1e-9
    translate = AntiholoMap((("+", ("conj", "w1"), 1),), label="conj+1")
    p = ChartPoint((0.3 - 0.2j,))
    assert isometry_residual(translate, FLAT1, p) < 1e-12
    double = AntiholoMap((("*", 2, ("conj", "w1")),), label="2conj")
    wide = PotentialChart(1, FS1.potential, ((-3.0, 3.0),) * 2, label="fs-wide")
    assert isometry_residual(double, wide, ChartPoint((1.0,))) > 0.1


def test_anti_isometry_residual():
    for p in admitted_points(FS2, 8, seed=3):
        assert anti_isometry_residual(CONJ2, FS2, p) < 1e-9
    # a holomorphic rotation pulls the form back to itself: defect is 2
    theta = 0.7
    rot = AntiholoMap(
        ((("*", ("+", np.cos(theta), ("*", np.sin(theta), "I")), "w1")),),
        label="rotation",
    )
    assert anti_isometry_residual(rot, FLAT1, ChartPoint((0.4 + 0.3j,))) == pytest.approx(2.0)


def test_potential_invariance():
    for p in admitted_points(FS2, 6, seed=4):
        assert potential_invariance_residual(CONJ2, FS2, p) < 1e-14
    toric = builtin_toric_fs(2)
    for p in admitted_points(toric.chart, 6, seed=5):
        assert potential_invariance_residual(toric.mapping, toric.chart, p) < 1e-14
    translate = AntiholoMap((("+", ("conj", "w1"), 1),), label="conj+1")
    w = 0.3 - 0.2j
    got = potential_invariance_residual(translate, FLAT1, ChartPoint((w,)))
    assert got == pytest.approx(abs(2 * w.real + 1))


def test_implication_chain_on_builtin_samples():
    # anti-isometry within 1e-9 implies isometry within 1e-8, and potential
    # invariance within 1e-12 implies anti-isometry within 1e-8
    for bundle in (builtin_cpn(2), builtin_toric_fs(2)):
        chart, mp = bundle.chart, bundle.mapping
        for p in admitted_points(chart, 10, seed=6):
            pot = potential_invariance_residual(mp, chart, p)
            anti = anti_isometry_residual(mp, chart, p)
            iso = isometry_residual(mp, chart, p)
            if anti < 1e-9:
                assert iso < 1e-8
            if pot < 1e-12:
                assert anti < 1e-8


def test_pullback_potential_flat_scaling():
    double = AntiholoMap((("*", 2, ("conj", "w1")),), label="2conj")
    pulled = pullback_potential(double, FLAT1)
    p = ChartPoint((0.3 + 0.1j,))
    assert metric_at(pulled, p).matrix == pytest.approx(4.0 * np.eye(1))


def test_pullback_potential_conjugation_identity():
    pulled = pullback_potential(CONJ2, FS2)
    for p in admitted_points(FS2, 5, seed=7):
        assert metric_at(pulled, p).matrix == pytest.approx(
            metric_at(FS2, p).matrix, abs=1e-13
        )


def test_pullback_preserves_einstein_constant():
    pts = admitted_points(FS2, 12, seed=8)
    lam0, res0 = einstein_residual(FS2, pts)
    pulled = pullback_potential(CONJ2, FS2)
    lam1, res1 = einstein_residual(pulled, pts)
    assert lam1 == pytest.approx(lam0, abs=1e-7)
    assert abs(res1 - res0) < 1e-7


def test_pullback_internal_consistency():
    for p in admitted_points(FS2, 4, seed=9):
        assert pullback_consistency_residual(CONJ2, FS2, p) < 1e-12
    double = AntiholoMap((("*", 2, ("conj", "w1")),), label="2conj")
    for w in (0.1 + 0.2j, -0.3 + 0.4j):
        assert pullback_consistency_residual(double, FLAT1, ChartPoint((w,))) < 1e-12


def test_fixed_locus_residuals():
    b = builtin_cpn(3)
    for t in [(0.1, -0.5, 0.7), (0.0, 0.0, 0.0)]:
        assert fixed_locus_residual(b.mapping, b.locus, t) == 0.0
    eps = 1e-3
    offset = FixedLocusParam(
        components=(("+", "t1", ("*", eps, "I")),), box=((-1.0, 1.0),), label="offset"
    )
    got = fixed_locus_residual(CONJ1, offset, (0.3,))
    assert eps <= got <= 3 * eps  # construction: the gap is 2 eps


def test_involution_residual():
    for p in admitted_points(FS2, 4, seed=10):
        assert involution_residual(CONJ2, p) == 0.0
    not_inv = AntiholoMap((("*", 2, ("conj", "w1")),), label="2conj")
    assert involution_residual(not_inv, ChartPoint((1.0,))) == pytest.approx(3.0)


def test_find_fixed_point_diagnostic():
    start = ChartPoint((0.4 + 0.3j,))
    found = find_fixed_point(CONJ1, start)
    assert abs(found.holo[0].imag) < 1e-10


def test_stage_two_applies_the_map_once_per_ambient_point(monkeypatch):
    # with no locus and no declared involution, only the stage-2 residual
    # loop applies the map: the image is computed once and shared by the
    # isometry, anti-isometry and potential-invariance residuals
    cpn2 = builtin_cpn(2)
    bundle = replace(cpn2, mapping=replace(cpn2.mapping, declared_involution=False), locus=None)
    calls = []
    apply = AntiholoMap.apply

    def counting(self, point):
        calls.append(point)
        return apply(self, point)

    monkeypatch.setattr(AntiholoMap, "apply", counting)
    report = verdict(bundle, SamplingConfig(12, 12, seed=0))
    assert not report.data["hypotheses"]["locus_present"]["passed"]
    assert report.data["counts"]["map_escapes"] == 0
    assert len(calls) == report.data["counts"]["ambient_admitted"] == 12
