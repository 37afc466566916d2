"""Anti-holomorphic maps: residuals, pullbacks, fixed loci."""

import math
from dataclasses import replace

import numpy as np
import pytest

from einlocus import (
    AntiholoMap,
    ChartPoint,
    DegenerateMetricError,
    FixedLocusParam,
    PotentialChart,
    SamplingConfig,
    Tolerances,
    anti_isometry_residual,
    antiholomorphy_residual,
    builtin_cpn,
    builtin_toric_fs,
    einstein_residual,
    fixed_locus_residual,
    isometry_residual,
    j_matrix,
    potential_invariance_residual,
    verdict,
)
from einlocus.antiholo import involution_residual
from einlocus.sampling import sample_parameters

from conftest import (
    admitted_points,
    map_geometries,
    pullback_consistency_residual,
    pullback_potential,
)

CONJ1 = AntiholoMap((("conj", "w1"),), declared_involution=True, label="conj")
FLAT1 = PotentialChart(1, ("abs2", "w1"), ((-2.0, 2.0),) * 2, label="flat-1")
FS1 = builtin_cpn(1).chart
FS2 = builtin_cpn(2).chart
CONJ2 = builtin_cpn(2).mapping


def test_pushforward_conjugation():
    p = ChartPoint((0.5 + 0.0j,))
    D = CONJ1.jacobian_real(p)
    assert np.array_equal(D @ np.array([1.0, 0.0]), np.array([1.0, 0.0]))
    assert np.array_equal(D @ np.array([0.0, 1.0]), np.array([0.0, -1.0]))


def test_pushforward_fixes_locus_tangents():
    # on the fixed locus the differential is the identity on tangents and
    # minus the identity on their J-images
    b = builtin_cpn(2)
    p = ChartPoint((0.3 + 0.0j, -0.7 + 0.0j))
    v = np.array([0.2, 0.0, -1.3, 0.0])  # tangent to the real slice
    D = b.mapping.jacobian_real(p)
    assert np.allclose(D @ v, v)
    jv = j_matrix(2) @ v
    assert np.allclose(D @ jv, -jv)


def test_antiholomorphy_residual():
    for p in admitted_points(FS1, 6, seed=1):
        assert antiholomorphy_residual(CONJ1, p) < 1e-12
    square = AntiholoMap((("pow", "w1", 2),), label="square")
    assert antiholomorphy_residual(square, ChartPoint((1.0,))) > 0.1


def test_isometry_residual():
    for p in admitted_points(FS2, 8, seed=2):
        assert isometry_residual(*map_geometries(CONJ2, FS2, p)) < 1e-9
    translate = AntiholoMap((("+", ("conj", "w1"), 1),), label="conj+1")
    p = ChartPoint((0.3 - 0.2j,))
    assert isometry_residual(*map_geometries(translate, FLAT1, p)) < 1e-12
    double = AntiholoMap((("*", 2, ("conj", "w1")),), label="2conj")
    wide = PotentialChart(1, FS1.potential, ((-3.0, 3.0),) * 2, label="fs-wide")
    assert isometry_residual(*map_geometries(double, wide, ChartPoint((1.0,)))) > 0.1


def test_anti_isometry_residual():
    for p in admitted_points(FS2, 8, seed=3):
        assert anti_isometry_residual(*map_geometries(CONJ2, FS2, p)) < 1e-9
    # a holomorphic rotation pulls the form back to itself: defect is 2
    theta = 0.7
    rot = AntiholoMap(
        ((("*", ("+", np.cos(theta), ("*", np.sin(theta), "I")), "w1")),),
        label="rotation",
    )
    args = map_geometries(rot, FLAT1, ChartPoint((0.4 + 0.3j,)))
    assert anti_isometry_residual(*args) == pytest.approx(2.0)


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
            args = map_geometries(mp, chart, p)
            anti, iso = anti_isometry_residual(*args), isometry_residual(*args)
            if anti < 1e-9:
                assert iso < 1e-8
            if pot < 1e-12:
                assert anti < 1e-8


def odd_perturbation(n, eps):
    """cpn-n plus eps |w1|^2 Im w1, a term that conjugation negates: the map
    stays anti-holomorphic and involutive but is no longer an isometry."""
    bundle = builtin_cpn(n)
    psi = ("+", bundle.chart.potential, ("*", eps, ("abs2", "w1"), ("im", "w1")))
    return replace(bundle, chart=replace(bundle.chart, potential=psi))


def test_anti_isometry_is_isometry_for_an_antiholomorphic_map():
    # for anti-holomorphic f, Df^T W(f(p)) Df + W(p) = -J^T (Df^T G(f(p)) Df - G(p)),
    # so the two residuals agree and the report keeps the isometry gate alone
    for n in (1, 2, 3):
        for eps in (1e-6, 1e-3, 0.1):
            bundle = odd_perturbation(n, eps)
            compared = 0
            for p in admitted_points(bundle.chart, 10, seed=0):
                try:
                    args = map_geometries(bundle.mapping, bundle.chart, p)
                    iso = isometry_residual(*args)
                except DegenerateMetricError:  # the image left the chart
                    continue
                assert iso > 0.0
                assert anti_isometry_residual(*args) == pytest.approx(iso, rel=1e-12, abs=0.0)
                compared += 1
            assert compared >= 5


def test_isometry_gate_ladder():
    # the isometry check is linear in the odd perturbation, with slope about
    # 68 on cpn-1, and the verdict flips where the slope crosses gate_isometry
    config = SamplingConfig(20, 20, seed=0)
    slopes = [
        verdict(odd_perturbation(1, eps), config).data["checks"]["isometry"]["max"] / eps
        for eps in (1e-6, 1e-5, 1e-4)
    ]
    assert max(slopes) <= 1.1 * min(slopes)
    assert 60.0 < slopes[0] < 80.0
    gate = Tolerances().gate_isometry
    below = verdict(odd_perturbation(1, 1e-11), config).data
    assert below["verdict"]["exit_code"] == 0
    assert below["hypotheses"]["isometry"]["passed"]
    assert below["checks"]["isometry"]["max"] < gate
    above = verdict(odd_perturbation(1, 1e-9), config).data
    assert above["verdict"]["exit_code"] == 3
    assert [k for k, h in above["hypotheses"].items() if not h["passed"]] == ["isometry"]
    assert above["checks"]["isometry"]["max"] > gate


def holomorphic_admixture(eps):
    """cpn-1 with f(w) = i eps w + (1 - i eps) conj(w), not declared an
    involution: f fixes the real slice, and its holomorphic part i eps w makes
    the antiholomorphy residual |Df J + J Df| exactly 2 eps."""
    bundle = builtin_cpn(1)
    f = ("+", ("*", "I", eps, "w1"), ("*", ("-", 1, ("*", "I", eps)), ("conj", "w1")))
    return replace(bundle, mapping=AntiholoMap((f,), declared_involution=False, label="admixed"))


def test_antiholomorphy_gate_ladder():
    # the residual has slope 2 in eps, so the verdict flips where 2 eps crosses
    # gate_antiholo, before the isometry gate (slope about 3.4, gate 1e-8) fires
    config = SamplingConfig(20, 20, seed=0)
    gate = Tolerances().gate_antiholo
    for eps, code in ((1e-11, 0), (3e-11, 0), (1e-10, 3), (1e-9, 3)):
        data = verdict(holomorphic_admixture(eps), config).data
        residual = data["checks"]["antiholomorphy"]["max"]
        assert residual / eps == pytest.approx(2.0, rel=0.1)
        assert data["verdict"]["exit_code"] == code
        failed = [k for k, h in data["hypotheses"].items() if not h["passed"]]
        assert failed == ([] if code == 0 else ["antiholomorphy"])
        assert (residual > gate) == (code == 3)


def phase(angle):
    """e^{i angle} as an expression: cos + I sin."""
    return ("+", math.cos(angle), ("*", "I", math.sin(angle)))


def rotated_locus(eps, theta=0.6):
    """cpn-1 with the isometric involution w -> e^{i theta} conj(w), whose
    fixed locus is the line e^{i theta / 2} R, and the line e^{i (theta +
    eps) / 2} R as its declared locus: f moves the point e^{i phi} t to
    e^{i (theta - phi)} t, so |f(p) - p| = 2 sin(eps / 2) |t|."""
    bundle = builtin_cpn(1)
    mapping = AntiholoMap((("*", phase(theta), ("conj", "w1")),), declared_involution=True)
    locus = FixedLocusParam((("*", phase((theta + eps) / 2), "t1"),), ((-1.0, 1.0),))
    return replace(bundle, mapping=mapping, locus=locus)


def test_locus_fixed_gate_ladder():
    # the residual is 2 sin(eps / 2) max |t| over the locus samples, so the
    # verdict flips where that crosses gate_locus_fixed; every other gate
    # holds, and below the flip C is cpn-1's 2
    config = SamplingConfig(20, 20, seed=0)
    gate = Tolerances().gate_locus_fixed
    t_max = max(abs(t[0]) for t in sample_parameters(rotated_locus(0.0).locus, 20, seed=0))
    for eps, code in ((1e-11, 0), (1e-10, 0), (3e-10, 3), (1e-9, 3), (1e-6, 3)):
        data = verdict(rotated_locus(eps), config).data
        residual = data["checks"]["locus_fixed"]["max"]
        assert residual == pytest.approx(2.0 * math.sin(eps / 2.0) * t_max, rel=3e-6)
        assert data["verdict"]["exit_code"] == code
        failed = [k for k, h in data["hypotheses"].items() if not h["passed"]]
        assert failed == ([] if code == 0 else ["locus_fixed"])
        assert (residual > gate) == (code == 3)
        if code == 0:
            assert data["constants"]["C_est"] == pytest.approx(2.0, abs=1e-12)


def test_pullback_potential_flat_scaling():
    double = AntiholoMap((("*", 2, ("conj", "w1")),), label="2conj")
    pulled = pullback_potential(double, FLAT1)
    p = ChartPoint((0.3 + 0.1j,))
    assert pulled.geometry(p).g == pytest.approx(4.0 * np.eye(1))


def test_pullback_potential_conjugation_identity():
    pulled = pullback_potential(CONJ2, FS2)
    for p in admitted_points(FS2, 5, seed=7):
        assert pulled.geometry(p).g == pytest.approx(FS2.geometry(p).g, abs=1e-13)


def test_pullback_preserves_einstein_constant():
    pts = admitted_points(FS2, 12, seed=8)
    lam0, res0 = einstein_residual(FS2.geometry(p) for p in pts)
    pulled = pullback_potential(CONJ2, FS2)
    lam1, res1 = einstein_residual(pulled.geometry(p) for p in pts)
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
        assert fixed_locus_residual(b.mapping, b.locus.point(t)) == 0.0
    eps = 1e-3
    offset = FixedLocusParam(
        components=(("+", "t1", ("*", eps, "I")),), box=((-1.0, 1.0),), label="offset"
    )
    got = fixed_locus_residual(CONJ1, offset.point((0.3,)))
    assert eps <= got <= 3 * eps  # construction: the gap is 2 eps


def test_involution_residual():
    for p in admitted_points(FS2, 4, seed=10):
        assert involution_residual(CONJ2, p) == 0.0
    not_inv = AntiholoMap((("*", 2, ("conj", "w1")),), label="2conj")
    assert involution_residual(not_inv, ChartPoint((1.0,))) == pytest.approx(3.0)


def test_stage_two_applies_the_map_once_per_ambient_point(monkeypatch):
    # with no locus and no declared involution, only the stage-2 residual
    # loop applies the map: once per ambient point, for the image geometry
    # that the isometry residual reads
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
