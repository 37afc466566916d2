"""Jet arithmetic against independent polynomial and symbolic oracles."""

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from einlocus import ChartPoint, Jet, JetOrderError, RealTangent, apply_J, jet_space
from einlocus.coords import wirtinger
from einlocus.jets import lift_callable_to_jet
from einlocus.metrics import lift_to_jet

from conftest import scalar_fd_lift


# -- independent oracle: dense dict-based polynomial arithmetic -----------------


def poly_mul(a, b):
    out = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            key = tuple(x + y for x, y in zip(ka, kb))
            out[key] = out.get(key, 0.0) + va * vb
    return out


def poly_add(a, b):
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0.0) + v
    return out


def poly_truncate(a, order):
    return {k: v for k, v in a.items() if sum(k) <= order}


def jet_from_poly(space, poly):
    return space.from_coefficients(poly)


def poly_strategy(nvars, max_degree=2, max_terms=4):
    key = st.tuples(*[st.integers(0, max_degree) for _ in range(nvars)]).filter(
        lambda k: sum(k) <= max_degree
    )
    coeff = st.floats(-2.0, 2.0, allow_nan=False)
    return st.dictionaries(key, coeff, min_size=1, max_size=max_terms)


@settings(max_examples=40, deadline=None)
@given(poly_strategy(2), poly_strategy(2), poly_strategy(2))
def test_jet_product_matches_polynomial_oracle(pa, pb, pc):
    space = jet_space(2, 4)
    ja, jb, jc = (jet_from_poly(space, p) for p in (pa, pb, pc))
    scale = 10 * np.finfo(float).eps * (
        1 + max(abs(v) for p in (pa, pb, pc) for v in p.values()) ** 3
    )
    # associativity and distributivity, coefficients vs the dict oracle
    left = (ja * jb) * jc
    right = ja * (jb * jc)
    assert np.max(np.abs(left.coeffs - right.coeffs)) <= scale
    dist_l = ja * (jb + jc)
    dist_r = ja * jb + ja * jc
    assert np.max(np.abs(dist_l.coeffs - dist_r.coeffs)) <= scale
    oracle = poly_truncate(poly_mul(pa, pb), 4)
    prod = ja * jb
    for key, val in oracle.items():
        pos = space.position[key]
        assert abs(prod.coeffs[pos] - val) <= scale


def test_exact_quadratic_lift():
    # |w|^2 at w = 1: second partials are 2, 0, 2 in (x, y)
    jet = lift_to_jet(("abs2", "w1"), ChartPoint((1.0 + 0.0j,)))
    assert jet.partial((2, 0)) == pytest.approx(2.0)
    assert jet.partial((1, 1)) == pytest.approx(0.0)
    assert jet.partial((0, 2)) == pytest.approx(2.0)
    assert jet.value == pytest.approx(1.0)


def test_constant_field_lift():
    jet = lift_to_jet(3.25, ChartPoint((0.2 + 0.4j, -1.0 + 0.3j)))
    assert jet.value == pytest.approx(3.25)
    assert np.max(np.abs(jet.coeffs[1:])) == 0.0


# symbolic oracle for every mixed partial of log(1 + x^2 + y^2) at 0
_SYM_X, _SYM_Y = sp.symbols("x y", real=True)
_SYM_FIELD = sp.log(1 + _SYM_X**2 + _SYM_Y**2)


def _sym_partial(i, j):
    return float(sp.diff(_SYM_FIELD, _SYM_X, i, _SYM_Y, j).subs({_SYM_X: 0, _SYM_Y: 0}))


def test_log_potential_lift_matches_symbolic_oracle():
    jet = lift_to_jet(("log", ("+", 1, ("abs2", "w1"))), ChartPoint((0.0,)))
    for i in range(5):
        for j in range(5 - i):
            expected = _sym_partial(i, j)
            assert jet.partial((i, j)) == pytest.approx(expected, abs=1e-12), (i, j)
    # spot values: gradient zero, Hessian twice the identity
    assert jet.partial((1, 0)) == 0.0
    assert jet.partial((2, 0)) == pytest.approx(2.0)
    assert jet.partial((1, 1)) == 0.0
    assert jet.partial((0, 2)) == pytest.approx(2.0)


def test_derivative_tensor_matches_partials():
    p = ChartPoint((0.3 - 0.2j, -0.5 + 0.1j))
    jet = lift_to_jet(("log", ("+", 1, ("abs2", "w1"), ("pow", ("abs2", "w2"), 2))), p)
    for k in (1, 2, 3, 4):
        tensor = jet.derivative_tensor(k)
        assert tensor.shape == (4,) * k
        for axes in np.ndindex(tensor.shape):
            alpha = np.bincount(axes, minlength=4)
            assert tensor[axes] == jet.partial(alpha)
    with pytest.raises(JetOrderError):
        jet.deriv(0).derivative_tensor(4)


def test_wirtinger_examples():
    p = ChartPoint((0.7 - 0.4j,))
    jet = lift_to_jet(("abs2", "w1"), p)
    assert wirtinger(jet, (0,), (0,)) == pytest.approx(1.0)
    # log potential at the origin; oracle value d/dw d/dwbar = 1
    jet0 = lift_to_jet(("log", ("+", 1, ("abs2", "w1"))), ChartPoint((0.0,)))
    assert wirtinger(jet0, (0,), (0,)) == pytest.approx(1.0, abs=1e-13)
    sym = 0.25 * (_sym_partial(2, 0) + _sym_partial(0, 2))
    assert wirtinger(jet0, (0,), (0,)) == pytest.approx(sym, abs=1e-13)


def test_wirtinger_kills_holomorphic_fields():
    # w^2 is holomorphic: the conjugate derivative vanishes identically
    space = jet_space(2, 4)
    w = space.variable(0, 0.3) + 1j * space.variable(1, -0.8)
    jet = w * w
    assert wirtinger(jet, (), (0,)) == pytest.approx(0.0, abs=1e-15)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(1, 3),
    st.floats(-1.5, 1.5, allow_nan=False),
    st.floats(-1.5, 1.5, allow_nan=False),
)
def test_wirtinger_holomorphic_monomials(power, re, im):
    space = jet_space(2, 4)
    w = space.variable(0, re) + 1j * space.variable(1, im)
    jet = w
    for _ in range(power - 1):
        jet = jet * w
    assert abs(wirtinger(jet, (), (0,))) <= 1e-12 * (1 + abs(complex(re, im)) ** power)


def test_wirtinger_order_overflow():
    jet = lift_to_jet(("abs2", "w1"), ChartPoint((0.0,)))
    with pytest.raises(JetOrderError):
        wirtinger(jet, (0, 0, 0), (0, 0))


def test_jet_analytic_compositions_match_sympy():
    x = sp.symbols("x", real=True)
    space = jet_space(1, 4)
    arg = space.variable(0, 0.7)
    base = arg * arg + 0.5  # x^2 + 1/2 at x0 = 0.7
    for jet, expr in [
        (base.log(), sp.log(x**2 + sp.Rational(1, 2))),
        (base.exp(), sp.exp(x**2 + sp.Rational(1, 2))),
        (base.sqrt(), sp.sqrt(x**2 + sp.Rational(1, 2))),
        (base.pow(-1.5), (x**2 + sp.Rational(1, 2)) ** sp.Rational(-3, 2)),
        (base.reciprocal(), 1 / (x**2 + sp.Rational(1, 2))),
    ]:
        for k in range(5):
            want = float(sp.diff(expr, x, k).subs(x, 0.7))
            got = jet.partial((k,)).real
            assert got == pytest.approx(want, rel=1e-11), (expr, k)


def test_jet_division_and_integer_powers():
    space = jet_space(2, 4)
    a = space.variable(0, 1.2) + 2.0
    b = space.variable(1, -0.4) + 1.5
    quotient = (a * b) / b
    assert np.max(np.abs(quotient.coeffs - a.coeffs)) < 1e-13
    cubed = a.pow(3)
    assert np.max(np.abs(cubed.coeffs - (a * a * a).coeffs)) < 1e-12


def test_jet_restrict_drops_other_variables():
    space = jet_space(3, 4)
    f = space.variable(0, 0.5) * space.variable(1, 2.0) + space.variable(2, -1.0)
    sub = f.restrict((0,))
    # x*2.0 - 1.0 as a polynomial of the kept variable around 0.5
    assert sub.value == pytest.approx(0.5 * 2.0 - 1.0)
    assert sub.partial((1,)) == pytest.approx(2.0)


def test_chart_point_round_trip_exact():
    holo = (0.3 - 0.7j, -1.25 + 0.5j, 2.0 + 0.0j)
    p = ChartPoint(holo)
    back = ChartPoint.from_real(p.real_view)
    assert back.holo == p.holo  # bit-exact round trip
    with pytest.raises(ValueError):
        ChartPoint.from_real(np.array([1.0, 2.0, 3.0]))


def test_real_tangent_component_count_checked():
    p = ChartPoint((0.0, 0.0))
    with pytest.raises(ValueError):
        RealTangent(np.array([1.0, 2.0]), p)


def test_apply_j_convention_and_involution():
    p1 = ChartPoint((0.0,))
    v = RealTangent(np.array([1.0, 0.0]), p1)
    assert np.array_equal(apply_J(v).components, np.array([0.0, 1.0]))
    p2 = ChartPoint((0.0, 0.0))
    w = RealTangent(np.array([1.0, 2.0, 3.0, 4.0]), p2)
    assert np.array_equal(apply_J(w).components, np.array([-2.0, 1.0, -4.0, 3.0]))
    # J o J = -Id, exactly
    assert np.array_equal(apply_J(apply_J(w)).components, -w.components)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(-5, 5, allow_nan=False), min_size=4, max_size=4))
def test_apply_j_euclidean_isometry(comps):
    v = RealTangent(np.array(comps), ChartPoint((0.0, 0.0)))
    assert np.linalg.norm(apply_J(v).components) == pytest.approx(
        np.linalg.norm(v.components)
    )


def test_finite_difference_fallback_accuracy():
    def black_box(xy):
        return float(np.log(1.0 + xy[0] ** 2 + xy[1] ** 2))

    exact = lift_to_jet(("log", ("+", 1, ("abs2", "w1"))), ChartPoint((0.4 - 0.3j,)))
    approx = lift_callable_to_jet(black_box, np.array([0.4, -0.3]))
    # second derivatives keep ~10 digits, fourth keep ~4: flagged low-precision
    for alpha in [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]:
        assert approx.partial(alpha).real == pytest.approx(
            exact.partial(alpha).real, abs=1e-7
        )
    for alpha in [(4, 0), (2, 2), (3, 1), (0, 4)]:
        assert approx.partial(alpha).real == pytest.approx(
            exact.partial(alpha).real, abs=2e-3, rel=1e-3
        )


def _recording_black_box(points):
    def black_box(x):
        points.append(x.tobytes())
        return float(np.log1p(x @ x) + np.sin(x[0]) * x[-1] ** 3)

    return black_box


@pytest.mark.parametrize("n, evals", [(1, 42), (2, 274), (3, 1210)])
@pytest.mark.parametrize("scale", [1.0, 4.0])
def test_stencil_table_lift_matches_scalar_loop_bit_for_bit(n, evals, scale):
    rng = np.random.default_rng(n)
    for base in rng.uniform(-0.8, 0.8, size=(3, 2 * n)):
        table_points, scalar_points = [], []
        table = lift_callable_to_jet(_recording_black_box(table_points), base, scale=scale)
        scalar = scalar_fd_lift(_recording_black_box(scalar_points), base, scale=scale)
        assert table.coeffs.tobytes() == scalar.coeffs.tobytes()
        assert table.order == scalar.order and table.space is scalar.space
        assert len(table_points) == evals
        assert sorted(table_points) == sorted(scalar_points)
