"""Jet arithmetic against independent polynomial and symbolic oracles."""

import functools
import gc
import numbers
import weakref

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from einlocus import ChartPoint, Jet, JetOrderError, jet_space, j_matrix
from einlocus.coords import wirtinger_jet
from einlocus.exprs import coord_names, evaluate
from einlocus import jets
from einlocus.jets import lift_callable_to_jet
from einlocus.jets import WIRTINGER_BIDEGREE, JetSpace, coordinate_jets
from einlocus.metrics import lift_to_jet

from conftest import from_coefficients, loop_jet_tables, real_lift, scalar_fd_lift
from test_fuzz import expression_trees


# -- independent oracle: dense dict-based polynomial arithmetic -----------------


def poly_mul(a, b):
    out = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            key = tuple(x + y for x, y in zip(ka, kb))
            out[key] = out.get(key, 0.0) + va * vb
    return out


def poly_truncate(a, order):
    return {k: v for k, v in a.items() if sum(k) <= order}


def jet_from_poly(space, poly):
    return from_coefficients(space, poly)


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
        pos = space._lookup([key])[0]
        assert abs(prod.coeffs[pos] - val) <= scale


def test_exact_quadratic_lift():
    # |w|^2 at w = 1: second partials are 2, 0, 2 in (x, y)
    jet = real_lift(("abs2", "w1"), ChartPoint((1.0 + 0.0j,)))
    assert jet.partial((2, 0)) == pytest.approx(2.0)
    assert jet.partial((1, 1)) == pytest.approx(0.0)
    assert jet.partial((0, 2)) == pytest.approx(2.0)
    assert jet.value == pytest.approx(1.0)


def test_constant_field_lift():
    jet, defect = lift_to_jet(3.25, ChartPoint((0.2 + 0.4j, -1.0 + 0.3j)))
    assert defect == 0.0
    assert jet.value == pytest.approx(3.25)
    assert np.max(np.abs(jet.coeffs[1:])) == 0.0


# symbolic oracle for every mixed partial of log(1 + x^2 + y^2) at 0
_SYM_X, _SYM_Y = sp.symbols("x y", real=True)
_SYM_FIELD = sp.log(1 + _SYM_X**2 + _SYM_Y**2)


def _sym_partial(i, j):
    return float(sp.diff(_SYM_FIELD, _SYM_X, i, _SYM_Y, j).subs({_SYM_X: 0, _SYM_Y: 0}))


def test_log_potential_lift_matches_symbolic_oracle():
    jet = real_lift(("log", ("+", 1, ("abs2", "w1"))), ChartPoint((0.0,)))
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
    jet = real_lift(("log", ("+", 1, ("abs2", "w1"), ("pow", ("abs2", "w2"), 2))), p)
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
    jet = real_lift(("abs2", "w1"), p)
    assert wirtinger_jet(jet, (0,), (0,)).value == pytest.approx(1.0)
    # log potential at the origin; oracle value d/dw d/dwbar = 1
    jet0 = real_lift(("log", ("+", 1, ("abs2", "w1"))), ChartPoint((0.0,)))
    assert wirtinger_jet(jet0, (0,), (0,)).value == pytest.approx(1.0, abs=1e-13)
    sym = 0.25 * (_sym_partial(2, 0) + _sym_partial(0, 2))
    assert wirtinger_jet(jet0, (0,), (0,)).value == pytest.approx(sym, abs=1e-13)


def test_wirtinger_kills_holomorphic_fields():
    # w^2 is holomorphic: the conjugate derivative vanishes identically
    space = jet_space(2, 4)
    w = space.variable(0, 0.3) + 1j * space.variable(1, -0.8)
    jet = w * w
    assert wirtinger_jet(jet, (), (0,)).value == pytest.approx(0.0, abs=1e-15)


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
    assert abs(wirtinger_jet(jet, (), (0,)).value) <= 1e-12 * (1 + abs(complex(re, im)) ** power)


def test_wirtinger_order_overflow():
    jet = real_lift(("abs2", "w1"), ChartPoint((0.0,)))
    with pytest.raises(JetOrderError):
        wirtinger_jet(jet, (0, 0, 0), (0, 0))


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


@pytest.mark.parametrize("keep", [(0,), (2, 0), (1, 3, 2), (3, 2, 1, 0)])
def test_jet_restrict_matches_loop_bit_for_bit(keep):
    space = jet_space(4, 4)
    rng = np.random.default_rng(len(keep))
    f = Jet(space, rng.standard_normal(space.size) + 1j * rng.standard_normal(space.size), 4)
    target = jet_space(len(keep), 4)
    want = np.zeros(target.size, dtype=np.complex128)
    index = {tuple(alpha): i for i, alpha in enumerate(target.indices.tolist())}
    for alpha, c in zip(space.indices.tolist(), f.coeffs):
        if all(e == 0 for v, e in enumerate(alpha) if v not in keep):
            want[index[tuple(alpha[v] for v in keep)]] = c
    got = f.restrict(keep)
    assert got.space is target and got.order == 4
    assert np.array_equal(got.coeffs, want)


def test_index_lookups_never_alias_a_neighbour():
    space = jet_space(2, 4)
    rows = [(0, 0), (0, 1), (4, 0), (2, 2)]
    assert space.indices[space._lookup(rows)].tolist() == [list(r) for r in rows]
    # each key encodes exponents in base capacity + 1 = 5, so (5, 0) and
    # (5, -1) carry into the keys of (0, 1) and (0, 0); an exponent sum
    # above the top key must not index past the table either
    for alpha in ((5, 0), (5, -1), (0, 9), (3, 2), (1, 1, 0), (1,)):
        with pytest.raises(KeyError):
            space._lookup([alpha])
    with pytest.raises(KeyError):
        from_coefficients(space, {(0, 1): 1.0, (5, 0): 2.0})
    with pytest.raises(KeyError):
        space.variable(0, 0.5).partial((5, -1))
    for v in (-1, 2):
        with pytest.raises(KeyError):
            space.variable(v)
    assert np.array_equal(from_coefficients(space, {}).coeffs, np.zeros(space.size))


def test_chart_point_round_trip_exact():
    holo = (0.3 - 0.7j, -1.25 + 0.5j, 2.0 + 0.0j)
    p = ChartPoint(holo)
    back = ChartPoint.from_real(p.real_view)
    assert back.holo == p.holo  # bit-exact round trip
    with pytest.raises(ValueError):
        ChartPoint.from_real(np.array([1.0, 2.0, 3.0]))


def test_apply_j_convention_and_involution():
    # J e_x = e_y and J e_y = -e_x on every coordinate pair
    assert np.array_equal(j_matrix(1) @ np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    w = np.array([1.0, 2.0, 3.0, 4.0])
    assert np.array_equal(j_matrix(2) @ w, np.array([-2.0, 1.0, -4.0, 3.0]))
    # J o J = -Id, exactly
    for n in (1, 2, 5):
        J = j_matrix(n)
        assert np.array_equal(J @ J, -np.eye(2 * n))


def test_j_matrix_is_built_once_per_dimension_and_read_only():
    for n in (1, 2, 12):
        J = j_matrix(n)
        assert j_matrix(n) is J
        assert not J.flags.writeable
        with pytest.raises(ValueError):
            J[0, 0] = 1.0
        want = np.zeros((2 * n, 2 * n))
        for k in range(n):
            want[2 * k: 2 * k + 2, 2 * k: 2 * k + 2] = [[0.0, -1.0], [1.0, 0.0]]
        assert np.array_equal(J, want)
        assert np.array_equal(np.signbit(J), J < 0)  # no negative zeros


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(-5, 5, allow_nan=False), min_size=4, max_size=4))
def test_apply_j_euclidean_isometry(comps):
    # J is orthogonal: it preserves the euclidean norm of every vector
    J = j_matrix(2)
    assert np.array_equal(J.T @ J, np.eye(4))
    v = np.array(comps)
    assert np.linalg.norm(J @ v) == pytest.approx(np.linalg.norm(v))


def test_finite_difference_fallback_accuracy():
    def black_box(xy):
        return float(np.log(1.0 + xy[0] ** 2 + xy[1] ** 2))

    exact = real_lift(("log", ("+", 1, ("abs2", "w1"))), ChartPoint((0.4 - 0.3j,)))
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


# -- the tables of a space -----------------------------------------------------------


def assert_same_array(got, want, name):
    assert got.dtype == want.dtype and np.array_equal(got, want), name


@pytest.mark.parametrize("capacity", [1, 2, 4])
@pytest.mark.parametrize("nvars", list(range(1, 13)) + [16])
def test_jet_tables_match_loop_oracle(nvars, capacity):
    # every table, built from whole arrays, equals the one built an entry at a
    # time: same entries, same order, same dtype
    space, want = JetSpace(nvars, capacity), loop_jet_tables(nvars, capacity)
    for name in ("indices", "_fact", "_keys", "_mul_ia", "_mul_ib", "_mul_iout"):
        assert_same_array(getattr(space, name), want[name], name)
    assert np.array_equal(space._lookup(list(want["position"])), np.arange(space.size))
    assert list(space._mul_blocks.items()) == list(want["_mul_blocks"].items())
    assert len(space._deriv) == nvars
    for v, (got, ref) in enumerate(zip(space._deriv, want["_deriv"])):
        for part, g, r in zip(("src", "dst", "fac"), got, ref):
            assert_same_array(g, r, (v, part))


# Tables a space builds on first use and keeps in its own __dict__: single
# tables under their names, tables per key under the method's name plus "s".
LAZY_TABLES = (
    "_deriv",
    "_wirtinger_layout",
    "_to_wirtinger_table",
    "_fd_stencils",
    "_tensor_tables",
    "_mul_selections",
    "_wirtinger_tables",
)


def use_every_table(space):
    """Read each lazy table of a space once, through the operations that
    read it; returns a (z, zbar) jet of the space."""
    rng = np.random.default_rng(space.nvars)
    real = Jet(space, rng.standard_normal(space.size) + 0j, space.capacity)
    real.deriv(0)
    real.derivative_tensor(2)
    space._fd_stencils  # what a black-box lift reads
    z = real.to_wirtinger()
    (z * z).wirtinger_tensor((True, False, True, False))
    return z


def test_a_new_space_builds_no_lazy_table():
    # the benchmark times the construction of its spaces apart from its
    # passes, and a pass builds every other table on first use: none may
    # move into construction
    space = JetSpace(4)
    assert [name for name in LAZY_TABLES if name in vars(space)] == []
    use_every_table(space)
    assert [name for name in LAZY_TABLES if name not in vars(space)] == []


def test_a_table_is_built_once_per_space_and_key(monkeypatch):
    space = JetSpace(4)
    use_every_table(space)
    for name in ("_deriv", "_wirtinger_layout", "_to_wirtinger_table", "_fd_stencils"):
        assert getattr(space, name) is getattr(space, name), name
    assert space._tensor_table(2) is space._tensor_table(2)
    assert space._mul_selection(2, 2, 4, True) is space._mul_selection(2, 2, 4, True)
    assert space._wirtinger_table((True, False)) is space._wirtinger_table((True, False))
    # two black-box lifts on one space build its stencil table once
    built = []
    build = vars(JetSpace)["_fd_stencils"].func

    def counting(sp):
        built.append(sp)
        return build(sp)

    stencils = functools.cached_property(counting)
    stencils.__set_name__(JetSpace, "_fd_stencils")
    monkeypatch.setattr(JetSpace, "_fd_stencils", stencils)
    fresh = JetSpace(2)
    monkeypatch.setattr(jets, "jet_space", lambda nvars, capacity: fresh)
    for base in ([0.1, -0.2], [0.3, 0.4]):
        lift_callable_to_jet(lambda xy: float(np.log1p(xy @ xy)), np.array(base))
    assert built == [fresh]


def test_jet_operators_run_one_plan_each_kept_on_the_space():
    space = JetSpace(4)
    x, y = space.variable(0, 0.3), space.variable(1, -0.2)
    want = (x * y + 1.0).coeffs
    plans = dict(vars(space)["_operations"])
    assert set(plans) == {("*", ((4, 1, False), (4, 1, False))), ("+", ((4, 2, False), None))}
    assert (x * y + 1.0).coeffs.tobytes() == want.tobytes()
    assert vars(space)["_operations"] == plans  # nothing planned the second time
    # a product of dense jets keeps every row of its selection and shares
    # the selection's arrays rather than copying them
    ops = jets._Operations(space)
    dense = jets._Shape(4, 4, False, space.degree <= 4)
    ops._product(dense, dense)
    ((key, rows),) = ops.products
    assert all(r is t for r, t in zip(rows, space._mul_selection(*key)))


def test_an_infinite_taylor_coefficient_spreads_nan_as_a_plain_product_does():
    # exp(800) overflows to inf outside a raising error state; every Horner
    # step keeps its rows against the zeroed constant term, so inf * 0 makes
    # every coefficient nan rather than leaving an inf constant term
    x = JetSpace(2).variable(0, 800.0)
    with np.errstate(all="ignore"):
        assert np.isnan(x.exp().coeffs.real).all()


def test_a_space_is_freed_with_its_holders():
    # tables live on their space, so nothing outside keeps a dropped space
    space = JetSpace(4)
    z = use_every_table(space)
    z.wirtinger_tensor((True, False))
    assert {"_wirtinger_tables", "_to_wirtinger_table", "_mul_selections"} <= set(vars(space))
    ref = weakref.ref(space)
    del space, z
    gc.collect()
    assert ref() is None


# -- degree: the bound on nonzero coefficients -------------------------------------


def full_table_product(a, b):
    """The product over the whole multiplication table, truncated at the
    common order: the reference for the degree-selected product."""
    space = a.space
    prod = np.zeros(space.size, dtype=np.complex128)
    np.add.at(prod, space._mul_iout, a.coeffs[space._mul_ia] * b.coeffs[space._mul_ib])
    return prod * space._masks[min(a.order, b.order)]


def random_jet(space, degree, order, rng):
    coeffs = rng.standard_normal(space.size) + 1j * rng.standard_normal(space.size)
    return Jet(space, np.where(space.degree <= degree, coeffs, 0.0), order, degree)


@pytest.mark.parametrize("nvars", [2, 4, 6, 12])
def test_degree_selected_product_equals_full_table(nvars):
    space = jet_space(nvars)
    rng = np.random.default_rng(nvars)
    for order in (space.capacity, 2):
        for da in range(order + 1):
            for db in range(order + 1):
                a, b = random_jet(space, da, order, rng), random_jet(space, db, space.capacity, rng)
                prod = a * b
                assert np.array_equal(prod.coeffs, full_table_product(a, b)), (order, da, db)
                assert (prod.order, prod.degree) == (order, min(da + db, order))


def assert_degree_honest(jet):
    assert 0 <= jet.degree <= jet.order
    assert np.all(jet.coeffs[jet.space.degree > jet.degree] == 0)


def test_degree_rules_of_constructors_and_operations():
    space = jet_space(3)
    c, x, y = space.constant(2.5), space.variable(0, 0.3), space.variable(1, -0.2)
    assert (c.degree, x.degree) == (0, 1)
    assert Jet(space, np.ones(space.size, dtype=complex), 3).degree == 3  # dense by default
    assert (x + c).degree == 1 and (x * y).degree == 2 and (x * y * x).degree == 3
    assert (x * 2.0).degree == (-x).degree == (x / 3.0).degree == (x + 1.0).degree == 1
    assert x.conjugate().degree == x.real.degree == x.imag.degree == 1
    assert (x * x * x * x * x).degree == space.capacity
    # deriv costs one degree, never going below 0
    for jet in (c, c.deriv(1), x.deriv(2), (x * y).deriv(0), (x * y).deriv(2)):
        assert_degree_honest(jet)
    assert (c.deriv(0).degree, c.deriv(0).order) == (0, space.capacity - 1)
    assert not np.any(c.deriv(0).coeffs)
    assert (x.deriv(0).degree, (x * y).deriv(0).degree, (x * y).deriv(2).degree) == (0, 1, 1)
    # analytic compositions take the Horner accumulator's degree
    assert c.log().degree == c.exp().degree == c.pow(-1.5).degree == 0
    assert x.exp().degree == space.capacity


def free_identifiers(expr):
    """The identifiers of an expression tree, the imaginary unit excepted."""
    if isinstance(expr, str):
        return set() if expr == "I" else {expr}
    if isinstance(expr, numbers.Number):
        return set()
    return set().union(*(free_identifiers(a) for a in expr[1:]))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    st.sampled_from((1, 2)).flatmap(
        lambda n: st.tuples(st.just(n), expression_trees(n).filter(free_identifiers))
    )
)
def test_jet_degree_is_honest_on_grammar_trees(case):
    n, tree = case
    point = ChartPoint((0.3 + 0.2j, -0.4 + 0.1j)[:n])
    env = dict(zip(coord_names(n), coordinate_jets(point.holo)))
    try:
        # as in a verdict, a non-finite value raises instead of spreading
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            jet = evaluate(tree, env)
    except ArithmeticError:
        return
    assert_degree_honest(jet)
    for v in range(2 * n):
        assert_degree_honest(jet.deriv(v))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_coordinate_jets_match_variable_sums_bit_for_bit(n):
    point = ChartPoint((0.3 - 0.7j, -1.25 + 0.5j, 2.0 - 0.0625j)[:n])
    space = jet_space(2 * n)
    for j, jet in enumerate(coordinate_jets(point.holo)):
        z = point.holo[j]
        ref = space.variable(2 * j, z.real) + 1j * space.variable(2 * j + 1, z.imag)
        assert jet.coeffs.tobytes() == ref.coeffs.tobytes()
        assert (jet.order, jet.degree) == (space.capacity, 1)


# -- jets over (z, zbar), truncated at bidegree (2, 2) ----------------------------------


def random_wirtinger_jet(space, degree, rng):
    kept = space._wirtinger_layout[0] & (space.degree <= degree)
    coeffs = rng.standard_normal(space.size) + 1j * rng.standard_normal(space.size)
    return Jet(space, np.where(kept, coeffs, 0.0), space.capacity, degree, wirtinger=True)


@pytest.mark.parametrize("nvars", [2, 4, 6, 12])
def test_wirtinger_product_is_the_full_product_on_the_kept_set(nvars):
    # a kept coefficient's factors are kept too, so the selected terms add up,
    # in table order, to exactly the full product there
    space = jet_space(nvars)
    kept = space._wirtinger_layout[0]
    rng = np.random.default_rng(nvars)
    for da in range(space.capacity + 1):
        for db in range(space.capacity + 1):
            a, b = random_wirtinger_jet(space, da, rng), random_wirtinger_jet(space, db, rng)
            prod = a * b
            assert prod.wirtinger
            assert np.array_equal(prod.coeffs, np.where(kept, full_table_product(a, b), 0.0))


def test_kept_bidegree_set_sizes():
    # (n + 2 choose 2)^2 coefficients, against (2n + 4 choose 4) at total degree 4
    for n, want in zip(range(1, 7), (9, 36, 100, 225, 441, 784)):
        space = jet_space(2 * n)
        kept = space._wirtinger_layout[0]
        assert int(kept.sum()) == want
        hol, anti = space.indices[:, 0::2].sum(axis=1), space.indices[:, 1::2].sum(axis=1)
        assert np.array_equal(kept, (hol <= WIRTINGER_BIDEGREE) & (anti <= WIRTINGER_BIDEGREE))


def test_wirtinger_conjugation_swaps_exponents():
    space = jet_space(4)
    f = random_wirtinger_jet(space, space.capacity, np.random.default_rng(3))
    g = f.conjugate()
    for pos, (a1, b1, a2, b2) in enumerate(space.indices):
        assert g.coeffs[space._lookup([(b1, a1, b2, a2)])[0]] == np.conj(f.coeffs[pos])
    assert np.array_equal(g.conjugate().coeffs, f.coeffs)
    assert (g.wirtinger, g.degree) == (True, f.degree)
    # the conjugate of z_1 is zbar_1, and the real part is a Hermitian jet
    z = Jet(space, space.variable(0, 0.3 - 0.5j).coeffs, space.capacity, 1, wirtinger=True)
    assert np.array_equal(z.conjugate().coeffs, space.variable(1, 0.3 + 0.5j).coeffs)
    re = f.real
    assert np.array_equal(re.conjugate().coeffs, re.coeffs)
    assert np.max(np.abs((f.real + 1j * f.imag - f).coeffs)) < 1e-15


def test_wirtinger_jets_mix_only_with_constants():
    space = jet_space(2)
    z = Jet(space, space.variable(0, 0.4).coeffs, space.capacity, 1, wirtinger=True)
    assert (space.constant(2.0) * z).wirtinger and (z + space.constant(1.0)).wirtinger
    with pytest.raises(ValueError):
        z * space.variable(1)
    with pytest.raises(ValueError):
        space.variable(1) + z


def test_wirtinger_lift_reads_mixed_partials():
    # |w|^2 around z0: |z0|^2 + conj(z0) z + z0 zbar + z zbar
    z0 = 0.7 - 0.4j
    jet, _ = lift_to_jet(("abs2", "w1"), ChartPoint((z0,)))
    assert jet.wirtinger
    assert jet.partial((0, 0)) == pytest.approx(abs(z0) ** 2)
    assert jet.partial((1, 0)) == pytest.approx(np.conj(z0))
    assert jet.partial((0, 1)) == pytest.approx(z0)
    assert jet.partial((1, 1)) == 1.0
    assert jet.partial((2, 0)) == jet.partial((2, 2)) == 0.0
    # only the kept set is known: no (3, 0) partial, no third-order tensor,
    # no derivative
    with pytest.raises(JetOrderError):
        jet.partial((3, 0))
    with pytest.raises(JetOrderError):
        jet.derivative_tensor(3)
    with pytest.raises(JetOrderError):
        jet.deriv(0)
    # the log potential at the origin: d dbar psi = 1, d^2 dbar^2 psi = -2
    jet0, _ = lift_to_jet(("log", ("+", 1, ("abs2", "w1"))), ChartPoint((0.0,)))
    assert jet0.partial((1, 1)) == pytest.approx(1.0, abs=1e-15)
    assert jet0.partial((2, 2)) == pytest.approx(-2.0, abs=1e-14)
