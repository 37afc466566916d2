"""Random grammar trees: ``verdict`` always ends with an exit code, never
raises, and compiled programs reproduce the tree walk bit for bit."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from einlocus import (
    AntiholoMap,
    FixedLocusParam,
    Jet,
    ManifoldBundle,
    PotentialChart,
    SpecFormatError,
    UnknownPrimitiveError,
    builtin_cpn,
    make_builtin,
    verdict,
)
from einlocus.bundles import DEFAULT_SUITE
from einlocus.exprs import UNARY_HEADS, coord_names, compile, on_coordinates, on_parameters
from einlocus.jets import coordinate_jets, jet_space
from einlocus.sampling import SamplingConfig

from conftest import admitted_points, interpret

NUMBERS = st.one_of(
    st.integers(-3, 3),
    st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False),
)
EXPONENTS = st.one_of(st.integers(-3, 4), st.sampled_from((-1.5, -0.5, 0.5, 1.5)))


def expression_trees(n, prefix="w"):
    """Trees over every head of the grammar, with leaves I, numeric literals
    and the variables w1..wn (or t1..tn)."""
    leaves = st.one_of(st.sampled_from(("I",) + coord_names(n, prefix=prefix)), NUMBERS)

    def extend(sub):
        return st.one_of(
            st.tuples(st.sampled_from(("+", "-", "*")), st.lists(sub, min_size=1, max_size=3)).map(
                lambda t: (t[0],) + tuple(t[1])
            ),
            st.tuples(st.just("/"), sub, sub),
            st.tuples(st.just("pow"), sub, EXPONENTS),
            st.tuples(st.sampled_from(UNARY_HEADS), sub),
        )

    return st.recursive(leaves, extend, max_leaves=8)


@st.composite
def bundles(draw):
    n = draw(st.sampled_from((1, 2)))
    chart = PotentialChart(n, draw(expression_trees(n)), ((-1.0, 1.0),) * (2 * n), label="fuzz")
    conjugation = AntiholoMap(
        tuple(("conj", w) for w in coord_names(n)), declared_involution=True, label="conjugation"
    )
    real_slice = FixedLocusParam(coord_names(n, prefix="t"), ((-1.0, 1.0),) * n, label="real")
    return ManifoldBundle(chart=chart, mapping=conjugation, locus=real_slice, label="fuzz")


@settings(max_examples=50, deadline=None, derandomize=True)
@given(bundles())
def test_verdict_never_raises_on_grammar_trees(bundle):
    report = verdict(bundle, SamplingConfig(6, 6, seed=0))
    assert report.exit_code in {0, 2, 3, 4}


@st.composite
def map_and_locus_bundles(draw):
    """Bundles whose map and locus components are each either the usual one
    (conjugation, the real slice) or a grammar tree."""
    n = draw(st.sampled_from((1, 2)))
    names, params = coord_names(n), coord_names(n, prefix="t")
    chart = PotentialChart(
        n, ("log", ("+", 1, *(("abs2", w) for w in names))), ((-1.0, 1.0),) * (2 * n), label="cpn"
    )
    mapping = AntiholoMap(
        tuple(draw(st.one_of(st.just(("conj", w)), expression_trees(n))) for w in names),
        declared_involution=draw(st.booleans()),
        label="fuzz-map",
    )
    locus = FixedLocusParam(
        tuple(draw(st.one_of(st.just(t), expression_trees(n, prefix="t"))) for t in params),
        ((-1.0, 1.0),) * n,
        label="fuzz-locus",
    )
    return ManifoldBundle(chart=chart, mapping=mapping, locus=locus, label="fuzz")


@settings(max_examples=30, deadline=None, derandomize=True)
@given(map_and_locus_bundles())
def test_verdict_never_raises_on_grammar_maps_and_loci(bundle):
    report = verdict(bundle, SamplingConfig(6, 6, seed=0))
    assert report.exit_code in {0, 2, 3, 4}


# -- compiled programs against the tree walk -------------------------------------------

BASE_POINTS = ((0.3 + 0.2j, -0.4 + 0.1j), (-0.7 + 0.5j, 0.2 - 0.6j))


def parameter_jets(t, order):
    space = jet_space(len(t), order)
    return [space.variable(d, x) for d, x in enumerate(t)]


# label -> (inputs at a base point, the program run there as its owner runs
# it): on numbers, on the coordinate jets over the real variables at orders
# 1 and 2 and over (z, zbar) at orders 2 and 4 (``on_coordinates``, which
# builds them), and on the parameter jets t_d at order 2 (``on_parameters``)
INPUTS = {
    "numbers": (lambda holo: holo, lambda program, holo: program.on_numbers(holo)),
    "x + iy, order 1": (
        lambda holo: coordinate_jets(holo, 1),
        lambda program, holo: on_coordinates([program], holo, 1)[0],
    ),
    "x + iy, order 2": (
        lambda holo: coordinate_jets(holo, 2),
        lambda program, holo: on_coordinates([program], holo, 2)[0],
    ),
    "z, order 2": (
        lambda holo: coordinate_jets(holo, 2, wirtinger=True),
        lambda program, holo: on_coordinates([program], holo, 2, wirtinger=True)[0],
    ),
    "z, order 4": (
        lambda holo: coordinate_jets(holo, 4, wirtinger=True),
        lambda program, holo: on_coordinates([program], holo, 4, wirtinger=True)[0],
    ),
    "t, order 2": (
        lambda holo: parameter_jets([z.real for z in holo], 2),
        lambda program, holo: on_parameters([program], [z.real for z in holo], 2)[0],
    ),
}


def outcome(run):
    """('value', result) or ('raised', exception type), under all=raise."""
    try:
        with np.errstate(all="raise"):
            return "value", run()
    except Exception as err:  # the type is what is compared
        return "raised", type(err)


def assert_same(got, want):
    assert got[0] == want[0], (got, want)
    if got[0] == "raised":
        assert got[1] is want[1]
        return
    got, want = got[1], want[1]
    assert type(got) is type(want), (got, want)
    if isinstance(want, Jet):
        assert got.coeffs.tobytes() == want.coeffs.tobytes()
        assert (got.order, got.degree, got.wirtinger) == (want.order, want.degree, want.wirtinger)
    else:
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), (got, want)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.sampled_from((1, 2)).flatmap(lambda n: st.tuples(st.just(n), expression_trees(n))),
    st.sampled_from(sorted(INPUTS)),
)
# a reciprocal of a constant term near 1e84: its order-4 Taylor coefficients
# overflow to nan in Python's complex arithmetic, and both routes must raise
@example((1, ("/", "I", ("/", "w1", ("/", 9.845449036720216e-85, "I")))), "z, order 4")
def test_compiled_programs_match_the_tree_walk_bit_for_bit(case, label):
    # the tree walk runs each operation as its own plan, on supports read
    # off the degrees; a program plans the whole tree on the supports its
    # inputs have, so this checks that the rows it drops add exact zeros
    n, tree = case
    build, run = INPUTS[label]
    program = compile(tree, coord_names(n))
    for holo in BASE_POINTS:
        inputs = build(holo[:n])
        want = outcome(lambda: interpret(tree, dict(zip(coord_names(n), inputs))))
        assert_same(outcome(lambda: run(program, holo[:n])), want)
        if label != "numbers":  # the plan kept per structure read off the jets
            assert_same(outcome(lambda: program.on_jets(inputs)), want)
    # one plan per way of running serves both base points
    assert len(program._plans) <= (1 if label == "numbers" else 2)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    st.sampled_from((1, 2)).flatmap(lambda n: st.tuples(st.just(n), expression_trees(n))),
    st.sampled_from(sorted(set(INPUTS) - {"numbers"})),
)
def test_a_program_on_stacked_points_matches_its_runs_point_by_point(case, label):
    # the base points' coordinates as arrays: one run on their stacked jets,
    # whose columns must be the single runs' coefficients, or which raises
    # if any single run does
    n, tree = case
    _, run = INPUTS[label]
    singles = [outcome(lambda: run(compile(tree, coord_names(n)), holo[:n])) for holo in BASE_POINTS]
    columns = tuple(np.array(z) for z in zip(*BASE_POINTS))[:n]
    stacked = outcome(lambda: run(compile(tree, coord_names(n)), columns))
    if any(kind == "raised" for kind, _ in singles):
        assert stacked[0] == "raised"
        return
    assert stacked[0] == "value", stacked
    for p, single in enumerate(singles):
        got = stacked[1]
        if isinstance(got, Jet):
            got = Jet(got.space, got.coeffs[:, p], got.order, got.degree, got.wirtinger)
        assert_same(("value", got), single)


@pytest.mark.parametrize("label", sorted(set(INPUTS) - {"numbers"}))
def test_log_of_a_near_zero_argument_fails_as_the_tree_walk_does(label):
    # the constant term is about 1e-78: its order-4 Taylor coefficient
    # overflows to inf, an inf that the tree walk's one-operation plans
    # would multiply by structural zeros a whole-tree plan drops; the log
    # series raises on it in both, and at order 2, where nothing
    # overflows, the two agree bit for bit
    tree = ("log", ("*", 1e-78, ("+", 1, "w1"), ("+", 1, "w2")))
    build, run = INPUTS[label]
    program = compile(tree, coord_names(2))
    for holo in BASE_POINTS:
        inputs = build(holo)
        want = outcome(lambda: interpret(tree, dict(zip(coord_names(2), inputs))))
        assert_same(outcome(lambda: run(program, holo)), want)
        assert_same(outcome(lambda: program.on_jets(inputs)), want)
        assert want[0] == ("value" if inputs[0].order <= 2 else "raised")


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.sampled_from((1, 2)).flatmap(lambda n: st.tuples(st.just(n), expression_trees(n))))
def test_wirtinger_programs_match_the_converted_real_variable_jet(case):
    # an oracle for the (z, zbar) rules (the exponent swap of conj, re and
    # im over (z, zbar), the kept-set product filter) that reads none of
    # them: the same program over the real variables, then ``to_wirtinger``
    n, tree = case
    program = compile(tree, coord_names(n))
    for holo in BASE_POINTS:
        try:
            with np.errstate(all="raise"):
                (z,) = on_coordinates([program], holo[:n], 4, wirtinger=True)
                (x,) = on_coordinates([program], holo[:n], 4)
        except ArithmeticError:
            continue
        if not isinstance(z, Jet):  # a constant tree
            continue
        want = x.to_wirtinger()
        if not (np.all(np.isfinite(z.coeffs)) and np.all(np.isfinite(want.coeffs))):
            continue
        scale = 1.0 + np.max(np.abs(want.coeffs))
        assert np.max(np.abs(z.coeffs - want.coeffs)) <= 1e-9 * scale, tree


@pytest.mark.parametrize(
    "tree, error",
    [
        (("pow", "w1"), SpecFormatError),
        (("log",), SpecFormatError),
        (("/", "w1"), SpecFormatError),
        (("+",), SpecFormatError),
        (("log", "w1", "w1"), SpecFormatError),
        (("*", 2j, ("abs2", "w1")), SpecFormatError),
        (("sin", "w1"), UnknownPrimitiveError),
        (("abs2", "w2"), UnknownPrimitiveError),
    ],
)
def test_compile_refuses_trees_outside_the_grammar(tree, error):
    # compile checks a tree by the grammar's one rule set, ``validate``, so
    # a bundle built through the API fails as a spec file does, never with
    # an IndexError or by dropping an argument
    with pytest.raises(error):
        compile(tree, ("w1",))
    cpn1 = builtin_cpn(1)
    chart = PotentialChart(1, tree, cpn1.chart.box, label="malformed")
    with pytest.raises(error):
        verdict(ManifoldBundle(chart, cpn1.mapping, cpn1.locus), SamplingConfig(4, 4))


def is_subsequence(rows, of):
    """Whether the table rows ``rows`` appear in ``of`` in the same order."""
    keys = [tuple(r) for r in np.stack(rows, axis=1).tolist()]
    remaining = iter(tuple(r) for r in np.stack(of, axis=1).tolist())
    return all(key in remaining for key in keys)


@pytest.mark.parametrize("name, n", DEFAULT_SUITE + (("cpn", 6), ("toric-fs", 4)))
def test_planned_products_keep_rows_of_their_selection_in_table_order(name, n):
    bundle = make_builtin(name, n)
    point = admitted_points(bundle.chart, 1)[0]
    for order in (2, 4):
        program = compile(bundle.chart.potential, coord_names(n))
        on_coordinates([program], point.holo, order, wirtinger=True)
        (plan,) = program._plans.values()
        assert plan.products
        for key, rows in plan.products:
            selection = plan.space._mul_selection(*key)
            assert len(rows[0]) <= len(selection[0])
            assert is_subsequence(rows, selection), (name, n, order, key)


def test_folding_takes_whole_constant_subtrees_only():
    names = ("w1",)
    # no reassociation: (w1 + 1) + 2, not w1 + 3
    assert compile(("+", "w1", 1, 2), names)._root == ("+", ("input", 0), ("const", 1), ("const", 2))
    assert compile(("*", "w1", ("+", 1, 2)), names)._root == ("*", ("input", 0), ("const", 3))
    assert compile(("exp", ("+", 1, "I")), names)._root == ("const", np.exp(1 + 1j))
    # a constant that raises or sets a floating-point flag stays a subtree
    # and fails where the program runs, as the tree walk does
    for tree, error in ((("log", 0), FloatingPointError), (("/", 1, 0), ZeroDivisionError)):
        program = compile(tree, names)
        assert program._root[0] != "const"
        with np.errstate(all="raise"), pytest.raises(error):
            program.on_numbers((0.5,))
