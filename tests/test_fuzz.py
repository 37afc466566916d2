"""Random grammar trees: ``verdict`` always ends with an exit code, never raises."""

from hypothesis import given, settings
from hypothesis import strategies as st

from einlocus import AntiholoMap, FixedLocusParam, ManifoldBundle, PotentialChart, verdict
from einlocus.exprs import UNARY_HEADS, coord_names
from einlocus.sampling import SamplingConfig

NUMBERS = st.one_of(
    st.integers(-3, 3),
    st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False),
)
EXPONENTS = st.one_of(st.integers(-3, 4), st.sampled_from((-1.5, -0.5, 0.5, 1.5)))


def expression_trees(n):
    """Trees over every head of the grammar, with leaves I, numeric literals
    and the coordinates w1..wn."""
    leaves = st.one_of(st.sampled_from(("I",) + coord_names(n)), NUMBERS)

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
