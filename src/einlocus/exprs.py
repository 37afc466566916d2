"""Expression trees over the supported analytic primitive set, compiled
into programs.

Expressions are plain nested tuples (lists in JSON):

    ("log", ("+", 1, ("abs2", "w1"), ("abs2", "w2")))

Heads: ``+ - * / pow log exp sqrt abs2 conj re im``.  Leaves are numbers or
identifiers; the identifier ``I`` is reserved for the imaginary unit.  The
same tree evaluates over plain complex numbers or over jets, which is what
makes exact differentiation of composed data (potentials after pullbacks,
fields along a parametrized locus) a matter of seeding the inputs.

``compile(expr, names)`` turns a tree into a ``Program`` once: every
subtree without an identifier is folded into its value (a whole subtree
only, so ``("+", "w1", 1, 2)`` stays (w1 + 1) + 2), and the rest becomes
nested closures.  On numbers a program runs those closures.  On jets it
runs a plan, made once per input structure (the jet space, order, degree,
variable kind and nonzero pattern of each input) and kept on the program
(a taped evaluation: Griewank & Walther, *Evaluating Derivatives*, 2nd
ed., SIAM 2008).  ``on_coordinates`` and ``on_parameters`` build the
coordinate or parameter jets at a base point themselves, so they know
that structure without reading it off the inputs.  The plan starts from the
positions where each input jet may be nonzero (a coordinate z_j over
(z, zbar) is nonzero at 1 and z_j only, a parameter t_d at 1 and t_d) and
carries that support through every operation.  Each product keeps, in
table order, only the rows of its degree-block selection
(``JetSpace._mul_selection``) whose two operand positions are both in
support, and every truncation mask and every Horner step of the analytic
compositions is fixed when the plan is made.  While every coefficient is
finite, a dropped row could only add an exact zero to a sum that starts
at +0.0, so the coefficients are those of the jet operations in ``jets``,
bit for bit.  An infinite coefficient is outside that claim: the jet
operation multiplies it by the structural zeros the plan drops, an
invalid inf * 0 the plan never performs, so where the jet operation
raises under ``np.errstate(invalid="raise")`` the plan need not.
``evaluate`` is compile-and-run.

The plans and the ``Jet`` operations are two implementations of one
semantics, held to each other by a hypothesis test.  Filtering rows inside
``Jet.__mul__`` instead, by its operands' nonzero positions, keeps the row
cut but not the gain: at the suite's dimensions most of a plan's saving is
the per-operation Python it does not run (the ``Jet`` objects, degree and
kind bookkeeping and table lookups), and the row cut pays off from about
six complex dimensions up.
"""

from __future__ import annotations

import numbers
import operator

import numpy as np

from .errors import SpecFormatError, UnknownPrimitiveError
from .jets import (
    Jet,
    _exp_series,
    _fractional_pow_series,
    _log_series,
    _plus,
    _product,
    _reciprocal_series,
    coordinate_jets,
    jet_space,
    result_kind,
)

# Each unary head's operation on a number; the grammar that ``validate``
# checks is read off the same table.
_UNARY = {
    "log": lambda x: np.log(complex(x)),
    "exp": lambda x: np.exp(complex(x)),
    "sqrt": lambda x: np.sqrt(complex(x)),
    "abs2": lambda x: x * np.conj(x),
    "conj": np.conj,
    "re": lambda x: complex(x).real,
    "im": lambda x: complex(x).imag,
}
UNARY_HEADS = tuple(_UNARY)
# The heads that fold their arguments from the left, "/" over two of them.
_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}
HEADS = ("+", "-", "*", "/", "pow") + UNARY_HEADS


def compile(expr, names):
    """The program of one expression tree over the identifiers ``names``, in
    that order.  A tree outside the grammar raises here, as evaluating it
    would: UnknownPrimitiveError for an unknown identifier or head."""
    return Program(_node(expr, {name: i for i, name in enumerate(names)}))


def _node(expr, index):
    """The node of a tree: ("const", value), ("input", i), ("pow", base,
    exponent), ("neg", x) for a unary minus, or (head, argument, ...), with
    every constant subtree folded."""
    if isinstance(expr, str):
        if expr == "I":
            return ("const", 1j)
        if expr not in index:
            raise UnknownPrimitiveError(f"unknown identifier {expr!r}")
        return ("input", index[expr])
    if isinstance(expr, numbers.Number):
        return ("const", expr)
    head, args = expr[0], expr[1:]
    if head == "pow":
        if not isinstance(args[1], numbers.Number):
            raise UnknownPrimitiveError("pow exponent must be a numeric literal")
        node = ("pow", _node(args[0], index), args[1])
    elif head in ("+", "-", "*", "/"):  # a tuple: an unhashable head is no error here
        kids = tuple(_node(a, index) for a in ((args[0], args[1]) if head == "/" else args))
        node = ("neg",) + kids if head == "-" and len(kids) == 1 else (head,) + kids
    elif head in UNARY_HEADS:
        node = (head, _node(args[0], index))
    else:
        raise UnknownPrimitiveError(f"unknown primitive {head!r}")
    if any(kid[0] != "const" for kid in node[1:2 if head == "pow" else None]):
        return node
    # fold a whole constant subtree, never part of an argument list, so
    # ("+", "w1", 1, 2) stays (w1 + 1) + 2; one that raises or sets a
    # floating-point flag stays, to fail where the program runs
    try:
        with np.errstate(all="raise"):
            return ("const", _Plan(node, ())(()))
    except (ArithmeticError, TypeError, ValueError):
        return node


class Program:
    """A compiled expression tree.  ``on_numbers(values)`` runs it on
    numbers, one per name; ``on_jets(inputs)`` on jets of one space
    (numbers may stand in for some inputs).  Each runs a plan, made on
    first use per input structure and kept on the program; the module's
    ``on_coordinates`` and ``on_parameters`` run programs on the jets they
    build themselves."""

    def __init__(self, root):
        self._root = root
        self._plans = {}

    def on_numbers(self, values):
        plan = self._plans.get(None)
        if plan is None:
            plan = self._plans[None] = _Plan(self._root, (None,) * len(values))
        return plan(values)

    def on_jets(self, inputs):
        """The jet (or number, for a constant tree) of the program on
        ``inputs``.  A plan starts from each jet input's support: its
        nonzero positions and its constant term.  It is kept per input
        structure (space, order, degree, variable kind and the nonzero
        pattern outside the constant term of every jet input), read off
        the inputs on every call."""
        structure = tuple(
            (x.space, x.order, x.degree, x.wirtinger, (x.coeffs[1:] != 0).tobytes())
            if isinstance(x, Jet)
            else None
            for x in inputs
        )
        return self._run_plan(structure, inputs)

    def _run_plan(self, key, inputs):
        """The program on ``inputs`` by the plan kept under ``key``, made
        from these inputs if there is none."""
        plan = self._plans.get(key)
        if plan is None:
            plan = self._plans[key] = _Plan(self._root, inputs)
        return plan(tuple(x.coeffs if isinstance(x, Jet) else x for x in inputs))


def on_coordinates(programs, holo, order, wirtinger=False):
    """Each program's ``on_jets`` on the coordinate jets
    ``jets.coordinate_jets(holo, order, wirtinger)``, built once for all.
    Built here, their structure is known: it is the same at every base
    point, so each plan is kept per (number of coordinates, order, variable
    kind) without reading the structure off every call."""
    inputs = coordinate_jets(holo, order, wirtinger)
    key = ("coordinates", len(holo), order, wirtinger)
    return [program._run_plan(key, inputs) for program in programs]


def on_parameters(programs, t, order):
    """Each program's ``on_jets`` on the parameter jets
    ``JetSpace.variable(d, t[d])``, as ``on_coordinates`` does."""
    space = jet_space(len(t), order)
    inputs = [space.variable(d, float(x)) for d, x in enumerate(t)]
    return [program._run_plan(("parameters", len(t), order), inputs) for program in programs]


class _Shape:
    """What a plan knows of a jet-valued node before it runs: its order,
    degree, variable kind and the positions where it may be nonzero."""

    __slots__ = ("order", "degree", "wirtinger", "support")

    def __init__(self, order, degree, wirtinger, support):
        self.order, self.degree = order, degree
        self.wirtinger, self.support = wirtinger, support


def _with_constant(support):
    """A support with the constant term added."""
    support = support.copy()
    support[0] = True
    return support


class _Plan:
    """A program on its inputs' values: numbers, or the coefficient arrays of
    jets of one space.  Every node becomes a closure over fixed index tables
    that evaluates its arguments in tree order and then applies the number
    operation, or the jet operation of ``Jet`` with the same operand order
    and the rows its operands' supports reach."""

    def __init__(self, root, inputs):
        self.space = next((x.space for x in inputs if isinstance(x, Jet)), None)
        # (da, db, order, wirtinger) of each product's degree-block selection
        # and the rows (ia, ib, iout) that the plan keeps of it, in plan order
        self.products = []
        self._inputs = [
            _Shape(x.order, x.degree, x.wirtinger, _with_constant(x.coeffs != 0))
            if isinstance(x, Jet)
            else None
            for x in inputs
        ]
        self._run, self.shape = self._plan(root)

    def __call__(self, values):
        out = self._run(values)
        s = self.shape
        return out if s is None else Jet(self.space, out, s.order, s.degree, s.wirtinger)

    def _plan(self, node):
        """(closure, shape) of a node; the shape is None for a number."""
        kind = node[0]
        if kind == "const":
            value = node[1]
            return (lambda values: value), None
        if kind == "input":
            i = node[1]
            return (lambda values: values[i]), self._inputs[i]
        if kind in _BINARY:
            f, s = self._plan(node[1])
            for kid in node[2:]:
                g, t = self._plan(kid)
                op, s = self._binary(kind, s, t)
                f = (lambda f, g, op: lambda values: op(f(values), g(values)))(f, g, op)
            return f, s
        f, s = self._plan(node[1])
        if kind == "pow":
            op, shape = self._pow(s, node[2])
        elif kind == "neg":
            op, shape = (operator.neg if s is None else np.negative), s
        elif s is None:
            op, shape = _UNARY[kind], None
        else:
            op, shape = self._unary(kind, s)
        return (lambda values: op(f(values))), shape

    # -- operations: (op, shape), op on the operands' values ---------------------------

    def _binary(self, kind, sa, sb):
        if sa is None and sb is None:
            return _BINARY[kind], None
        if kind == "*":
            if sa is None:  # number * jet is jet * number
                return (lambda x, c: c * x), sb
            return (operator.mul, sa) if sb is None else self._product(sa, sb)
        if kind == "/":
            if sb is None:
                return operator.truediv, sa
            reciprocal, sr = self._compose(sb, _reciprocal_series)
            if sa is None:  # number / jet is the reciprocal times the number
                return (lambda x, c: reciprocal(c) * x), sr
            product, shape = self._product(sa, sr)
            return (lambda a, b: product(a, reciprocal(b))), shape
        # a jet minus anything is the jet plus its negation
        if sa is None or sb is None:
            s = sb if sa is None else sa
            shape = _Shape(s.order, s.degree, s.wirtinger, _with_constant(s.support))
            if sb is None:
                return ((lambda c, x: _plus(c, -x)) if kind == "-" else _plus), shape
            return ((lambda x, c: _plus(-c, x)) if kind == "-" else lambda x, c: _plus(c, x)), shape
        add = (lambda a, b: a + (-b)) if kind == "-" else operator.add
        order, degree = min(sa.order, sb.order), max(sa.degree, sb.degree)
        wirtinger = result_kind(sa.wirtinger, sa.degree, sb.wirtinger, sb.degree)
        support = sa.support | sb.support
        if degree <= order:
            return add, _Shape(order, degree, wirtinger, support)
        # Jet._truncated: coefficients above the order are zeroed only when
        # the degree reaches past it
        mask = self.space._masks[order]
        return (lambda a, b: add(a, b) * mask), _Shape(order, order, wirtinger, support & mask)

    def _product(self, sa, sb):
        """``Jet.__mul__`` of two jets: the rows of the degree-block selection
        whose operand positions are both in support, in table order."""
        order = min(sa.order, sb.order)
        da, db = min(sa.degree, order), min(sb.degree, order)
        wirtinger = result_kind(sa.wirtinger, sa.degree, sb.wirtinger, sb.degree)
        ia, ib, iout = self.space._mul_selection(da, db, order, wirtinger)
        keep = sa.support[ia] & sb.support[ib]
        table, size = (ia[keep], ib[keep], iout[keep]), self.space.size
        self.products.append(((da, db, order, wirtinger), table))
        support = np.zeros(size, dtype=bool)
        support[table[2]] = True
        shape = _Shape(order, min(da + db, order), wirtinger, support)
        return (lambda a, b: _product(a, b, table, size)), shape

    def _constant(self, order, wirtinger):
        """The shape of ``space.constant`` with the given order and kind."""
        return _Shape(order, 0, wirtinger, _with_constant(np.zeros(self.space.size, dtype=bool)))

    def _compose(self, s, series):
        """``Jet.compose_analytic`` with the Taylor coefficients
        ``series(value, order)``, every Horner step planned."""
        order, size = s.order, self.space.size
        h_support = s.support.copy()
        h_support[0] = False
        h = _Shape(order, s.degree, s.wirtinger, h_support)
        acc, steps = self._constant(self.space.capacity, False), []
        for k in range(order - 1, -1, -1):
            step, acc = self._product(acc, h)
            acc.support[0] = True
            steps.append((step, k))

        def compose(coeffs):
            cs = series(complex(coeffs[0]), order)
            h = coeffs.copy()
            h[0] = 0.0
            out = np.zeros(size, dtype=np.complex128)
            out[0] = cs[order]
            for step, k in steps:
                out = step(out, h)
                out[0] += cs[k]
            return out

        return compose, _Shape(order, min(acc.degree, order), s.wirtinger, acc.support)

    def _pow(self, s, p):
        """``Jet.pow``: an integral exponent by square-and-multiply from the
        constant 1 (after a reciprocal when negative), any other by its
        binomial series."""
        if s is None:
            return (lambda x: complex(x) ** p), None
        if not (isinstance(p, int) or (isinstance(p, float) and p.is_integer())):
            return self._compose(s, lambda u0, order: _fractional_pow_series(u0, p, order))
        p, reciprocal = int(p), None
        if p < 0:
            reciprocal, s = self._compose(s, _reciprocal_series)
            p = -p
        acc, base, steps, size = self._constant(s.order, s.wirtinger), s, [], self.space.size
        while p:
            if p & 1:
                step, acc = self._product(acc, base)
                steps.append((True, step))
            if p > 1:
                step, base = self._product(base, base)
                steps.append((False, step))
            p >>= 1

        def power(coeffs):
            b = coeffs if reciprocal is None else reciprocal(coeffs)
            out = np.zeros(size, dtype=np.complex128)
            out[0] = 1.0
            for into_acc, step in steps:
                if into_acc:
                    out = step(out, b)
                else:
                    b = step(b, b)
            return out

        return power, acc

    def _unary(self, head, s):
        if head == "log":
            return self._compose(s, _log_series)
        if head == "exp":
            return self._compose(s, _exp_series)
        if head == "sqrt":
            return self._pow(s, 0.5)
        # Jet.conjugate: over (z, zbar) the z and zbar exponents swap
        conj, sc = np.conj, s
        if s.wirtinger:
            swap = self.space._wirtinger_layout[1]
            conj, sc = (lambda c: np.conj(c[swap])), _Shape(s.order, s.degree, True, s.support[swap])
        if head == "conj":
            return conj, sc
        if head == "abs2":
            product, shape = self._product(s, sc)
            return (lambda c: product(c, conj(c))), shape
        if not s.wirtinger:
            if head == "re":
                return (lambda c: c.real.astype(np.complex128)), s
            return (lambda c: c.imag.astype(np.complex128)), s
        # over (z, zbar): (f + conj f) / 2 and (f - conj f) / 2i
        shape = _Shape(s.order, s.degree, True, s.support | sc.support)
        if head == "re":
            return (lambda c: 0.5 * (c + conj(c))), shape
        return (lambda c: -0.5j * (c - conj(c))), shape


def evaluate(expr, env):
    """Evaluate an expression tree in an environment of numbers or jets."""
    values = tuple(env.values())
    program = compile(expr, tuple(env))
    if any(isinstance(x, Jet) for x in values):
        return program.on_jets(values)
    return program.on_numbers(values)


def substitute(expr, mapping):
    """Structurally substitute identifiers, building a composed expression."""
    if isinstance(expr, str):
        return mapping.get(expr, expr)
    if isinstance(expr, numbers.Number):
        return expr
    return (expr[0],) + tuple(substitute(a, mapping) for a in expr[1:])


def validate(expr, allowed_names, path="expr"):
    """Check an expression against the primitive grammar.

    Raises :class:`SpecFormatError` or :class:`UnknownPrimitiveError` with a
    path into the offending subtree.
    """
    if isinstance(expr, str):
        if expr != "I" and expr not in allowed_names:
            raise UnknownPrimitiveError(f"{path}: unknown identifier {expr!r}")
        return
    if isinstance(expr, bool):
        raise SpecFormatError(f"{path}: booleans are not valid in expressions")
    if isinstance(expr, numbers.Number):
        if isinstance(expr, complex):
            raise SpecFormatError(f"{path}: complex literals are not allowed; use I")
        return
    if not isinstance(expr, (tuple, list)) or not expr:
        raise SpecFormatError(f"{path}: expected number, identifier or [head, ...]")
    head = expr[0]
    if head not in HEADS:
        raise UnknownPrimitiveError(f"{path}: unknown primitive {head!r}")
    argc = len(expr) - 1
    if head in UNARY_HEADS and argc != 1:
        raise SpecFormatError(f"{path}: {head} takes exactly one argument")
    if head == "/" and argc != 2:
        raise SpecFormatError(f"{path}: / takes exactly two arguments")
    if head == "pow":
        if argc != 2:
            raise SpecFormatError(f"{path}: pow takes exactly two arguments")
        if isinstance(expr[2], bool) or not isinstance(expr[2], numbers.Number):
            raise SpecFormatError(f"{path}: pow exponent must be a numeric literal")
    if head in ("+", "*", "-") and argc < 1:
        raise SpecFormatError(f"{path}: {head} needs at least one argument")
    for i, a in enumerate(expr[1:], start=1):
        if head == "pow" and i == 2:
            continue
        validate(a, allowed_names, f"{path}[{i}]")


def to_jsonable(expr):
    """Tuples become lists so trees serialize as plain JSON."""
    if isinstance(expr, (tuple, list)):
        return [expr[0]] + [to_jsonable(a) for a in expr[1:]]
    if isinstance(expr, complex):
        raise SpecFormatError("complex literals cannot be serialized; use I")
    return expr


def from_jsonable(obj):
    if isinstance(obj, list):
        if not obj or not isinstance(obj[0], str):
            raise SpecFormatError("expression list must start with a primitive name")
        return (obj[0],) + tuple(from_jsonable(a) for a in obj[1:])
    return obj


def coord_names(n, prefix="w"):
    return tuple(f"{prefix}{j + 1}" for j in range(n))
