"""Expression trees over the supported analytic primitive set, compiled
into programs.

Expressions are plain nested tuples (lists in JSON):

    ("log", ("+", 1, ("abs2", "w1"), ("abs2", "w2")))

Heads: ``+ - * / pow log exp sqrt abs2 conj re im``.  Leaves are numbers or
identifiers; the identifier ``I`` is reserved for the imaginary unit.  The
same tree evaluates over plain complex numbers or over jets, which is what
makes exact differentiation of composed data (potentials after pullbacks,
fields along a parametrized locus) a matter of seeding the inputs.

``compile(expr, names)`` checks a tree against the grammar (``validate``)
and turns it into a ``Program`` once: every whole subtree without an
identifier is folded into its value (``("+", "w1", 1, 2)`` stays
(w1 + 1) + 2), and the rest becomes nested closures, run as they are on
numbers.  On jets a program runs a plan, made once per input structure
(space, order, degree, variable kind and nonzero pattern of each input) and
kept on the program (a taped evaluation: Griewank & Walther, *Evaluating
Derivatives*, 2nd ed., SIAM 2008).  ``on_coordinates`` and ``on_parameters``
build the coordinate or parameter jets themselves, so they know that
structure; at the base values of P points they run each program once, on
the stacked jets of all.  A plan runs the operations of ``jets._Operations``
from where each input may be nonzero, so each product keeps only the rows
its operands' supports reach; a ``Jet`` operator plans on supports read off
its operands' degrees.  While every coefficient is finite, a row the plan
drops adds an exact zero to a sum from +0.0, so the two agree bit for bit;
a Taylor series with a non-finite coefficient raises under
``np.errstate(over="raise")`` in both.  ``evaluate`` is compile-and-run.
"""

from __future__ import annotations

import numbers
import operator

import numpy as np

from .errors import SpecFormatError, UnknownPrimitiveError
from .jets import Jet, _Operations, _Shape, _with_constant, coordinate_jets, jet_space

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
    that order.  A tree outside the grammar raises here, by ``validate``:
    UnknownPrimitiveError for an unknown identifier or head, SpecFormatError
    for anything else."""
    validate(expr, names)
    return Program(_node(expr, {name: i for i, name in enumerate(names)}))


def _node(expr, index):
    """The node of a valid tree: ("const", value), ("input", i), ("pow",
    base, exponent), ("neg", x) for a unary minus, or (head, argument, ...),
    with every constant subtree folded."""
    if isinstance(expr, str):
        return ("const", 1j) if expr == "I" else ("input", index[expr])
    if isinstance(expr, numbers.Number):
        return ("const", expr)
    head, args = expr[0], expr[1:]
    if head == "pow":
        node = ("pow", _node(args[0], index), args[1])
    elif head in _BINARY:
        kids = tuple(_node(a, index) for a in args)
        node = ("neg",) + kids if head == "-" and len(kids) == 1 else (head,) + kids
    else:
        node = (head, _node(args[0], index))
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
            (x.space, x.order, x.degree, x.wirtinger, _support(x)[1:].tobytes())
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
    inputs = [space.variable(d, x) for d, x in enumerate(t)]
    return [program._run_plan(("parameters", len(t), order), inputs) for program in programs]


def _support(jet):
    """Where a jet, or any jet of a stack, is nonzero, and its constant term."""
    support = np.zeros(jet.space.size, dtype=bool)
    support[np.nonzero(jet.coeffs)[0]] = True
    return _with_constant(support)


class _Plan(_Operations):
    """A program on its inputs' values: numbers, or the coefficient arrays of
    jets of one space.  Every node becomes a closure over fixed index tables
    that evaluates its arguments in tree order and then applies the number
    operation, or the jet operation of ``jets._Operations`` planned on its
    operands' shapes."""

    def __init__(self, root, inputs):
        super().__init__(next((x.space for x in inputs if isinstance(x, Jet)), None))
        self._inputs, self._shapes = inputs, {}  # shapes of the inputs read
        self._run, self.shape = self._plan(root)
        del self._inputs, self._shapes

    def __call__(self, values):
        out = self._run(values)
        return out if self.shape is None else self.shape.jet(self.space, out)

    def _plan(self, node):
        """(closure, shape) of a node; the shape is None for a number."""
        kind = node[0]
        if kind == "const":
            value = node[1]
            return (lambda values: value), None
        if kind == "input":
            i, x = node[1], self._inputs[node[1]]
            if i not in self._shapes and isinstance(x, Jet):
                self._shapes[i] = _Shape(x.order, x.degree, x.wirtinger, _support(x))
            return (lambda values: values[i]), self._shapes.get(i)
        if kind in _BINARY:
            f, s = self._plan(node[1])
            for kid in node[2:]:
                g, t = self._plan(kid)
                if s is None and t is None:
                    op = _BINARY[kind]
                else:
                    op, s = self._binary(kind, s, t)
                f = (lambda f, g, op: lambda values: op(f(values), g(values)))(f, g, op)
            return f, s
        f, s = self._plan(node[1])
        if kind == "pow":
            p = node[2]
            op, shape = ((lambda x: complex(x) ** p), None) if s is None else self._pow(s, p)
        elif s is None:
            op, shape = (operator.neg if kind == "neg" else _UNARY[kind]), None
        else:
            op, shape = self._unary(kind, s)
        return (lambda values: op(f(values))), shape


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
