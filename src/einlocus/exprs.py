"""Expression trees over the supported analytic primitive set.

Expressions are plain nested tuples (lists in JSON):

    ("log", ("+", 1, ("abs2", "w1"), ("abs2", "w2")))

Heads: ``+ - * / pow log exp sqrt abs2 conj re im``.  Leaves are numbers or
identifiers; the identifier ``I`` is reserved for the imaginary unit.  The
same tree evaluates over plain complex numbers or over jets, which is what
makes exact differentiation of composed data (potentials after pullbacks,
fields along a parametrized locus) a matter of seeding the environment.
"""

from __future__ import annotations

import numbers

import numpy as np

from .errors import SpecFormatError, UnknownPrimitiveError
from .jets import Jet

# Each unary head with its operation on a jet and on a number; the grammar
# that ``validate`` checks is read off the same table.
_UNARY = {
    "log": (lambda x: x.log(), lambda x: np.log(complex(x))),
    "exp": (lambda x: x.exp(), lambda x: np.exp(complex(x))),
    "sqrt": (lambda x: x.sqrt(), lambda x: np.sqrt(complex(x))),
    "abs2": (lambda x: x * x.conjugate(), lambda x: x * np.conj(x)),
    "conj": (lambda x: x.conjugate(), np.conj),
    "re": (lambda x: x.real, lambda x: complex(x).real),
    "im": (lambda x: x.imag, lambda x: complex(x).imag),
}
UNARY_HEADS = tuple(_UNARY)
HEADS = ("+", "-", "*", "/", "pow") + UNARY_HEADS


def evaluate(expr, env):
    """Evaluate an expression tree in an environment of numbers or jets."""
    if isinstance(expr, str):
        if expr == "I":
            return 1j
        try:
            return env[expr]
        except KeyError:
            raise UnknownPrimitiveError(f"unknown identifier {expr!r}") from None
    if isinstance(expr, numbers.Number):
        return expr
    head, args = expr[0], expr[1:]
    if head == "+":
        acc = evaluate(args[0], env)
        for a in args[1:]:
            acc = acc + evaluate(a, env)
        return acc
    if head == "*":
        acc = evaluate(args[0], env)
        for a in args[1:]:
            acc = acc * evaluate(a, env)
        return acc
    if head == "-":
        if len(args) == 1:
            return -evaluate(args[0], env)
        acc = evaluate(args[0], env)
        for a in args[1:]:
            acc = acc - evaluate(a, env)
        return acc
    if head == "/":
        return evaluate(args[0], env) / evaluate(args[1], env)
    if head == "pow":
        exponent = args[1]
        if not isinstance(exponent, numbers.Number):
            raise UnknownPrimitiveError("pow exponent must be a numeric literal")
        base = evaluate(args[0], env)
        return base.pow(exponent) if isinstance(base, Jet) else complex(base) ** exponent
    if head in UNARY_HEADS:  # a tuple: an unhashable head falls through to the error
        on_jet, on_number = _UNARY[head]
        x = evaluate(args[0], env)
        return on_jet(x) if isinstance(x, Jet) else on_number(x)
    raise UnknownPrimitiveError(f"unknown primitive {head!r}")


def substitute(expr, mapping):
    """Structurally substitute identifiers, building a composed expression."""
    if isinstance(expr, str):
        return mapping.get(expr, expr)
    if isinstance(expr, numbers.Number):
        return expr
    return (expr[0],) + tuple(substitute(a, mapping) for a in expr[1:])


def free_identifiers(expr, acc=None):
    if acc is None:
        acc = set()
    if isinstance(expr, str):
        if expr != "I":
            acc.add(expr)
    elif not isinstance(expr, numbers.Number):
        for a in expr[1:]:
            free_identifiers(a, acc)
    return acc


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
