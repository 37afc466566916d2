"""Truncated multivariate Taylor (jet) arithmetic.

A jet stores the Taylor coefficients of a scalar field in ``nvars`` real
variables around a base point, truncated at total degree ``capacity`` (4 by
default, what curvature from a potential needs).  The coefficient of
multi-index alpha is the alpha-th partial over alpha!, so sums, products and
compositions with analytic functions are exact polynomial operations.

Each jet carries an ``order`` <= capacity up to which its coefficients are
known (differentiating costs one, a product takes the smaller; above it they
are zero), and a ``degree`` <= order bounding the total degree that may be
nonzero: 1 for a coordinate, 0 for a constant, the larger for a sum, the sum
for a product (capped at the order), one less for a derivative (never below
0).  The multiplication table is laid out in blocks by the degree pair
(d1, d2) of its operand coefficients, and a product runs only the blocks its
operands' degrees reach.  A jet built from coefficients has degree = order.

A jet over 2n variables can also be a jet over the Wirtinger variables
(z_1, zbar_1, ..., z_n, zbar_n), interleaved like the real ones; its
``wirtinger`` marker says so, and is carried through every operation like
the degree.  Its coefficient of (alpha, beta), the exponents of z and of
zbar, is d^alpha dbar^beta f / (alpha! beta!).  Such a jet keeps only the
index set {|alpha| <= 2, |beta| <= 2} (``WIRTINGER_BIDEGREE``), which is
all that a metric, its derivatives and its curvature read off a potential
(R = -d dbar g + g^-1 dg dbar g).  The set is closed under the truncated
product, so the coefficients it keeps are exact: a product runs only the
table terms whose result lies in the set, beside the degree blocks above.
Conjugation swaps the z and zbar exponents and conjugates the coefficient,
so the real part is (f + conj f) / 2.  The same space carries jets over
real variables too; the two kinds do not mix, constants excepted.

Each jet operation is written once, in ``_Operations``, on bare
coefficient arrays: planning it fixes its index tables and its result's
order, degree and kind from its operands', and a product keeps only the
table rows its operands' supports (where each may be nonzero) reach.  An
expression program (``exprs.Program``) plans a whole tree from the
supports of its inputs; a ``Jet`` operator runs a one-operation plan,
kept on the space, on supports read off its operands' degrees.  Either
runs on one jet's coefficients or on the stacked (size, P) coefficients
of P base points at once, with the same bits per point.
"""

from __future__ import annotations

import cmath
import math
import operator
from functools import cached_property, lru_cache, wraps

import numpy as np

from .coords import wirtinger_matrix
from .errors import JetOrderError

DEFAULT_ORDER = 4

# Largest holomorphic and largest antiholomorphic degree a Wirtinger jet keeps.
WIRTINGER_BIDEGREE = 2


def _multi_indices(nvars, order):
    """All exponent rows with total degree <= order, graded lexicographic:
    by degree, then in ascending tuple order."""
    rows = np.zeros((1, nvars), dtype=np.int64)
    last = np.zeros(1, dtype=np.int64)  # the highest variable each row raised
    by_degree = [rows]
    for _ in range(order):
        # raising only variables >= the last one raised reaches every
        # exponent row of the next degree exactly once
        parent, var = np.nonzero(np.arange(nvars) >= last[:, None])
        rows = rows[parent]
        rows[np.arange(len(var)), var] += 1
        last = var
        by_degree.append(rows)
    # lexsort's last key is its primary one: variable 0 sorts first
    return np.concatenate([r[np.lexsort(r.T[::-1])] for r in by_degree])


def _table_per_key(build):
    """A space's table method kept per argument tuple in the space's own
    ``__dict__``, under the method's name plus "s": built on first use and
    freed with its space, which a module-level cache would keep alive."""
    store = build.__name__ + "s"

    @wraps(build)
    def get(space, *key):
        try:
            return space.__dict__[store][key]
        except KeyError:
            table = space.__dict__.setdefault(store, {})[key] = build(space, *key)
            return table

    return get


class JetSpace:
    """Shared tables for jets in a fixed number of variables and capacity.

    Holds the multi-index enumeration and the truncated multiplication
    table, built from whole arrays on construction.  Every other table (the
    differentiation maps, the (z, zbar) layout and read-offs, the black-box
    stencils and conversion, the selections of the multiplication table) is
    built on first use and kept on the space: a single table as a
    ``cached_property``, a table per key through ``_table_per_key``.
    Spaces are cached.  At capacity 4 a build takes about 0.3 ms at 4
    variables, 3.5 ms at 12, 11 ms at 16 and 20 ms at 18 (median of 15 on a
    2-core x86-64 host, Python 3.11, numpy 2.4).  Multi-indices are found by
    their base-(capacity + 1) keys (``_positions``, ``_lookup``); the space
    keeps no dict of them.
    """

    def __init__(self, nvars, capacity=DEFAULT_ORDER):
        self.nvars = nvars
        self.capacity = capacity
        self.indices = _multi_indices(nvars, capacity)
        self.size = len(self.indices)
        self.degree = self.indices.sum(axis=1)
        factorial = np.array([math.factorial(k) for k in range(capacity + 1)], dtype=np.float64)
        self._fact = factorial[self.indices].prod(axis=1)
        # degree <= o masks, used to truncate results of each operation
        self._masks = [self.degree <= o for o in range(capacity + 1)]
        # Exponents encoded in base (capacity+1); sums of in-range exponents
        # never carry because the truncation bound caps every entry.
        self._key_base = (capacity + 1) ** np.arange(nvars, dtype=np.int64)
        self._keys = self.indices @ self._key_base
        self._key_order = np.argsort(self._keys)
        self._build_mult_table()

    def _build_mult_table(self):
        by_deg = [np.nonzero(self.degree == d)[0] for d in range(self.capacity + 1)]
        ia_parts, ib_parts = [], []
        # (d1, d2) -> the table slice of the block whose operand coefficients
        # have degrees d1 and d2
        self._mul_blocks = {}
        start = 0
        for d1 in range(self.capacity + 1):
            for d2 in range(self.capacity + 1 - d1):
                a, b = by_deg[d1], by_deg[d2]
                ia_parts.append(np.repeat(a, len(b)))
                ib_parts.append(np.tile(b, len(a)))
                self._mul_blocks[d1, d2] = (start, start + len(ia_parts[-1]))
                start += len(ia_parts[-1])
        self._mul_ia = np.concatenate(ia_parts)
        self._mul_ib = np.concatenate(ib_parts)
        self._mul_iout = self._positions(self._keys[self._mul_ia] + self._keys[self._mul_ib])

    @_table_per_key
    def _mul_selection(self, da, db, order, wirtinger):
        """The multiplication table restricted to the blocks (d1, d2) with
        d1 <= da, d2 <= db and d1 + d2 <= order, in table order, and for
        Wirtinger jets to the terms whose result lies in the kept bidegree
        set.  The full table is the selection (capacity, capacity,
        capacity, False)."""
        rows = np.concatenate(
            [
                np.arange(lo, hi)
                for (d1, d2), (lo, hi) in self._mul_blocks.items()
                if d1 <= da and d2 <= db and d1 + d2 <= order
            ]
        )
        if wirtinger:
            rows = rows[self._wirtinger_layout[0][self._mul_iout[rows]]]
        table = (self._mul_ia, self._mul_ib, self._mul_iout)
        if len(rows) < len(self._mul_ia):  # the full table is not copied
            table = tuple(t[rows] for t in table)
        return table

    @_table_per_key
    def _operation(self, name, operands, *exponent):
        """The one-operation plan (op, shape) that a ``Jet`` operator runs,
        on ``operands`` given as (order, degree, wirtinger) for a jet and
        None for a number, and for "pow" on the exponent and its type (2
        and numpy's int64(2) are equal keys, but only 2 is integral).  A
        jet may be nonzero up to its degree, so a product keeps every row
        of its degree-block selection."""
        ops = _Operations(self)
        shapes = [None if x is None else _Shape(*x, self.degree <= x[1]) for x in operands]
        if name == "pow":
            return ops._pow(*shapes, exponent[0])
        if name == "compose":
            return ops._compose(*shapes)
        if len(shapes) == 2:
            return ops._binary(name, *shapes)
        return ops._unary(name, *shapes)

    @cached_property
    def _deriv(self):
        """(source positions, target positions, factors) of each d/dx_v: the
        coefficient of alpha lands on alpha - e_v, times alpha_v.  No
        verdict stage differentiates a jet."""
        tables = []
        for v in range(self.nvars):
            src = np.nonzero(self.indices[:, v] > 0)[0]
            dst = self._positions(self._keys[src] - self._key_base[v])
            tables.append((src, dst, self.indices[src, v].astype(np.float64)))
        return tables

    @cached_property
    def _wirtinger_layout(self):
        """For jets over (z_1, zbar_1, ..., z_n, zbar_n): the mask of the kept
        index set, and the position of every index with its z and zbar
        exponents swapped."""
        hol, anti = self.indices[:, 0::2].sum(axis=1), self.indices[:, 1::2].sum(axis=1)
        kept = (hol <= WIRTINGER_BIDEGREE) & (anti <= WIRTINGER_BIDEGREE)
        swapped = self.indices.reshape(self.size, -1, 2)[:, :, ::-1]
        swap = self._positions(swapped.reshape(self.size, -1) @ self._key_base)
        return kept, swap

    def _positions(self, keys):
        """Coefficient positions of exponent keys (any shape).  A key that is
        not in the space still lands on some position; see ``_lookup``."""
        order = self._key_order
        return order.take(np.searchsorted(self._keys, keys, sorter=order), mode="clip")

    def _lookup(self, alphas):
        """Coefficient positions of multi-indices given by a caller, one per
        entry of ``alphas``.  Each position is checked against the exponent
        row it holds, so an index outside the space raises KeyError rather
        than aliasing a neighbour (an exponent past the capacity carries into
        the next variable's digit of its key)."""
        try:
            rows = np.array(alphas, dtype=np.int64).reshape(len(alphas), self.nvars)
        except ValueError:
            raise KeyError(f"multi-indices over {self.nvars} variables expected") from None
        pos = self._positions(rows @ self._key_base)
        missing = np.any(self.indices[pos] != rows, axis=1)
        if missing.any():
            raise KeyError(tuple(rows[missing.argmax()].tolist()))
        return pos

    def _monomial_table(self, grid):
        """Coefficient positions and factorials alpha! of the monomials
        x_{grid[0]} ... x_{grid[k-1]}: ``grid`` holds k variable indices
        along its first axis, and the result has the shape of its others."""
        pos = self._positions(self._key_base[grid].sum(axis=0))
        return pos, self._fact[pos]

    @_table_per_key
    def _tensor_table(self, k):
        """The order-k partials' table, as a full (nvars,)*k array."""
        return self._monomial_table(np.indices((self.nvars,) * k, dtype=np.int64))

    @_table_per_key
    def _wirtinger_table(self, holo):
        """The read-off table of the mixed Wirtinger partials of a (z, zbar)
        jet: slot s of the pattern ``holo`` is d/dz (True) or d/dzbar
        (False), and the partial at (j_1, ..., j_k) is the coefficient of the
        monomial with one factor z_{j_s} or zbar_{j_s} per slot, times
        alpha! beta!; each array has the shape (n,) * k."""
        k, n = len(holo), self.nvars // 2
        kind = np.array([0 if h else 1 for h in holo]).reshape((k,) + (1,) * k)
        return self._monomial_table(2 * np.indices((n,) * k, dtype=np.int64) + kind)

    @cached_property
    def _to_wirtinger_table(self):
        """(rows, pos, weight) of the conversion from real variables to
        (z, zbar): the kept positions, and for each the 2^capacity real
        coefficient positions and weights that sum to it.  Each d/dz or
        d/dzbar touches only the two real variables of its coordinate, with
        weights the ``wirtinger_matrix`` entries (1/2 and -i/2, conjugated for
        d/dzbar) per slot, times the factorials.  A slot that a lower-degree
        row leaves empty counts only its x choice, with weight 1."""
        k = self.capacity
        rows = np.nonzero(self._wirtinger_layout[0])[0]
        # each row's z and zbar variables, one per slot, padded with -1
        variables = np.arange(self.nvars)
        slots = np.array(
            [[*np.repeat(variables, e), *[-1] * (k - e.sum())] for e in self.indices[rows]]
        )[:, None, :]
        bits = np.indices((2,) * k).reshape(k, -1).T  # x (0) or y (1) per slot
        w = wirtinger_matrix(1)[0]  # d/dz on (x, y)
        per_slot = np.where(slots < 0, bits == 0, np.where(slots % 2, w.conj()[bits], w[bits]))
        keys = np.where(slots < 0, 0, self._key_base[slots // 2 * 2 + bits]).sum(axis=2)
        pos = self._positions(keys)
        return rows, pos, per_slot.prod(axis=2) * self._fact[pos] / self._fact[rows][:, None]

    @cached_property
    def _fd_stencils(self):
        """Every coefficient's tensor-product central-difference stencil at
        the two Richardson steps, as one table.

        Returns ``(offsets, (slots, rows, weights))``.  ``offsets`` holds
        the distinct integer offset vectors (in units of the step) in
        first-use order.  A lift evaluates them at step h and then at h/2,
        and sums into one vector of 2 * size slots: the coefficients at step
        h, then at h/2.  Each term of the sum has its slot, the row of its
        value and its weight; the terms are ordered by their index j in
        their stencil (at most 16), so adding them up in table order sums
        each coefficient in the order of its per-variable stencils.
        """
        first_use = {}
        rows, weights = [], []
        for alpha in self.indices:
            offs, wts = [()], [1.0]
            for k in alpha:
                o, c = _CENTRAL_STENCILS[int(k)]
                offs = [prev + (s,) for prev in offs for s in o]
                wts = [w * x for w in wts for x in c]
            rows.append([first_use.setdefault(off, len(first_use)) for off in offs])
            weights.append(wts)
        count = len(first_use)
        terms = []
        for j in range(max(map(len, rows))):
            live = np.array([p for p, r in enumerate(rows) if len(r) > j], dtype=np.int64)
            row = np.array([rows[p][j] for p in live], dtype=np.int64)
            weight = np.array([weights[p][j] for p in live])
            terms.append((live, row, weight))
            terms.append((live + self.size, row + count, weight))
        return np.array(list(first_use), dtype=float), tuple(map(np.concatenate, zip(*terms)))

    # -- constructors -------------------------------------------------------

    def constant(self, value):  # stacked if ``value`` is an array of P values
        coeffs = np.zeros((self.size,) + np.shape(value), dtype=np.complex128)
        coeffs[0] = value
        return Jet(self, coeffs, self.capacity, 0)

    def variable(self, v, base_value=0.0):
        """The coordinate function x_v expanded around base_value."""
        if not 0 <= v < self.nvars:
            raise KeyError(f"no variable {v} among {self.nvars}")
        coeffs = np.zeros((self.size,) + np.shape(base_value), dtype=np.complex128)
        coeffs[0] = base_value
        coeffs[self._tensor_table(1)[0][v]] = 1.0
        return Jet(self, coeffs, self.capacity, 1)


@lru_cache(maxsize=32)
def jet_space(nvars, capacity=DEFAULT_ORDER):
    return JetSpace(nvars, capacity)


def coordinate_jets(holo, order=DEFAULT_ORDER, wirtinger=False):
    """Jets of the holomorphic coordinates z^j around the point ``holo``,
    each of degree 1: over (z, zbar) z^j is variable 2j, over the
    interleaved real variables it is x^j + i y^j.  Given arrays of values
    at P points, the jets are stacked: coefficients of shape (size, P)."""
    space = jet_space(2 * len(holo), order)
    units = space._tensor_table(1)[0]
    jets = []
    for j, z in enumerate(holo):
        coeffs = np.zeros((space.size,) + np.shape(z), dtype=np.complex128)
        coeffs[0], coeffs[units[2 * j]] = z, 1.0
        if not wirtinger:
            coeffs[units[2 * j + 1]] = 1j
        jets.append(Jet(space, coeffs, order, 1, wirtinger))
    return jets


def result_kind(wirtinger_a, degree_a, wirtinger_b, degree_b):
    """Whether the result of an operation on two jets is over (z, zbar):
    jets over real variables and over (z, zbar) meet only as constants."""
    if wirtinger_a is wirtinger_b:
        return wirtinger_a
    if degree_a and degree_b:
        raise ValueError("jets over real variables and over (z, zbar) do not mix")
    return True


def _plus(coeffs, value):
    """The coefficients of a jet plus a number."""
    coeffs = coeffs.copy()
    coeffs[0] += value
    return coeffs


STACKED_TERMS = 1024  # the most table rows plus jet size of a product summed as a stack


def _product(a, b, table, size):
    """The coefficients of a product from its operands' coefficients ``a``
    and ``b`` and rows ``table`` = (ia, ib, iout) of the multiplication
    table: each output sums its terms in table order, from +0.0.  A small
    stacked product sums all points' real and imaginary parts in one
    ``np.bincount``, in index order from +0.0 as ``np.add.at`` does; a
    larger one, or a sum that is not finite (so that numpy raises or warns
    as it would), runs ``np.add.at`` per point."""
    ia, ib, iout = table
    terms = a.take(ia, axis=0) * b.take(ib, axis=0)
    if terms.ndim > 1 and len(iout) + size <= STACKED_TERMS:
        parts = terms.view(np.float64)  # (rows, 2P): re, im per point
        width = parts.shape[1]
        index = (iout * width)[:, None] + np.arange(width)
        prod = np.bincount(index.ravel(), parts.ravel(), size * width)
        prod = prod.view(np.complex128).reshape(size, -1)
        if np.isfinite(prod).all():
            return prod
    prod = np.zeros((size,) + terms.shape[1:], dtype=np.complex128)
    for column, column_terms in zip(prod.reshape(size, -1).T, terms.reshape(len(iout), -1).T):
        np.add.at(column, iout, column_terms)
    return prod


def _conjugate(coeffs, swap):
    """The conjugate's coefficients: over (z, zbar) the z and zbar exponents
    swap too, ``swap`` holding each position's swapped one (None over real
    variables)."""
    return np.conj(coeffs if swap is None else coeffs.take(swap, axis=0))


def _real(coeffs, swap):
    """The real part's coefficients: (f + conj f) / 2 over (z, zbar)."""
    if swap is None:
        return coeffs.real.astype(np.complex128)
    return 0.5 * (coeffs + _conjugate(coeffs, swap))


# The Taylor coefficients c_k = g^(k)(u0) / k!, k <= order, of the analytic
# functions a jet composes with.  Python's complex arithmetic overflows to
# inf or nan without a floating-point flag, so a coefficient that is not
# finite raises where numpy raises on overflow, as in a verdict.


def _finite(name, u0, cs):
    if not all(map(cmath.isfinite, cs)) and np.geterr()["over"] == "raise":
        raise FloatingPointError(f"{name} series at {u0} has a non-finite Taylor coefficient")
    return cs


def _reciprocal_series(u0, order):
    if u0 == 0:
        raise ZeroDivisionError("jet with zero constant term has no reciprocal")
    return _finite("reciprocal", u0, [(-1.0) ** k / u0 ** (k + 1) for k in range(order + 1)])


def _log_series(u0, order):
    if u0 == 0:
        raise ZeroDivisionError("log of jet with zero constant term")
    cs = [np.log(u0)]
    for k in range(1, order + 1):
        cs.append((-1.0) ** (k + 1) / (k * u0 ** k))
    return _finite("log", u0, cs)


def _exp_series(u0, order):
    e0 = np.exp(u0)
    return _finite("exp", u0, [e0 / math.factorial(k) for k in range(order + 1)])


def _fractional_pow_series(u0, p, order):
    if u0 == 0:
        raise ZeroDivisionError("fractional power of jet with zero constant term")
    cs, binom = [], 1.0
    for k in range(order + 1):
        cs.append(binom * u0 ** (p - k))
        binom *= (p - k) / (k + 1)
    return _finite(f"power {p}", u0, cs)


_SERIES = {"reciprocal": _reciprocal_series, "log": _log_series, "exp": _exp_series}


class _Shape:
    """What a plan knows of a jet before it runs: its order, degree,
    variable kind and the positions where it may be nonzero."""

    __slots__ = ("order", "degree", "wirtinger", "support")

    def __init__(self, order, degree, wirtinger, support):
        self.order, self.degree = order, degree
        self.wirtinger, self.support = wirtinger, support

    def jet(self, space, coeffs):
        return Jet(space, coeffs, self.order, self.degree, self.wirtinger)


def _with_constant(support):
    """A support with the constant term added."""
    support = support.copy()
    support[0] = True
    return support


class _Operations:
    """The jet operations on the coefficient arrays of one space, each
    planned from its operands' shapes: a method returns (op, shape), op
    mapping the operands' values (coefficient arrays, or numbers where a
    shape is None) to the result's coefficients.  Every index table is fixed
    when the operation is planned, and each product keeps, in table order,
    only the rows of its degree-block selection whose two operand positions
    are in support.  An expression program plans its whole tree here
    (``exprs._Plan``), each ``Jet`` operator one operation
    (``JetSpace._operation``)."""

    def __init__(self, space):
        self.space = space
        # (da, db, order, wirtinger) of each product's degree-block selection
        # and the rows (ia, ib, iout) that the plan keeps of it, in plan order
        self.products = []

    def _binary(self, kind, sa, sb):
        """+ - * / with at least one jet operand."""
        if kind == "*":
            if sa is None:  # number * jet is jet * number
                return (lambda x, c: c * x), sb
            return (operator.mul, sa) if sb is None else self._product(sa, sb)
        if kind == "/":
            if sb is None:
                return operator.truediv, sa
            reciprocal, sr = self._unary("reciprocal", sb)
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
        # coefficients above the order are zeroed only when the degree
        # reaches past it
        mask = self.space._masks[order]
        return (lambda a, b: (add(a, b).T * mask).T), _Shape(order, order, wirtinger, support & mask)

    def _product(self, sa, sb):
        """The product of two jets: order the smaller, degree the sum of
        the operands' (capped at the order), over the rows of the
        degree-block selection whose operand positions are both in support.
        When every row is kept the plan shares the selection's arrays."""
        order = min(sa.order, sb.order)
        da, db = min(sa.degree, order), min(sb.degree, order)
        wirtinger = result_kind(sa.wirtinger, sa.degree, sb.wirtinger, sb.degree)
        ia, ib, iout = table = self.space._mul_selection(da, db, order, wirtinger)
        keep = sa.support[ia] & sb.support[ib]
        if not keep.all():
            table = (ia[keep], ib[keep], iout[keep])
        size = self.space.size
        self.products.append(((da, db, order, wirtinger), table))
        support = np.zeros(size, dtype=bool)
        support[table[2]] = True
        shape = _Shape(order, min(da + db, order), wirtinger, support)
        return (lambda a, b: _product(a, b, table, size)), shape

    def _constant(self, order, wirtinger):
        """The shape of ``space.constant`` with the given order and kind."""
        return _Shape(order, 0, wirtinger, _with_constant(np.zeros(self.space.size, dtype=bool)))

    def _compose(self, s):
        """The composition with a scalar analytic function: op(coeffs, cs)
        from the function's Taylor coefficients cs[k] = g^(k)(u0) / k!,
        k <= order, around the jet's constant term u0, by Horner's rule on
        the jet less its constant term, every step planned.  Each step keeps
        the rows that meet the zeroed constant term: an accumulator that is
        not finite turns them into nan, as a plain product would."""
        order = s.order
        acc, steps = self._constant(self.space.capacity, False), []
        for k in range(order - 1, -1, -1):
            step, acc = self._product(acc, s)
            acc.support[0] = True
            steps.append((step, k))

        def compose(coeffs, cs):
            h = coeffs.copy()
            h[0] = 0.0
            out = np.zeros(coeffs.shape, dtype=np.complex128)
            out[0] = cs[order]
            for step, k in steps:
                out = step(out, h)
                out[0] += cs[k]
            return out

        return compose, _Shape(order, min(acc.degree, order), s.wirtinger, acc.support)

    def _analytic(self, s, series):
        """``_compose`` with the coefficients ``series(u0, order)``, per
        point of a stack from its own constant term u0."""
        compose, shape = self._compose(s)
        order = s.order

        def analytic(c):
            cs = np.array([series(complex(u0), order) for u0 in np.ravel(c[0])]).T
            return compose(c, cs.reshape((order + 1,) + c.shape[1:]))

        return analytic, shape

    def _pow(self, s, p):
        """An integral exponent by square-and-multiply from the constant 1
        (after a reciprocal when negative), any other by its binomial
        series."""
        if not (isinstance(p, int) or (isinstance(p, float) and p.is_integer())):
            return self._analytic(s, lambda u0, order: _fractional_pow_series(u0, p, order))
        p, reciprocal = int(p), None
        if p < 0:
            reciprocal, s = self._unary("reciprocal", s)
            p = -p
        acc, base, steps = self._constant(s.order, s.wirtinger), s, []
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
            out = np.zeros(coeffs.shape, dtype=np.complex128)
            out[0] = 1.0
            for into_acc, step in steps:
                if into_acc:
                    out = step(out, b)
                else:
                    b = step(b, b)
            return out

        return power, acc

    def _unary(self, head, s):
        """neg, reciprocal, log, exp, sqrt, conj, abs2, re and im of a jet."""
        if head == "neg":
            return np.negative, s
        if head in _SERIES:
            return self._analytic(s, _SERIES[head])
        if head == "sqrt":
            return self._pow(s, 0.5)
        swap, sc = None, s
        if s.wirtinger:
            swap = self.space._wirtinger_layout[1]
            sc = _Shape(s.order, s.degree, True, s.support[swap])
        if head == "conj":
            return (lambda c: _conjugate(c, swap)), sc
        if head == "abs2":
            product, shape = self._product(s, sc)
            return (lambda c: product(c, _conjugate(c, swap))), shape
        shape = s if swap is None else _Shape(s.order, s.degree, True, s.support | sc.support)
        if head == "re":
            return (lambda c: _real(c, swap)), shape
        if swap is None:
            return (lambda c: c.imag.astype(np.complex128)), shape
        return (lambda c: -0.5j * (c - _conjugate(c, swap))), shape


def _structure(x):
    """What a one-operation plan is kept by: a jet's (order, degree, kind),
    None for a number."""
    return (x.order, x.degree, x.wirtinger) if isinstance(x, Jet) else None


class Jet:
    """A truncated Taylor polynomial; immutable by convention.

    ``degree`` (default ``order``) bounds the total degree of its nonzero
    coefficients, and ``wirtinger`` marks a jet over (z, zbar) rather than
    over real variables; see the module docstring.  Its arithmetic runs
    one-operation plans of ``_Operations``.  A stacked jet holds P base
    points' jets as (size, P) coefficients; its read-offs lead with P."""

    __slots__ = ("space", "coeffs", "order", "degree", "wirtinger")

    def __init__(self, space, coeffs, order, degree=None, wirtinger=False):
        self.space = space
        self.coeffs = coeffs
        self.order = order
        self.degree = order if degree is None else degree
        self.wirtinger = wirtinger

    # -- basic queries -------------------------------------------------------

    @property
    def value(self):
        """The constant term, i.e. the field value at the base point."""
        return complex(self.coeffs[0])

    def partial(self, alpha):
        """The partial derivative of multi-index alpha at the base point."""
        alpha = tuple(alpha)
        if sum(alpha) > self.order:
            raise JetOrderError(
                f"partial of total order {sum(alpha)} exceeds jet order {self.order}"
            )
        pos = self.space._lookup([alpha])[0]
        if self.wirtinger and not self.space._wirtinger_layout[0][pos]:
            raise JetOrderError(f"partial {alpha} lies outside the kept bidegree set")
        return complex(self.coeffs[pos] * self.space._fact[pos])

    def derivative_tensor(self, k):
        """The symmetric tensor of all order-k partials at the base point."""
        top = min(self.order, WIRTINGER_BIDEGREE) if self.wirtinger else self.order
        if not 1 <= k <= top:
            raise JetOrderError(f"order-{k} partials of a jet of order {self.order}")
        return self._read(*self.space._tensor_table(k))

    def wirtinger_tensor(self, holo):
        """The order-k Wirtinger partials of a (z, zbar) jet at the base
        point, k = len(holo): slot s is d/dz (holo[s] true) or d/dzbar.  One
        gather of coefficient times alpha! beta! (``_wirtinger_table``)."""
        if len(holo) > self.order:
            raise JetOrderError(f"order-{len(holo)} partials of a jet of order {self.order}")
        return self._read(*self.space._wirtinger_table(holo))

    def _read(self, pos, fact):  # the coefficients at pos times fact, a stack's points first
        gathered = self.coeffs.take(pos.ravel(), axis=0).T * fact.ravel()
        return gathered.reshape(self.coeffs.shape[1:] + pos.shape)

    def to_wirtinger(self):
        """The same field as a jet over (z, zbar), from this jet over the
        interleaved real variables: the black-box lift's one conversion.
        Each kept coefficient is a Wirtinger partial over alpha! beta!, a sum
        of at most 2^4 real coefficients (``JetSpace._to_wirtinger_table``)."""
        rows, pos, weight = self.space._to_wirtinger_table
        coeffs = np.zeros(self.space.size, dtype=np.complex128)
        coeffs[rows] = (self.coeffs[pos] * weight).sum(axis=1)
        return Jet(self.space, coeffs, self.order, self.degree, wirtinger=True)

    # -- arithmetic: one planned operation each ------------------------------

    def _planned(self, name, *operands):
        """The operation ``name`` on ``operands`` (jets of this space, or
        numbers), by its plan kept on the space."""
        op, shape = self.space._operation(name, tuple(map(_structure, operands)))
        return shape.jet(self.space, op(*(x.coeffs if isinstance(x, Jet) else x for x in operands)))

    def __add__(self, other):
        return self._planned("+", self, other)

    __radd__ = __add__

    def __neg__(self):
        return self._planned("neg", self)

    def __sub__(self, other):
        return self._planned("-", self, other)

    def __rsub__(self, other):
        return self._planned("-", other, self)

    def __mul__(self, other):
        return self._planned("*", self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._planned("/", self, other)

    def __rtruediv__(self, other):
        return self._planned("/", other, self)

    @property
    def _swap(self):
        return self.space._wirtinger_layout[1] if self.wirtinger else None

    def conjugate(self):
        """Over real variables conjugation acts on the coefficients only; over
        (z, zbar) it also swaps the z and zbar exponents."""
        coeffs = _conjugate(self.coeffs, self._swap)
        return Jet(self.space, coeffs, self.order, self.degree, self.wirtinger)

    @property
    def real(self):
        coeffs = _real(self.coeffs, self._swap)
        return Jet(self.space, coeffs, self.order, self.degree, self.wirtinger)

    @property
    def imag(self):
        return self._planned("im", self)

    # -- calculus ------------------------------------------------------------

    def deriv(self, v):
        """Partial derivative with respect to variable v; costs one order.
        A (z, zbar) jet is read off, never differentiated: its kept set does
        not hold the coefficients a derivative would need."""
        if self.wirtinger:
            raise JetOrderError("a jet over (z, zbar) cannot be differentiated exactly")
        if self.order < 1:
            raise JetOrderError("jet differentiated below order 0")
        src, dst, fac = self.space._deriv[v]
        out = np.zeros(self.space.size, dtype=np.complex128)
        out[dst] = self.coeffs[src] * fac
        return Jet(self.space, out, self.order - 1, max(self.degree - 1, 0))

    def compose_analytic(self, taylor_coeffs):
        """Compose with a scalar analytic function given by its own Taylor
        coefficients c_k = g^(k)(value)/k! around this jet's constant term."""
        compose, shape = self.space._operation("compose", (_structure(self),))
        return shape.jet(self.space, compose(self.coeffs, taylor_coeffs))

    def reciprocal(self):
        return self._planned("reciprocal", self)

    def log(self):
        return self._planned("log", self)

    def exp(self):
        return self._planned("exp", self)

    def sqrt(self):
        return self._planned("sqrt", self)

    def pow(self, p):
        op, shape = self.space._operation("pow", (_structure(self),), p, type(p))
        return shape.jet(self.space, op(self.coeffs))

    # -- restriction ---------------------------------------------------------

    def restrict(self, keep_vars, target_space=None):
        """Set all variables outside ``keep_vars`` to zero and re-express the
        jet in a space over the kept variables (in the given order)."""
        keep = list(keep_vars)
        sp = self.space
        if target_space is None:
            target_space = jet_space(len(keep), sp.capacity)
        dropped = np.ones(sp.nvars, dtype=bool)
        dropped[keep] = False
        rows = np.nonzero(~sp.indices[:, dropped].any(axis=1))[0]
        out = np.zeros(target_space.size, dtype=np.complex128)
        out[target_space._lookup(sp.indices[rows][:, keep])] = self.coeffs[rows]
        order = min(self.order, target_space.capacity)
        return Jet(target_space, out * target_space._masks[order], order)


# -- finite-difference fallback for black-box fields ---------------------------

FD_STEP_FACTOR = np.finfo(float).eps ** (1.0 / 6.0)

_CENTRAL_STENCILS = {
    0: ((0,), (1.0,)),
    1: ((-1, 1), (-0.5, 0.5)),
    2: ((-1, 0, 1), (1.0, -2.0, 1.0)),
    3: ((-2, -1, 1, 2), (-0.5, 1.0, -1.0, 0.5)),
    4: ((-2, -1, 0, 1, 2), (1.0, -4.0, 6.0, -4.0, 1.0)),
}


def lift_callable_to_jet(func, base_real, order=DEFAULT_ORDER, scale=1.0):
    """Approximate the jet of a black-box real scalar field by central finite
    differences with one Richardson step.  Low precision compared to the
    exact lift; callers should surface that in reports.

    ``func`` maps a real coordinate vector (length 2n) to a float.  It is
    called once per distinct stencil offset at step h and once at h/2.
    """
    x0 = np.asarray(base_real, dtype=float)
    space = jet_space(len(x0), order)
    offsets, (slots, rows, weights) = space._fd_stencils
    h = FD_STEP_FACTOR * max(scale, 1e-8)
    steps = (h, h / 2.0)
    points = np.concatenate([x0 + offsets * s for s in steps])
    values = np.array([func(x) for x in points])
    total = np.zeros(2 * space.size, dtype=np.result_type(values, float))
    np.add.at(total, slots, weights * values[rows])
    powers = np.array([[s**k for k in range(order + 1)] for s in steps])
    d_h, d_h2 = total.reshape(2, space.size) / powers[:, space.degree]
    return Jet(space, ((4.0 * d_h2 - d_h) / 3.0 / space._fact).astype(np.complex128), order)
