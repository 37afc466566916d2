"""Truncated multivariate Taylor (jet) arithmetic.

A jet stores the Taylor coefficients of a scalar field in ``nvars`` real
variables around a base point, truncated at total degree ``capacity``
(4 by default, which is what curvature from a potential needs).  The
coefficient of multi-index alpha is the alpha-th partial derivative divided
by alpha!; sums, products and compositions with analytic functions are then
exact polynomial operations, so no step-size error enters anywhere.

Each jet carries an ``order`` <= capacity up to which its coefficients are
guaranteed: differentiating costs one order, multiplying takes the minimum
of the factors.  Coefficients above ``order`` are kept identically zero.

Each jet also carries a ``degree`` <= order: a bound on the highest total
degree whose coefficient may be nonzero.  Order says how far a jet is
known, degree how far it can reach: a coordinate has degree 1 at every
order, a constant degree 0, a sum takes the larger and a product the sum
of its operands' degrees (capped at the order), and a derivative one less
(never below 0).  The multiplication table is laid out in blocks by the
degree pair (d1, d2) of its operand coefficients, and a product runs only
the blocks its operands' degrees can reach, so the polynomial stages of a
lift never multiply the exact zeros above their degree.  A jet built
directly from coefficients is dense: degree = order.

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

The jet operations here are the reference semantics of an expression
program (``exprs.Program``): a program runs the same operations on bare
coefficient arrays, through the kernels they share (``_product`` and the
Taylor series of the analytic functions), with every table fixed when the
program is planned and only the table rows its operands' supports reach.
"""

from __future__ import annotations

import math
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

    @cached_property
    def _deriv(self):
        """The differentiation maps of every variable: no verdict stage
        differentiates a jet."""
        return [self._deriv_table(v) for v in range(self.nvars)]

    def _deriv_table(self, v):
        """(source positions, target positions, factors) of d/dx_v: the
        coefficient of alpha lands on alpha - e_v, times alpha_v."""
        src = np.nonzero(self.indices[:, v] > 0)[0]
        dst = self._positions(self._keys[src] - self._key_base[v])
        return src, dst, self.indices[src, v].astype(np.float64)

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

    def constant(self, value):
        coeffs = np.zeros(self.size, dtype=np.complex128)
        coeffs[0] = value
        return Jet(self, coeffs, self.capacity, 0)

    def variable(self, v, base_value=0.0):
        """The coordinate function x_v expanded around base_value."""
        if not 0 <= v < self.nvars:
            raise KeyError(f"no variable {v} among {self.nvars}")
        coeffs = np.zeros(self.size, dtype=np.complex128)
        coeffs[0] = base_value
        coeffs[self._tensor_table(1)[0][v]] = 1.0
        return Jet(self, coeffs, self.capacity, 1)


@lru_cache(maxsize=32)
def jet_space(nvars, capacity=DEFAULT_ORDER):
    return JetSpace(nvars, capacity)


def coordinate_jets(holo, order=DEFAULT_ORDER, wirtinger=False):
    """Jets of the holomorphic coordinates z^j around the point ``holo``,
    each of degree 1, filled in one (n, size) array: over (z, zbar) z^j is
    variable 2j, over the interleaved real variables it is x^j + i y^j."""
    n = len(holo)
    space = jet_space(2 * n, order)
    units = space._tensor_table(1)[0]
    coeffs = np.zeros((n, space.size), dtype=np.complex128)
    rows = np.arange(n)
    coeffs[:, 0] = holo
    coeffs[rows, units[0::2]] = 1.0
    if not wirtinger:
        coeffs[rows, units[1::2]] = 1j
    return [Jet(space, c, order, 1, wirtinger) for c in coeffs]


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


def _product(a, b, table, size):
    """The coefficients of a product from its operands' coefficients ``a``
    and ``b`` and rows ``table`` = (ia, ib, iout) of the multiplication
    table: each output sums its terms in table order, from +0.0."""
    ia, ib, iout = table
    prod = np.zeros(size, dtype=np.complex128)
    np.add.at(prod, iout, a[ia] * b[ib])
    return prod


# The Taylor coefficients c_k = g^(k)(u0) / k!, k <= order, of the analytic
# functions a jet composes with (``Jet.compose_analytic``).


def _reciprocal_series(u0, order):
    if u0 == 0:
        raise ZeroDivisionError("jet with zero constant term has no reciprocal")
    return [(-1.0) ** k / u0 ** (k + 1) for k in range(order + 1)]


def _log_series(u0, order):
    if u0 == 0:
        raise ZeroDivisionError("log of jet with zero constant term")
    cs = [np.log(u0)]
    for k in range(1, order + 1):
        cs.append((-1.0) ** (k + 1) / (k * u0 ** k))
    return cs


def _exp_series(u0, order):
    e0 = np.exp(u0)
    return [e0 / math.factorial(k) for k in range(order + 1)]


def _fractional_pow_series(u0, p, order):
    if u0 == 0:
        raise ZeroDivisionError("fractional power of jet with zero constant term")
    cs, binom = [], 1.0
    for k in range(order + 1):
        cs.append(binom * u0 ** (p - k))
        binom *= (p - k) / (k + 1)
    return cs


class Jet:
    """A truncated Taylor polynomial; immutable by convention.

    ``degree`` (default ``order``) bounds the total degree of its nonzero
    coefficients, and ``wirtinger`` marks a jet over (z, zbar) rather than
    over real variables; see the module docstring."""

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
        pos, fact = self.space._tensor_table(k)
        return self.coeffs[pos] * fact

    def wirtinger_tensor(self, holo):
        """The order-k Wirtinger partials of a (z, zbar) jet at the base
        point, k = len(holo): slot s is d/dz (holo[s] true) or d/dzbar.  One
        gather of coefficient times alpha! beta! (``_wirtinger_table``)."""
        if len(holo) > self.order:
            raise JetOrderError(f"order-{len(holo)} partials of a jet of order {self.order}")
        pos, fact = self.space._wirtinger_table(holo)
        return self.coeffs[pos] * fact

    def to_wirtinger(self):
        """The same field as a jet over (z, zbar), from this jet over the
        interleaved real variables: the black-box lift's one conversion.
        Each kept coefficient is a Wirtinger partial over alpha! beta!, a sum
        of at most 2^4 real coefficients (``JetSpace._to_wirtinger_table``)."""
        rows, pos, weight = self.space._to_wirtinger_table
        coeffs = np.zeros(self.space.size, dtype=np.complex128)
        coeffs[rows] = (self.coeffs[pos] * weight).sum(axis=1)
        return Jet(self.space, coeffs, self.order, self.degree, wirtinger=True)

    def _truncated(self, coeffs, order, degree, wirtinger):
        """A jet of ``order`` from coefficients of degree <= ``degree``: the
        coefficients above the order are zeroed only when the degree
        reaches past it."""
        if order < 0:
            raise JetOrderError("jet differentiated below order 0")
        if degree > order:
            coeffs = coeffs * self.space._masks[order]
            degree = order
        return Jet(self.space, coeffs, order, degree, wirtinger)

    def _variables(self, other):
        return result_kind(self.wirtinger, self.degree, other.wirtinger, other.degree)

    # -- ring operations -----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet):
            order = min(self.order, other.order)
            degree = max(self.degree, other.degree)
            return self._truncated(
                self.coeffs + other.coeffs, order, degree, self._variables(other)
            )
        return Jet(self.space, _plus(self.coeffs, other), self.order, self.degree, self.wirtinger)

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.space, -self.coeffs, self.order, self.degree, self.wirtinger)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.space, self.coeffs * other, self.order, self.degree, self.wirtinger)
        sp = self.space
        order = min(self.order, other.order)
        da, db = min(self.degree, order), min(other.degree, order)
        wirtinger = self._variables(other)
        table = sp._mul_selection(da, db, order, wirtinger)
        prod = _product(self.coeffs, other.coeffs, table, sp.size)
        return Jet(sp, prod, order, min(da + db, order), wirtinger)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other.reciprocal()
        return Jet(self.space, self.coeffs / other, self.order, self.degree, self.wirtinger)

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    def conjugate(self):
        """Over real variables conjugation acts on the coefficients only; over
        (z, zbar) it also swaps the z and zbar exponents."""
        coeffs = self.coeffs[self.space._wirtinger_layout[1]] if self.wirtinger else self.coeffs
        return Jet(self.space, np.conj(coeffs), self.order, self.degree, self.wirtinger)

    @property
    def real(self):
        if self.wirtinger:
            coeffs = 0.5 * (self.coeffs + self.conjugate().coeffs)
            return Jet(self.space, coeffs, self.order, self.degree, True)
        return Jet(self.space, self.coeffs.real.astype(np.complex128), self.order, self.degree)

    @property
    def imag(self):
        if self.wirtinger:
            coeffs = -0.5j * (self.coeffs - self.conjugate().coeffs)
            return Jet(self.space, coeffs, self.order, self.degree, True)
        return Jet(self.space, self.coeffs.imag.astype(np.complex128), self.order, self.degree)

    # -- calculus ------------------------------------------------------------

    def deriv(self, v):
        """Partial derivative with respect to variable v; costs one order.
        A (z, zbar) jet is read off, never differentiated: its kept set does
        not hold the coefficients a derivative would need."""
        if self.wirtinger:
            raise JetOrderError("a jet over (z, zbar) cannot be differentiated exactly")
        src, dst, fac = self.space._deriv[v]
        out = np.zeros(self.space.size, dtype=np.complex128)
        out[dst] = self.coeffs[src] * fac
        return self._truncated(out, self.order - 1, max(self.degree - 1, 0), False)

    def compose_analytic(self, taylor_coeffs):
        """Compose with a scalar analytic function given by its own Taylor
        coefficients c_k = g^(k)(value)/k! around this jet's constant term."""
        h = self.coeffs.copy()
        h[0] = 0.0
        hjet = Jet(self.space, h, self.order, self.degree, self.wirtinger)
        acc = self.space.constant(taylor_coeffs[self.order])
        for k in range(self.order - 1, -1, -1):
            acc = acc * hjet + taylor_coeffs[k]
        return Jet(acc.space, acc.coeffs, self.order, min(acc.degree, self.order), self.wirtinger)

    def reciprocal(self):
        return self.compose_analytic(_reciprocal_series(self.value, self.order))

    def log(self):
        return self.compose_analytic(_log_series(self.value, self.order))

    def exp(self):
        return self.compose_analytic(_exp_series(self.value, self.order))

    def sqrt(self):
        return self.pow(0.5)

    def pow(self, p):
        if isinstance(p, int) or (isinstance(p, float) and p.is_integer()):
            return self._int_pow(int(p))
        return self.compose_analytic(_fractional_pow_series(self.value, p, self.order))

    def _int_pow(self, p):
        if p < 0:
            return self.reciprocal()._int_pow(-p)
        acc = self.space.constant(1.0)
        acc.order, acc.wirtinger = self.order, self.wirtinger
        base = self
        while p:
            if p & 1:
                acc = acc * base
            base = base * base if p > 1 else base
            p >>= 1
        return acc

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

    def __repr__(self):
        nz = int(np.count_nonzero(self.coeffs))
        return (
            f"Jet(nvars={self.space.nvars}, order={self.order}, "
            f"value={self.value:.6g}, nonzero={nz})"
        )


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
