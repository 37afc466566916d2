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
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache

import numpy as np

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


class JetSpace:
    """Shared tables for jets in a fixed number of variables and capacity.

    Holds the multi-index enumeration, the truncated multiplication table
    and, from first use, per-variable differentiation maps, all built from
    whole arrays.
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
        self._tensor_tables = {}
        self._wirtinger_tables = {}
        self._mul_selections = {}
        self._fd_table = None
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

    def _mul_selection(self, da, db, order, wirtinger=False):
        """The multiplication table restricted to the blocks (d1, d2) with
        d1 <= da, d2 <= db and d1 + d2 <= order, in table order, and for
        Wirtinger jets to the terms whose result lies in the kept bidegree
        set; built on first use per key.  The full table is the selection
        (capacity, capacity, capacity, False)."""
        key = (da, db, order, wirtinger)
        if key not in self._mul_selections:
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
            self._mul_selections[key] = table
        return self._mul_selections[key]

    @cached_property
    def _deriv(self):
        """The differentiation maps of every variable, built on first use: no
        verdict stage differentiates a jet, so a space's set-up skips them."""
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
        exponents swapped.  Built on first use."""
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

    def _monomial_positions(self, grid):
        """Coefficient positions of the monomials x_{grid[0]} ... x_{grid[k-1]}:
        ``grid`` holds k variable indices along its first axis, and the
        result has the shape of its other axes."""
        return self._positions(self._key_base[grid].sum(axis=0))

    def _tensor_table(self, k):
        """Coefficient positions and factorials alpha! of the order-k partials,
        laid out as a full (nvars,)*k array; built once per order, vectorised."""
        if k not in self._tensor_tables:
            n = self.nvars
            grid = np.indices((n,) * k, dtype=np.int64).reshape(k, -1)
            pos = self._monomial_positions(grid).reshape((n,) * k)
            self._tensor_tables[k] = (pos, self._fact[pos])
        return self._tensor_tables[k]

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
        """Whether the result of an operation with ``other`` is over (z, zbar):
        jets over real variables and over (z, zbar) meet only as constants."""
        if self.wirtinger is other.wirtinger:
            return self.wirtinger
        if self.degree and other.degree:
            raise ValueError("jets over real variables and over (z, zbar) do not mix")
        return True

    # -- ring operations -----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet):
            order = min(self.order, other.order)
            degree = max(self.degree, other.degree)
            return self._truncated(
                self.coeffs + other.coeffs, order, degree, self._variables(other)
            )
        coeffs = self.coeffs.copy()
        coeffs[0] += other
        return Jet(self.space, coeffs, self.order, self.degree, self.wirtinger)

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
        ia, ib, iout = sp._mul_selection(da, db, order, wirtinger)
        prod = np.zeros(sp.size, dtype=np.complex128)
        np.add.at(prod, iout, self.coeffs[ia] * other.coeffs[ib])
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
        u0 = self.value
        if u0 == 0:
            raise ZeroDivisionError("jet with zero constant term has no reciprocal")
        cs = [(-1.0) ** k / u0 ** (k + 1) for k in range(self.order + 1)]
        return self.compose_analytic(cs)

    def log(self):
        u0 = self.value
        if u0 == 0:
            raise ZeroDivisionError("log of jet with zero constant term")
        cs = [np.log(u0)]
        for k in range(1, self.order + 1):
            cs.append((-1.0) ** (k + 1) / (k * u0 ** k))
        return self.compose_analytic(cs)

    def exp(self):
        e0 = np.exp(self.value)
        cs = [e0 / math.factorial(k) for k in range(self.order + 1)]
        return self.compose_analytic(cs)

    def sqrt(self):
        return self.pow(0.5)

    def pow(self, p):
        if isinstance(p, int) or (isinstance(p, float) and p.is_integer()):
            return self._int_pow(int(p))
        u0 = self.value
        if u0 == 0:
            raise ZeroDivisionError("fractional power of jet with zero constant term")
        cs, binom = [], 1.0
        for k in range(self.order + 1):
            cs.append(binom * u0 ** (p - k))
            binom *= (p - k) / (k + 1)
        return self.compose_analytic(cs)

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


def _fd_stencils(space):
    """Every coefficient's tensor-product central-difference stencil at the
    two Richardson steps, as one table per space: built on first use, then
    cached on the space.

    Returns ``(offsets, terms)``.  ``offsets`` holds the distinct integer
    offset vectors (in units of the step) in first-use order.  A lift
    evaluates them at step h and then at h/2, and sums into one vector of
    2 * size slots: the coefficients at step h, then at h/2.  ``terms[j]``
    is ``(slots, rows, weights)`` for the j-th stencil term (at most 16):
    the slots whose stencil has a j-th term, the row of its value and its
    weight.  Adding the terms up in j order sums each coefficient in the
    order of its per-variable stencils.
    """
    if space._fd_table is None:
        first_use = {}
        rows, weights = [], []
        for alpha in space.indices:
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
            terms.append(
                (
                    np.concatenate([live, live + space.size]),
                    np.concatenate([row, row + count]),
                    np.concatenate([weight, weight]),
                )
            )
        offsets = np.array(list(first_use), dtype=float)
        space._fd_table = (offsets, terms)
    return space._fd_table


def lift_callable_to_jet(func, base_real, order=DEFAULT_ORDER, scale=1.0):
    """Approximate the jet of a black-box real scalar field by central finite
    differences with one Richardson step.  Low precision compared to the
    exact lift; callers should surface that in reports.

    ``func`` maps a real coordinate vector (length 2n) to a float.  It is
    called once per distinct stencil offset at step h and once at h/2.
    """
    x0 = np.asarray(base_real, dtype=float)
    space = jet_space(len(x0), order)
    offsets, terms = _fd_stencils(space)
    h = FD_STEP_FACTOR * max(scale, 1e-8)
    steps = (h, h / 2.0)
    points = np.concatenate([x0 + offsets * s for s in steps])
    values = np.array([func(x) for x in points])
    total = np.zeros(2 * space.size, dtype=np.result_type(values, float))
    for slots, rows, weights in terms:
        total[slots] += weights * values[rows]
    powers = np.array([[s**k for k in range(order + 1)] for s in steps])
    d_h, d_h2 = total.reshape(2, space.size) / powers[:, space.degree]
    return Jet(space, ((4.0 * d_h2 - d_h) / 3.0 / space._fact).astype(np.complex128), order)
