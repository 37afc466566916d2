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
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import JetOrderError

DEFAULT_ORDER = 4


def _multi_indices(nvars, order):
    """All exponent tuples with total degree <= order, graded lexicographic."""
    by_degree = [[(0,) * nvars]]
    for _ in range(order):
        prev = by_degree[-1]
        seen = set()
        nxt = []
        for idx in prev:
            for v in range(nvars):
                bumped = idx[:v] + (idx[v] + 1,) + idx[v + 1:]
                if bumped not in seen:
                    seen.add(bumped)
                    nxt.append(bumped)
        nxt.sort()
        by_degree.append(nxt)
    flat = []
    for group in by_degree:
        flat.extend(group)
    return flat


class JetSpace:
    """Shared tables for jets in a fixed number of variables and capacity.

    Holds the multi-index enumeration, the truncated multiplication table
    and per-variable differentiation maps.  Spaces are cached; constructing
    one for 9 variables at capacity 4 takes a few milliseconds.
    """

    def __init__(self, nvars, capacity=DEFAULT_ORDER):
        self.nvars = nvars
        self.capacity = capacity
        idx = _multi_indices(nvars, capacity)
        self.indices = np.array(idx, dtype=np.int64)
        self.size = len(idx)
        self.degree = self.indices.sum(axis=1)
        self.position = {t: i for i, t in enumerate(idx)}
        self._fact = np.array(
            [math.prod(math.factorial(int(e)) for e in row) for row in idx],
            dtype=np.float64,
        )
        # degree <= o masks, used to truncate results of each operation
        self._masks = [self.degree <= o for o in range(capacity + 1)]
        # Exponents encoded in base (capacity+1); sums of in-range exponents
        # never carry because the truncation bound caps every entry.
        self._key_base = (capacity + 1) ** np.arange(nvars, dtype=np.int64)
        self._keys = self.indices @ self._key_base
        self._tensor_tables = {}
        self._fd_table = None
        self._build_mult_table()
        self._build_deriv_tables()

    def _build_mult_table(self):
        keys = self._keys
        key_to_pos = {int(k): i for i, k in enumerate(keys)}
        by_deg = [np.nonzero(self.degree == d)[0] for d in range(self.capacity + 1)]
        ia_parts, ib_parts = [], []
        for d1 in range(self.capacity + 1):
            for d2 in range(self.capacity + 1 - d1):
                a, b = by_deg[d1], by_deg[d2]
                ia_parts.append(np.repeat(a, len(b)))
                ib_parts.append(np.tile(b, len(a)))
        ia = np.concatenate(ia_parts)
        ib = np.concatenate(ib_parts)
        out_keys = keys[ia] + keys[ib]
        iout = np.fromiter(
            (key_to_pos[int(k)] for k in out_keys), dtype=np.int64, count=len(out_keys)
        )
        self._mul_ia, self._mul_ib, self._mul_iout = ia, ib, iout

    def _build_deriv_tables(self):
        self._deriv = []
        for v in range(self.nvars):
            src = np.nonzero(self.indices[:, v] > 0)[0]
            dst = np.empty(len(src), dtype=np.int64)
            fac = np.empty(len(src), dtype=np.float64)
            for i, s in enumerate(src):
                alpha = tuple(self.indices[s])
                lowered = alpha[:v] + (alpha[v] - 1,) + alpha[v + 1:]
                dst[i] = self.position[lowered]
                fac[i] = alpha[v]
            self._deriv.append((src, dst, fac))

    def _tensor_table(self, k):
        """Coefficient positions and factorials alpha! of the order-k partials,
        laid out as a full (nvars,)*k array; built once per order, vectorised."""
        if k not in self._tensor_tables:
            n = self.nvars
            grid = np.indices((n,) * k, dtype=np.int64).reshape(k, -1)
            alpha = (grid[:, :, None] == np.arange(n)).sum(axis=0)
            order = np.argsort(self._keys)
            hit = np.searchsorted(self._keys, alpha @ self._key_base, sorter=order)
            pos = order[hit].reshape((n,) * k)
            self._tensor_tables[k] = (pos, self._fact[pos])
        return self._tensor_tables[k]

    # -- constructors -------------------------------------------------------

    def constant(self, value):
        coeffs = np.zeros(self.size, dtype=np.complex128)
        coeffs[0] = value
        return Jet(self, coeffs, self.capacity)

    def variable(self, v, base_value=0.0):
        """The coordinate function x_v expanded around base_value."""
        coeffs = np.zeros(self.size, dtype=np.complex128)
        coeffs[0] = base_value
        unit = (0,) * v + (1,) + (0,) * (self.nvars - v - 1)
        coeffs[self.position[unit]] = 1.0
        return Jet(self, coeffs, self.capacity)

    def from_coefficients(self, mapping, order=None):
        """Build a jet from {multi-index tuple: coefficient}."""
        coeffs = np.zeros(self.size, dtype=np.complex128)
        for alpha, c in mapping.items():
            coeffs[self.position[tuple(alpha)]] = c
        return Jet(self, coeffs, self.capacity if order is None else order)

    def lift(self, value):
        if isinstance(value, Jet):
            if value.space is not self:
                raise ValueError("jet belongs to a different space")
            return value
        return self.constant(value)


@lru_cache(maxsize=32)
def jet_space(nvars, capacity=DEFAULT_ORDER):
    return JetSpace(nvars, capacity)


class Jet:
    """A truncated Taylor polynomial; immutable by convention."""

    __slots__ = ("space", "coeffs", "order")

    def __init__(self, space, coeffs, order):
        self.space = space
        self.coeffs = coeffs
        self.order = order

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
        pos = self.space.position[alpha]
        return complex(self.coeffs[pos] * self.space._fact[pos])

    def derivative_tensor(self, k):
        """The symmetric tensor of all order-k partials at the base point."""
        if not 1 <= k <= self.order:
            raise JetOrderError(f"order-{k} partials of a jet of order {self.order}")
        pos, fact = self.space._tensor_table(k)
        return self.coeffs[pos] * fact

    def _truncated(self, coeffs, order):
        if order < 0:
            raise JetOrderError("jet differentiated below order 0")
        return Jet(self.space, coeffs * self.space._masks[order], order)

    # -- ring operations -----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet):
            order = min(self.order, other.order)
            return self._truncated(self.coeffs + other.coeffs, order)
        coeffs = self.coeffs.copy()
        coeffs[0] += other
        return Jet(self.space, coeffs, self.order)

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.space, -self.coeffs, self.order)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.space, self.coeffs * other, self.order)
        sp = self.space
        order = min(self.order, other.order)
        prod = np.zeros(sp.size, dtype=np.complex128)
        np.add.at(prod, sp._mul_iout, self.coeffs[sp._mul_ia] * other.coeffs[sp._mul_ib])
        return self._truncated(prod, order)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other.reciprocal()
        return Jet(self.space, self.coeffs / other, self.order)

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    def conjugate(self):
        # The variables are real, so conjugation acts on coefficients only.
        return Jet(self.space, np.conj(self.coeffs), self.order)

    @property
    def real(self):
        return Jet(self.space, self.coeffs.real.astype(np.complex128), self.order)

    @property
    def imag(self):
        return Jet(self.space, self.coeffs.imag.astype(np.complex128), self.order)

    # -- calculus ------------------------------------------------------------

    def deriv(self, v):
        """Partial derivative with respect to variable v; costs one order."""
        src, dst, fac = self.space._deriv[v]
        out = np.zeros(self.space.size, dtype=np.complex128)
        out[dst] = self.coeffs[src] * fac
        return self._truncated(out, self.order - 1)

    def compose_analytic(self, taylor_coeffs):
        """Compose with a scalar analytic function given by its own Taylor
        coefficients c_k = g^(k)(value)/k! around this jet's constant term."""
        h = self.coeffs.copy()
        h[0] = 0.0
        hjet = Jet(self.space, h, self.order)
        acc = self.space.constant(taylor_coeffs[self.order])
        for k in range(self.order - 1, -1, -1):
            acc = acc * hjet + taylor_coeffs[k]
        return Jet(acc.space, acc.coeffs, self.order)

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
        acc.order = self.order
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
        drop = [v for v in range(sp.nvars) if v not in keep]
        if drop:
            alive = np.all(sp.indices[:, drop] == 0, axis=1)
        else:
            alive = np.ones(sp.size, dtype=bool)
        out = np.zeros(target_space.size, dtype=np.complex128)
        rows = np.nonzero(alive)[0]
        for r in rows:
            alpha = tuple(int(sp.indices[r, v]) for v in keep)
            out[target_space.position[alpha]] = self.coeffs[r]
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
