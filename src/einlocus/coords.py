"""Chart points and the complex structure convention.

Conventions fixed here and cited by every other module:

* real coordinate ordering is interleaved, (x1, y1, x2, y2, ...), with
  z^j = x^j + i y^j;
* the complex structure acts as J dx^j = dy^j, J dy^j = -dx^j, i.e. on
  components J(a, b) = (-b, a) per coordinate pair, so J is block diagonal
  with blocks ``J_BLOCK``; a tangent vector is a plain component array in
  this ordering, and J acts on it as ``j_matrix(n)``;
* Wirtinger derivatives are d/dz = (d/dx - i d/dy)/2 and
  d/dzbar = (d/dx + i d/dy)/2;
* a jet over the Wirtinger variables orders them like the real ones,
  (z1, zbar1, z2, zbar2, ...): variable 2j is z^j and 2j + 1 is zbar^j.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import JetOrderError
from .jets import Jet

# The single source of truth for the complex structure on one coordinate pair.
J_BLOCK = np.array([[0.0, -1.0], [1.0, 0.0]])


@lru_cache(maxsize=None)
def j_matrix(n):
    """The 2n x 2n matrix of J in the interleaved real ordering, built once
    per n and read-only, since every caller shares it."""
    J = np.zeros((2 * n, 2 * n))
    for k in range(n):
        J[2 * k: 2 * k + 2, 2 * k: 2 * k + 2] = J_BLOCK
    J.flags.writeable = False
    return J


@dataclass(frozen=True)
class ChartPoint:
    """A point of a chart, stored as its holomorphic coordinates."""

    holo: tuple

    def __post_init__(self):
        object.__setattr__(self, "holo", tuple(complex(z) for z in self.holo))

    @property
    def n(self):
        return len(self.holo)

    @property
    def real_view(self):
        """Real coordinates (x1, y1, ..., xn, yn); exact round trip."""
        out = np.empty(2 * len(self.holo))
        for j, z in enumerate(self.holo):
            out[2 * j] = z.real
            out[2 * j + 1] = z.imag
        return out

    @staticmethod
    def from_real(real_vec):
        r = np.asarray(real_vec, dtype=float)
        if r.size % 2:
            raise ValueError("real coordinate vector must have even length")
        return ChartPoint(tuple(r[0::2] + 1j * r[1::2]))


def wirtinger_matrix(n):
    """The n x 2n matrix W with d/dz^j = sum_a W[j, a] d/dx^a; its complex
    conjugate gives d/dzbar^j."""
    W = np.zeros((n, 2 * n), dtype=complex)
    j = np.arange(n)
    W[j, 2 * j] = 0.5
    W[j, 2 * j + 1] = -0.5j
    return W


def wirtinger_table(space, holo):
    """Read-off table of the mixed Wirtinger partials of a (z, zbar) jet.

    Slot s of the pattern ``holo`` is d/dz (True) or d/dzbar (False).  The
    partial at (j_1, ..., j_k) is the coefficient of the monomial with one
    factor z_{j_s} or zbar_{j_s} per slot, times alpha! beta!: returns
    ``(pos, fact)``, each of shape (n,) * k.  Built once per pattern and
    cached on the space.
    """
    table = space._wirtinger_tables.get(holo)
    if table is None:
        k, n = len(holo), space.nvars // 2
        kind = np.array([0 if h else 1 for h in holo]).reshape((k,) + (1,) * k)
        pos = space._monomial_positions(2 * np.indices((n,) * k, dtype=np.int64) + kind)
        table = space._wirtinger_tables[holo] = (pos, space._fact[pos])
    return table


def real_to_wirtinger(jet):
    """The same field as a jet over (z, zbar), from its jet over the
    interleaved real variables: the black-box lift's one conversion.

    Each kept coefficient is a Wirtinger partial divided by alpha! beta!,
    and each d/dz or d/dzbar touches only the two real variables of its
    coordinate, so it is a sum of at most 2^4 real coefficients, with
    weights the ``wirtinger_matrix`` entries (1/2 and -i/2, conjugated for
    d/dzbar) per slot, times the factorials.  The table is built on first
    use and cached on the space.
    """
    space = jet.space
    table = space._wirtinger_tables.get("from_real")
    if table is None:
        table = space._wirtinger_tables["from_real"] = _real_to_wirtinger_table(space)
    rows, pos, weight = table
    coeffs = np.zeros(space.size, dtype=np.complex128)
    coeffs[rows] = (jet.coeffs[pos] * weight).sum(axis=1)
    return Jet(space, coeffs, jet.order, jet.degree, wirtinger=True)


def _real_to_wirtinger_table(space):
    """(rows, pos, weight): the kept positions, and for each the 2^capacity
    real coefficient positions and weights that sum to it.  A slot that a
    lower-degree row leaves empty counts only its x choice, with weight 1."""
    k = space.capacity
    rows = np.nonzero(space._wirtinger_layout[0])[0]
    # each row's z and zbar variables, one per slot, padded with -1
    variables = np.arange(space.nvars)
    slots = np.array(
        [[*np.repeat(variables, e), *[-1] * (k - e.sum())] for e in space.indices[rows]]
    )[:, None, :]
    bits = np.indices((2,) * k).reshape(k, -1).T  # x (0) or y (1) per slot
    w = wirtinger_matrix(1)[0]  # d/dz on (x, y)
    per_slot = np.where(slots < 0, bits == 0, np.where(slots % 2, w.conj()[bits], w[bits]))
    keys = np.where(slots < 0, 0, space._key_base[slots // 2 * 2 + bits]).sum(axis=2)
    pos = space._positions(keys)
    return rows, pos, per_slot.prod(axis=2) * space._fact[pos] / space._fact[rows][:, None]


def wirtinger_jet(jet, holo_indices=(), antiholo_indices=()):
    """Apply mixed Wirtinger derivatives to a jet over interleaved real
    variables, returning the derivative as a (lower-order) jet.

    ``holo_indices`` and ``antiholo_indices`` are 0-based coordinate indices;
    index j acts on real variables (2j, 2j+1).
    """
    total = len(holo_indices) + len(antiholo_indices)
    if total > jet.order:
        raise JetOrderError(
            f"Wirtinger derivative of order {total} exceeds jet order {jet.order}"
        )
    out = jet
    for j in holo_indices:
        out = (out.deriv(2 * j) - 1j * out.deriv(2 * j + 1)) * 0.5
    for k in antiholo_indices:
        out = (out.deriv(2 * k) + 1j * out.deriv(2 * k + 1)) * 0.5
    return out

