"""Chart points, real tangent vectors and the complex structure convention.

Conventions fixed here and cited by every other module:

* real coordinate ordering is interleaved, (x1, y1, x2, y2, ...), with
  z^j = x^j + i y^j;
* the complex structure acts as J dx^j = dy^j, J dy^j = -dx^j, i.e. on
  components J(a, b) = (-b, a) per coordinate pair, so J is block diagonal
  with blocks ``J_BLOCK``;
* Wirtinger derivatives are d/dz = (d/dx - i d/dy)/2 and
  d/dzbar = (d/dx + i d/dy)/2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import JetOrderError

# The single source of truth for the complex structure on one coordinate pair.
J_BLOCK = np.array([[0.0, -1.0], [1.0, 0.0]])


def j_matrix(n):
    """The 2n x 2n matrix of J in the interleaved real ordering."""
    J = np.zeros((2 * n, 2 * n))
    for k in range(n):
        J[2 * k: 2 * k + 2, 2 * k: 2 * k + 2] = J_BLOCK
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


@dataclass(frozen=True, eq=False)
class RealTangent:
    """A tangent vector in the real coordinate basis at a chart point."""

    components: np.ndarray
    base: ChartPoint

    def __post_init__(self):
        comps = np.asarray(self.components, dtype=float)
        if comps.size != 2 * self.base.n:
            raise ValueError("component count must be twice the chart dimension")
        object.__setattr__(self, "components", comps)

    @property
    def holo_components(self):
        """Complex components V^j = v_x^j + i v_y^j of the (1,0) part."""
        c = self.components
        return c[0::2] + 1j * c[1::2]

    @staticmethod
    def from_holo(vholo, base):
        v = np.asarray(vholo, dtype=complex)
        comps = np.empty(2 * v.size)
        comps[0::2] = v.real
        comps[1::2] = v.imag
        return RealTangent(comps, base)


def apply_J(v: RealTangent) -> RealTangent:
    """Rotate a tangent vector by the complex structure: (a, b) -> (-b, a)."""
    c = v.components
    out = np.empty_like(c)
    out[0::2] = -c[1::2]
    out[1::2] = c[0::2]
    return RealTangent(out, v.base)


def wirtinger_matrix(n):
    """The n x 2n matrix W with d/dz^j = sum_a W[j, a] d/dx^a; its complex
    conjugate gives d/dzbar^j."""
    W = np.zeros((n, 2 * n), dtype=complex)
    j = np.arange(n)
    W[j, 2 * j] = 0.5
    W[j, 2 * j + 1] = -0.5j
    return W


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


def wirtinger(jet, holo_indices=(), antiholo_indices=()):
    """The mixed Wirtinger derivative of the field at the base point."""
    return wirtinger_jet(jet, holo_indices, antiholo_indices).value
