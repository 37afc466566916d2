"""Anti-holomorphic self-maps, their residual checks and pullbacks.

A map is given by component expressions in the chart coordinates.  All its
differential data comes from jet evaluation, so residuals like
||Df J + J Df|| measure the map itself, not a finite-difference artifact.

Fixed loci are supplied as explicit parametrizations (component expressions
in parameters t1..tn); a Newton-based fixed-point search is provided only
as a diagnostic helper.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import exprs
from .coords import ChartPoint, RealTangent, j_matrix
from .errors import ChartDomainError, NonAnalyticFieldError
from .jets import jet_space
from .metrics import PotentialChart


@dataclass(frozen=True)
class AntiholoMap:
    """A chart self-map w -> f(w) from component expressions."""

    components: tuple
    declared_involution: bool = False
    label: str = "map"

    @property
    def dimension(self):
        return len(self.components)

    def _env(self, values):
        return dict(zip(exprs.coord_names(self.dimension), values))

    def apply(self, point: ChartPoint) -> ChartPoint:
        env = self._env(point.holo)
        return ChartPoint(tuple(complex(exprs.evaluate(c, env)) for c in self.components))

    def jacobian_real(self, point: ChartPoint) -> np.ndarray:
        """The 2n x 2n real Jacobian Df at a point, from order-1 jets."""
        n = self.dimension
        space = jet_space(2 * n, 1)
        coords = []
        for j, z in enumerate(point.holo):
            coords.append(space.variable(2 * j, z.real) + 1j * space.variable(2 * j + 1, z.imag))
        env = self._env(coords)
        D = np.empty((2 * n, 2 * n))
        for k, comp in enumerate(self.components):
            jet = exprs.evaluate(comp, env)
            if not hasattr(jet, "deriv"):
                jet = space.constant(jet)
            for r in range(2 * n):
                d = jet.deriv(r).value
                D[2 * k, r] = d.real
                D[2 * k + 1, r] = d.imag
        return D


def pushforward(mapping: AntiholoMap, point: ChartPoint, v: RealTangent) -> RealTangent:
    """Df(p) v, based at f(p)."""
    D = mapping.jacobian_real(point)
    return RealTangent(D @ v.components, mapping.apply(point))


def antiholomorphy_residual(mapping: AntiholoMap, point: ChartPoint, D=None) -> float:
    """Operator norm of Df J + J Df; zero iff f is anti-holomorphic at p.

    Here and below ``D`` is Df(p) when the caller already holds it.
    """
    D = mapping.jacobian_real(point) if D is None else D
    J = j_matrix(mapping.dimension)
    return float(np.linalg.norm(D @ J + J @ D, 2))


def involution_residual(mapping: AntiholoMap, point: ChartPoint) -> float:
    q = mapping.apply(mapping.apply(point))
    return float(np.linalg.norm(q.real_view - point.real_view))


def admitted_image(mapping: AntiholoMap, chart: PotentialChart, point: ChartPoint) -> ChartPoint:
    """f(p), or ChartDomainError if the chart does not admit it."""
    image = mapping.apply(point)
    if not chart.admits(image):
        raise ChartDomainError(f"f({point.holo}) escapes {chart.label}")
    return image


def isometry_residual(
    mapping: AntiholoMap, chart: PotentialChart, point: ChartPoint, D=None, image=None
) -> float:
    """Relative defect of (f^* G)(p) = G(p) in Frobenius norm.

    Here and below ``image`` is f(p), already admitted by the chart, when the
    caller holds it.
    """
    image = admitted_image(mapping, chart, point) if image is None else image
    D = mapping.jacobian_real(point) if D is None else D
    G_p = chart.geometry(point).G
    G_f = chart.geometry(image).G
    return float(np.linalg.norm(D.T @ G_f @ D - G_p) / np.linalg.norm(G_p))


def anti_isometry_residual(
    mapping: AntiholoMap, chart: PotentialChart, point: ChartPoint, D=None, image=None
) -> float:
    """Relative defect of (f^* w)(p) = -w(p) for the Kahler form."""
    image = admitted_image(mapping, chart, point) if image is None else image
    D = mapping.jacobian_real(point) if D is None else D
    W_p = chart.geometry(point).kahler_form
    W_f = chart.geometry(image).kahler_form
    return float(np.linalg.norm(D.T @ W_f @ D + W_p) / np.linalg.norm(W_p))


def potential_invariance_residual(
    mapping: AntiholoMap, chart: PotentialChart, point: ChartPoint, image=None
) -> float:
    image = mapping.apply(point) if image is None else image
    return abs(chart.potential_value(image) - chart.potential_value(point))


def pullback_potential(mapping: AntiholoMap, chart: PotentialChart) -> PotentialChart:
    """The chart carrying the composed potential psi o f.

    Because the pullback reverses holomorphic type, the metric of the result
    is the matrix of minus the pulled-back Kahler form; the test suite holds
    this to the composed chart via :func:`pullback_consistency_residual`.
    """
    if callable(chart.potential):
        raise NonAnalyticFieldError("cannot compose a black-box potential with a map")
    mapping_env = dict(zip(exprs.coord_names(chart.dimension), mapping.components))
    composed = exprs.substitute(chart.potential, mapping_env)
    return PotentialChart(
        dimension=chart.dimension,
        potential=composed,
        box=chart.box,
        domain=chart.domain,
        label=f"{chart.label}<-{mapping.label}",
        fd_scale=chart.fd_scale,
    )


def pullback_consistency_residual(mapping: AntiholoMap, chart: PotentialChart, point: ChartPoint) -> float:
    """|| w_{psi o f}(p) + (f^* w)(p) || / ||w(p)||, an internal audit."""
    pulled = pullback_potential(mapping, chart)
    image = mapping.apply(point)
    D = mapping.jacobian_real(point)
    W_new = pulled.geometry(point).kahler_form
    W_f = chart.geometry(image).kahler_form
    return float(np.linalg.norm(W_new + D.T @ W_f @ D) / np.linalg.norm(W_new))


@dataclass(frozen=True)
class FixedLocusParam:
    """A parametrization t -> chart point of the fixed locus.

    ``components`` are expressions in the real parameters t1..tm; ``box``
    bounds the parameters for sampling.
    """

    components: tuple
    box: tuple
    label: str = "locus"

    @property
    def n_params(self):
        return len(self.box)

    @property
    def dimension(self):
        return len(self.components)

    def _names(self):
        return exprs.coord_names(self.n_params, prefix="t")

    def point(self, t) -> ChartPoint:
        env = dict(zip(self._names(), [float(x) for x in t]))
        return ChartPoint(tuple(complex(exprs.evaluate(c, env)) for c in self.components))

    def component_jets(self, t, order=4):
        """The chart coordinates of the locus as jets in the parameters."""
        space = jet_space(self.n_params, order)
        env = dict(
            zip(self._names(), [space.variable(d, float(t[d])) for d in range(self.n_params)])
        )
        out = []
        for c in self.components:
            jet = exprs.evaluate(c, env)
            out.append(jet if hasattr(jet, "deriv") else space.constant(jet))
        return out

    def jacobian(self, t) -> np.ndarray:
        """Real 2n x m Jacobian d(param)/dt."""
        jets = self.component_jets(t, order=1)
        n, m = self.dimension, self.n_params
        J = np.empty((2 * n, m))
        for k, jet in enumerate(jets):
            for d in range(m):
                val = jet.deriv(d).value
                J[2 * k, d] = val.real
                J[2 * k + 1, d] = val.imag
        return J

    def in_box(self, t) -> bool:
        return all(lo <= x <= hi for x, (lo, hi) in zip(t, self.box))


def fixed_locus_residual(mapping: AntiholoMap, locus: FixedLocusParam, t) -> float:
    p = locus.point(t)
    return float(np.linalg.norm(mapping.apply(p).real_view - p.real_view))


def find_fixed_point(mapping: AntiholoMap, start: ChartPoint, steps=25, tol=1e-12):
    """Diagnostic Newton search for a fixed point of f near ``start``.

    Basin behavior is untamed; verification workflows should use declared
    parametrizations instead.
    """
    x = start.real_view.copy()
    n2 = x.size
    for _ in range(steps):
        p = ChartPoint.from_real(x)
        r = mapping.apply(p).real_view - x
        if np.linalg.norm(r) < tol:
            return p
        A = mapping.jacobian_real(p) - np.eye(n2)
        step, *_ = np.linalg.lstsq(A, -r, rcond=None)
        x = x + step
    return ChartPoint.from_real(x)
