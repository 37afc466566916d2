"""Anti-holomorphic self-maps and their residual checks.

A map is given by component expressions in the chart coordinates.  All its
differential data comes from jet evaluation, so residuals like
||Df J + J Df|| measure the map itself, not a finite-difference artifact.

Fixed loci are supplied as explicit parametrizations (component expressions
in parameters t1..tn).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import exprs
from .coords import ChartPoint, j_matrix
from .jets import Jet, jet_space
from .metrics import ChartGeometry, PotentialChart, coordinate_jets


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
        coords = coordinate_jets(point, order=1)
        env, space = self._env(coords), coords[0].space
        jets = [exprs.evaluate(comp, env) for comp in self.components]
        return _real_jacobian([j if isinstance(j, Jet) else space.constant(j) for j in jets])


def _real_jacobian(jets) -> np.ndarray:
    """The real Jacobian of complex-valued jets: row 2k holds the real and
    row 2k + 1 the imaginary part of the gradient of jets[k]."""
    grad = np.array([jet.derivative_tensor(1) for jet in jets])
    D = np.empty((2 * grad.shape[0], grad.shape[1]))
    D[0::2], D[1::2] = grad.real, grad.imag
    return D


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


def isometry_residual(D, geom: ChartGeometry, image: ChartGeometry) -> float:
    """Relative defect of (f^* G)(p) = G(p) in Frobenius norm.

    Here and below ``D`` is Df(p), and ``geom`` and ``image`` are the chart
    geometries at p and f(p); only the image's metric is read, so it may be
    lifted to ``METRIC_ORDER``.
    """
    G_p = geom.G
    return float(np.linalg.norm(D.T @ image.G @ D - G_p) / np.linalg.norm(G_p))


def anti_isometry_residual(D, geom: ChartGeometry, image: ChartGeometry) -> float:
    """Relative defect of (f^* w)(p) = -w(p) for the Kahler form."""
    W_p = geom.kahler_form
    return float(np.linalg.norm(D.T @ image.kahler_form @ D + W_p) / np.linalg.norm(W_p))


def potential_invariance_residual(
    mapping: AntiholoMap, chart: PotentialChart, point: ChartPoint, image=None
) -> float:
    image = mapping.apply(point) if image is None else image
    return abs(chart.potential_value(image) - chart.potential_value(point))


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
            out.append(jet if isinstance(jet, Jet) else space.constant(jet))
        return out

    def jacobian(self, t) -> np.ndarray:
        """Real 2n x m Jacobian d(param)/dt."""
        return _real_jacobian(self.component_jets(t, order=1))


def fixed_locus_residual(mapping: AntiholoMap, point: ChartPoint) -> float:
    """|f(p) - p| at a point p of the locus."""
    return float(np.linalg.norm(mapping.apply(point).real_view - point.real_view))
