"""Metric, curvature and Einstein diagnostics from a Kahler potential.

Everything is generated from one scalar potential per chart, lifted once
to its jet over the Wirtinger variables (z, zbar), truncated at bidegree
(2, 2): the coefficient of z^alpha zbar^beta is d^alpha dbar^beta psi /
(alpha! beta!), and the curvature formula reads no other partial.  The
metric g, its derivatives dg and ddg, and the holomorphic Hessian d d psi
are then plain gathers of coefficient times alpha! beta! (``coords.
wirtinger_table``, cached on the jet space).  The curvature tensor follows
from the standard potential formula, and the Ricci form is its g-trace.
A point whose metric alone is read (a map image) is lifted to order 2.
The potential is the only thing expanded in jet arithmetic, so the cost
per point is polynomial in the dimension and the fourth derivatives
entering the curvature carry no step-size error.  A black-box potential
is lifted over the real variables by finite differences and converted
once (``coords.real_to_wirtinger``), so every chart quantity has one
read-off route.  A ``ChartGeometry`` is built once per point per verdict
and handed from stage to stage; no module state outlives the verdict.

Normalization, pinned by the self-consistency checks in the test suite:
the real Riemannian metric is G(v, w) = 2 Re(g_jk V^j conj(W^k)) where V, W
are holomorphic components, the Kahler form is w(v, w) = G(Jv, w), and the
Riemann tensor sign is fixed so the orthonormal frame trace of Rm
reproduces the Ricci form.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from . import exprs
from .coords import ChartPoint, j_matrix, real_to_wirtinger, wirtinger_table
from .errors import ChartDomainError, DegenerateMetricError, NonAnalyticFieldError
from .jets import DEFAULT_ORDER, Jet, jet_space, lift_callable_to_jet

# Smallest admissible ratio of metric eigenvalues, and of the largest metric
# eigenvalue to the norm of the potential's real Hessian; below either a
# point is rejected as degenerate rather than failing the whole run.
DEGENERACY_RATIO = 1e-10

# Largest relative Hermitian defect of a potential's (z, zbar) jet that is
# still read as roundoff of a real-valued field (see ``lift_to_jet``).
HERMITIAN_TOL = 1e-8

METRIC_ORDER = 2  # the potential order that g, G and the Kahler form read

ScalarField = Union[tuple, Callable[[np.ndarray], float]]


def coordinate_jets(point: ChartPoint, order=DEFAULT_ORDER):
    """Jets of the holomorphic coordinates z^j = x^j + i y^j around a point,
    over the interleaved real variables, each of degree 1, filled in one
    (n, size) array."""
    n = point.n
    space = jet_space(2 * n, order)
    units = space._tensor_table(1)[0]
    coeffs = np.zeros((n, space.size), dtype=np.complex128)
    rows = np.arange(n)
    coeffs[:, 0] = point.holo
    coeffs[rows, units[0::2]] = 1.0
    coeffs[rows, units[1::2]] = 1j
    return [Jet(space, c, order, 1) for c in coeffs]


def lift_to_jet(field: ScalarField, point: ChartPoint, order=DEFAULT_ORDER, fd_scale=1.0):
    """Lift a real scalar field to its jet over (z, zbar) at a point: returns
    (jet, relative Hermitian defect of the jet before its real part is taken).

    Expression-tree fields are evaluated in exact jet arithmetic on the
    coordinate jets z^j (variable 2j); their conjugates come from
    ``Jet.conjugate``.  The defect is max |c_(alpha, beta) - conj c_(beta,
    alpha)| / (1 + max |c|); above ``HERMITIAN_TOL`` the field is not
    real-valued.  Callables (black boxes on the real coordinate vector) fall
    back to Richardson-extrapolated central finite differences over the real
    variables, with steps proportional to ``fd_scale``, converted once to
    (z, zbar) with defect 0; they lose roughly half the significant digits of
    the exact route.
    """
    if callable(field):
        real = lift_callable_to_jet(field, point.real_view, order=order, scale=fd_scale)
        return real_to_wirtinger(real), 0.0
    space = jet_space(2 * point.n, order)
    coords = [
        Jet(space, space.variable(2 * j, z).coeffs, order, 1, wirtinger=True)
        for j, z in enumerate(point.holo)
    ]
    jet = exprs.evaluate(field, dict(zip(exprs.coord_names(point.n), coords)))
    if not isinstance(jet, Jet):
        jet = Jet(space, space.constant(jet).coeffs, order, 0, wirtinger=True)
    dust = float(np.abs(jet.coeffs - jet.conjugate().coeffs).max())
    scale = 1.0 + float(np.abs(jet.coeffs).max())
    if dust > HERMITIAN_TOL * scale:
        raise NonAnalyticFieldError(
            f"field is not real-valued at {point.holo}: Hermitian defect {dust:.3g}"
        )
    return jet.real, dust / scale


@dataclass(frozen=True)
class PotentialChart:
    """A chart of C^n carrying a Kahler potential.

    ``potential`` is an expression tree in the coordinates w1..wn, or a
    callable on the real coordinate vector (finite-difference fallback).
    ``box`` bounds the real coordinates for sampling; ``domain`` is an
    optional expression whose positive part is the admitted region.
    """

    dimension: int
    potential: ScalarField
    box: tuple
    domain: Optional[tuple] = None
    label: str = "chart"
    fd_scale: float = 1.0

    def __post_init__(self):
        if len(self.box) != 2 * self.dimension:
            raise ValueError("box must bound all 2n real coordinates")

    @property
    def is_exact(self):
        return not callable(self.potential)

    @property
    def coord_names(self):
        return exprs.coord_names(self.dimension)

    def potential_value(self, point: ChartPoint) -> float:
        if callable(self.potential):
            return float(self.potential(point.real_view))
        env = dict(zip(self.coord_names, point.holo))
        return complex(exprs.evaluate(self.potential, env)).real

    def admits(self, point: ChartPoint) -> bool:
        if not all(lo <= c <= hi for c, (lo, hi) in zip(point.real_view, self.box)):
            return False
        if self.domain is not None:
            env = dict(zip(self.coord_names, point.holo))
            if complex(exprs.evaluate(self.domain, env)).real <= 0.0:
                return False
        return True

    def geometry(self, point: ChartPoint, lift_order=DEFAULT_ORDER) -> "ChartGeometry":
        """A new geometry at a point, whose first lift takes ``lift_order``:
        ``METRIC_ORDER`` for a point whose metric alone is read, else 4."""
        return ChartGeometry(self, point, lift_order)


def cached(fget):
    """A property computed on first read and kept in the instance ``__dict__``
    under its own name.  Unlike ``functools.cached_property`` it stays a data
    descriptor, so every read still runs the getter (which returns the kept
    value): a tracer that wraps a property's getter counts each read."""
    name = fget.__name__

    @functools.wraps(fget)
    def get(self):
        kept = self.__dict__
        if name not in kept:
            kept[name] = fget(self)
        return kept[name]

    return property(get)


class ChartGeometry:
    """Lazily computed geometric data of one chart at one point.

    The object owns the potential's jets, one per order, and derives all
    metric, connection and curvature values from them (dg and ddg lift the
    order-4 jet on demand).  Each derived member is a ``cached`` property,
    computed on first read and kept on the object; the lifts and the
    Wirtinger partials are kept in the dicts ``_lifts`` (by order) and
    ``_partials`` (by pattern).  It admits its point once, on construction
    (ChartDomainError), and lives as long as its holder: ``verdict`` builds
    one per point and passes it to every stage that reads the point.
    ``lift_order`` picks which lift comes first, never a value.
    """

    def __init__(self, chart: PotentialChart, point: ChartPoint, lift_order=DEFAULT_ORDER):
        if not chart.admits(point):
            raise ChartDomainError(f"{point.holo} outside domain of {chart.label}")
        self.chart = chart
        self.point = point
        self.n = chart.dimension
        self.lift_order = lift_order  # the order of the first lift
        self._lifts = {}
        self._partials = {}

    # -- potential and its partial tensors -------------------------------------

    def _lift(self, order):
        """(jet, Hermitian defect) of the potential lifted to ``order``."""
        if order not in self._lifts:
            chart = self.chart
            self._lifts[order] = lift_to_jet(chart.potential, self.point, order, chart.fd_scale)
        return self._lifts[order]

    @property
    def psi_jet(self):
        return self._lift(DEFAULT_ORDER)[0]

    @property
    def hermitian_defect(self):
        """How far the potential's jet in (z, zbar) was from Hermitian before
        its real part was taken, relative to its size (see ``lift_to_jet``)."""
        return self._lift(DEFAULT_ORDER)[1]

    def _wirtinger(self, holo):
        """The order-k partial of the potential, k = len(holo), with slot s a
        d/dz (holo[s] true) or a d/dzbar: one gather of coefficient times
        alpha! beta!, through the space's read-off table.  The metric
        partials of an order-2 lift are those of an order-4 one, bit for bit,
        so they read whichever lift is on hand."""
        if holo not in self._partials:
            full = len(holo) > METRIC_ORDER or DEFAULT_ORDER in self._lifts
            psi = self._lift(DEFAULT_ORDER if full else self.lift_order)[0]
            pos, fact = wirtinger_table(psi.space, holo)
            self._partials[holo] = psi.coeffs[pos] * fact
        return self._partials[holo]

    @cached
    def g(self):
        """g[j, k] = d_j dbar_k psi, the Hermitian metric."""
        g = self._wirtinger((True, False))
        if not np.all(np.isfinite(g)):
            raise DegenerateMetricError(f"metric not finite at {self.point.holo}: {g}")
        eigs = np.linalg.eigvalsh(0.5 * (g + g.conj().T))
        # the real Hessian of psi has Frobenius norm 2 sqrt(2 (|d d psi|^2 + |g|^2))
        hol = self._wirtinger((True, True))
        hessian = 2.0 * np.sqrt(2.0 * (np.vdot(hol, hol).real + np.vdot(g, g).real))
        floor = DEGENERACY_RATIO * hessian
        if (
            not np.all(np.isfinite(eigs))
            or eigs[0] <= DEGENERACY_RATIO * max(eigs[-1], 0.0)
            or eigs[-1] <= floor
        ):
            raise DegenerateMetricError(
                f"metric degenerate at {self.point.holo}: eigenvalues {eigs}"
            )
        return g

    @cached
    def g_inv(self):
        return np.linalg.inv(self.g)

    @property
    def dg(self):
        """dg[i, k, l] = d_i g_{k lbar} at the point."""
        return self._wirtinger((True, True, False))

    @property
    def ddg(self):
        """ddg[i, j, k, l] = d_i dbar_j g_{k lbar} at the point."""
        return self._wirtinger((True, False, True, False))

    # -- Ricci and curvature ---------------------------------------------------

    @cached
    def ricci(self):
        """Ricci coefficients Ric_{i jbar} = g^{lbar k} R_{i jbar k lbar}, which
        equals -d_i dbar_j log det g."""
        return np.einsum("lk,ijkl->ij", self.g_inv, self.curvature)

    @cached
    def curvature(self):
        """R[i,j,k,l] = -d_i dbar_j g_{k lbar} + g^{qbar p} d_i g_{k qbar} dbar_j g_{p lbar}."""
        n, dg = self.n, self.dg.reshape(-1, self.n)  # rows (i, k)
        term2 = (dg @ self.g_inv) @ np.conj(dg).T  # [(i, k), (j, l)]
        return -self.ddg + term2.reshape((n,) * 4).transpose(0, 2, 1, 3)

    # -- real metric data --------------------------------------------------------

    @cached
    def G(self):
        return _real_metric_matrix(self.g)

    @cached
    def G_inv(self):
        return np.linalg.inv(self.G)

    @cached
    def dG(self):
        """dG[c, a, b] = d_c G_{ab} (real first derivatives of the real metric)."""
        # d_x = d_z + d_zbar and d_y = i (d_z - d_zbar) per coordinate;
        # d_zbar^p g_{j kbar} = conj(d_p g_{k jbar}) since psi is real
        dz = self.dg
        dzbar = np.conj(dz).transpose(0, 2, 1)
        d_real = np.empty((2 * self.n,) + dz.shape[1:], dtype=complex)
        d_real[0::2] = dz + dzbar
        d_real[1::2] = 1j * (dz - dzbar)
        return _real_metric_matrix(d_real)

    @cached
    def christoffel(self):
        """Levi-Civita symbols Gamma[d, a, b] of G, symmetric in (a, b)."""
        dG = self.dG
        brace = (
            dG.transpose(1, 0, 2) + dG.transpose(1, 2, 0) - dG
        )  # d_a G_eb + d_b G_ea - d_e G_ab, indexed [e, a, b]
        return 0.5 * (self.G_inv @ brace.reshape(len(brace), -1)).reshape(brace.shape)

    @cached
    def kahler_form(self):
        return j_matrix(self.n).T @ self.G

    # -- tensor evaluation ---------------------------------------------------------

    @cached
    def Ric(self):
        """The real Ricci tensor: the same 2 Re pairing that turns g into G."""
        return _real_metric_matrix(self.ricci)

    def ricci_real(self, v, w) -> float:
        """Ric(v, w) of component arrays, read off ``Ric``."""
        return float(v @ self.Ric @ w)

    def riemann_covector(self, zeta, eta, rho):
        """Covector c with c[a] = Rm(zeta, eta, rho, basis_a), by the direct
        complex pairing of the component arrays' holomorphic parts."""
        Z, H, P = (v[0::2] + 1j * v[1::2] for v in (zeta, eta, rho))
        T = np.einsum("ijkl,i,j->kl", self.curvature, Z, np.conj(H))
        q = T.T @ P
        r = T @ np.conj(P)
        c = np.empty(2 * self.n)
        c[0::2] = 2.0 * np.real(q - r)
        c[1::2] = 2.0 * np.imag(q + r)
        return c


def _real_metric_matrix(g):
    """G = 2 Re / Im blocks of g, over the last two axes."""
    n = g.shape[-1]
    G = np.empty(g.shape[:-2] + (2 * n, 2 * n))
    re, im = 2.0 * g.real, 2.0 * g.imag
    G[..., 0::2, 0::2] = re
    G[..., 0::2, 1::2] = im
    G[..., 1::2, 0::2] = -im
    G[..., 1::2, 1::2] = re
    # g is Hermitian only to roundoff; make G symmetric exactly
    return 0.5 * (G + np.swapaxes(G, -1, -2))


# Entries smaller than this fraction of the metric norm are too noisy for
# entrywise Ricci/metric ratios.
RATIO_FLOOR = 1e-6


def einstein_residual(geometries):
    """Estimate the Einstein constant and the worst relative defect over the
    chart geometries of the sample points.

    Returns (lambda_est, max_residual) where lambda_est is the median of
    entrywise Ric/g ratios over well-conditioned entries of all samples and
    max_residual = max_p ||Ric - lambda g||_F / ||g||_F.
    """
    geometries = list(geometries)
    if len(geometries) < 2:
        raise ValueError("einstein_residual needs at least 2 sample points")
    pairs = []
    ratios = []
    for geom in geometries:
        g, ric = geom.g, geom.ricci
        pairs.append((g, ric))
        floor = RATIO_FLOOR * np.linalg.norm(g)
        mask = np.abs(g) > floor
        ratios.extend(np.real(ric[mask] / g[mask]).tolist())
    lam = float(np.median(ratios))
    worst = 0.0
    for g, ric in pairs:
        worst = max(worst, float(np.linalg.norm(ric - lam * g) / np.linalg.norm(g)))
    return lam, worst
