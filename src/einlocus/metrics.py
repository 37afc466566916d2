"""Metric, curvature and Einstein diagnostics from a Kahler potential.

Everything is generated from one scalar potential per chart, lifted once
per point to its jet over the Wirtinger variables (z, zbar), truncated at
bidegree (2, 2): the coefficient of z^alpha zbar^beta is d^alpha dbar^beta
psi / (alpha! beta!), and the curvature formula reads no other partial.
The metric g, its derivatives dg and ddg, and the holomorphic Hessian
d d psi are then plain gathers of coefficient times alpha! beta!
(``Jet.wirtinger_tensor``).  The curvature tensor follows from the
standard potential formula, and the Ricci form is its g-trace.  The
Einstein constant of stage 3 is read off the trace tr(g^-1 Ric) / n, which
no change of chart coordinates moves (``einstein_residual``).  A map image,
whose metric alone is read, is lifted to order 2 only.  The potential is the
only thing expanded in jet arithmetic, by the chart's compiled program
(``exprs.Program``), run once on the stacked points of a draw or stage
(``PotentialChart.lifts``), so the fourth derivatives carry no step-size
error.  A black-box potential is lifted point by point by finite
differences and converted once (``Jet.to_wirtinger``).  A ``ChartGeometry``
is built once per point per verdict and handed from stage to stage.

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
from .coords import ChartPoint, holo_of, j_matrix
from .errors import ChartDomainError, DegenerateMetricError, NonAnalyticFieldError
from .jets import DEFAULT_ORDER, STACKED_TERMS, Jet, jet_space, lift_callable_to_jet

# Smallest admissible ratio of metric eigenvalues, and of the largest metric
# eigenvalue to the norm of the potential's real Hessian; below either a
# point is rejected as degenerate rather than failing the whole run.
DEGENERACY_RATIO = 1e-10

# Largest relative Hermitian defect of a potential's (z, zbar) jet that is
# still read as roundoff of a real-valued field (see ``lift_to_jet``).
HERMITIAN_TOL = 1e-8

METRIC_ORDER = 2  # the potential order that g, G and the Kahler form read

# ``PotentialChart.lifts`` runs stacks of STACK_POINTS, the same at every n (stacks sized
# by the jet raised the suite's scaling exponent); fewer points, as large jets, lift alone.
STACK_POINTS = 8

ScalarField = Union[tuple, Callable[[np.ndarray], float]]


def lift_to_jet(field, point: ChartPoint, order=DEFAULT_ORDER, fd_scale=1.0):
    """Lift a real scalar field to its jet over (z, zbar) at a point: returns
    (jet, relative Hermitian defect of the jet before its real part is taken).

    Expression-tree fields (or their compiled ``exprs.Program``) run in
    exact jet arithmetic on the coordinate jets z^j (variable 2j); their
    conjugates come from conjugating the jet.  The defect is max
    |c_(alpha, beta) - conj c_(beta, alpha)| / (1 + max |c|); above
    ``HERMITIAN_TOL`` the field is not real-valued.  Callables (black boxes
    on the real coordinate vector) fall back to Richardson-extrapolated
    central finite differences over the real variables, with steps
    proportional to ``fd_scale``, converted once to (z, zbar) with defect 0;
    they lose roughly half the significant digits of the exact route.
    At a list of points an expression field runs once on their stacked
    coordinate jets, giving each point's (jet, defect).
    """
    if callable(field):
        real = lift_callable_to_jet(field, point.real_view, order=order, scale=fd_scale)
        return real.to_wirtinger(), 0.0
    holo = holo_of(point)
    if not isinstance(field, exprs.Program):
        field = exprs.compile(field, exprs.coord_names(len(holo)))
    (jet,) = exprs.on_coordinates([field], holo, order, wirtinger=True)
    space = jet_space(2 * len(holo), order)
    if not isinstance(jet, Jet):  # a constant tree
        jet = Jet(space, space.constant(np.full(np.shape(holo[0]), jet)).coeffs, order, 0, True)
    coeffs = np.ascontiguousarray(jet.coeffs.T)  # a stack's points in rows
    conjugate = np.conj(coeffs.take(space._wirtinger_layout[1], axis=-1))
    dust = np.abs(coeffs - conjugate).max(axis=-1)
    scale = 1.0 + np.abs(coeffs).max(axis=-1)
    if np.any(dust > HERMITIAN_TOL * scale):
        raise NonAnalyticFieldError(
            f"field is not real-valued at {holo}: Hermitian defect {np.max(dust):.3g}"
        )
    real, defects = np.atleast_2d(0.5 * (coeffs + conjugate)), (dust / scale).reshape(-1).tolist()
    lifted = [(Jet(space, c, order, jet.degree, wirtinger=True), d) for c, d in zip(real, defects)]
    return lifted if isinstance(point, list) else lifted[0]


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

    @functools.cached_property
    def _programs(self):
        """The compiled potential (or the callable itself) and domain, on
        first use: the benchmark's set-up builds charts, not programs."""
        names = exprs.coord_names(self.dimension)
        potential = self.potential
        if not callable(potential):
            potential = exprs.compile(potential, names)
        domain = None if self.domain is None else exprs.compile(self.domain, names)
        return potential, domain

    def potential_value(self, point: ChartPoint) -> float:
        if callable(self.potential):
            return float(self.potential(point.real_view))
        return complex(self._programs[0].on_numbers(point.holo)).real

    def admits(self, point: ChartPoint) -> bool:
        if not all(lo <= c <= hi for c, (lo, hi) in zip(point.real_view, self.box)):
            return False
        domain = self._programs[1]
        return domain is None or not complex(domain.on_numbers(point.holo)).real <= 0.0

    def geometry(self, point: ChartPoint, lift_order=DEFAULT_ORDER, lift=None) -> "ChartGeometry":
        """A new geometry at a point, lifted to ``lift_order`` (or given its
        ``lift``): ``METRIC_ORDER`` if its metric alone is read, else 4."""
        return ChartGeometry(self, point, lift_order, lift)

    def lifts(self, points, lift_order=DEFAULT_ORDER):
        """For ``geometry``: the potential's (jet, defect) from stacked runs at the leading
        points the domain admits, else whether it admits them (True where a run raised), up
        to one whose admission raises; None past it, and everywhere for a callable, fewer
        than ``STACK_POINTS`` points or jets over ``STACKED_TERMS`` (all summed per point)."""
        made = [None] * len(points)
        size = jet_space(2 * self.dimension, lift_order).size
        if not self.is_exact or len(points) < STACK_POINTS or size > STACKED_TERMS:
            return made
        for i, point in enumerate(points):
            made[i] = at_once(lambda: self.admits(point))
            if made[i] is None:
                break
        inside = [i for i, admitted in enumerate(made) if admitted]
        for start in range(0, len(inside) if len(inside) >= STACK_POINTS else 0, STACK_POINTS):
            stack = inside[start: start + STACK_POINTS]
            lifted = at_once(lambda: lift_to_jet(self._programs[0], [points[i] for i in stack], lift_order))
            for i, one in zip(stack, lifted or ()):
                made[i] = one
        return made


def at_once(run):
    """``run()``, or None if it raises: a stage then redoes the run per point, in order."""
    try:
        return run()
    except Exception:
        return None


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

    The object lifts the potential once, to ``lift_order`` (unless handed
    its ``lift`` by ``PotentialChart.lifts``), and derives all metric,
    connection and curvature values from that jet, each a ``cached``
    property.  One lifted to ``METRIC_ORDER`` holds g, G and the Kahler form
    only: dg, ddg and what is built on them raise JetOrderError.  It admits
    its point on construction (ChartDomainError) unless ``lift`` says
    whether the domain does, and lives as long as its holder: ``verdict``
    builds one per point and passes it to every stage that reads the point.
    """

    def __init__(self, chart: PotentialChart, point: ChartPoint, lift_order=DEFAULT_ORDER, lift=None):
        if lift is False or lift is None and not chart.admits(point):
            raise ChartDomainError(f"{point.holo} outside domain of {chart.label}")
        self.chart = chart
        self.point = point
        self.n = chart.dimension
        self.lift_order = lift_order
        if isinstance(lift, tuple):
            self.__dict__["_lift"] = lift

    # -- potential and its partial tensors -------------------------------------

    @cached
    def _lift(self):
        """(jet, Hermitian defect) of the potential lifted to ``lift_order``."""
        chart = self.chart
        return lift_to_jet(chart._programs[0], self.point, self.lift_order, chart.fd_scale)

    @property
    def psi_jet(self):
        return self._lift[0]

    @property
    def hermitian_defect(self):
        """How far the potential's jet in (z, zbar) was from Hermitian before
        its real part was taken, relative to its size (see ``lift_to_jet``)."""
        return self._lift[1]

    @cached
    def g(self):
        """g[j, k] = d_j dbar_k psi, the Hermitian metric."""
        psi = self.psi_jet
        g = psi.wirtinger_tensor((True, False))
        if not np.all(np.isfinite(g)):
            raise DegenerateMetricError(f"metric not finite at {self.point.holo}: {g}")
        eigs = np.linalg.eigvalsh(0.5 * (g + g.conj().T))
        # the real Hessian of psi has Frobenius norm 2 sqrt(2 (|d d psi|^2 + |g|^2))
        hol = psi.wirtinger_tensor((True, True))
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

    @cached
    def dg(self):
        """dg[i, k, l] = d_i g_{k lbar} at the point."""
        return self.psi_jet.wirtinger_tensor((True, True, False))

    @cached
    def ddg(self):
        """ddg[i, j, k, l] = d_i dbar_j g_{k lbar} at the point."""
        return self.psi_jet.wirtinger_tensor((True, False, True, False))

    # -- Ricci and curvature ---------------------------------------------------

    @cached
    def ricci(self):
        """Ricci coefficients Ric_{i jbar} = g^{lbar k} R_{i jbar k lbar}, which
        equals -d_i dbar_j log det g: rows (i, j) of R times the column g^T,
        one matrix-vector product over any leading axes."""
        n, g_inv = self.n, self.g_inv
        lead = g_inv.shape[:-2]
        R = self.curvature.reshape(lead + (n * n, n * n))
        return (R @ g_inv.swapaxes(-1, -2).reshape(lead + (n * n, 1))).reshape(lead + (n, n))

    @cached
    def curvature(self):
        """R[i,j,k,l] = -d_i dbar_j g_{k lbar} + g^{qbar p} d_i g_{k qbar} dbar_j g_{p lbar}."""
        n, lead = self.n, self.dg.shape[:-3]
        dg = self.dg.reshape(lead + (n * n, n))  # rows (i, k)
        term2 = (dg @ self.g_inv) @ np.conj(dg).swapaxes(-1, -2)  # [(i, k), (j, l)]
        return -self.ddg + term2.reshape(lead + (n,) * 4).swapaxes(-3, -2)

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


def einstein_residual(geometries):
    """Estimate the Einstein constant and the worst relative defect over the
    chart geometries of the sample points.

    Returns (lambda_est, max_residual) where lambda_est is the median over
    points of Re tr(g^-1 Ric) / n, which no change of chart coordinates
    moves, and max_residual = max_p ||Ric - lambda g||_F / ||g||_F; a nan
    anywhere is a nan residual.
    """
    pairs = [(geom.g, geom.ricci) for geom in geometries]
    if len(pairs) < 2:
        raise ValueError("einstein_residual needs at least 2 sample points")
    g, ric = np.moveaxis(np.array(pairs), 1, 0)
    trace = np.trace(np.linalg.solve(g, ric), axis1=-2, axis2=-1).real
    lam = float(np.median(trace / g.shape[-1]))
    defect = np.linalg.norm(ric - lam * g, axis=(-2, -1)) / np.linalg.norm(g, axis=(-2, -1))
    return lam, float(defect.max())
