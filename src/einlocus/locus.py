"""Frames, projections and curvature restricted to a parametrized locus.

The canonical frame at a locus point is the Gram-Schmidt orthonormalization
(with one re-orthogonalization pass, in parameter order) of the coordinate
basis d(param)/dt, paired with its image under J.  The second fundamental
form h(e_a, e_b) = [nabla_{e_a} e_b]^normal needs only the frame and its
first derivative along the locus, so the orthonormalization is carried out
on (value, t-derivative) pairs: first-order forward-mode differentiation,
with the metric's t-derivative dG . T taken from the chart geometry.  No
quantity beyond the chart's own order-4 potential jet is expanded.

The full jet expansion of the potential in (parameters, chart displacement)
survives only behind ``intrinsic_curvature``, the independent test oracle
for the curvature of the induced metric.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .antiholo import FixedLocusParam
from .coords import ChartPoint, RealTangent, j_matrix
from .errors import HypothesesNotVerifiedError, NonAnalyticFieldError, RankDeficiencyError
from .exprs import coord_names, evaluate
from .jets import jet_space
from .metrics import PotentialChart
from .realcurv import curvature_from_metric_jets

GS_RANK_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class FramePair:
    """Orthonormal tangent frame (rows of ``tangent``) and its J-image."""

    tangent: np.ndarray
    normal: np.ndarray
    base: ChartPoint

    @property
    def n(self):
        return self.tangent.shape[0]

    def tangent_vectors(self):
        return [RealTangent(row, self.base) for row in self.tangent]

    def normal_vectors(self):
        return [RealTangent(row, self.base) for row in self.normal]

    def rotated(self, Q):
        """Re-frame by an orthogonal matrix: e'_a = sum_c Q[c, a] e_c."""
        new_tan = Q.T @ self.tangent
        J = j_matrix(self.tangent.shape[1] // 2)
        return FramePair(new_tan, new_tan @ J.T, self.base)

    def orthonormality_defect(self, G):
        stacked = np.vstack([self.tangent, self.normal])
        gram = stacked @ G @ stacked.T
        return float(np.max(np.abs(gram - np.eye(gram.shape[0]))))


@dataclass(frozen=True, eq=False)
class LocusPoint:
    """A locus parameter with its chart point, frame and parametrization data."""

    t: tuple
    point: ChartPoint
    frame: FramePair
    jacobian: np.ndarray
    chart: PotentialChart
    locus: FixedLocusParam


class LocusGeometry:
    """Frame and second fundamental form of a chart geometry at one locus
    point, plus the jet route to the induced metric's intrinsic curvature."""

    def __init__(self, chart: PotentialChart, locus: FixedLocusParam, t):
        self.chart = chart
        self.locus = locus
        self.t = tuple(float(x) for x in t)
        self.point = locus.point(self.t)
        self.geom = chart.geometry(self.point)
        self.n = chart.dimension
        self.m = locus.n_params
        self._cache = {}

    def _get(self, key, builder):
        if key not in self._cache:
            self._cache[key] = builder()
        return self._cache[key]

    # -- parameter jets -------------------------------------------------------

    @property
    def param_jets(self):
        return self._get("param", lambda: self.locus.component_jets(self.t, order=4))

    @property
    def tangent_field_jets(self):
        """T_d, the coordinate tangent fields, as real components in t-jets."""

        def build():
            out = []
            for d in range(self.m):
                comps = []
                for k in range(self.n):
                    dz = self.param_jets[k].deriv(d)
                    comps.extend([dz.real, dz.imag])
                out.append(comps)
            return out

        return self._get("T", build)

    def _combined_potential_jet(self):
        """The potential expanded jointly in (parameters, chart displacement)."""
        if callable(self.chart.potential):
            raise NonAnalyticFieldError("the joint expansion needs an expression potential")
        n, m = self.n, self.m
        comb = jet_space(m + 2 * n, 4)
        t_env = {
            name: comb.variable(d, self.t[d])
            for d, name in enumerate(coord_names(m, prefix="t"))
        }
        w0 = [evaluate(c, t_env) for c in self.locus.components]
        coords = []
        for j in range(n):
            u = comb.variable(m + 2 * j)
            v = comb.variable(m + 2 * j + 1)
            base = w0[j] if hasattr(w0[j], "deriv") else comb.constant(w0[j])
            coords.append(base + u + 1j * v)
        env = dict(zip(coord_names(n), coords))
        psi = evaluate(self.chart.potential, env)
        return psi if hasattr(psi, "deriv") else comb.constant(psi)

    @property
    def metric_jets_on_locus(self):
        """G o param as a matrix of jets in the parameters (order 2)."""

        def build():
            n, m = self.n, self.m
            psi = self._combined_potential_jet()
            comb = psi.space

            def dz(jet, j):
                return (jet.deriv(m + 2 * j) - 1j * jet.deriv(m + 2 * j + 1)) * 0.5

            def dzbar(jet, j):
                return (jet.deriv(m + 2 * j) + 1j * jet.deriv(m + 2 * j + 1)) * 0.5

            tspace = jet_space(m, 4)
            keep = tuple(range(self.m))
            g_t = [
                [dz(dzbar(psi, k), j).restrict(keep, tspace) for k in range(n)]
                for j in range(n)
            ]
            G = [[None] * (2 * n) for _ in range(2 * n)]
            for j in range(n):
                for k in range(n):
                    re2 = 2.0 * g_t[j][k].real
                    im2 = 2.0 * g_t[j][k].imag
                    G[2 * j][2 * k] = re2
                    G[2 * j][2 * k + 1] = im2
                    G[2 * j + 1][2 * k] = -1.0 * im2
                    G[2 * j + 1][2 * k + 1] = re2
            return G

        return self._get("G_t", build)

    def _inner(self, X, Y):
        Gj = self.metric_jets_on_locus
        dim = len(X)
        acc = None
        for a in range(dim):
            for b in range(dim):
                term = Gj[a][b] * X[a] * Y[b]
                acc = term if acc is None else acc + term
        return acc

    # -- the canonical frame to first order along the locus ----------------------

    @property
    def frame_field_jets(self):
        """Gram-Schmidt of the tangent fields on (value, t-derivative) pairs.

        Returns (E, dE) with E[a] the frame vector e_a at the base point and
        dE[a, d] = d e_a / d t_d there.
        """

        def build():
            m = self.m
            z1 = np.array([w.derivative_tensor(1) for w in self.param_jets])  # [k, d]
            z2 = np.array([w.derivative_tensor(2) for w in self.param_jets])  # [k, c, d]
            T = np.empty((m, 2 * self.n))
            dT = np.empty((m, m, 2 * self.n))  # dT[d, c] = d T_d / d t_c
            T[:, 0::2], T[:, 1::2] = z1.real.T, z1.imag.T
            dT[..., 0::2], dT[..., 1::2] = z2.real.transpose(2, 1, 0), z2.imag.transpose(2, 1, 0)
            G = self.geom.G
            dG = np.einsum("eab,ce->cab", self.geom.dG, T)  # d G / d t_c

            def inner(x, dx, y, dy):
                val = x @ G @ y
                return val, dx @ G @ y + x @ G @ dy.T + np.einsum("a,cab,b->c", x, dG, y)

            E, dE = [], []
            for u, du in zip(T, dT):
                for _ in range(2):  # re-orthogonalization pass
                    for e, de in zip(E, dE):
                        c, dc = inner(u, du, e, de)
                        u, du = u - c * e, du - np.outer(dc, e) - c * de
                norm2, dnorm2 = inner(u, du, u, du)
                if np.sqrt(max(norm2, 0.0)) < GS_RANK_TOL:
                    raise RankDeficiencyError(
                        f"locus parametrization degenerate at t={self.t}"
                    )
                s = norm2 ** -0.5
                E.append(s * u)
                dE.append(s * du - np.outer(0.5 * s**3 * dnorm2, u))
            return np.array(E), np.array(dE)

        return self._get("frame_field", build)

    @property
    def frame(self) -> FramePair:
        def build():
            rows = self.frame_field_jets[0]
            J = j_matrix(self.n)
            return FramePair(rows, rows @ J.T, self.point)

        return self._get("frame", build)

    @property
    def jacobian(self):
        """d(param)/dt at the base parameter, real 2n x m."""
        return self._get("jacobian", lambda: self.locus.jacobian(self.t))

    @property
    def frame_in_param_basis(self):
        """Coefficients c with e_a = sum_d c[a, d] T_d at the base parameter."""

        def build():
            sol, *_ = np.linalg.lstsq(self.jacobian, self.frame.tangent.T, rcond=None)
            return sol.T

        return self._get("frame_coeffs", build)

    # -- second fundamental form -------------------------------------------------

    def ambient_derivative(self, a, b) -> np.ndarray:
        """Components of nabla_{e_a} e_b at the base point."""
        directional = self.frame_in_param_basis[a] @ self.frame_field_jets[1][b]
        gamma = self.geom.christoffel
        ea = self.frame.tangent[a]
        eb = self.frame.tangent[b]
        return directional + np.einsum("kij,i,j->k", gamma, ea, eb)

    def second_fundamental_form(self, a, b) -> RealTangent:
        w = self.ambient_derivative(a, b)
        G = self.geom.G
        tan = self.frame.tangent
        w_tan = tan.T @ (tan @ G @ w)
        return RealTangent(w - w_tan, self.point)

    @property
    def sff_max_norm(self):
        def build():
            G = self.geom.G
            worst = 0.0
            for a in range(self.frame.n):
                for b in range(a, self.frame.n):
                    h = self.second_fundamental_form(a, b).components
                    worst = max(worst, float(np.sqrt(h @ G @ h)))
            return worst

        return self._get("h_max", build)

    # -- induced metric and its intrinsic curvature --------------------------------

    @property
    def induced_metric_jets(self):
        def build():
            T = self.tangent_field_jets
            return [
                [self._inner(T[c], T[d]) for d in range(self.m)] for c in range(self.m)
            ]

        return self._get("induced", build)

    @property
    def intrinsic_curvature(self):
        """Curvature package of the induced metric in the parameter basis."""
        return self._get(
            "intrinsic", lambda: curvature_from_metric_jets(self.induced_metric_jets)
        )


@lru_cache(maxsize=2048)
def _locus_geometry(chart, locus, t):
    return LocusGeometry(chart, locus, t)


def locus_geometry(chart, locus, t) -> LocusGeometry:
    return _locus_geometry(chart, locus, tuple(float(x) for x in t))


# -- module-level operations ------------------------------------------------------


def build_frame(chart: PotentialChart, locus: FixedLocusParam, t) -> FramePair:
    return locus_geometry(chart, locus, t).frame


def locus_point(chart: PotentialChart, locus: FixedLocusParam, t) -> LocusPoint:
    lg = locus_geometry(chart, locus, t)
    return LocusPoint(
        t=lg.t,
        point=lg.point,
        frame=lg.frame,
        jacobian=lg.jacobian,
        chart=chart,
        locus=locus,
    )


def totally_real_residual(chart: PotentialChart, lp: LocusPoint) -> float:
    """Failure of the tangent space to meet its J-image orthogonally,
    combined with the rank defect of the joint 2n-frame.

    Zero means totally real with orthogonal splitting; a J-invariant
    tangent direction scores 1.
    """
    G = chart.geometry(lp.point).G
    cross = lp.frame.tangent @ G @ lp.frame.normal.T
    stacked = np.vstack([lp.frame.tangent, lp.frame.normal])
    rank = np.linalg.matrix_rank(stacked, tol=1e-8)
    defect = float(stacked.shape[0] - rank) / stacked.shape[0]
    return max(float(np.max(np.abs(cross))), defect)


def map_normal_projector(mapping, point) -> np.ndarray:
    """The splitting projector (I - Df) / 2 onto the normal space, as a matrix."""
    D = mapping.jacobian_real(point)
    return (np.eye(D.shape[0]) - D) / 2.0


def project_tn(mapping, chart: PotentialChart, point: ChartPoint, v: RealTangent):
    """Split v into locus-tangent and normal parts through the map differential:
    v_nor = (I - Df) v / 2 and v_tan = v - v_nor."""
    v_nor = map_normal_projector(mapping, point) @ v.components
    return RealTangent(v.components - v_nor, point), RealTangent(v_nor, point)


def second_fundamental_form(chart, locus, t, a, b) -> RealTangent:
    return locus_geometry(chart, locus, t).second_fundamental_form(a, b)


def sff_max_norm(chart, locus, t) -> float:
    return locus_geometry(chart, locus, t).sff_max_norm


def lagrangian_residual(chart: PotentialChart, lp: LocusPoint) -> float:
    omega = chart.geometry(lp.point).kahler_form
    vals = lp.frame.tangent @ omega @ lp.frame.tangent.T
    return float(np.max(np.abs(vals)))


def restricted_ricci(
    chart: PotentialChart,
    lp: LocusPoint,
    zeta: RealTangent,
    eta: RealTangent,
    h_residual=None,
    h_tol=1e-6,
) -> float:
    """Ricci of the induced metric through the ambient splitting:
    Ric_g(zeta, eta) - sum_a Rm(J e_a, zeta, eta, J e_a).

    Requires the locus to be totally geodesic; pass a precomputed
    ``h_residual`` or it is measured here and enforced against ``h_tol``.
    """
    lg = locus_geometry(chart, lp.locus, lp.t)
    if h_residual is None:
        h_residual = lg.sff_max_norm
    if h_residual > h_tol:
        raise HypothesesNotVerifiedError(
            f"second fundamental form residual {h_residual:.3g} exceeds {h_tol:.3g}"
        )
    mixed = zeta.components @ mixed_curvature_form(chart, lp) @ eta.components
    return float(chart.geometry(lp.point).ricci_real(zeta, eta) - mixed)


def mixed_curvature_form(chart: PotentialChart, lp: LocusPoint) -> np.ndarray:
    """K[y, z] = sum_a Rm(J e_a, d_y, d_z, J e_a) over the normal frame, as one
    contraction of the chart's Riemann tensor with N^T N."""
    N = lp.frame.normal
    return np.tensordot(N.T @ N, chart.geometry(lp.point).riemann_tensor, axes=([0, 1], [0, 3]))


def intrinsic_ricci_on_frame(chart: PotentialChart, lp: LocusPoint) -> np.ndarray:
    """Intrinsic Ricci of the induced metric, expressed on the frame.

    Independent of the ambient-splitting route: the induced metric is
    differentiated in the parameters and run through the Christoffel
    pipeline, then contracted with the frame coefficients.
    """
    lg = locus_geometry(chart, lp.locus, lp.t)
    ric_param = lg.intrinsic_curvature["ricci"]
    C = lg.frame_in_param_basis
    return C @ ric_param @ C.T
