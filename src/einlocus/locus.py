"""Frames, projections and curvature restricted to a parametrized locus.

The canonical frame at a locus point is the Gram-Schmidt orthonormalization
(in parameter order) of the coordinate basis T = d(param)/dt, paired with
its image under J.  It is taken in closed form: with L L^T = T G T^T the
Cholesky factorization, the frame is E = L^-1 T.  The second fundamental
form h(e_a, e_b) = [nabla_{e_a} e_b]^normal needs only the frame and its
first derivative along the locus, which follows from the derivative of the
factorization (see ``frame_field_jets``), with the metric's t-derivative
dG . T taken from the chart geometry; h is one contraction over all frame
pairs.  No quantity beyond the chart's own potential jet is expanded.
A ``LocusGeometry`` owns the ``ChartGeometry`` at its point; stage 4 of
``verdict`` builds one per locus parameter and stage 5 reads it.

The full jet expansion of the potential in (parameters, chart displacement)
survives only behind ``intrinsic_ricci_on_frame``, the independent test oracle
for the curvature of the induced metric.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .antiholo import FixedLocusParam
from .coords import j_matrix, wirtinger_jet
from .errors import NonAnalyticFieldError, RankDeficiencyError
from .exprs import coord_names, evaluate
from .jets import Jet, jet_space
from .metrics import PotentialChart, cached
from .realcurv import curvature_from_metric_jets, jet_matrix_mul, real_metric_from_hermitian

# Below this, a singular value of d(param)/dt or of the joint frame, or the
# length Gram-Schmidt leaves a tangent field, counts as lost rank.
RANK_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class FramePair:
    """Orthonormal tangent frame (rows of ``tangent``) and its J-image."""

    tangent: np.ndarray
    normal: np.ndarray


class LocusGeometry:
    """Frame and second fundamental form of a chart geometry at one locus
    point, plus the jet route to the induced metric's intrinsic curvature.
    Construction evaluates the parametrization once and admits the point
    (ChartDomainError); every derived member is a ``cached`` property,
    computed on first read (the frame included) and kept on the object."""

    def __init__(self, chart: PotentialChart, locus: FixedLocusParam, t):
        self.chart = chart
        self.locus = locus
        self.t = tuple(float(x) for x in t)
        self.point = locus.point(self.t)
        self.geom = chart.geometry(self.point)
        self.n = chart.dimension
        self.m = locus.n_params

    # -- parameter jets -------------------------------------------------------

    @cached
    def param_jets(self):
        """The locus components as jets in t, to the order the frame reads."""
        return self.locus.component_jets(self.t, order=2)

    @cached
    def tangent_field_jets(self):
        """T_d, the coordinate tangent fields, as real components in t-jets."""
        param = self.locus.component_jets(self.t, order=4)
        out = []
        for d in range(self.m):
            comps = []
            for k in range(self.n):
                dz = param[k].deriv(d)
                comps.extend([dz.real, dz.imag])
            out.append(comps)
        return out

    def _combined_potential_jet(self):
        """The potential expanded jointly in (chart displacement, parameters):
        variables 0..2n-1 are the interleaved real displacement, so Wirtinger
        derivatives apply as on a chart jet, and the parameters follow."""
        if callable(self.chart.potential):
            raise NonAnalyticFieldError("the joint expansion needs an expression potential")
        n, m = self.n, self.m
        comb = jet_space(2 * n + m, 4)
        t_env = {
            name: comb.variable(2 * n + d, self.t[d])
            for d, name in enumerate(coord_names(m, prefix="t"))
        }
        w0 = [evaluate(c, t_env) for c in self.locus.components]
        coords = []
        for j in range(n):
            u = comb.variable(2 * j)
            v = comb.variable(2 * j + 1)
            base = w0[j] if isinstance(w0[j], Jet) else comb.constant(w0[j])
            coords.append(base + u + 1j * v)
        env = dict(zip(coord_names(n), coords))
        psi = evaluate(self.chart.potential, env)
        return psi if isinstance(psi, Jet) else comb.constant(psi)

    @cached
    def metric_jets_on_locus(self):
        """G o param as a matrix of jets in the parameters (order 2)."""
        n, m = self.n, self.m
        psi = self._combined_potential_jet()
        tspace = jet_space(m, 4)
        keep = tuple(range(2 * n, 2 * n + m))
        g_t = [
            [wirtinger_jet(psi, (j,), (k,)).restrict(keep, tspace) for k in range(n)]
            for j in range(n)
        ]
        return real_metric_from_hermitian(g_t)

    # -- the canonical frame to first order along the locus ----------------------

    @cached
    def frame_in_param_basis(self):
        """Coefficients C with e_a = sum_d C[a, d] T_d at the base parameter.

        Gram-Schmidt of the tangent fields T_d in parameter order, in closed
        form: C = L^-1 with L L^T = T G T^T the Cholesky factorization.  A
        failed factorization, or a diagonal entry of L (the length left after
        projecting out the earlier fields) below ``RANK_TOL``, is a rank
        deficiency.
        """
        T = self.jacobian.T
        try:
            L = np.linalg.cholesky(T @ self.geom.G @ T.T)
            full_rank = L.diagonal().min() >= RANK_TOL
        except np.linalg.LinAlgError:
            full_rank = False
        if not full_rank:
            raise RankDeficiencyError(f"locus parametrization degenerate at t={self.t}")
        return np.linalg.inv(L)

    @cached
    def frame_field_jets(self):
        """The frame E = C T and its first derivative along the locus.

        Returns (E, dE) with E[a] the frame vector e_a at the base point and
        dE[a, c] = d e_a / d t_c there.  With H = T G T^T = L L^T, the
        derivative of L^-1 is -X L^-1 where X = L^-1 dL is the lower triangle
        of L^-1 dH L^-T with its diagonal halved, so dE_c = C dT_c - X_c E.
        """
        m = self.m
        z2 = np.array([w.derivative_tensor(2) for w in self.param_jets])  # [k, c, d]
        T, C = self.jacobian.T, self.frame_in_param_basis
        dT = np.empty((m, m, 2 * self.n))  # dT[c, d] = d T_d / d t_c
        dT[..., 0::2], dT[..., 1::2] = z2.real.transpose(1, 2, 0), z2.imag.transpose(1, 2, 0)
        E, dim = C @ T, 2 * self.n
        A = dT @ (self.geom.G @ T.T)  # A[c, d, f] = G(d T_d / d t_c, T_f)
        dG = (T @ self.geom.dG.reshape(dim, -1)).reshape(m, dim, dim)  # d G / d t_c
        K = C @ (A + A.transpose(0, 2, 1) + T @ dG @ T.T) @ C.T  # L^-1 dH_c L^-T
        row = np.arange(m)
        X = K * ((row[:, None] > row) + 0.5 * (row[:, None] == row))
        return E, (C @ dT - X @ E).transpose(1, 0, 2)

    @cached
    def frame(self) -> FramePair:
        rows = self.frame_field_jets[0]
        return FramePair(rows, rows @ j_matrix(self.n).T)

    @cached
    def jacobian(self):
        """d(param)/dt at the base parameter, real 2n x m."""
        return self.locus.jacobian(self.t)

    # -- second fundamental form -------------------------------------------------

    @cached
    def _ambient_derivatives(self):
        """nabla[a, b] = components of nabla_{e_a} e_b at the base point, for
        every frame pair: the derivative of e_b along e_a plus Gamma(e_a, e_b)."""
        E, dE = self.frame_field_jets
        directional = (self.frame_in_param_basis @ dE).transpose(1, 0, 2)
        return directional + (E @ self.geom.christoffel @ E.T).transpose(1, 2, 0)

    @cached
    def _second_fundamental_forms(self):
        """h[a, b], the normal part of nabla[a, b], for every frame pair."""
        nabla, E = self._ambient_derivatives, self.frame.tangent
        return nabla - (nabla @ self.geom.G @ E.T) @ E

    def ambient_derivative(self, a, b) -> np.ndarray:
        """Components of nabla_{e_a} e_b at the base point."""
        return self._ambient_derivatives[a, b]

    def second_fundamental_form(self, a, b) -> np.ndarray:
        """Components of h(e_a, e_b), a row of the table of all frame pairs."""
        return self._second_fundamental_forms[a, b]

    @cached
    def sff_max_norm(self):
        """The largest G-norm of h over all frame pairs."""
        h = self._second_fundamental_forms
        return float(np.sqrt(((h @ self.geom.G) * h).sum(axis=-1).max()))

    # -- curvature on the frame --------------------------------------------------

    @cached
    def frame_curvature(self):
        """(Eh, U, V): Eh[a] the holomorphic components of e_a, U[a, l] =
        conj(Eh[a, j]) R[i, j, k, l] S[i, k] and V[a, k] = conj(Eh[a, j])
        R[i, j, k, l] Q[i, l] for S = Eh^T Eh, Q = Eh^T conj(Eh).  As J e_c has
        components i Eh[c], Rm(x, y, z, w) = 2 Re R[i, j, k, l] X_i conj(Y_j)
        (Z_k conj(W_l) - W_k conj(Z_l)) makes every frame sum of stage 5 a
        real part of U or V times Eh."""
        E = self.frame.tangent
        Eh = E[:, 0::2] + 1j * E[:, 1::2]
        R, nn = self.geom.curvature, self.n**2
        A = (Eh.T @ Eh).ravel() @ R.transpose(0, 2, 1, 3).reshape(nn, nn)  # [(j, l)]
        B = (Eh.T @ np.conj(Eh)).ravel() @ R.transpose(0, 3, 1, 2).reshape(nn, nn)  # [(j, k)]
        return Eh, np.conj(Eh) @ A.reshape(self.n, -1), np.conj(Eh) @ B.reshape(self.n, -1)

    @cached
    def mixed_curvature(self):
        """The mixed trace out[a, b] = sum_c Rm(J e_c, e_a, e_b, J e_c) on frame
        pairs, 2 Re(V Eh^T + U Eh^H) from ``frame_curvature``."""
        Eh, U, V = self.frame_curvature
        return 2.0 * np.real(V @ Eh.T + U @ np.conj(Eh).T)


# -- module-level operations ------------------------------------------------------


def locus_point(lg: LocusGeometry) -> LocusGeometry:
    """``lg`` with its frame built, so that a degenerate parametrization
    raises RankDeficiencyError here."""
    lg.frame
    return lg


def totally_real_residual(lp: LocusGeometry) -> float:
    """Failure of the tangent space to meet its J-image orthogonally,
    combined with the rank defect of the joint 2n-frame.

    Zero means totally real with orthogonal splitting; a J-invariant
    tangent direction scores 1.
    """
    G = lp.geom.G
    cross = lp.frame.tangent @ G @ lp.frame.normal.T
    stacked = np.vstack([lp.frame.tangent, lp.frame.normal])
    rank = np.linalg.matrix_rank(stacked, tol=RANK_TOL)
    defect = float(stacked.shape[0] - rank) / stacked.shape[0]
    return max(float(np.max(np.abs(cross))), defect)


def map_normal_projector(mapping, point) -> np.ndarray:
    """The splitting projector (I - Df) / 2 onto the normal space, as a matrix."""
    D = mapping.jacobian_real(point)
    return (np.eye(D.shape[0]) - D) / 2.0


def lagrangian_residual(lp: LocusGeometry) -> float:
    omega = lp.geom.kahler_form
    vals = lp.frame.tangent @ omega @ lp.frame.tangent.T
    return float(np.max(np.abs(vals)))


def restricted_ricci(lp: LocusGeometry) -> np.ndarray:
    """Ricci of the induced metric on frame pairs through the ambient
    splitting, Ric(e_a, e_b) - sum_c Rm(J e_c, e_a, e_b, J e_c): the Gauss
    equation on a totally geodesic locus.  It holds only where the second
    fundamental form vanishes, which ``verdict`` gates before it reads this.
    """
    E = lp.frame.tangent
    return E @ lp.geom.Ric @ E.T - lp.mixed_curvature


def intrinsic_ricci_on_frame(lp: LocusGeometry) -> np.ndarray:
    """Intrinsic Ricci of the induced metric, expressed on the frame.

    Independent of the ambient-splitting route: the induced metric
    h = T G T^T is expanded in the parameters and run through the
    Christoffel pipeline, then contracted with the frame coefficients.
    """
    T = lp.tangent_field_jets
    h = jet_matrix_mul(jet_matrix_mul(T, lp.metric_jets_on_locus), [list(c) for c in zip(*T)])
    C = lp.frame_in_param_basis
    return C @ curvature_from_metric_jets(h)["ricci"] @ C.T
