"""The curvature trace operator on a locus and its spectral Einstein test.

For tangent fields of a totally real locus the operator

    zeta  ->  sum_a J [ R(J e_a, zeta) e_a ]^normal

is tangent-valued; the locus carries an Einstein induced metric exactly
when this operator is -C times the identity for a constant C.  Two
independent evaluations are kept side by side: the projection route above
and the scalar route -sum_a Rm(J e_a, e_b, e_c, J e_a); they must agree to
tensor-assembly precision.  Both are contractions of the chart's real
Riemann tensor at the point, built once: the frame sums over a are formed
as 2n x 2n matrices (N^T E, N^T N) first, then contracted with the tensor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coords import RealTangent, apply_J, j_matrix
from .locus import LocusPoint, map_normal_projector, mixed_curvature_form
from .metrics import PotentialChart

DEFAULT_TOL_SYM = 1e-6
DEFAULT_TOL_EIG = 1e-5
DEFAULT_TOL_CONST = 1e-5


def _frame_normal_projector(frame, G) -> np.ndarray:
    """The G-orthogonal projector N^T N G onto the span of the normal frame."""
    return frame.normal.T @ frame.normal @ G


def j_normal_curvature(
    chart: PotentialChart,
    lp: LocusPoint,
    zeta: RealTangent,
    eta: RealTangent,
    rho: RealTangent,
    projector=None,
) -> RealTangent:
    """J applied to the normal part of R(J zeta, eta) rho.

    The output is tangent to the locus (J exchanges tangent and normal on a
    totally real submanifold).  ``projector`` overrides the frame-based
    normal projection matrix, e.g. with :func:`map_normal_projector`.
    """
    geom = chart.geometry(lp.point)
    u = geom.curvature_endomorphism(apply_J(zeta), eta, rho).components
    P = _frame_normal_projector(lp.frame, geom.G) if projector is None else projector
    return apply_J(RealTangent(P @ u, lp.point))


def mixed_curvature_trace(
    chart: PotentialChart, lp: LocusPoint, zeta: RealTangent, eta: RealTangent
) -> float:
    """sum_a Rm(J e_a, zeta, eta, J e_a) over the normal half of the frame."""
    return float(zeta.components @ mixed_curvature_form(chart, lp) @ eta.components)


def mixed_curvature_matrix(chart: PotentialChart, lp: LocusPoint) -> np.ndarray:
    """The mixed trace evaluated on frame pairs: out[a, b] on (e_a, e_b)."""
    E = lp.frame.tangent
    return E @ mixed_curvature_form(chart, lp) @ E.T


@dataclass(frozen=True, eq=False)
class TraceOperatorAt:
    """The trace operator in the frame basis, from both evaluation routes.

    ``matrix``[b, a] = G(sum_c J[R(J e_c, e_a) e_c]^normal, e_b); the
    ``cross_matrix`` is the same object assembled from curvature scalars,
    minus the transposed :func:`mixed_curvature_matrix`.  The matrix depends
    on the frame only through orthogonal conjugation.
    """

    matrix: np.ndarray
    cross_matrix: np.ndarray
    base: LocusPoint

    @property
    def route_agreement(self) -> float:
        return float(
            np.max(np.abs(self.matrix - self.cross_matrix))
            / max(1.0, float(np.max(np.abs(self.matrix))))
        )


def trace_operator_at(
    chart: PotentialChart, lp: LocusPoint, projector=None, frame=None
) -> TraceOperatorAt:
    frame = frame if frame is not None else lp.frame
    if frame is not lp.frame:
        lp = LocusPoint(lp.t, lp.point, frame, lp.jacobian, lp.chart, lp.locus)
    geom = chart.geometry(lp.point)
    E, N, G = frame.tangent, frame.normal, geom.G
    P = _frame_normal_projector(frame, G) if projector is None else projector
    # cov[a] = sum_c Rm(J e_c, e_a, e_c, .), contracted over the frame first
    cov = E @ np.tensordot(N.T @ E, geom.riemann_tensor, axes=([0, 1], [0, 2]))
    M = E @ G @ (j_matrix(chart.dimension) @ P @ geom.G_inv @ cov.T)
    return TraceOperatorAt(M, -mixed_curvature_matrix(chart, lp).T, lp)


@dataclass(frozen=True)
class SpectralVerdict:
    """Per-point outcome of the spectral Einstein test."""

    eigenvalues: tuple
    symmetric_residual: float
    eigenvalue_spread: float
    C_est: float
    einstein: bool
    complex_eigenvalues: bool


def spectral_test(M, tol_sym=DEFAULT_TOL_SYM, tol_eig=DEFAULT_TOL_EIG) -> SpectralVerdict:
    """Decide whether M is (numerically) -C times the identity.

    A real matrix is orthogonally diagonalizable iff it is symmetric, so
    the test is: symmetric defect below ``tol_sym`` and relative eigenvalue
    spread of the symmetrized matrix below ``tol_eig``.  C is reported with
    the sign convention M = -C Id, so raw eigenvalues are also returned.
    """
    M = np.asarray(M, dtype=float)
    scale = max(1.0, float(np.linalg.norm(M)))
    sym_res = float(np.linalg.norm(M - M.T) / scale)
    eigs = np.linalg.eigvalsh(0.5 * (M + M.T))
    mean = float(np.mean(eigs))
    spread = float((eigs[-1] - eigs[0]) / max(1.0, abs(mean)))
    raw = np.linalg.eigvals(M)
    has_complex = bool(np.max(np.abs(raw.imag)) > 1e-9 * scale)
    return SpectralVerdict(
        eigenvalues=tuple(float(e) for e in eigs),
        symmetric_residual=sym_res,
        eigenvalue_spread=spread,
        C_est=-mean,
        einstein=bool(sym_res < tol_sym and spread < tol_eig),
        complex_eigenvalues=has_complex,
    )
