"""The curvature trace operator on a locus and its spectral Einstein test.

For tangent fields of a totally real locus the operator

    zeta  ->  sum_a J [ R(J e_a, zeta) e_a ]^normal

is tangent-valued; the locus carries an Einstein induced metric exactly
when this operator is -C times the identity for a constant C.  Two
independent evaluations are kept side by side: the projection route above
and the scalar route -sum_a Rm(J e_a, e_b, e_c, J e_a); they must agree to
tensor-assembly precision.  Both read the chart's complex curvature
summed over the frame once per point (``LocusGeometry.frame_curvature``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coords import j_matrix
# map_normal_projector is re-exported: stage 5 and the bench hooks read it here
from .locus import LocusGeometry, map_normal_projector  # noqa: F401


@dataclass(frozen=True, eq=False)
class TraceOperatorAt:
    """The trace operator in the frame basis, from both evaluation routes.

    ``matrix``[b, a] = G(sum_c J[R(J e_c, e_a) e_c]^normal, e_b); the
    ``cross_matrix`` is the same object assembled from curvature scalars,
    minus the transposed ``LocusGeometry.mixed_curvature``.  The matrix
    depends on the frame only through orthogonal conjugation.
    """

    matrix: np.ndarray
    cross_matrix: np.ndarray

    @property
    def route_agreement(self) -> float:
        return float(
            np.max(np.abs(self.matrix - self.cross_matrix))
            / max(1.0, float(np.max(np.abs(self.matrix))))
        )


def trace_operator_at(lp: LocusGeometry, projector) -> TraceOperatorAt:
    """The trace operator at a locus point on its frame, with ``projector``
    the normal projector, e.g. :func:`map_normal_projector`."""
    geom, E = lp.geom, lp.frame.tangent
    # cov[a] = sum_c Rm(J e_c, e_a, e_c, .) on the real basis, whose d_x^l
    # and d_y^l have holomorphic components 1 and i in slot l
    _, U, V = lp.frame_curvature
    cov = np.stack([-2.0 * np.imag(U - V), 2.0 * np.real(U + V)], axis=-1).reshape(E.shape)
    M = E @ geom.G @ (j_matrix(lp.n) @ projector @ geom.G_inv @ cov.T)
    return TraceOperatorAt(M, -lp.mixed_curvature.T)


@dataclass(frozen=True)
class SpectralVerdict:
    """Per-point outcome of the spectral Einstein test."""

    eigenvalues: tuple
    symmetric_residual: float
    eigenvalue_spread: float
    C_est: float
    einstein: bool
    complex_eigenvalues: bool


def spectral_test(M, tol_sym, tol_eig) -> SpectralVerdict:
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
