"""The curvature trace operator on a locus and its spectral Einstein test.

For tangent fields of a totally real locus the operator

    zeta  ->  sum_a J [ R(J e_a, zeta) e_a ]^normal

is tangent-valued; the locus carries an Einstein induced metric exactly
when this operator is -C times the identity for a constant C.  Two
independent evaluations are kept side by side: the projection route above
and the scalar route -sum_a Rm(J e_a, e_b, e_c, J e_a); they must agree to
tensor-assembly precision.  Both read the chart's complex curvature
summed over the frame (``LocusGeometry.frame_curvature``).

``verdict`` runs both routes, the spectral test and the normal projectors
(from one stacked Jacobian run) once, on (points, ...) arrays of all its
admitted points (``LocusGeometry.stacked``); Frobenius norms are one dot
product per point, as ``np.linalg.norm`` takes them, and one point gives
the same numbers bit for bit.
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
    depends on the frame only through orthogonal conjugation.  For a
    stacked locus geometry both carry a leading point axis, and the route
    agreement is an array over it rather than a number.
    """

    matrix: np.ndarray
    cross_matrix: np.ndarray

    @property
    def route_agreement(self):
        worst = np.abs(self.matrix - self.cross_matrix).max(axis=(-2, -1))
        return (worst / np.fmax(1.0, np.abs(self.matrix).max(axis=(-2, -1))))[()]


def trace_operator_at(lp: LocusGeometry, projector) -> TraceOperatorAt:
    """The trace operator at a locus point on its frame, with ``projector``
    the normal projector, e.g. :func:`map_normal_projector`; on a stacked
    locus geometry (``LocusGeometry.stacked``) with the projectors stacked
    alike, the operators of every point."""
    geom, E = lp.geom, lp.frame
    # cov[a] = sum_c Rm(J e_c, e_a, e_c, .) on the real basis, whose d_x^l
    # and d_y^l have holomorphic components 1 and i in slot l
    _, U, V = lp.frame_curvature
    cov = np.stack([-2.0 * np.imag(U - V), 2.0 * np.real(U + V)], axis=-1).reshape(E.shape)
    M = E @ geom.G @ (j_matrix(lp.n) @ projector @ geom.G_inv @ cov.swapaxes(-1, -2))
    return TraceOperatorAt(M, -lp.mixed_curvature.swapaxes(-1, -2))


@dataclass(frozen=True)
class SpectralVerdict:
    """Outcome of the spectral Einstein test.  For one matrix the fields are
    a tuple of floats, floats and a bool; for a stack of P matrices each is
    an array with one entry per matrix: eigenvalues (P, m), the others
    (P,)."""

    eigenvalues: tuple | np.ndarray
    symmetric_residual: float | np.ndarray
    eigenvalue_spread: float | np.ndarray
    C_est: float | np.ndarray
    einstein: bool | np.ndarray


def _frobenius(M):
    """Frobenius norms of a stack of matrices, as ``np.linalg.norm`` takes
    each: the square root of one dot product."""
    flat = M.reshape(len(M), -1)
    return np.sqrt(np.vecdot(flat, flat))


def spectral_test(M, tol_sym, tol_eig) -> SpectralVerdict:
    """Decide whether M is (numerically) -C times the identity.

    A real matrix is orthogonally diagonalizable iff it is symmetric, so
    the test is: symmetric defect below ``tol_sym`` and relative eigenvalue
    spread of the symmetrized matrix below ``tol_eig``.  C is reported with
    the sign convention M = -C Id, so the eigenvalues are also returned.
    ``M`` may be a stack of matrices along a leading axis; they are tested
    together, one eigenvalue call for all.
    """
    M = np.asarray(M, dtype=float)
    stack = M if M.ndim == 3 else M[None]
    MT = stack.swapaxes(-1, -2)
    sym_res = _frobenius(stack - MT) / np.fmax(1.0, _frobenius(stack))
    eigs = np.linalg.eigvalsh(0.5 * (stack + MT))
    mean = np.mean(eigs, axis=-1)
    spread = (eigs[:, -1] - eigs[:, 0]) / np.fmax(1.0, np.abs(mean))
    einstein = (sym_res < tol_sym) & (spread < tol_eig)
    if M.ndim == 3:
        return SpectralVerdict(eigs, sym_res, spread, -mean, einstein)
    return SpectralVerdict(
        eigenvalues=tuple(float(e) for e in eigs[0]),
        symmetric_residual=float(sym_res[0]),
        eigenvalue_spread=float(spread[0]),
        C_est=float(-mean[0]),
        einstein=bool(einstein[0]),
    )
