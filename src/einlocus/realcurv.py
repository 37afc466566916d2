"""Curvature of a real metric given as a matrix of jets.

This is the classical Christoffel route: differentiate the metric twice,
never a potential.  It serves two purposes: an independent cross-check of
the complex-coefficient curvature pipeline, and the intrinsic curvature of
induced metrics on parametrized submanifolds (where no potential exists).

Index conventions match the rest of the package:
R(X, Y) Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z - nabla_[X,Y] Z,
Rm(X, Y, Z, W) = G(R(X, Y) Z, W), Ric(Y, Z) = sum_a Rm(E_a, Y, Z, E_a).
"""

from __future__ import annotations

import numpy as np


def real_metric_from_hermitian(g_jets):
    """G = 2 Re / Im blocks of a Hermitian metric g given as a matrix of jets,
    in the interleaved real basis: the jet form of G(v, w) = 2 Re(g V conj(W))."""
    n = len(g_jets)
    G = [[None] * (2 * n) for _ in range(2 * n)]
    for j, row in enumerate(g_jets):
        for k, gjk in enumerate(row):
            re2, im2 = 2.0 * gjk.real, 2.0 * gjk.imag
            G[2 * j][2 * k] = re2
            G[2 * j][2 * k + 1] = im2
            G[2 * j + 1][2 * k] = -1.0 * im2
            G[2 * j + 1][2 * k + 1] = re2
    return G


def jet_matrix_mul(A, B):
    m, k, n = len(A), len(B), len(B[0])
    out = [[None] * n for _ in range(m)]
    for i in range(m):
        for j in range(n):
            acc = A[i][0] * B[0][j]
            for s in range(1, k):
                acc = acc + A[i][s] * B[s][j]
            out[i][j] = acc
    return out


def jet_matrix_inverse(G_jets):
    """Inverse of a jet matrix by the Neumann series around its value part.

    Valid to the jet order of the entries: with D = G - G(0) having no
    constant term, G^-1 = (sum_k (-G(0)^-1 D)^k) G(0)^-1 and the series
    truncates at the jet order.
    """
    m = len(G_jets)
    order = min(G_jets[i][j].order for i in range(m) for j in range(m))
    space = G_jets[0][0].space
    G0 = np.array([[G_jets[i][j].value for j in range(m)] for i in range(m)])
    G0_inv = np.linalg.inv(G0)
    delta = [
        [G_jets[i][j] - G_jets[i][j].value for j in range(m)] for i in range(m)
    ]
    A = [
        [
            _lincomb(space, [(-G0_inv[i, s], delta[s][j]) for s in range(m)])
            for j in range(m)
        ]
        for i in range(m)
    ]
    acc = [
        [space.constant(1.0 if i == j else 0.0) for j in range(m)] for i in range(m)
    ]
    power = acc
    for _ in range(order):
        power = jet_matrix_mul(power, A)
        acc = [[acc[i][j] + power[i][j] for j in range(m)] for i in range(m)]
    const_inv = [[space.constant(G0_inv[i, j]) for j in range(m)] for i in range(m)]
    return jet_matrix_mul(acc, const_inv)


def _lincomb(space, terms):
    acc = None
    for coef, jet in terms:
        t = jet * coef
        acc = t if acc is None else acc + t
    return acc if acc is not None else space.constant(0.0)


def christoffel_jets(G_jets):
    """Levi-Civita symbols of a jet metric, one jet order below the metric."""
    m = len(G_jets)
    Ginv = jet_matrix_inverse(G_jets)
    dG = [
        [[G_jets[a][b].deriv(c) for b in range(m)] for a in range(m)]
        for c in range(m)
    ]
    gamma = [[[None] * m for _ in range(m)] for _ in range(m)]
    for d in range(m):
        for a in range(m):
            for b in range(a, m):
                acc = None
                for e in range(m):
                    brace = dG[a][e][b] + dG[b][e][a] - dG[e][a][b]
                    term = Ginv[d][e] * brace
                    acc = term if acc is None else acc + term
                acc = acc * 0.5
                gamma[d][a][b] = acc
                gamma[d][b][a] = acc
    return gamma


def curvature_from_metric_jets(G_jets):
    """Riemann, Ricci and Christoffel data of a jet metric at its base point.

    Needs the metric entries to jet order >= 2.  Returns a dict with value
    arrays: 'G', 'G_inv', 'christoffel' (Gamma[d, a, b]), 'riemann'
    (Rm[a, b, c, d]) and 'ricci' (Ric[b, c]).
    """
    m = len(G_jets)
    G0 = np.array(
        [[G_jets[i][j].value.real for j in range(m)] for i in range(m)]
    )
    G0_inv = np.linalg.inv(G0)
    gamma_jets = christoffel_jets(G_jets)
    gamma = np.empty((m, m, m))
    dgamma = np.empty((m, m, m, m))  # dgamma[c, d, a, b] = d_c Gamma^d_ab
    for d in range(m):
        for a in range(m):
            for b in range(m):
                gj = gamma_jets[d][a][b]
                gamma[d, a, b] = gj.value.real
                for c in range(m):
                    dgamma[c, d, a, b] = gj.deriv(c).value.real
    # R^d_{cab} = d_a Gamma^d_bc - d_b Gamma^d_ac + Gamma^d_ae Gamma^e_bc
    #            - Gamma^d_be Gamma^e_ac
    r_up = (
        np.einsum("adbc->dcab", dgamma)
        - np.einsum("bdac->dcab", dgamma)
        + np.einsum("dae,ebc->dcab", gamma, gamma)
        - np.einsum("dbe,eac->dcab", gamma, gamma)
    )
    riemann = np.einsum("de,ecab->abcd", G0, r_up)
    ricci = np.einsum("ad,abcd->bc", G0_inv, riemann)
    return {
        "G": G0,
        "G_inv": G0_inv,
        "christoffel": gamma,
        "riemann": riemann,
        "ricci": ricci,
    }
