import math

import numpy as np
import pytest

from einlocus import exprs, jets
from einlocus.coords import j_matrix, wirtinger_jet, wirtinger_matrix
from einlocus.errors import NonAnalyticFieldError
from einlocus.locus import FramePair
from einlocus.metrics import PotentialChart, coordinate_jets
from einlocus.realcurv import real_metric_from_hermitian
from einlocus.sampling import sample_chart_points


def admitted_points(chart, count, seed=0):
    pts, _ = sample_chart_points(chart, count, seed=seed)
    assert len(pts) >= min(count, 2), f"could not sample {chart.label}"
    return pts


def random_tangents(point, count, seed=0):
    """``count`` random tangent vectors at a point, as component arrays."""
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(2 * point.n) for _ in range(count)]


def from_coefficients(space, mapping, order=None):
    """A jet of ``space`` from {multi-index tuple: coefficient}."""
    coeffs = np.zeros(space.size, dtype=np.complex128)
    coeffs[space._lookup(list(mapping))] = list(mapping.values())
    return jets.Jet(space, coeffs, space.capacity if order is None else order)


def real_lift(field, point, order=jets.DEFAULT_ORDER, fd_scale=1.0):
    """The potential's jet over the interleaved real variables, to total
    degree ``order``: the exact lift on x + iy coordinate jets, or the
    finite-difference lift of a callable.  The reference for the (z, zbar)
    lift and its read-off tables."""
    if callable(field):
        return jets.lift_callable_to_jet(field, point.real_view, order=order, scale=fd_scale)
    env = dict(zip(exprs.coord_names(point.n), coordinate_jets(point, order)))
    jet = exprs.evaluate(field, env)
    if not isinstance(jet, jets.Jet):
        jet = jets.jet_space(2 * point.n, order).constant(jet)
    dust = float(np.max(np.abs(jet.coeffs.imag)))
    scale = 1.0 + float(np.max(np.abs(jet.coeffs.real)))
    if dust > 1e-8 * scale:
        raise NonAnalyticFieldError(
            f"field is not real-valued at {point.holo}: imaginary size {dust:.3g}"
        )
    return jet.real


def real_psi_jet(geom):
    """The real-variable oracle jet of a chart geometry's potential."""
    return real_lift(geom.chart.potential, geom.point, fd_scale=geom.chart.fd_scale)


def metric_jets(geom):
    """g_{j kbar} as jets: mixed Wirtinger derivatives of the real-variable
    potential jet."""
    psi, n = real_psi_jet(geom), geom.n
    return [[wirtinger_jet(psi, (j,), (k,)) for k in range(n)] for j in range(n)]


def real_metric_jets(geom):
    """G_ab as jets, in the interleaved real basis, from the metric jets."""
    return real_metric_from_hermitian(metric_jets(geom))


def tensordot_wirtinger(geom, holo):
    """The order-k Wirtinger partial of the potential, k = len(holo), as k
    contractions of the real partial tensor D_k with the Wirtinger matrix:
    the reference for the read-off tables."""
    W = wirtinger_matrix(geom.n)
    out = real_psi_jet(geom).derivative_tensor(len(holo)).real
    for h in holo:  # each contraction appends its index at the end
        out = np.tensordot(out, W if h else W.conj(), axes=([0], [1]))
    return out


def _jet_det(m):
    """Determinant of a small matrix of jets by Laplace expansion."""
    if len(m) == 1:
        return m[0][0]
    acc = None
    for c in range(len(m)):
        minor = [row[:c] + row[c + 1:] for row in m[1:]]
        term = m[0][c] * _jet_det(minor)
        if c % 2:
            term = -term
        acc = term if acc is None else acc + term
    return acc


def laplace_log_det_ricci(geom):
    """Ric_{j kbar} = -d_j dbar_k log det g, with det g expanded by Laplace
    over metric jets: independent of the curvature tensor and its trace."""
    log_det = _jet_det(metric_jets(geom)).log()
    n = geom.n
    return np.array(
        [[-wirtinger_jet(log_det, (j,), (k,)).value for k in range(n)] for j in range(n)]
    )


def ricci_pairing(ric, v, w):
    """The real Ricci tensor of Ricci coefficients: 2 Re(V^j Ric_jk conj(W^k)),
    with V^j = v_x^j + i v_y^j the holomorphic components."""
    V, W = v[0::2] + 1j * v[1::2], w[0::2] + 1j * w[1::2]
    return float(2.0 * np.real(V @ ric @ np.conj(W)))


def riemann_tensor(geom):
    """Rm[x, y, z, w] = Rm(d_x, d_y, d_z, d_w) on the real coordinate basis,
    built from the chart's complex curvature: the pairing of
    ``riemann_covector`` taken over every basis triple at once.  d_x has one
    holomorphic component, ph[x] = 1 or i in slot j[x] = x // 2, so each
    contraction with it is a gather and a phase.  The real reference for
    the complex-form frame sums of the locus."""
    n = geom.n
    j = np.repeat(np.arange(n), 2)
    ph = np.tile([1.0, 1j], n)
    T = geom.curvature[j][:, j] * np.multiply.outer(ph, ph.conj())[..., None, None]
    q = T[:, :, j, :] * ph[:, None]  # q[x, y, z, l] = T[x, y, k, l] P[z, k]
    r = np.swapaxes(T[:, :, :, j], 2, 3) * ph.conj()[:, None]  # T[x, y, k, l] conj(P[z, l])
    Rm = np.empty((2 * n,) * 4)
    Rm[..., 0::2] = 2.0 * np.real(q - r)
    Rm[..., 1::2] = 2.0 * np.imag(q + r)
    return Rm


def riemann(geom, zeta, eta, rho, upsilon):
    """Rm(zeta, eta, rho, upsilon), read off the real Riemann tensor."""
    return float(np.einsum("xyzw,x,y,z,w->", riemann_tensor(geom), zeta, eta, rho, upsilon))


def curvature_endomorphism(geom, zeta, eta, rho):
    """R(zeta, eta) rho, read off the Riemann tensor, with the index raised by G."""
    return geom.G_inv @ np.einsum("xyzw,x,y,z->w", riemann_tensor(geom), zeta, eta, rho)


def j_normal_curvature(lp, zeta, eta, rho, projector):
    """J applied to the normal part of R(J zeta, eta) rho, with ``projector``
    the normal projector: the per-vector reading of the trace operator."""
    J = j_matrix(lp.n)
    return J @ (projector @ curvature_endomorphism(lp.geom, J @ zeta, eta, rho))


def rotated_frame(frame, Q):
    """The frame re-framed by an orthogonal matrix: e'_a = sum_c Q[c, a] e_c,
    with its J-image."""
    tangent = Q.T @ frame.tangent
    return FramePair(tangent, tangent @ j_matrix(tangent.shape[1] // 2).T)


def pullback_potential(mapping, chart):
    """The chart carrying the composed potential psi o f.

    Because the pullback reverses holomorphic type, the metric of the result
    is the matrix of minus the pulled-back Kahler form; the tests hold this
    to the composed chart via :func:`pullback_consistency_residual`.
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


def pullback_consistency_residual(mapping, chart, point):
    """|| w_{psi o f}(p) + (f^* w)(p) || / ||w(p)||: the composed chart's
    Kahler form against the pulled-back one."""
    pulled = pullback_potential(mapping, chart)
    image = mapping.apply(point)
    D = mapping.jacobian_real(point)
    W_new = pulled.geometry(point).kahler_form
    W_f = chart.geometry(image).kahler_form
    return float(np.linalg.norm(W_new + D.T @ W_f @ D) / np.linalg.norm(W_new))


def _fd_partial(func, x0, alpha, h, cache):
    """Tensor-product central-difference estimate of the alpha partial."""
    offsets = [()]
    weights = [1.0]
    for v, k in enumerate(alpha):
        offs, wts = jets._CENTRAL_STENCILS[k]
        offsets = [o + (s,) for o in offsets for s in offs]
        weights = [w * c for w in weights for c in wts]
    total = 0.0
    for off, w in zip(offsets, weights):
        key = off
        if key not in cache:
            x = x0.copy()
            for v, s in enumerate(off):
                x[v] += s * h
            cache[key] = func(x)
        total += w * cache[key]
    return total / h ** sum(alpha)


def scalar_fd_lift(func, base_real, order=jets.DEFAULT_ORDER, scale=1.0):
    """The finite-difference lift one coefficient at a time, in scalar Python:
    the reference the stencil-table lift must reproduce bit for bit."""
    x0 = np.asarray(base_real, dtype=float)
    space = jets.jet_space(len(x0), order)
    h = jets.FD_STEP_FACTOR * max(scale, 1e-8)
    coeffs = np.zeros(space.size, dtype=np.complex128)
    cache_h, cache_h2 = {}, {}
    for pos in range(space.size):
        alpha = tuple(int(e) for e in space.indices[pos])
        d_h = _fd_partial(func, x0, alpha, h, cache_h)
        d_h2 = _fd_partial(func, x0, alpha, h / 2.0, cache_h2)
        deriv = (4.0 * d_h2 - d_h) / 3.0
        coeffs[pos] = deriv / space._fact[pos]
    return jets.Jet(space, coeffs, order)


def loop_jet_tables(nvars, capacity):
    """The tables of ``JetSpace(nvars, capacity)`` built one entry at a time
    in Python, keyed by attribute name: the reference the array-built
    space must reproduce exactly, in order and dtype."""
    by_degree = [[(0,) * nvars]]
    for _ in range(capacity):
        seen, nxt = set(), []
        for idx in by_degree[-1]:
            for v in range(nvars):
                bumped = idx[:v] + (idx[v] + 1,) + idx[v + 1:]
                if bumped not in seen:
                    seen.add(bumped)
                    nxt.append(bumped)
        by_degree.append(sorted(nxt))
    idx = [alpha for group in by_degree for alpha in group]
    position = {alpha: i for i, alpha in enumerate(idx)}
    keys = [sum(e * (capacity + 1) ** v for v, e in enumerate(alpha)) for alpha in idx]
    key_to_pos = {k: i for i, k in enumerate(keys)}
    by_deg = [[i for i, alpha in enumerate(idx) if sum(alpha) == d] for d in range(capacity + 1)]
    blocks, ia, ib = {}, [], []
    for d1 in range(capacity + 1):
        for d2 in range(capacity + 1 - d1):
            start = len(ia)
            for a in by_deg[d1]:
                for b in by_deg[d2]:
                    ia.append(a)
                    ib.append(b)
            blocks[d1, d2] = (start, len(ia))
    deriv = []
    for v in range(nvars):
        src = [i for i, alpha in enumerate(idx) if alpha[v] > 0]
        dst = [position[idx[s][:v] + (idx[s][v] - 1,) + idx[s][v + 1:]] for s in src]
        deriv.append(
            (
                np.array(src, dtype=np.int64),
                np.array(dst, dtype=np.int64),
                np.array([idx[s][v] for s in src], dtype=np.float64),
            )
        )
    return {
        "indices": np.array(idx, dtype=np.int64),
        "position": position,
        "_fact": np.array(
            [math.prod(math.factorial(e) for e in alpha) for alpha in idx], dtype=np.float64
        ),
        "_keys": np.array(keys, dtype=np.int64),
        "_mul_blocks": blocks,
        "_mul_ia": np.array(ia, dtype=np.int64),
        "_mul_ib": np.array(ib, dtype=np.int64),
        "_mul_iout": np.array(
            [key_to_pos[keys[a] + keys[b]] for a, b in zip(ia, ib)], dtype=np.int64
        ),
        "_deriv": deriv,
    }


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)
