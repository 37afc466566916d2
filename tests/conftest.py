import numpy as np
import pytest

from einlocus import RealTangent, jets
from einlocus.coords import wirtinger, wirtinger_jet
from einlocus.sampling import sample_chart_points


def admitted_points(chart, count, seed=0):
    pts, _ = sample_chart_points(chart, count, seed=seed)
    assert len(pts) >= min(count, 2), f"could not sample {chart.label}"
    return pts


def random_tangents(point, count, seed=0):
    rng = np.random.default_rng(seed)
    dim = 2 * point.n
    return [RealTangent(rng.standard_normal(dim), point) for _ in range(count)]


def metric_jets(geom):
    """g_{j kbar} as jets: mixed Wirtinger derivatives of the potential jet."""
    psi, n = geom.psi_jet, geom.n
    return [[wirtinger_jet(psi, (j,), (k,)) for k in range(n)] for j in range(n)]


def real_metric_jets(geom):
    """G_ab as jets, in the interleaved real basis, from the metric jets."""
    n = geom.n
    G = [[None] * (2 * n) for _ in range(2 * n)]
    for j, row in enumerate(metric_jets(geom)):
        for k, gjk in enumerate(row):
            re2, im2 = 2.0 * gjk.real, 2.0 * gjk.imag
            G[2 * j][2 * k] = re2
            G[2 * j][2 * k + 1] = im2
            G[2 * j + 1][2 * k] = -1.0 * im2
            G[2 * j + 1][2 * k + 1] = re2
    return G


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
    return np.array([[-wirtinger(log_det, (j,), (k,)) for k in range(n)] for j in range(n)])


def ricci_pairing(ric, v, w):
    """The real Ricci tensor of Ricci coefficients: 2 Re(V^j Ric_jk conj(W^k))."""
    return float(2.0 * np.real(v.holo_components @ ric @ np.conj(w.holo_components)))



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

@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)
