import math
import numbers
import pathlib
import types

import numpy as np
import pytest
import sympy as sp

from einlocus import exprs, jets
from einlocus.coords import j_matrix, wirtinger_jet, wirtinger_matrix
from einlocus.errors import NonAnalyticFieldError, UnknownPrimitiveError
from einlocus.metrics import METRIC_ORDER, PotentialChart, _real_metric_matrix
from einlocus.sampling import sample_chart_points


# The recursive tree walk that ``exprs.evaluate`` once was: the reference
# the compiled programs reproduce bit for bit.  On jets it runs the ``Jet``
# operators, each a one-operation plan on supports read off the degrees.
# Each unary head with its operation on a jet and on a number.
_ORACLE_UNARY = {
    "log": (lambda x: x.log(), lambda x: np.log(complex(x))),
    "exp": (lambda x: x.exp(), lambda x: np.exp(complex(x))),
    "sqrt": (lambda x: x.sqrt(), lambda x: np.sqrt(complex(x))),
    "abs2": (lambda x: x * x.conjugate(), lambda x: x * np.conj(x)),
    "conj": (lambda x: x.conjugate(), np.conj),
    "re": (lambda x: x.real, lambda x: complex(x).real),
    "im": (lambda x: x.imag, lambda x: complex(x).imag),
}


def interpret(expr, env):
    """Evaluate an expression tree in an environment of numbers or jets by
    walking it, with the jet operations of ``jets.Jet``."""
    if isinstance(expr, str):
        if expr == "I":
            return 1j
        try:
            return env[expr]
        except KeyError:
            raise UnknownPrimitiveError(f"unknown identifier {expr!r}") from None
    if isinstance(expr, numbers.Number):
        return expr
    head, args = expr[0], expr[1:]
    if head == "+":
        acc = interpret(args[0], env)
        for a in args[1:]:
            acc = acc + interpret(a, env)
        return acc
    if head == "*":
        acc = interpret(args[0], env)
        for a in args[1:]:
            acc = acc * interpret(a, env)
        return acc
    if head == "-":
        if len(args) == 1:
            return -interpret(args[0], env)
        acc = interpret(args[0], env)
        for a in args[1:]:
            acc = acc - interpret(a, env)
        return acc
    if head == "/":
        return interpret(args[0], env) / interpret(args[1], env)
    if head == "pow":
        exponent = args[1]
        if not isinstance(exponent, numbers.Number):
            raise UnknownPrimitiveError("pow exponent must be a numeric literal")
        base = interpret(args[0], env)
        return base.pow(exponent) if isinstance(base, jets.Jet) else complex(base) ** exponent
    if head in _ORACLE_UNARY:
        on_jet, on_number = _ORACLE_UNARY[head]
        x = interpret(args[0], env)
        return on_jet(x) if isinstance(x, jets.Jet) else on_number(x)
    raise UnknownPrimitiveError(f"unknown primitive {head!r}")


SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"


def report_digests():
    """``scripts/report_digests.py`` as a module, executed from its source
    without writing bytecode next to it.  Its bundles (the product, the
    black-box cpn-2 with its tolerance overrides) are test fixtures too, so
    the digests and the tests check one copy of each."""
    path = SCRIPTS / "report_digests.py"
    module = types.ModuleType("report_digests")
    module.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def admitted_geometries(chart, count, seed=0):
    geoms, _ = sample_chart_points(chart, count, seed=seed)
    assert len(geoms) >= min(count, 2), f"could not sample {chart.label}"
    return geoms


def admitted_points(chart, count, seed=0):
    return [geom.point for geom in admitted_geometries(chart, count, seed)]


def map_geometries(mapping, chart, point):
    """(Df(p), the geometry at p, the metric-order geometry at f(p)): the
    arguments of the isometry residuals."""
    image = chart.geometry(mapping.apply(point), METRIC_ORDER)
    return mapping.jacobian_real(point), chart.geometry(point), image


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
    env = dict(zip(exprs.coord_names(point.n), jets.coordinate_jets(point.holo, order)))
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


def real_metric_from_hermitian(g_jets):
    """G = 2 Re / Im blocks of a Hermitian matrix of jets, in the interleaved
    real basis: the jet form of G(v, w) = 2 Re(g V conj(W))."""
    G = [[None] * (2 * len(g_jets)) for _ in range(2 * len(g_jets))]
    for j, row in enumerate(g_jets):
        for k, gjk in enumerate(row):
            re2, im2 = 2.0 * gjk.real, 2.0 * gjk.imag
            G[2 * j][2 * k], G[2 * j][2 * k + 1] = re2, im2
            G[2 * j + 1][2 * k], G[2 * j + 1][2 * k + 1] = -1.0 * im2, re2
    return G


def curvature_from_derivatives(M, dM, ddM):
    """(Rm, Ric) of a real metric from its value M[a, b] and its partials
    dM[c, a, b] = d_c M_ab and ddM[c, d, a, b] = d_c d_d M_ab at a point, by
    the classical Christoffel route, with R(X, Y) Z = nabla_X nabla_Y Z -
    nabla_Y nabla_X Z - nabla_[X,Y] Z, Rm(X, Y, Z, W) = M(R(X, Y) Z, W) and
    Ric(Y, Z) = trace of X -> R(X, Y) Z."""
    Minv = np.linalg.inv(M)
    low = 0.5 * (np.einsum("aeb->eab", dM) + np.einsum("bea->eab", dM) - dM)  # Gamma_{e,ab}
    dlow = 0.5 * (np.einsum("caeb->ceab", ddM) + np.einsum("cbea->ceab", ddM) - ddM)
    gamma = np.einsum("de,eab->dab", Minv, low)
    # d_c Gamma^d_ab, with d_c M^-1 = -M^-1 (d_c M) M^-1
    dgamma = np.einsum("de,ceab->cdab", Minv, dlow - np.einsum("cef,fab->ceab", dM, gamma))
    # R^d_{cab} = d_a Gamma^d_bc - d_b Gamma^d_ac + Gamma^d_ae Gamma^e_bc - Gamma^d_be Gamma^e_ac
    r_up = np.einsum("adbc->dcab", dgamma) + np.einsum("dae,ebc->dcab", gamma, gamma)
    r_up = r_up - r_up.transpose(0, 1, 3, 2)
    Rm = np.einsum("de,ecab->abcd", M, r_up)
    return Rm, np.einsum("ad,abcd->bc", Minv, Rm)


def real_metric_derivatives(geom):
    """G and its first and second partials, from the real-variable oracle
    jet alone: G = (H + J^T H J) / 2 with H the real Hessian of the potential,
    so d_c G and d_c d_d G are the same J-average of its third and fourth
    partial tensors."""
    psi, J = real_psi_jet(geom), j_matrix(geom.n)
    return tuple(0.5 * (D + J.T @ D @ J) for D in (psi.derivative_tensor(k).real for k in (2, 3, 4)))


# the heads that act on f and on conj f alike
_SIDEWISE = {
    "+": sp.Add,
    "*": sp.Mul,
    "-": lambda x, *rest: x - sp.Add(*rest) if rest else -x,
    "/": lambda x, y: x / y,
    "pow": sp.Pow,
    "log": sp.log,
    "exp": sp.exp,
    "sqrt": sp.sqrt,
}


def _sym_pair(expr, env):
    """An expression tree as the sympy pair (f, conj f), each identifier
    mapped by ``env`` to its pair: a coordinate and its conjugate are
    independent symbols, so conj, re, im and abs2 stay analytic."""
    if isinstance(expr, str):
        return (sp.I, -sp.I) if expr == "I" else env[expr]
    if isinstance(expr, numbers.Number):
        c = sp.sympify(expr)
        return c, sp.conjugate(c)
    head = expr[0]
    f, fbar = zip(*(_sym_pair(a, env) for a in expr[1:]))
    if head in _SIDEWISE:
        op = _SIDEWISE[head]
        return op(*f), op(*fbar)
    x, xbar = f[0], fbar[0]
    return {
        "conj": (xbar, x),
        "abs2": (x * xbar,) * 2,
        "re": ((x + xbar) / 2,) * 2,
        "im": ((x - xbar) / (2 * sp.I),) * 2,
    }[head]


def intrinsic_ricci_oracle(bundle):
    """t -> Ricci of the induced metric at the locus parameter t, on the
    Gram-Schmidt frame of the coordinate fields T = dx/dt.  The induced
    metric h(t) = T^T G(x(t)) T is expanded in sympy from the potential and
    the locus components, differentiated twice and compiled once; each call
    passes its values at t to ``curvature_from_derivatives``.  It reads only
    the expression trees, so it shares no arithmetic with the pipeline."""
    n, m = bundle.chart.dimension, bundle.locus.n_params
    z, zbar = sp.symbols(f"z1:{n + 1}"), sp.symbols(f"zbar1:{n + 1}")
    t = sp.symbols(f"t1:{m + 1}", real=True)
    psi = _sym_pair(bundle.chart.potential, dict(zip(exprs.coord_names(n), zip(z, zbar))))[0]
    t_env = dict(zip(exprs.coord_names(m, prefix="t"), zip(t, t)))
    x, xbar = zip(*(_sym_pair(c, t_env) for c in bundle.locus.components))
    on_locus = dict(zip(z + zbar, x + xbar))
    g = sp.Matrix(n, n, lambda j, k: psi.diff(z[j], zbar[k]).xreplace(on_locus))
    dx, dxbar = (sp.Matrix(v).jacobian(t) for v in (x, xbar))  # [j, a] = d x_j / d t_a
    half = dx.T * g * dxbar  # G(T_a, T_b) = 2 Re(g_jk T_a^j conj(T_b^k)) = half[a, b] + half[b, a]
    partials = [list(half + half.T)]  # h[a, b], then d_c h[a, b], then d_d d_c h[a, b]
    for _ in range(2):
        partials.append([e.diff(c) for c in t for e in partials[-1]])
    compiled = sp.lambdify(t, sum(partials, []), "numpy", cse=True)

    def ricci_at(t0):
        values = np.array(compiled(*np.asarray(t0, dtype=complex)), dtype=complex)
        assert np.max(np.abs(values.imag)) < 1e-12 * (1.0 + np.max(np.abs(values.real)))
        values = values.real.reshape(-1, m, m)
        h, dh, ddh = values[0], values[1 : m + 1], values[m + 1 :].reshape(m, m, m, m)
        C = np.linalg.inv(np.linalg.cholesky(h))
        return C @ curvature_from_derivatives(h, dh, ddh)[1] @ C.T

    return ricci_at


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
    over the mixed Wirtinger derivatives of the real-variable potential
    jet: independent of the curvature tensor and its trace."""
    psi, n = real_psi_jet(geom), geom.n
    log_det = _jet_det([[wirtinger_jet(psi, (j,), (k,)) for k in range(n)] for j in range(n)]).log()
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
    """The frame re-framed by an orthogonal matrix: e'_a = sum_c Q[c, a] e_c."""
    return Q.T @ frame


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


# -- stage 5 one point at a time: the reference for the stacked stage ------------------


def per_point_curvature(geom):
    """R[i,j,k,l] = -d_i dbar_j g_{k lbar} + g^{qbar p} d_i g_{k qbar} dbar_j g_{p lbar},
    from one point's inverse metric, as a per-point member once computed it."""
    n, dg = geom.n, geom.dg.reshape(-1, geom.n)  # rows (i, k)
    g_inv = np.linalg.inv(geom.g)
    term2 = (dg @ g_inv) @ np.conj(dg).T  # [(i, k), (j, l)]
    return -geom.ddg + term2.reshape((n,) * 4).transpose(0, 2, 1, 3)


def per_point_frame_curvature(lp):
    """(Eh, U, V) of ``LocusGeometry.frame_curvature`` at one locus point."""
    E = lp.frame
    Eh = E[:, 0::2] + 1j * E[:, 1::2]
    R, nn = per_point_curvature(lp.geom), lp.n**2
    A = (Eh.T @ Eh).ravel() @ R.transpose(0, 2, 1, 3).reshape(nn, nn)  # [(j, l)]
    B = (Eh.T @ np.conj(Eh)).ravel() @ R.transpose(0, 3, 1, 2).reshape(nn, nn)  # [(j, k)]
    return Eh, np.conj(Eh) @ A.reshape(lp.n, -1), np.conj(Eh) @ B.reshape(lp.n, -1)


def per_point_stage_five(lp, projector, tol_sym, tol_eig):
    """Everything stage 5 reads at one locus point, computed there alone:
    the trace-operator matrix and its cross route, the route agreement, the
    spectral test's fields, and the restricted Ricci matrix with its kappa
    and spread."""
    geom, E = lp.geom, lp.frame
    Eh, U, V = per_point_frame_curvature(lp)
    mixed = 2.0 * np.real(V @ Eh.T + U @ np.conj(Eh).T)
    cov = np.stack([-2.0 * np.imag(U - V), 2.0 * np.real(U + V)], axis=-1).reshape(E.shape)
    M = E @ geom.G @ (j_matrix(lp.n) @ projector @ geom.G_inv @ cov.T)
    cross = -mixed.T
    agreement = float(
        np.max(np.abs(M - cross)) / max(1.0, float(np.max(np.abs(M))))
    )
    scale = max(1.0, float(np.linalg.norm(M)))
    sym_res = float(np.linalg.norm(M - M.T) / scale)
    eigs = np.linalg.eigvalsh(0.5 * (M + M.T))
    mean = float(np.mean(eigs))
    spread = float((eigs[-1] - eigs[0]) / max(1.0, abs(mean)))
    g_inv = np.linalg.inv(geom.g)
    ricci = (per_point_curvature(geom).reshape(g_inv.size, -1) @ g_inv.T.reshape(-1, 1)).reshape(lp.n, -1)
    R_res = E @ _real_metric_matrix(ricci) @ E.T - mixed
    kappa = float(np.trace(R_res) / lp.m)
    return {
        "matrix": M,
        "cross_matrix": cross,
        "route_agreement": agreement,
        "eigenvalues": tuple(float(e) for e in eigs),
        "symmetric_residual": sym_res,
        "eigenvalue_spread": spread,
        "C_est": -mean,
        "einstein": bool(sym_res < tol_sym and spread < tol_eig),
        "restricted_ricci": R_res,
        "kappa": kappa,
        "restricted_spread": float(
            np.linalg.norm(R_res - kappa * np.eye(lp.m)) / max(1.0, abs(kappa))
        ),
    }
