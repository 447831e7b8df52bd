"""Curvature tensors of the Chern, Levi-Civita, Gauduchon and canonical
connection families, symmetrization, holomorphic sectional curvature,
pointwise-constancy residuals and the self-duality checks in dimension 2.

Component convention (Curv4): R[k, l, i, j] = R_{k lbar i jbar}
= R(e_k, ebar_l, e_i, ebar_j) with R(X,Y)Z = nab_X nab_Y Z - nab_Y nab_X Z
- nab_[X,Y] Z and R(X,Y,Z,W) = g(R(X,Y)Z, W).

Levi-Civita curvature is computed analytically from the complexified
Christoffel symbols in Wirtinger coordinates (indices 0..n-1 unbarred,
n..2n-1 barred); the full complexified Riemann tensor and the Riemannian
scalar curvature fall out of the same computation.  An independent oracle
(`lc_curvature_fd`, `scalar_curvature_fd`) redoes everything with
finite-difference Christoffel symbols of the realified metric in the 2n real
coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# chern_torsion is re-exported: code outside the package (the benchmark's
# tracer tests) reaches it through this module.
from .connection import (MetricChart, as_params, chern_torsion, metric_values, _as_key,
                         _frame_matrix, _frame_torsion, _frame_torsion_dbar, _freeze,
                         _metric_point, _metric_points, _stack, _to_frame)
from .errors import ConfigError, DimensionError, NotHermitian, ZeroVector


@dataclass(eq=False)
class Curv4:
    """Mixed-type curvature components R[k,l,i,j] = R_{k lbar i jbar} in a
    stated unitary frame."""

    R: np.ndarray
    connection: str = ""
    frame: str = "cholesky"

    @property
    def n(self) -> int:
        return self.R.shape[0]


def tensor_of(C) -> np.ndarray:
    return C.R if isinstance(C, Curv4) else np.asarray(C, dtype=complex)


# ---------------------------------------------------------------------------
# Chern curvature


def chern_curvature(chart: MetricChart, z, frame=None) -> Curv4:
    """Curvature of the Chern connection.

    Coordinate formula R_{k lbar i jbar} = -d_k dbar_l g_{i jbar}
    + g^{a bbar} (d_k g_{i bbar}) (dbar_l g_{a jbar}), frame-transformed.
    """
    pd = _metric_point(chart, _as_key(z))
    R = -pd.ddbarG + np.einsum("ab,kib,laj->klij", pd.ginv, pd.dG, pd.dbarG)
    E = _frame_matrix(chart, z, frame)
    return Curv4(_to_frame(R, E, E.conj(), E, E.conj()), connection="chern")


# ---------------------------------------------------------------------------
# Complexified Levi-Civita data


@dataclass(eq=False)
class _LCData:
    Gamma: np.ndarray    # Gamma[a, b, c] = Gamma^a_bc
    Riem: np.ndarray     # Riem[c, d, b, f] = R(d_c, d_d, d_b, d_f)
    s_g: float


def _lc_point(chart: MetricChart, zkey: tuple) -> _LCData:
    """Levi-Civita data at a point, kept with the point's metric data."""
    pd = _metric_point(chart, zkey)
    _lc_fill([pd])
    return pd.lc


# Entries of one (2n)^4 array in a Levi-Civita batch.  Larger batches ran
# slower than point by point at n = 4 and 6, the time going to fresh memory
# for their large temporaries, so they are split.
LC_BATCH_ENTRIES = 2**14


def _lc_fill(pds):
    """Give every point record that lacks it its Levi-Civita data, built in
    batches of up to LC_BATCH_ENTRIES / (2n)^4 points."""
    todo = list({id(pd): pd for pd in pds if pd.lc is None}.values())
    step = max(1, LC_BATCH_ENTRIES // (2 * pds[0].G.shape[0]) ** 4)
    for i in range(0, len(todo), step):
        lc = _freeze(_lc_data(_stack(todo[i:i + step])))
        for j, pd in enumerate(todo[i:i + step]):
            pd.lc = _LCData(lc.Gamma[j], lc.Riem[j], float(lc.s_g[j]))


def _lc_data(b) -> _LCData:
    """Christoffel symbols, Riemann tensor and scalar curvature of the
    complexified metric of stacked points (see `connection._stack`), each
    with the leading point axis."""
    P, n = b.G.shape[:2]
    N = 2 * n
    M = np.zeros((P, N, N), dtype=complex)
    dM = np.zeros((P, N, N, N), dtype=complex)     # dM[p, a, b, c] = d_a M[b, c]
    ddM = np.zeros((P, N, N, N, N), dtype=complex)
    M[:, :n, n:] = b.G
    dM[:, :, :n, n:] = np.concatenate([b.dG, b.dbarG], axis=1)    # d_a, then dbar_a
    ddM[:, :n, :n, :n, n:] = b.ddG
    ddM[:, :n, n:, :n, n:] = b.ddbarG
    ddM[:, n:, :n, :n, n:] = b.ddbarG.transpose(0, 2, 1, 3, 4)
    ddM[:, n:, n:, :n, n:] = b.dbardbarG
    # The metric tensor is symmetric: mirror the (unbarred, barred) block.
    M = M + M.transpose(0, 2, 1)
    dM = dM + dM.transpose(0, 1, 3, 2)
    ddM = ddM + ddM.transpose(0, 1, 2, 4, 3)
    Minv = np.linalg.inv(M)

    # Each contraction below is one matmul over its summed axis; an
    # unoptimized einsum would loop over every index combination.
    S = dM + dM.transpose(0, 3, 2, 1) - dM.transpose(0, 2, 1, 3)
    Sd = S.transpose(0, 2, 1, 3).reshape(P, N, N * N)    # Sd[p, d, (b, c)] = S[p, b, d, c]
    Gamma = 0.5 * (Minv @ Sd).reshape(P, N, N, N)        # Gamma^a_bc

    dS = ddM + ddM.transpose(0, 1, 4, 3, 2) - ddM.transpose(0, 1, 3, 2, 4)
    dMinv = -(Minv[:, None] @ dM @ Minv[:, None])        # dMinv[p, e] = d_e Minv
    dGamma = 0.5 * ((dMinv.reshape(P, N * N, N) @ Sd).reshape(P, N, N, N, N)
                    + (Minv[:, None] @ dS.transpose(0, 1, 3, 2, 4).reshape(P, N, N, N * N))
                    .reshape(P, N, N, N, N))             # dGamma[p, e, a, b, c]

    # R(d_c, d_d) d_b = Rup[a, b, c, d] d_a
    X = np.einsum("...cadb->...abcd", dGamma)
    Y = np.einsum("...dacb->...abcd", dGamma)
    # GG[a, x, y, b] = Gamma^a_xe Gamma^e_yb; P[a,b,c,d] = GG[a,c,d,b] and
    # Q[a,b,c,d] = GG[a,d,c,b].
    GG = (Gamma.reshape(P, N * N, N) @ Gamma.reshape(P, N, N * N)).reshape(P, N, N, N, N)
    Rup = X - Y + GG.transpose(0, 1, 4, 2, 3) - GG.transpose(0, 1, 4, 3, 2)
    # Riem[p, c, d, b, f] = sum_a Rup[p, a, b, c, d] M[p, a, f]
    Riem = (Rup.reshape(P, N, N ** 3).transpose(0, 2, 1) @ M).reshape(P, N, N, N, N) \
        .transpose(0, 2, 3, 1, 4)
    s_g = np.real(np.einsum("pac,pbd,pabdc->p", Minv, Minv, Riem))
    return _LCData(Gamma, Riem, s_g)


def lc_curvature(chart: MetricChart, z, frame=None) -> Curv4:
    """Mixed components R(e_k, ebar_l, e_i, ebar_j) of the complexified
    Riemann tensor of the underlying Riemannian metric."""
    lc = _lc_point(chart, _as_key(z))
    n = chart.n
    E = _frame_matrix(chart, z, frame)
    return Curv4(_to_frame(lc.Riem[:n, n:, :n, n:], E, E.conj(), E, E.conj()),
                 connection="levi-civita")


def lc_full(chart: MetricChart, z) -> np.ndarray:
    """Full complexified Riemann tensor in the Wirtinger coordinate frame
    (2n axes each: 0..n-1 unbarred, n..2n-1 barred)."""
    return _lc_point(chart, _as_key(z)).Riem.copy()


def scalar_curvature(chart: MetricChart, z) -> float:
    """Riemannian scalar curvature of the realified metric."""
    return _lc_point(chart, _as_key(z)).s_g


# ---------------------------------------------------------------------------
# Gauduchon and canonical families (assembled from LC + torsion)


def canonical_weights(params) -> np.ndarray:
    """Weights (1, p, p^2 - 2p, s^2 - 1), p = t - t s, of the four
    `canonical_basis` tensors in the curvature of D^t_s."""
    pr = as_params(params)
    p = pr.p
    return np.array([1.0, p, p * p - 2 * p, pr.s * pr.s - 1])


def _basis_stack(pds, E=None) -> np.ndarray:
    """Stacked `canonical_basis` B[p] of point records pds in the frames
    E[p], by default each point's Cholesky frame: the four tensors of every
    point from one pass with a leading point axis."""
    _lc_fill(pds)
    b = _stack(pds)
    E = b.E if E is None else E
    n = E.shape[-1]
    Ec = E.conj()
    Riem = np.stack([pd.lc.Riem[:n, n:, :n, n:] for pd in pds])
    T = _frame_torsion(b, E)
    TD = _frame_torsion_dbar(b, E)
    Tc = np.conj(T)
    term1 = np.einsum("...jikl->...klij", TD) + np.einsum("...ijlk->...klij", np.conj(TD))
    term2 = np.einsum("...rik,...rjl->...klij", T, Tc) \
        - np.einsum("...jrk,...irl->...klij", T, Tc)
    term3 = np.einsum("...krj,...lir->...klij", Tc, T)
    return np.stack([_to_frame(Riem, E, Ec, E, Ec), term1, term2, term3], axis=1)


def canonical_bases(chart: MetricChart, points) -> list[np.ndarray]:
    """`canonical_basis(chart, p)` for every point p, each built once: the
    points whose basis is not yet stored get theirs in one batched pass, and
    it is kept, read-only, with the point's data in the chart's store."""
    pds = _metric_points(chart, [_as_key(p) for p in points])
    todo = list({id(pd): pd for pd in pds if pd.basis is None}.values())
    if todo:
        B = _basis_stack(todo)
        B.setflags(write=False)
        for pd, Bp in zip(todo, B):
            pd.basis = Bp
    return [pd.basis for pd in pds]


def canonical_basis(chart: MetricChart, z, frame=None) -> np.ndarray:
    """The four tensors B[m, k, l, i, j] whose `canonical_weights` combination
    is the curvature of D^t_s at z:

    B[0] = R_{k lbar i jbar} (Levi-Civita),
    B[1] = T^j_{ik,lbar} + conj(T^i_{jl,kbar}),
    B[2] = T^r_ik conj(T^r_jl) - T^j_rk conj(T^i_rl),
    B[3] = conj(T^k_rj) T^l_ir.

    In the Cholesky frame (frame=None) this is the point's stored basis, a
    read-only array built once (see `canonical_bases`); in an explicit
    frame it is computed afresh from the same batched code and not stored.
    """
    if frame is None:
        return canonical_bases(chart, [z])[0]
    pd = _metric_point(chart, _as_key(z))
    return _basis_stack([pd], _frame_matrix(chart, z, frame)[None])[0]


def canonical_curvature(chart: MetricChart, params, z, frame=None) -> Curv4:
    """Curvature R^D = R + p B[1] + (p^2 - 2p) B[2] + (s^2 - 1) B[3],
    p = t - t s, of the canonical connection D^t_s: the `canonical_weights`
    combination of the `canonical_basis` B."""
    pr = as_params(params)
    RD = np.tensordot(canonical_weights(pr), canonical_basis(chart, z, frame), 1)
    return Curv4(RD, connection=f"canonical(t={pr.t:g}, s={pr.s:g})")


def gauduchon_curvature(chart: MetricChart, t: float, z, frame=None) -> Curv4:
    """Curvature of the Gauduchon connection nab^t (= D^t_0)."""
    C = canonical_curvature(chart, (t, 0.0), z, frame)
    C.connection = f"gauduchon(t={t:g})"
    return C


# ---------------------------------------------------------------------------
# Symmetrization, HSC, constancy


def _symmetrized(R: np.ndarray) -> np.ndarray:
    """Symmetrization of the last four axes of R (leading axes stack
    tensors)."""
    # Two nested pair-symmetrizations keep the i<->k and j<->l symmetries
    # exact (a flat 4-term sum would round differently across permutations).
    S = R + np.einsum("...kjil->...ijkl", R)
    return 0.25 * (S + np.einsum("...ilkj->...ijkl", S))


def symmetrize(C) -> Curv4:
    """Symmetrization Rhat_{i jbar k lbar} = (R_{i jbar k lbar}
    + R_{k jbar i lbar} + R_{i lbar k jbar} + R_{k lbar i jbar}) / 4."""
    name = C.connection if isinstance(C, Curv4) else ""
    return Curv4(_symmetrized(tensor_of(C)),
                 connection=f"sym({name})" if name else "sym")


def hsc(C, eta) -> float:
    """Holomorphic sectional curvature H(eta) = R(eta, etabar, eta, etabar)
    / |eta|^4 for a (1,0) vector eta given in the same unitary frame as C."""
    R = tensor_of(C)
    eta = np.asarray(eta, dtype=complex)
    norm2 = float(np.sum(np.abs(eta) ** 2))
    if norm2 < 1e-30:
        raise ZeroVector("hsc needs a nonzero direction")
    val = np.einsum("klij,k,l,i,j->", R, eta, np.conj(eta), eta, np.conj(eta))
    if not abs(val.imag) <= 1e-9 * max(1.0, abs(val)):
        raise NotHermitian(f"hsc contraction is not real: {val}")
    return float(val.real) / norm2**2


@dataclass(eq=False)
class HSCReport:
    """Constancy scan summary: mean estimated constant, worst residual and a
    per-point table of (point, c, residual)."""

    c_mean: float
    residual_max: float
    rows: list


def hsc_report(chart: MetricChart, params, points) -> HSCReport:
    """Constancy scan of the canonical curvature over the given points."""
    c, res = constancy_table(chart, [params], points)
    rows = [(np.asarray(p, dtype=complex), float(cp), float(rp))
            for p, cp, rp in zip(points, c[0], res[0])]
    return HSCReport(c_mean=float(np.mean(c)), residual_max=float(res.max()),
                     rows=rows)


def _constancy_fit(W: np.ndarray, Rh: np.ndarray):
    """Constancy estimates of the tensors W @ Rh, Rh a stack of symmetrized
    tensors (m, n, n, n, n) and W an (r, m) weight matrix.

    c is the normalized diagonal average 2/(n(n+1)) sum_{k,i} Re Rh[k,k,i,i]
    (exact whenever constancy holds), the target is c/2 (delta delta
    + delta delta) and the residual is the max-norm of Rhat - target.  All
    three are linear in Rh, so c comes from the stack's diagonal sums and
    every row needs one pass over the n^4 components.  Returns (c, residual),
    each of length r.
    """
    n = Rh.shape[-1]
    flat = Rh.reshape(len(Rh), -1)
    eye = np.eye(n)
    dd = np.einsum("kl,ij->klij", eye, eye).ravel()
    unit = 0.5 * (dd + np.einsum("kj,il->klij", eye, eye).ravel())
    c = W @ (flat.real @ dd) * (2.0 / (n * (n + 1)))
    residual = np.max(np.abs(W @ flat - c[:, None] * unit), axis=1)
    return c, residual


def constancy_residual(C) -> tuple[float, float]:
    """Estimate (c, residual) of pointwise HSC constancy of one tensor; see
    `_constancy_fit`."""
    c, residual = _constancy_fit(np.ones((1, 1)), _symmetrized(tensor_of(C))[None])
    return float(c[0]), float(residual[0])


def constancy_table(chart: MetricChart, params_list, points):
    """Constancy estimates of D^t_s for every (t, s) in params_list at every
    point: arrays c[cell, point] and residual[cell, point].

    The points' stored bases come from `canonical_bases` (the missing ones
    from one batched pass) and are symmetrized together; every cell is then
    one row of a weight matrix applied to a point's symmetrized basis, so
    the cost grows with the points, not with cells x points.  An empty
    params_list gives empty arrays; an empty point list raises ConfigError.
    """
    if len(points) == 0:
        raise ConfigError("constancy_table needs at least one point; the point list is empty")
    W = np.array([canonical_weights(pr) for pr in params_list]).reshape(-1, 4)
    Rh = _symmetrized(np.stack(canonical_bases(chart, points)))
    c = np.empty((len(W), len(points)))
    residual = np.empty_like(c)
    for j, Rh_j in enumerate(Rh):
        c[:, j], residual[:, j] = _constancy_fit(W, Rh_j)
    return c, residual


# ---------------------------------------------------------------------------
# Self-duality (n = 2)


def selfdual_residual(chart: MetricChart, z) -> tuple[float, float, float]:
    """The three self-duality residuals |R_{1 2bar 1 2bar}|,
    |R_{1 2bar 2 2bar} - R_{1 2bar 1 1bar}| and |2 R_{1 2bar 2 1bar}
    + 2 R_{1 1bar 2 2bar} - R_{1 1bar 1 1bar} - R_{2 2bar 2 2bar}| of the
    Levi-Civita curvature in a unitary frame; all vanish iff the metric is
    self-dual at z."""
    if chart.n != 2:
        raise DimensionError("self-duality requires complex dimension 2")
    R = lc_curvature(chart, z).R
    r1 = abs(R[0, 1, 0, 1])
    r2 = abs(R[0, 1, 1, 1] - R[0, 1, 0, 0])
    r3 = abs(2 * R[0, 1, 1, 0] + 2 * R[0, 0, 1, 1] - R[0, 0, 0, 0] - R[1, 1, 1, 1])
    return float(r1), float(r2), float(r3)


def weyl_minus(chart: MetricChart, z) -> np.ndarray:
    """Gram matrix of the anti-self-dual Weyl operator W_- on the unitary
    basis {e1 ^ ebar2, (e1 ^ ebar1 - e2 ^ ebar2)/sqrt2, ebar1 ^ e2} of
    Lambda^2_- tensor C.

    Entries are <W_- u_a, u_b> = g(curv_op(u_a), conj(u_b)) - s_g/12
    delta_ab with g(curv_op(X ^ Y), Z ^ W) = -R(X, Y, Z, W).  Hermitian up
    to numerical error by the Riemann pair symmetry.
    """
    if chart.n != 2:
        raise DimensionError("W_- requires complex dimension 2")
    R = lc_curvature(chart, z).R
    s_g = scalar_curvature(chart, z)
    rt2 = np.sqrt(2.0)
    W = np.empty((3, 3), dtype=complex)
    W[0, 0] = R[0, 1, 1, 0]
    W[0, 1] = (R[0, 1, 0, 0] - R[0, 1, 1, 1]) / rt2
    W[0, 2] = -R[0, 1, 0, 1]
    W[1, 0] = (R[0, 0, 1, 0] - R[1, 1, 1, 0]) / rt2
    W[1, 1] = 0.5 * (R[0, 0, 0, 0] + R[1, 1, 1, 1]) \
        - 0.5 * (R[0, 0, 1, 1] + R[1, 1, 0, 0])
    W[1, 2] = (R[1, 1, 0, 1] - R[0, 0, 0, 1]) / rt2
    W[2, 0] = -R[1, 0, 1, 0]
    W[2, 1] = (R[1, 0, 1, 1] - R[1, 0, 0, 0]) / rt2
    W[2, 2] = R[1, 0, 0, 1]
    W -= (s_g / 12.0) * np.eye(3)
    return W


# ---------------------------------------------------------------------------
# Real-coordinate finite-difference oracle


def _real_metric(chart: MetricChart, x: np.ndarray) -> np.ndarray:
    """Realified metric matrix at real coordinates x = (x_1..x_n, y_1..y_n).

    With g_{k lbar} = g(d_k, dbar_l): g(dx_k, dx_l) = g(dy_k, dy_l)
    = 2 Re g_{k lbar} and g(dx_k, dy_l) = 2 Im g_{k lbar}.
    """
    n = chart.n
    G = metric_values(chart, x[:n] + 1j * x[n:])
    re, im = 2.0 * G.real, 2.0 * G.imag
    return np.block([[re, im], [im.T, re]])


def _real_christoffel(chart: MetricChart, x: np.ndarray, h: float) -> np.ndarray:
    m = 2 * chart.n
    G0 = _real_metric(chart, x)
    Ginv = np.linalg.inv(G0)
    dG = np.zeros((m, m, m))
    for c in range(m):
        vals = []
        for off in (-2.0, -1.0, 1.0, 2.0):
            xs = x.copy()
            xs[c] += off * h
            vals.append(_real_metric(chart, xs))
        fm2, fm1, fp1, fp2 = vals
        dG[c] = (-fp2 + 8 * fp1 - 8 * fm1 + fm2) / (12 * h)
    S = dG + dG.transpose(2, 1, 0) - dG.transpose(1, 0, 2)
    return 0.5 * np.einsum("ad,bdc->abc", Ginv, S)


def _real_riemann(chart: MetricChart, x: np.ndarray, h: float):
    """Riemann tensor R[c,d,b,f] = R(d_c, d_d, d_b, d_f) of the realified
    metric, by central finite differences of real Christoffel symbols."""
    m = 2 * chart.n
    G0 = _real_metric(chart, x)
    Gamma0 = _real_christoffel(chart, x, h)
    dGamma = np.zeros((m, m, m, m))
    for c in range(m):
        xp, xm = x.copy(), x.copy()
        xp[c] += h
        xm[c] -= h
        dGamma[c] = (_real_christoffel(chart, xp, h)
                     - _real_christoffel(chart, xm, h)) / (2 * h)
    X = np.einsum("cadb->abcd", dGamma)
    Y = np.einsum("dacb->abcd", dGamma)
    P = np.einsum("ace,edb->abcd", Gamma0, Gamma0)
    Q = np.einsum("ade,ecb->abcd", Gamma0, Gamma0)
    Rup = X - Y + P - Q
    Riem = np.einsum("abcd,af->cdbf", Rup, G0)
    return Riem, G0


def lc_curvature_fd(chart: MetricChart, z, frame=None, h: float = 1e-4) -> Curv4:
    """Independent Levi-Civita oracle: Christoffel symbols of the realified
    metric by finite differences in the 2n real coordinates, complexified
    against the unitary frame."""
    pt = np.asarray(z, dtype=complex)
    n = chart.n
    x = np.concatenate([pt.real, pt.imag])
    Riem, _ = _real_riemann(chart, x, h)
    E = _frame_matrix(chart, z, frame)
    # e_a = sum_m E[m,a] (dx_m - i dy_m)/2,  ebar_a its conjugate
    w = np.zeros((2 * n, n), dtype=complex)
    w[:n] = 0.5 * E
    w[n:] = -0.5j * E
    v = np.conj(w)
    Rf = np.einsum("pa,qb,rc,sd,pqrs->abcd", w, v, w, v, Riem)
    return Curv4(Rf, connection="levi-civita (fd oracle)")


def scalar_curvature_fd(chart: MetricChart, z, h: float = 1e-4) -> float:
    """Scalar curvature from the real-coordinate finite-difference oracle."""
    pt = np.asarray(z, dtype=complex)
    x = np.concatenate([pt.real, pt.imag])
    Riem, G0 = _real_riemann(chart, x, h)
    Ginv = np.linalg.inv(G0)
    return float(np.einsum("ac,bd,abdc->", Ginv, Ginv, Riem))


# ---------------------------------------------------------------------------
# Curv4 dump format


def curv4_rows(C) -> list[tuple[int, int, int, int, float, float]]:
    """Rows (k, l, i, j, re, im) of a curvature tensor, 1-based indices,
    lexicographic order."""
    R = tensor_of(C)
    n = R.shape[0]
    rows = []
    for k in range(n):
        for l in range(n):
            for i in range(n):
                for j in range(n):
                    v = R[k, l, i, j]
                    rows.append((k + 1, l + 1, i + 1, j + 1,
                                 float(v.real), float(v.imag)))
    return rows
