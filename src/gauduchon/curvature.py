"""Curvature tensors of the Chern, Levi-Civita, Gauduchon and canonical
connection families, symmetrization, holomorphic sectional curvature,
pointwise-constancy residuals and the self-duality checks in dimension 2.

Component convention (Curv4): R[k, l, i, j] = R_{k lbar i jbar}
= R(e_k, ebar_l, e_i, ebar_j) with R(X,Y)Z = nab_X nab_Y Z - nab_Y nab_X Z
- nab_[X,Y] Z and R(X,Y,Z,W) = g(R(X,Y)Z, W).

Every curvature of the canonical plane D^t_s, Levi-Civita (s = 1) included,
combines the four `canonical_basis` tensors, built in n-index form from the
Chern curvature R^C and torsion T alone: the first Bianchi identity of the
Chern connection gives the torsion's dbar derivative from R^C, and that of
Levi-Civita the scalar curvature.  Symmetrized, the plane is a line:
sym R^D = sym R^C + q X, q = (1 - p)^2 + s^2 and X = -sym(T^j_rk
conj(T^i_rl)), so HSC and constancy (`constancy_table`, the CLI's `scan`
and `hsc`) read only R^C and T.  `connection_curvature_oracle` checks the
basis against the connection's own Christoffel symbols in the 2n Wirtinger
coordinates (0..n-1 unbarred, n..2n-1 barred); `lc_curvature_fd` and
`scalar_curvature_fd` redo the Levi-Civita side by finite differences in
the 2n real coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# chern_torsion is re-exported: code outside the package (the benchmark's
# tracer tests) reaches it through this module.
from .connection import (ConnectionParams, MetricChart, as_params, chern_torsion, metric_values,
                         _basis_stack, _check_points, _chern_stack, _frame_E, _frame_torsion,
                         _metric_points, _outside, _point, _read_only, _to_frame,
                         _torsion_products)
from .errors import ConfigError, DimensionError, DomainError, NotHermitian, ZeroVector
from .wjet import _axis_steps, _first_difference


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
    """Curvature of the Chern connection: the one-point call of
    `connection._chern_stack`."""
    return Curv4(_chern_stack(*_point(chart, z, frame))[0], connection="chern")


# ---------------------------------------------------------------------------
# The canonical plane: Chern curvature and torsion


def _ts_pairs(params, who: str):
    """(t, s) of one pair (a ConnectionParams too), as 0-d arrays, or of a
    sequence or an (m, 2) array of m pairs (m = 0 included), as (m,) arrays;
    ConfigError names `who` for anything else."""
    if isinstance(params, ConnectionParams):
        params = (params.t, params.s)
    ts = np.asarray(params, dtype=float)
    if ts.size == 0:
        ts = ts.reshape(0, 2)
    if ts.ndim not in (1, 2) or ts.shape[-1] != 2:
        raise ConfigError(f"{who} needs (t, s) pairs, got shape {ts.shape}")
    return ts[..., 0], ts[..., 1]


def canonical_weights(params) -> np.ndarray:
    """Weights (1, p, p^2 - 2p, s^2 - 1), p = t - t s, of the four
    `canonical_basis` tensors in the curvature of D^t_s: shape (4,) for one
    (t, s) pair, and one row per pair, shape (m, 4), for a sequence or an
    (m, 2) array of m pairs (m = 0 included)."""
    t, s = _ts_pairs(params, "canonical_weights")
    p = t - t * s
    return np.stack([np.ones_like(p), p, p * p - 2 * p, s * s - 1], axis=-1)


def qline_weights(params) -> np.ndarray:
    """Weights (1, q), q = (1 - p)^2 + s^2, of the pair (sym R^C, X) in
    sym R^D (`_qline_pair`), shaped as `canonical_weights` shapes its rows."""
    t, s = _ts_pairs(params, "qline_weights")
    q = (1 - (t - t * s)) ** 2 + s * s
    return np.stack([np.ones_like(q), q], axis=-1)


def canonical_bases(chart: MetricChart, points) -> np.ndarray:
    """`canonical_basis(chart, p)` of every point p, one read-only array
    B[p, m, k, l, i, j]: `_basis_stack` of one fill's Chern pair (R^C, T)."""
    b = _metric_points(chart, points)
    return _read_only(_basis_stack(_chern_stack(b, b.E), _frame_torsion(b, b.E)))


def canonical_basis(chart: MetricChart, z, frame=None) -> np.ndarray:
    """The four tensors B[m, k, l, i, j] whose `canonical_weights` combination
    is the curvature of D^t_s at z:

    B[0] = R_{k lbar i jbar} (Levi-Civita) = R^C_{k lbar i jbar} - B[1]
           + B[2] + B[3], R^C the Chern curvature,
    B[1] = T^j_{ik,lbar} + conj(T^i_{jl,kbar})
         = R^C_{k lbar i jbar} - (R^C_{i lbar k jbar} + R^C_{k jbar i lbar}) / 2,
    B[2] = T^r_ik conj(T^r_jl) - T^j_rk conj(T^i_rl),
    B[3] = conj(T^k_rj) T^l_ir.

    `_basis_stack` of a one-point fill's R^C and T (B[1] by the first Bianchi
    identity, `torsion_cov_deriv`), in the Cholesky frame (frame=None) or the
    explicit unitary one, read-only; each call fills afresh.  Symmetrized:
    sym B[1] = 0, sym B[2] = sym B[3] = X and sym B[0] = sym R^C + 2X.
    """
    b, E = _point(chart, z, frame)
    return _read_only(_basis_stack(_chern_stack(b, E), _frame_torsion(b, E))[0])


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


def lc_curvature(chart: MetricChart, z, frame=None) -> Curv4:
    """Curvature of the Levi-Civita connection (= D^t_1, the basis' B[0]):
    the mixed components of the complexified Riemann tensor."""
    C = canonical_curvature(chart, (0.0, 1.0), z, frame)
    C.connection = "levi-civita"
    return C


def _scalar(R: np.ndarray) -> np.ndarray:
    """Scalar curvature from Levi-Civita tensors R[..., k, l, i, j] (leading
    axes stack tensors) by the first Bianchi identity:
    s_g = 4 Re sum R_{i jbar j ibar} - 2 Re sum R_{i ibar j jbar}."""
    return 4 * np.einsum("...ijji->...", R).real - 2 * np.einsum("...iijj->...", R).real


def scalar_curvature(chart: MetricChart, z) -> float:
    """Riemannian scalar curvature of the realified metric, from the
    Levi-Civita tensor R = B[0] of the point's basis (see `_scalar`)."""
    return float(_scalar(canonical_basis(chart, z)[0]))


# ---------------------------------------------------------------------------
# Symmetrization, HSC, constancy


def _symmetrized(R: np.ndarray) -> np.ndarray:
    """Symmetrization of the last four axes of R (leading axes stack
    tensors)."""
    # Two nested pair-symmetrizations keep the i<->k and j<->l symmetries
    # exact (a flat 4-term sum would round differently across permutations).
    S = R + np.einsum("...kjil->...ijkl", R)
    S = S + np.einsum("...ilkj->...ijkl", S)
    S *= 0.25           # in place: one temporary fewer, the same bits
    return S


def symmetrize(C) -> Curv4:
    """Symmetrization Rhat_{i jbar k lbar} = (R_{i jbar k lbar}
    + R_{k jbar i lbar} + R_{i lbar k jbar} + R_{k lbar i jbar}) / 4."""
    name = C.connection if isinstance(C, Curv4) else ""
    return Curv4(_symmetrized(tensor_of(C)),
                 connection=f"sym({name})" if name else "sym")


def hsc(C, eta):
    """Holomorphic sectional curvature H(eta) = R(eta, etabar, eta, etabar)
    / |eta|^4 for a (1,0) vector eta given in the same unitary frame as C: a
    float, or for a stack of k directions eta[k, :] an array of k values
    from one contraction.  Leading axes of the tensor (a point axis) are
    batch axes that broadcast against those of eta.  Every direction must
    be nonzero and give a real contraction."""
    eta = np.asarray(eta, dtype=complex)
    norm2 = np.sum(np.abs(eta) ** 2, axis=-1)
    if np.any(norm2 < 1e-30):
        raise ZeroVector("hsc needs a nonzero direction")
    # One broadcast matmul per slot, j, i, l and k in turn: X holds the slots
    # still open as rows and shrinks by a factor n at each step.
    X = tensor_of(C)
    n = X.shape[-1]
    X = X.reshape(X.shape[:-4] + (n ** 4, 1))
    for u in (eta.conj(), eta, eta.conj(), eta):
        X = X.reshape(X.shape[:-2] + (-1, n)) @ u[..., None]
    val = X[..., 0, 0]
    bad = ~(np.abs(val.imag) <= 1e-9 * np.maximum(1.0, np.abs(val)))
    if np.any(bad):
        raise NotHermitian(f"hsc contraction is not real: {val[bad].flat[0]}")
    H = val.real / norm2**2
    return float(H) if H.ndim == 0 else H


# The most complex entries (cells x points x n^4) one `_constancy_fit` pass
# holds, 16 MB; more points are fitted in blocks.
FIT_ENTRIES = 1 << 20


def _constancy_fit(W: np.ndarray, Rh: np.ndarray):
    """Constancy estimates of the tensors W @ Rh[p] at P points, Rh a stack
    of symmetrized tensors (P, m, n, n, n, n) and W an (r, m) weight matrix.

    c is the normalized diagonal average 2/(n(n+1)) sum_{k,i} Re Rh[k,k,i,i]
    (exact whenever constancy holds), the target is c/2 (delta delta
    + delta delta) and the residual is the max-norm of Rhat - target.  All
    three are linear in Rh, so c comes from the stack's diagonal sums and
    every row needs one pass over the n^4 components: the cost grows with
    the points, not with cells x points.  The residuals are taken in blocks
    of points when r x P x n^4 would exceed `FIT_ENTRIES`.  Returns (c,
    residual), each of shape (r, P).
    """
    n = Rh.shape[-1]
    flat = Rh.reshape(Rh.shape[:2] + (-1,))
    eye = np.eye(n)
    dd = np.einsum("kl,ij->klij", eye, eye).ravel()
    unit = 0.5 * (dd + np.einsum("kj,il->klij", eye, eye).ravel())
    c = (W @ (flat.real @ dd)[..., None])[..., 0] * (2.0 / (n * (n + 1)))
    step = max(1, FIT_ENTRIES // max(1, len(W) * flat.shape[-1]))
    residual = np.concatenate([np.max(np.abs(W @ flat[i:i + step] - c[i:i + step, :, None] * unit),
                                      axis=-1) for i in range(0, len(flat), step)])
    return c.T, residual.T


def constancy_residual(C) -> tuple[float, float]:
    """Estimate (c, residual) of pointwise HSC constancy of one tensor; see
    `_constancy_fit`."""
    c, residual = _constancy_fit(np.ones((1, 1)), _symmetrized(tensor_of(C))[None, None])
    return float(c[0, 0]), float(residual[0, 0])


def _qline_pair(RC: np.ndarray, T: np.ndarray) -> np.ndarray:
    """The symmetrized pair Rh[p] = (sym R^C, X) of stacked Chern curvatures
    RC[p] and torsions T[p] in one frame, X = -sym(T^j_rk conj(T^i_rl)) from
    `_torsion_products`: sym R^D = `qline_weights` @ Rh[p].  The weights (1, p,
    p^2 - 2p, s^2 - 1) on sym B = (sym R^C + 2X, 0, X, X) sum to (1, q)."""
    # Each half is symmetrized on its own, entrywise as on the stack, so the
    # symmetrization's temporaries are half the size.
    X = -_torsion_products(T).transpose(0, 2, 4, 3, 1)
    return np.stack([_symmetrized(RC), _symmetrized(X)], axis=1)


def _qline_points(chart: MetricChart, points) -> np.ndarray:
    """`_qline_pair` of the points in their Cholesky frames, from one fill."""
    b = _metric_points(chart, points)
    RC, T = _chern_stack(b, b.E), _frame_torsion(b, b.E)
    # The record's Hessians, P (2n)^2 n^2 entries, are the largest array of
    # the fill and the pair reads none of it: freed first, they do not add
    # to the pair's peak memory.
    del b
    return _qline_pair(RC, T)


def constancy_table(chart: MetricChart, params_list, points):
    """Constancy estimates of D^t_s for every (t, s) in params_list at every
    point: arrays c[cell, point] and residual[cell, point].

    sym R^D depends on (t, s) only through q: `_constancy_fit` weighs the
    points' pairs (sym R^C, X) from one fill (`_qline_points`) with
    `qline_weights`, and builds no basis.  An empty params_list gives empty
    arrays; an empty point list raises ConfigError.
    """
    if len(points) == 0:
        raise ConfigError("constancy_table needs at least one point; the point list is empty")
    return _constancy_fit(qline_weights(params_list), _qline_points(chart, points))


# ---------------------------------------------------------------------------
# Self-duality (n = 2)


def _selfdual(R: np.ndarray) -> np.ndarray:
    """The three self-duality residuals (see `selfdual_residual`) of
    Levi-Civita tensors R[..., k, l, i, j] at n = 2, shape (..., 3)."""
    return np.abs(np.stack([
        R[..., 0, 1, 0, 1],
        R[..., 0, 1, 1, 1] - R[..., 0, 1, 0, 0],
        2 * R[..., 0, 1, 1, 0] + 2 * R[..., 0, 0, 1, 1] - R[..., 0, 0, 0, 0] - R[..., 1, 1, 1, 1],
    ], axis=-1))


def selfdual_residual(chart: MetricChart, z) -> tuple[float, float, float]:
    """The three self-duality residuals |R_{1 2bar 1 2bar}|,
    |R_{1 2bar 2 2bar} - R_{1 2bar 1 1bar}| and |2 R_{1 2bar 2 1bar}
    + 2 R_{1 1bar 2 2bar} - R_{1 1bar 1 1bar} - R_{2 2bar 2 2bar}| of the
    Levi-Civita curvature in a unitary frame; all vanish iff the metric is
    self-dual at z."""
    if chart.n != 2:
        raise DimensionError("self-duality requires complex dimension 2")
    r1, r2, r3 = _selfdual(canonical_basis(chart, z)[0])
    return float(r1), float(r2), float(r3)


def _weyl_minus(R: np.ndarray) -> np.ndarray:
    """W_- Gram matrices (see `weyl_minus`) of Levi-Civita tensors
    R[..., k, l, i, j] at n = 2, shape (..., 3, 3)."""
    rt2 = np.sqrt(2.0)
    W = np.empty(R.shape[:-4] + (3, 3), dtype=complex)
    W[..., 0, 0] = R[..., 0, 1, 1, 0]
    W[..., 0, 1] = (R[..., 0, 1, 0, 0] - R[..., 0, 1, 1, 1]) / rt2
    W[..., 0, 2] = -R[..., 0, 1, 0, 1]
    W[..., 1, 0] = (R[..., 0, 0, 1, 0] - R[..., 1, 1, 1, 0]) / rt2
    W[..., 1, 1] = 0.5 * (R[..., 0, 0, 0, 0] + R[..., 1, 1, 1, 1]) \
        - 0.5 * (R[..., 0, 0, 1, 1] + R[..., 1, 1, 0, 0])
    W[..., 1, 2] = (R[..., 1, 1, 0, 1] - R[..., 0, 0, 0, 1]) / rt2
    W[..., 2, 0] = -R[..., 1, 0, 1, 0]
    W[..., 2, 1] = (R[..., 1, 0, 1, 1] - R[..., 1, 0, 0, 0]) / rt2
    W[..., 2, 2] = R[..., 1, 0, 0, 1]
    W -= (_scalar(R) / 12.0)[..., None, None] * np.eye(3)
    return W


def weyl_minus(chart: MetricChart, z) -> np.ndarray:
    """Gram matrix of the anti-self-dual Weyl operator W_- on the unitary
    basis {e1 ^ ebar2, (e1 ^ ebar1 - e2 ^ ebar2)/sqrt2, ebar1 ^ e2} of
    Lambda^2_- tensor C, from the Levi-Civita tensor B[0] of the point's
    basis.

    Entries are <W_- u_a, u_b> = g(curv_op(u_a), conj(u_b)) - s_g/12
    delta_ab with g(curv_op(X ^ Y), Z ^ W) = -R(X, Y, Z, W).  Hermitian up
    to numerical error by the Riemann pair symmetry.
    """
    if chart.n != 2:
        raise DimensionError("W_- requires complex dimension 2")
    return _weyl_minus(canonical_basis(chart, z)[0])


# ---------------------------------------------------------------------------
# Complexified reference: D^t_s from its own Christoffel symbols


def _riemann(Gamma, dGamma, M) -> np.ndarray:
    """Riem[p, c, d, b, f] = R(d_c, d_d, d_b, d_f) of the connection with
    Christoffel symbols Gamma[p, a, b, c] = Gamma^a_bc and derivatives
    dGamma[p, e, a, b, c] = d_e Gamma^a_bc, in coordinates with metric M[p]."""
    lead, N = Gamma.shape[:-3], Gamma.shape[-1]
    # R(d_c, d_d) d_b = Rup[a, b, c, d] d_a = X - Y + P - Q, held with its
    # axes as [c, d, b, a]: X = d_c Gamma^a_db, P = Gamma^a_ce Gamma^e_db, and Y
    # and Q the same with c and d swapped.  P is one matmul K[(a, c), (d, b)]
    # over e, and the metric contraction over a another.
    K = Gamma.reshape(lead + (N * N, N)) @ Gamma.reshape(lead + (N, N * N))
    X = np.moveaxis(dGamma, -3, -1)
    P = np.moveaxis(K.reshape(lead + (N,) * 4), -4, -1)
    Rup = X - X.swapaxes(-4, -3) + P - P.swapaxes(-4, -3)
    return (Rup.reshape(lead + (N ** 3, N)) @ M).reshape(lead + (N,) * 4)


def _christoffel_parts(b):
    """The (t, s)-free part of the reference at stacked points (a record of
    `connection._metric_points`), in the 2n Wirtinger coordinates: (M, Gamma^C,
    dGamma^C, Gamma^LC, dGamma^LC), M the complexified metric, Gamma^C[a, b,
    c] = Minv[a, d] d_b M[c, d] and Gamma^LC its Levi-Civita symbols."""
    P, n = b.G.shape[:2]
    N = 2 * n
    M = np.zeros((P, N, N), dtype=complex)
    dM = np.zeros((P, N, N, N), dtype=complex)     # dM[p, a, b, c] = d_a M[b, c]
    ddM = np.zeros((P, N, N, N, N), dtype=complex)
    M[:, :n, n:] = b.G
    dM[:, :, :n, n:] = b.grad                 # d_a, then dbar_a
    ddM[:, :, :, :n, n:] = b.hess
    # The metric tensor is symmetric: mirror the (unbarred, barred) block.
    M = M + M.transpose(0, 2, 1)
    dM = dM + dM.transpose(0, 1, 3, 2)
    ddM = ddM + ddM.transpose(0, 1, 2, 4, 3)
    Minv = np.linalg.inv(M)
    dMinv = -(Minv[:, None] @ dM @ Minv[:, None])        # dMinv[p, e] = d_e Minv
    S = dM + dM.transpose(0, 3, 2, 1) - dM.transpose(0, 2, 1, 3)
    dS = ddM + ddM.transpose(0, 1, 4, 3, 2) - ddM.transpose(0, 1, 3, 2, 4)
    # Each symbol contracts Minv (or d_e Minv) over d with a [.., d, (b, c)]
    # matrix: one batched matmul, then a reshape to [.., a, b, c].
    S_ = S.transpose(0, 2, 1, 3).reshape(P, N, N * N)[:, None]           # [p, 1, d, (b, c)]
    dS_ = dS.transpose(0, 1, 3, 2, 4).reshape(P, N, N, N * N)            # [p, e, d, (b, c)]
    dM_ = dM.reshape(P, N * N, N).transpose(0, 2, 1)[:, None]            # [p, 1, d, (b, c)]
    ddM_ = ddM.reshape(P, N, N * N, N).transpose(0, 1, 3, 2)             # [p, e, d, (b, c)]
    Mi = Minv[:, None]
    lc = 0.5 * (Mi @ S_).reshape(P, N, N, N)
    dlc = 0.5 * (dMinv @ S_ + Mi @ dS_).reshape(P, N, N, N, N)
    ch = (Mi @ dM_).reshape(P, N, N, N)
    dch = (dMinv @ dM_ + Mi @ ddM_).reshape(P, N, N, N, N)
    return M, ch, dch, lc, dlc


def _christoffel(parts, params):
    """(Gamma, dGamma, M) of D^t_s for `_riemann` from `_christoffel_parts`:
    Gamma^D = (1 - s)(t Gamma^C + (1 - t) Gamma^L) + s Gamma^LC, with
    Gamma^C kept where a, b and c are of one type and Gamma^L = Gamma^LC kept
    where a and c are of one type."""
    pr = as_params(params)
    M, ch, dch, lc, dlc = parts
    barred = np.arange(M.shape[-1]) >= M.shape[-1] // 2
    a, bb, c = barred[:, None, None], barred[None, :, None], barred[None, None, :]
    wch = (1 - pr.s) * pr.t * ((a == bb) & (bb == c))
    wlc = (1 - pr.s) * (1 - pr.t) * (a == c) + pr.s
    return wch * ch + wlc * lc, wch * dch + wlc * dlc, M


def connection_curvature_oracle(chart: MetricChart, params_list, points) -> np.ndarray:
    """Reference curvature R[cell, p, k, l, i, j] = R_{k lbar i jbar} of
    D^t_s for every (t, s) in params_list at each point in its Cholesky
    frame, what `canonical_curvature` gives, from the connection's own
    Christoffel symbols with no torsion formula.  The (t, s)-free part is
    built once for all the cells; each cell then weights it and takes its
    Riemann tensor.  It builds (2n)^4 arrays and serves only to check the
    production path."""
    return _curvature_oracle(params_list, _metric_points(chart, points))


def _curvature_oracle(params_list, b) -> np.ndarray:
    """`connection_curvature_oracle` at the points of a record `b` of
    `connection._metric_points`."""
    n, E = b.G.shape[-1], b.E
    parts = _christoffel_parts(b)
    R = [_to_frame(_riemann(*_christoffel(parts, ts))[:, :n, n:, :n, n:],
                   E, E.conj(), E, E.conj()) for ts in params_list]
    return np.array(R, dtype=complex).reshape((len(R), len(E)) + (n,) * 4)


def lc_full(chart: MetricChart, z) -> np.ndarray:
    """Full complexified Levi-Civita Riemann tensor in the Wirtinger
    coordinate frame (2n axes each: 0..n-1 unbarred, n..2n-1 barred): the
    reference at s = 1."""
    parts = _christoffel_parts(_point(chart, z)[0])
    return _riemann(*_christoffel(parts, (0.0, 1.0)))[0]


# ---------------------------------------------------------------------------
# Real-coordinate finite-difference oracle


def _real_riemann(chart: MetricChart, z, h: float):
    """Riemann tensor R[c,d,b,f] = R(d_c, d_d, d_b, d_f) of the realified
    metric at z, and the metric there, in x = (Re z, Im z): central
    differences of the Christoffel symbols at x +- h along each axis, these
    from 4th-order differences of the metric, whose whole nested stencil is
    one `metric_values` call.  With g_{k lbar} = g(d_k, dbar_l): g(dx_k, dx_l)
    = g(dy_k, dy_l) = 2 Re g_{k lbar} and g(dx_k, dy_l) = 2 Im g_{k lbar}.
    A stencil point off the domain raises DomainError naming it and z."""
    [pt] = _check_points(chart, [z])
    n, m = chart.n, 2 * chart.n
    x = np.concatenate([pt.real, pt.imag])
    eye = np.eye(m)
    centres = x + h * np.concatenate([np.zeros((1, m)), eye, -eye])
    xs = centres[:, None] + h * _axis_steps(m)            # (2m + 1, 1 + 4m, m)
    Z = xs[..., :n] + 1j * xs[..., n:]
    try:
        G = metric_values(chart, Z)
    except DomainError:
        stencil = Z.reshape(-1, n)
        k = _outside(chart, stencil)
        if k is None:
            raise
        raise DomainError(f"finite-difference stencil point {stencil[k]} of point {pt} "
                          "exits domain") from None
    re, im = 2.0 * G.real, 2.0 * G.imag
    M = np.block([[re, im], [im.swapaxes(-1, -2), re]])  # M[centre, step]
    dM = _first_difference(M.swapaxes(0, 1), h)          # dM[c, centre] = d_c M
    S = dM + dM.transpose(3, 1, 2, 0) - dM.transpose(2, 1, 0, 3)
    Gamma = 0.5 * np.einsum("pad,bpdc->pabc", np.linalg.inv(M[:, 0]), S)
    dGamma = (Gamma[1:m + 1] - Gamma[m + 1:]) / (2 * h)
    return _riemann(Gamma[:1], dGamma[None], M[:1, 0])[0], M[0, 0]


def lc_curvature_fd(chart: MetricChart, z, frame=None, h: float = 1e-4) -> Curv4:
    """Independent Levi-Civita oracle: Christoffel symbols of the realified
    metric by finite differences in the 2n real coordinates, complexified
    against the unitary frame."""
    n = chart.n
    Riem, _ = _real_riemann(chart, z, h)
    E = _point(chart, z)[1][0] if frame is None else _frame_E(frame)
    # e_a = sum_m E[m,a] (dx_m - i dy_m)/2,  ebar_a its conjugate
    w = np.zeros((2 * n, n), dtype=complex)
    w[:n] = 0.5 * E
    w[n:] = -0.5j * E
    v = np.conj(w)
    Rf = np.einsum("pa,qb,rc,sd,pqrs->abcd", w, v, w, v, Riem)
    return Curv4(Rf, connection="levi-civita (fd oracle)")


def scalar_curvature_fd(chart: MetricChart, z, h: float = 1e-4) -> float:
    """Scalar curvature from the real-coordinate finite-difference oracle."""
    Riem, G0 = _real_riemann(chart, z, h)
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
