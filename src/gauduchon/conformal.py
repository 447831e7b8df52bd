"""Conformal rescaling gtilde = e^2f g and predicted-vs-direct verification
of the transformation laws: the torsion law, the commutation rule for
covariant derivatives of f, and the curvature deltas of the Gauduchon and
canonical families (plus their symmetrized Kahler-base forms).

All predicted formulas are assembled from base-chart data in a unitary frame
e_a; the rescaled chart is compared in the paired frame
etilde_a = e^-f e_a, so components line up slot for slot.  Covariant
derivatives of f are taken with respect to the Gauduchon connection of the
base at the parameter the formula dictates (t for the t-family delta, p for
the (t, s)-family delta); both orderings f_{k lbar} and f_{lbar k} are
exposed, related by the commutation rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .connection import (FrameAtPoint, MetricChart, as_params, chern_torsion,
                         unitary_frame, _frame_matrix, _to_frame)
from .curvature import (Curv4, canonical_curvature, lc_mixed_christoffel,
                        symmetrize)
from .errors import BaseNotKahler, NonRealConformalFactor
from .wjet import Const, Exp, Mul, ScalarField, eval_jet

REAL_TOL = 1e-12
KAHLER_TOL = 1e-10


@dataclass(eq=False)
class ConformalPair:
    """Base chart, real conformal factor f and the rescaled chart with
    components e^2f g_{i jbar} (exact expression-tree products)."""

    base: MetricChart
    f: ScalarField
    rescaled: MetricChart


def rescale(chart: MetricChart, f: ScalarField, check_points=None) -> ConformalPair:
    """Build the conformal pair (g, e^2f g).

    f must be real-valued on the domain; it is sampled (8 seeded points from
    the chart's sampler unless `check_points` is given) and
    NonRealConformalFactor is raised when any imaginary part exceeds 1e-12.
    """
    if check_points is None:
        if chart.sampler is not None:
            rng = np.random.default_rng(20240)
            check_points = [chart.sampler(rng) for _ in range(8)]
        else:
            check_points = []
    for pt in check_points:
        v = f(pt)
        if abs(v.imag) > REAL_TOL * max(1.0, abs(v)):
            raise NonRealConformalFactor(
                f"conformal factor has imaginary part {v.imag:.3e} at {pt}")
    scale = Exp(Mul(Const(2.0), f))
    g = tuple(tuple(Mul(scale, chart.g[i][j]) for j in range(chart.n))
              for i in range(chart.n))
    rescaled = MetricChart(chart.n, g, label=f"{chart.label}*exp(2f)",
                           domain=chart.domain, sampler=chart.sampler)
    return ConformalPair(chart, f, rescaled)


def paired_frames(pair: ConformalPair, z, base_frame=None):
    """Unitary frames (base, rescaled) with etilde_a = e^-f e_a."""
    if base_frame is None:
        base_frame = unitary_frame(pair.base, z)
    fval = pair.f(z)
    c = float(np.exp(-fval.real))
    resc = FrameAtPoint(c * base_frame.E, float(np.exp(2 * fval.real)) * base_frame.G)
    return base_frame, resc


def frame_gradient(pair_or_chart, f: ScalarField, z, frame=None):
    """(f_a, f_abar) = frame components of df: f_a = e_a f,
    f_abar = ebar_a f."""
    chart = pair_or_chart.base if isinstance(pair_or_chart, ConformalPair) else pair_or_chart
    E = _frame_matrix(chart, z, frame)
    jf = eval_jet(f, z)
    return E.T @ jf.d, E.conj().T @ jf.dbar


def f_covariant_hessians(chart: MetricChart, f: ScalarField, t: float, z, frame=None):
    """Covariant second derivatives of f with respect to the Gauduchon
    connection nab^t of `chart`, in the given unitary frame.

    Returns (H1, H2) with H1[k, l] = f_{k lbar} = ebar_l e_k f
    - (nab^t_{ebar_l} e_k) f and H2[l, k] = f_{lbar k} = e_k ebar_l f
    - (nab^t_{e_k} ebar_l) f.  In coordinates the Chern part of nab^t has no
    mixed Christoffel symbols, so only the Lichnerowicz share (1 - t)
    contributes.
    """
    E = _frame_matrix(chart, z, frame)
    jf = eval_jet(f, z)
    C = lc_mixed_christoffel(chart, z)       # C[m, l, k] = Gamma^m_{lbar k}
    A = jf.ddbar.copy()                      # A[k, l] = d_k dbar_l f
    A -= (1.0 - t) * np.einsum("mlk,m->kl", C, jf.d)
    B = jf.ddbar.T.copy()                    # B[l, k] = d_k dbar_l f
    B -= (1.0 - t) * np.einsum("mkl,m->lk", np.conj(C), jf.dbar)
    H1 = _to_frame(A, E, E.conj())
    H2 = _to_frame(B, E.conj(), E)
    return H1, H2


def commutation_residual(chart: MetricChart, f: ScalarField, t: float, z) -> float:
    """Max-norm residual over (j, k) of the commutation rule
    f_{jbar k} - f_{k jbar} = (1 - t)(f_rbar T^j_rk - f_r conj(T^k_rj))."""
    frame = unitary_frame(chart, z)
    H1, H2 = f_covariant_hessians(chart, f, t, z, frame)
    fr, frbar = frame_gradient(chart, f, z, frame)
    T = chern_torsion(chart, z, frame)
    rhs = (1.0 - t) * (np.einsum("r,jrk->jk", frbar, T)
                       - np.einsum("r,krj->jk", fr, np.conj(T)))
    lhs = H2 - H1.T                           # lhs[j, k] = f_{jbar k} - f_{k jbar}
    return float(np.max(np.abs(lhs - rhs)))


def torsion_transform_residual(pair: ConformalPair, z) -> float:
    """Max-norm of (direct torsion of the rescaled chart) minus the predicted
    Ttilde^i_jk = e^-f (T^i_jk + f_j delta_ik - f_k delta_ij), in paired
    frames."""
    fb, fr = paired_frames(pair, z)
    T = chern_torsion(pair.base, z, fb)
    fj, _ = frame_gradient(pair, pair.f, z, fb)
    n = pair.base.n
    eye = np.eye(n)
    pred = T + np.einsum("j,ik->ijk", fj, eye) - np.einsum("k,ij->ijk", fj, eye)
    pred *= np.exp(-pair.f(z).real)
    direct = chern_torsion(pair.rescaled, z, fr)
    return float(np.max(np.abs(direct - pred)))


# ---------------------------------------------------------------------------
# Curvature deltas


def delta_canonical_predicted(pair: ConformalPair, params, z, frame=None) -> Curv4:
    """Predicted e^2f Rtilde^D_{k lbar i jbar} - R^D_{k lbar i jbar} for the
    canonical connection D^t_s, assembled from base data:

      -2p f_{k lbar} d_ij + 2p(1-p) f_r conj(T^k_rl) d_ij
      - (1-p)(f_{i lbar} d_jk + f_{k jbar} d_il)
      + (1-p)^2 (f_i conj(T^k_jl) - f_rbar T^j_rk d_il + f_r conj(T^k_rj) d_il
                 + f_jbar T^l_ik - f_r f_rbar d_jk d_il + f_i f_jbar d_kl)
      + s^2 (f_i f_lbar d_jk + f_jbar f_k d_il - f_i f_jbar d_kl
             - f_r f_rbar d_jk d_il)
      + s^2 (f_i conj(T^k_lj) - f_jbar T^l_ik - f_rbar T^l_ri d_jk
             - f_r conj(T^k_rj) d_il)

    with f-subscripts covariant with respect to nab^p of the base, p = t - ts.
    """
    pr = as_params(params)
    p, s = pr.p, pr.s
    base = pair.base
    if frame is None:
        frame = unitary_frame(base, z)
    T = chern_torsion(base, z, frame)
    Tc = np.conj(T)
    fr, frbar = frame_gradient(pair, pair.f, z, frame)
    H1, _ = f_covariant_hessians(base, pair.f, p, z, frame)
    n = base.n
    eye = np.eye(n)
    grad2 = float(np.real(np.dot(fr, frbar)))

    D = -2 * p * np.einsum("kl,ij->klij", H1, eye)
    D = D + 2 * p * (1 - p) * np.einsum("r,krl,ij->klij", fr, Tc, eye)
    D = D - (1 - p) * (np.einsum("il,jk->klij", H1, eye)
                       + np.einsum("kj,il->klij", H1, eye))
    D = D + (1 - p) ** 2 * (
        np.einsum("i,kjl->klij", fr, Tc)
        - np.einsum("r,jrk,il->klij", frbar, T, eye)
        + np.einsum("r,krj,il->klij", fr, Tc, eye)
        + np.einsum("j,lik->klij", frbar, T)
        - grad2 * np.einsum("jk,il->klij", eye, eye)
        + np.einsum("i,j,kl->klij", fr, frbar, eye))
    if s != 0.0:
        s2 = s * s
        D = D + s2 * (np.einsum("i,l,jk->klij", fr, frbar, eye)
                      + np.einsum("j,k,il->klij", frbar, fr, eye)
                      - np.einsum("i,j,kl->klij", fr, frbar, eye)
                      - grad2 * np.einsum("jk,il->klij", eye, eye))
        D = D + s2 * (np.einsum("i,klj->klij", fr, Tc)
                      - np.einsum("j,lik->klij", frbar, T)
                      - np.einsum("r,lri,jk->klij", frbar, T, eye)
                      - np.einsum("r,krj,il->klij", fr, Tc, eye))
    return Curv4(D, connection=f"delta canonical(t={pr.t:g}, s={pr.s:g})")


def delta_gauduchon_predicted(pair: ConformalPair, t: float, z, frame=None) -> Curv4:
    """Predicted e^2f Rtilde^t - R^t for the Gauduchon connection nab^t
    (the s = 0 case of the canonical delta, verbatim)."""
    C = delta_canonical_predicted(pair, (t, 0.0), z, frame)
    C.connection = f"delta gauduchon(t={t:g})"
    return C


def delta_direct(pair: ConformalPair, params, z) -> Curv4:
    """Measured e^2f Rtilde^D - R^D in paired frames; the base side is the
    base's stored Cholesky-frame curvature."""
    pr = as_params(params)
    _, fr = paired_frames(pair, z)
    Rb = canonical_curvature(pair.base, pr, z).R
    Rt = canonical_curvature(pair.rescaled, pr, z, fr).R
    e2f = float(np.exp(2 * pair.f(z).real))
    return Curv4(e2f * Rt - Rb, connection=f"delta direct(t={pr.t:g}, s={pr.s:g})")


def delta_kahler_predicted(pair: ConformalPair, params, z) -> Curv4:
    """Predicted symmetrized delta e^2f Rhat-tilde^D - Rhat^D over a Kahler
    base:

      -(f_{i lbar} d_jk + f_{k lbar} d_ij + f_{i jbar} d_kl + f_{k jbar} d_il)/2
      + C/4 (f_i f_jbar d_kl + f_k f_jbar d_il + f_i f_lbar d_kj
             + f_k f_lbar d_ij)
      - C/2 f_r f_rbar (d_kl d_ij + d_jk d_il),   C = (p-1)^2 + s^2.

    Raises BaseNotKahler when the base torsion at z exceeds 1e-10.
    """
    pr = as_params(params)
    base = pair.base
    frame = unitary_frame(base, z)
    T = chern_torsion(base, z, frame)
    if float(np.max(np.abs(T))) > KAHLER_TOL:
        raise BaseNotKahler(
            f"base chart {base.label} has torsion {np.max(np.abs(T)):.2e} at {z}")
    coeff = (pr.p - 1.0) ** 2 + pr.s**2
    fr, frbar = frame_gradient(pair, pair.f, z, frame)
    H1, _ = f_covariant_hessians(base, pair.f, pr.p, z, frame)
    n = base.n
    eye = np.eye(n)
    grad2 = float(np.real(np.dot(fr, frbar)))
    D = -0.5 * (np.einsum("il,jk->klij", H1, eye)
                + np.einsum("kl,ij->klij", H1, eye)
                + np.einsum("ij,kl->klij", H1, eye)
                + np.einsum("kj,il->klij", H1, eye))
    D = D + 0.25 * coeff * (np.einsum("i,j,kl->klij", fr, frbar, eye)
                            + np.einsum("k,j,il->klij", fr, frbar, eye)
                            + np.einsum("i,l,kj->klij", fr, frbar, eye)
                            + np.einsum("k,l,ij->klij", fr, frbar, eye))
    D = D - 0.5 * coeff * grad2 * (np.einsum("kl,ij->klij", eye, eye)
                                   + np.einsum("kj,il->klij", eye, eye))
    return Curv4(D, connection=f"delta kahler sym(t={pr.t:g}, s={pr.s:g})")


def delta_direct_symmetrized(pair: ConformalPair, params, z) -> Curv4:
    """Measured e^2f sym(Rtilde^D) - sym(R^D) in paired frames, the base side
    from the base's stored Cholesky-frame curvature."""
    pr = as_params(params)
    _, fr = paired_frames(pair, z)
    Rb = symmetrize(canonical_curvature(pair.base, pr, z)).R
    Rt = symmetrize(canonical_curvature(pair.rescaled, pr, z, fr)).R
    e2f = float(np.exp(2 * pair.f(z).real))
    return Curv4(e2f * Rt - Rb, connection="delta direct sym")
