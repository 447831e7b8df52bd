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

The laws run on stacked points (`FactorAt`): one jet walk of f per point
set, and one batched `canonical_basis` pass for the rescaled side of the
deltas, weighted per (t, s).  The per-point functions are its P = 1 calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .connection import (FrameAtPoint, MetricChart, as_params, unitary_frame, _as_key,
                         _frame_matrix, _frame_torsion, _metric_points, _stack,
                         _to_frame)
from .curvature import (Curv4, canonical_bases, canonical_weights, symmetrize,
                        _basis_stack, _lc_fill, _symmetrized)
from .errors import BaseNotKahler, NonRealConformalFactor
from .wjet import Const, Exp, Mul, ScalarField, eval_jets

REAL_TOL = 1e-12
KAHLER_TOL = 1e-10


@dataclass(eq=False)
class ConformalPair:
    """Base chart, real conformal factor f and the rescaled chart with
    components e^2f g_{i jbar} (exact expression-tree products)."""

    base: MetricChart
    f: ScalarField
    rescaled: MetricChart

    def at(self, points) -> "FactorAt":
        """The pair's factor at the points, in their Cholesky frames."""
        return FactorAt(self.base, self.f, points, rescaled=self.rescaled)


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


class FactorAt:
    """A real conformal factor f on `chart` at P points in unitary frames
    E[p] (the Cholesky frames unless `frames` is given), every array with a
    leading point axis: one `eval_jets` walk gives `jet`, `value`, the frame
    gradient fr[p, a] = e_a f, frbar[p, a] = ebar_a f and grad2 = f_r f_rbar;
    T is the base's Chern torsion.  `rescaled` is the chart e^2f g of the laws
    that compare with it, in the paired frames Et = e^-f E."""

    def __init__(self, chart: MetricChart, f: ScalarField, points, frames=None,
                 rescaled: MetricChart | None = None):
        self.chart, self.rescaled = chart, rescaled
        self.keys = [_as_key(p) for p in points]
        self.jet = eval_jets([f], np.array(self.keys, dtype=complex))[0]
        self.value = self.jet.value.real
        self.pds = _metric_points(chart, self.keys)
        self.cholesky = frames is None
        b = _stack(self.pds)
        self.E = b.E if frames is None else frames
        self.Et = np.exp(-self.value)[:, None, None] * self.E
        self.T = _frame_torsion(b, self.E)
        self.fr = np.einsum("pia,pi->pa", self.E, self.jet.d)
        self.frbar = np.einsum("pia,pi->pa", self.E.conj(), self.jet.dbar)
        # (P, 1, 1, 1, 1), to scale stacked four-tensors; matmul rounds as np.dot
        self.grad2 = np.real(self.fr[:, None] @ self.frbar[..., None])[..., None, None]

    @cached_property
    def C(self) -> np.ndarray:
        """C[p, m, l, k] = Gamma^m_{lbar k}, the coordinate coefficients of the
        (1,0) part of nab^LC_{dbar_l} d_k, from the stored Levi-Civita data."""
        _lc_fill(self.pds)
        n = self.chart.n
        return np.stack([pd.lc.Gamma[:n, n:, :n] for pd in self.pds])

    def hessians(self, t: float):
        """`f_covariant_hessians` at each point."""
        jf, C, E = self.jet, self.C, self.E
        A = jf.ddbar - (1.0 - t) * np.einsum("pmlk,pm->pkl", C, jf.d)
        B = jf.ddbar.transpose(0, 2, 1) \
            - (1.0 - t) * np.einsum("pmkl,pm->plk", np.conj(C), jf.dbar)
        return _to_frame(A, E, E.conj()), _to_frame(B, E.conj(), E)

    def commutation_residuals(self, t: float) -> np.ndarray:
        """`commutation_residual` at each point."""
        H1, H2 = self.hessians(t)
        rhs = (1.0 - t) * (np.einsum("pr,pjrk->pjk", self.frbar, self.T)
                           - np.einsum("pr,pkrj->pjk", self.fr, np.conj(self.T)))
        return np.max(np.abs(H2 - H1.transpose(0, 2, 1) - rhs), axis=(1, 2))

    def torsion_residuals(self) -> np.ndarray:
        """`torsion_transform_residual` at each point."""
        eye = np.eye(self.chart.n)
        pred = self.T + np.einsum("pj,ik->pijk", self.fr, eye) \
            - np.einsum("pk,ij->pijk", self.fr, eye)
        pred *= np.exp(-self.value)[:, None, None, None]
        direct = _frame_torsion(_stack(_metric_points(self.rescaled, self.keys)), self.Et)
        return np.max(np.abs(direct - pred), axis=(1, 2, 3))

    def delta_predicted(self, params) -> np.ndarray:
        """`delta_canonical_predicted` at each point."""
        pr = as_params(params)
        p, s = pr.p, pr.s
        T, fr, frbar, grad2 = self.T, self.fr, self.frbar, self.grad2
        Tc = np.conj(T)
        H1, _ = self.hessians(p)
        eye = np.eye(self.chart.n)
        dd = np.einsum("jk,il->klij", eye, eye)
        D = -2 * p * np.einsum("pkl,ij->pklij", H1, eye)
        D = D + 2 * p * (1 - p) * np.einsum("pr,pkrl,ij->pklij", fr, Tc, eye)
        D = D - (1 - p) * (np.einsum("pil,jk->pklij", H1, eye)
                           + np.einsum("pkj,il->pklij", H1, eye))
        D = D + (1 - p) ** 2 * (
            np.einsum("pi,pkjl->pklij", fr, Tc)
            - np.einsum("pr,pjrk,il->pklij", frbar, T, eye)
            + np.einsum("pr,pkrj,il->pklij", fr, Tc, eye)
            + np.einsum("pj,plik->pklij", frbar, T)
            - grad2 * dd
            + np.einsum("pi,pj,kl->pklij", fr, frbar, eye))
        if s != 0.0:
            s2 = s * s
            D = D + s2 * (np.einsum("pi,pl,jk->pklij", fr, frbar, eye)
                          + np.einsum("pj,pk,il->pklij", frbar, fr, eye)
                          - np.einsum("pi,pj,kl->pklij", fr, frbar, eye)
                          - grad2 * dd)
            D = D + s2 * (np.einsum("pi,pklj->pklij", fr, Tc)
                          - np.einsum("pj,plik->pklij", frbar, T)
                          - np.einsum("pr,plri,jk->pklij", frbar, T, eye)
                          - np.einsum("pr,pkrj,il->pklij", fr, Tc, eye))
        return D

    def delta_kahler(self, params) -> np.ndarray:
        """`delta_kahler_predicted` at each point.  Its sums are 4 sym(f_{k lbar}
        d_ij), 4 sym(f_i f_jbar d_kl) and 2 sym(d_kl d_ij), so the delta is
        sym(-2 f_{k lbar} d_ij + C f_i f_jbar d_kl - C f_r f_rbar d_kl d_ij)."""
        tors = np.max(np.abs(self.T), axis=(1, 2, 3))
        bad = np.flatnonzero(tors > KAHLER_TOL)
        if bad.size:
            raise BaseNotKahler(f"base chart {self.chart.label} has torsion "
                                f"{tors[bad[0]]:.2e} at {np.array(self.keys[bad[0]])}")
        pr = as_params(params)
        coeff = (pr.p - 1.0) ** 2 + pr.s**2
        H1, _ = self.hessians(pr.p)
        eye = np.eye(self.chart.n)
        X = -2 * np.einsum("pkl,ij->pklij", H1, eye) \
            + coeff * (np.einsum("pi,pj,kl->pklij", self.fr, self.frbar, eye)
                       - self.grad2 * np.einsum("kl,ij->klij", eye, eye))
        return _symmetrized(X)

    @cached_property
    def bases(self):
        """`canonical_basis` stacks (base, rescaled), each (P, 4, n, n, n, n):
        the base's in the frames E (the stored ones in Cholesky frames), the
        rescaled chart's in the paired frames Et from one batched pass."""
        base = (np.stack(canonical_bases(self.chart, self.keys)) if self.cholesky
                else _basis_stack(self.pds, self.E))
        return base, _basis_stack(_metric_points(self.rescaled, self.keys), self.Et)

    def delta_direct(self, params) -> np.ndarray:
        """`delta_direct` at each point, in the frames E and Et."""
        w = canonical_weights(params)
        base, resc = self.bases
        e2f = np.exp(2 * self.value)[:, None, None, None, None]
        return e2f * np.tensordot(w, resc, (0, 1)) - np.tensordot(w, base, (0, 1))


def _at_point(chart: MetricChart, f: ScalarField, z, frame=None) -> FactorAt:
    """The P = 1 `FactorAt` of the per-point functions."""
    frames = None if frame is None else _frame_matrix(chart, z, frame)[None]
    return FactorAt(chart, f, [z], frames)


def frame_gradient(pair_or_chart, f: ScalarField, z, frame=None):
    """(f_a, f_abar) = frame components of df: f_a = e_a f,
    f_abar = ebar_a f."""
    chart = pair_or_chart.base if isinstance(pair_or_chart, ConformalPair) else pair_or_chart
    F = _at_point(chart, f, z, frame)
    return F.fr[0], F.frbar[0]


def f_covariant_hessians(chart: MetricChart, f: ScalarField, t: float, z, frame=None):
    """Covariant second derivatives of f with respect to the Gauduchon
    connection nab^t of `chart`, in the given unitary frame.

    Returns (H1, H2) with H1[k, l] = f_{k lbar} = ebar_l e_k f
    - (nab^t_{ebar_l} e_k) f and H2[l, k] = f_{lbar k} = e_k ebar_l f
    - (nab^t_{e_k} ebar_l) f.  In coordinates the Chern part of nab^t has no
    mixed Christoffel symbols, so only the Lichnerowicz share (1 - t)
    contributes.
    """
    H1, H2 = _at_point(chart, f, z, frame).hessians(t)
    return H1[0], H2[0]


def commutation_residual(chart: MetricChart, f: ScalarField, t: float, z) -> float:
    """Max-norm residual over (j, k) of the commutation rule
    f_{jbar k} - f_{k jbar} = (1 - t)(f_rbar T^j_rk - f_r conj(T^k_rj))."""
    return float(_at_point(chart, f, z).commutation_residuals(t)[0])


def torsion_transform_residual(pair: ConformalPair, z) -> float:
    """Max-norm of (direct torsion of the rescaled chart) minus the predicted
    Ttilde^i_jk = e^-f (T^i_jk + f_j delta_ik - f_k delta_ij), in paired
    frames."""
    return float(pair.at([z]).torsion_residuals()[0])


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
    D = _at_point(pair.base, pair.f, z, frame).delta_predicted(pr)[0]
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
    return Curv4(pair.at([z]).delta_direct(pr)[0],
                 connection=f"delta direct(t={pr.t:g}, s={pr.s:g})")


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
    return Curv4(pair.at([z]).delta_kahler(pr)[0],
                 connection=f"delta kahler sym(t={pr.t:g}, s={pr.s:g})")


def delta_direct_symmetrized(pair: ConformalPair, params, z) -> Curv4:
    """Measured e^2f sym(Rtilde^D) - sym(R^D) in paired frames, the base side
    from the base's stored Cholesky-frame curvature."""
    C = symmetrize(delta_direct(pair, params, z))
    C.connection = "delta direct sym"
    return C
