"""Conformal rescaling gtilde = e^2f g and predicted-vs-direct verification
of the transformation laws: the torsion law, the commutation rule for
covariant derivatives of f, and the curvature deltas of the Gauduchon and
canonical families, whose symmetrized form is a q-line on any base.

All predicted formulas are assembled from base-chart data in a unitary frame
e_a; the rescaled chart is compared in the paired frame
etilde_a = e^-f e_a, so components line up slot for slot.  Covariant
derivatives of f are taken with respect to the Gauduchon connection of the
base at the parameter the formula dictates (t for the t-family delta, p for
the (t, s)-family delta); both orderings f_{k lbar} and f_{lbar k} are
exposed, related by the commutation rule.

The laws run on the stacked rows of a base record (`FactorAt`), one
constructor for one factor or several on one base: one jet walk of the
factors at the record's points, the base rows, each with its point,
tiled per factor.  The rescaled side, built when a law first reads it, is
the rescaled chart's record at the same points, its jets the products of
the scale jet and the base's jets under `WJet2.__mul__`, then through
`_fill` (`_rescaled_records`); its Cholesky frames are the paired ones,
chol(e^2f G) = e^f chol(G).  The per-point functions are P = 1 calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .connection import (FrameAtPoint, MetricChart, as_params, unitary_frame, _MetricData,
                         _basis_stack, _check_points, _chern_stack, _fill, _frame_E,
                         _frame_torsion, _metric_points, _read_only, _rows, _to_frame)
from .curvature import Curv4, canonical_weights, qline_weights, symmetrize, _symmetrized, _ts_pairs
from .errors import BaseNotKahler, GauduchonError, NonFinite, NonRealConformalFactor
from .wjet import Const, Exp, Mul, ScalarField, WJet2, eval_jets

REAL_TOL = 1e-12
KAHLER_TOL = 1e-10
RESCALED_LABEL = "{}*exp(2f)"           # the label of the chart e^2f g, whatever f


@dataclass(eq=False)
class ConformalPair:
    """Base chart, real conformal factor f and the rescaled chart with
    components e^2f g_{i jbar} (exact expression-tree products)."""

    base: MetricChart
    f: ScalarField
    rescaled: MetricChart

    def at(self, points) -> "FactorAt":
        """The pair's factor at the points, in their Cholesky frames."""
        return _at_point(self.base, self.f, points)


def rescale(chart: MetricChart, f: ScalarField, check_points=None) -> ConformalPair:
    """Build the conformal pair (g, e^2f g).

    f must be real-valued on the domain: it is sampled at 8 seeded points of
    the chart's sampler, or at `check_points`, checked as points of the
    chart, under the realness rule (`_require_real`) that a `FactorAt` also
    runs on the rows it rescales.
    """
    if check_points is None and chart.sampler is not None:
        rng = np.random.default_rng(20240)
        check_points = [chart.sampler(rng) for _ in range(8)]
    if check_points is not None and len(check_points):
        _require_real(f._value(_check_points(chart, check_points)), check_points)
    scale = Exp(Mul(Const(2.0), f))
    g = tuple(tuple(Mul(scale, chart.g[i][j]) for j in range(chart.n))
              for i in range(chart.n))
    rescaled = MetricChart(chart.n, g, label=RESCALED_LABEL.format(chart.label),
                           domain=chart.domain, sampler=chart.sampler)
    return ConformalPair(chart, f, rescaled)


def _require_real(v: np.ndarray, points) -> None:
    """Raise NonRealConformalFactor at the first point where v is not real."""
    bad = np.flatnonzero(np.abs(v.imag) > REAL_TOL * np.maximum(1.0, np.abs(v)))
    if bad.size:
        raise NonRealConformalFactor(f"conformal factor has imaginary part "
                                     f"{v[bad[0]].imag:.3e} at {points[bad[0]]}")


def paired_frames(pair: ConformalPair, z, base_frame=None):
    """Unitary frames (base, rescaled) with etilde_a = e^-f e_a."""
    if base_frame is None:
        base_frame = unitary_frame(pair.base, z)
    fval = pair.f(z)
    c = float(np.exp(-fval.real))
    resc = FrameAtPoint(c * base_frame.E, float(np.exp(2 * fval.real)) * base_frame.G)
    return base_frame, resc


class FactorAt:
    """Real conformal factors `fs` on `chart` at the rows of its record
    `data`, stacked in rows (factor, point), factor-major: one `eval_jets`
    walk at the points data.Z gives `jet`, `value` its value,
    fr[p, a] = e_a f, frbar[p, a] = ebar_a f and grad2 = f_r f_rbar, and the
    base rows with their points, their frames E (Cholesky, or the explicit
    `frame` of one point) and the base torsion T in them are tiled.  Each
    law is one pass over the rows: what does not depend on (t, s), the
    Hessian parts, the commutation parts and the four delta parts, is built
    once and weighed per (t, s)."""

    def __init__(self, chart: MetricChart, fs, data: _MetricData, frame=None):
        def tiled(a):
            return _read_only(np.concatenate([a] * len(fs)))

        E = data.E if frame is None else _frame_E(frame)[None]
        self.chart, self.fs, self.frame = chart, fs, frame
        self.jet = WJet2(*map(np.concatenate, zip(*(vars(j).values()
                                                    for j in eval_jets(fs, data.Z)))))
        self.data = _MetricData(*map(tiled, vars(data).values()))
        self.E, self.T = tiled(E), tiled(_frame_torsion(data, E))
        self.value = self.jet.value.real
        self.fr = np.einsum("pia,pi->pa", self.E, self.jet.d)
        self.frbar = np.einsum("pia,pi->pa", self.E.conj(), self.jet.dbar)
        # (P, 1, 1, 1, 1), to scale stacked four-tensors; matmul rounds as np.dot
        self.grad2 = np.real(self.fr[:, None] @ self.frbar[..., None])[..., None, None]

    @cached_property
    def rescaled_data(self) -> _MetricData:
        """The record of the charts e^2f g at the rows, in their own Cholesky
        frames, the paired frames e^-f E, from one `_rescaled_records` fill
        after the realness check of its rows; built when a law first reads
        it, and refused in an explicit frame."""
        if self.frame is not None:
            raise GauduchonError("a factor stack in an explicit frame has no rescaled side")
        _require_real(self.jet.value, self.data.Z)
        P = len(self.data.Z) // len(self.fs)
        return _rescaled_records(RESCALED_LABEL.format(self.chart.label),
                                 _rows(self.data, slice(P)), self.jet)

    @cached_property
    def C(self) -> np.ndarray:
        """C[p, m, l, k] = Gamma^m_{lbar k} = 1/2 g^{m qbar} (dbar_l g_{k qbar}
        - dbar_q g_{k lbar}), the coordinate coefficients of the (1,0) part of
        nab^LC_{dbar_l} d_k."""
        ginv, dbarG = self.data.ginv, self.data.dbarG
        return 0.5 * np.einsum("pmq,plkq->pmlk", ginv, dbarG - dbarG.transpose(0, 3, 2, 1))

    @cached_property
    def hessian_parts(self):
        """(U, V, Ub, Vb), framed: `hessians(t)` is (U - (1 - t) V,
        Ub - (1 - t) Vb), U = ddbar f and V = C df in the frames, Ub and Vb
        their other orderings."""
        jf, C, E = self.jet, self.C, self.E
        return (_to_frame(jf.ddbar, E, E.conj()),
                _to_frame(np.einsum("pmlk,pm->pkl", C, jf.d), E, E.conj()),
                _to_frame(jf.ddbar.transpose(0, 2, 1), E.conj(), E),
                _to_frame(np.einsum("pmkl,pm->plk", np.conj(C), jf.dbar), E.conj(), E))

    def hessians(self, t: float):
        """`f_covariant_hessians` at each point."""
        U, V, Ub, Vb = self.hessian_parts
        return U - (1.0 - t) * V, Ub - (1.0 - t) * Vb

    @cached_property
    def commutation_parts(self):
        """(a, b): the commutation rule's defect at t is a + (1 - t) b, with
        a = f_{jbar k} - f_{k jbar} of the Chern connection (t = 1) and b the
        rest, the Lichnerowicz share less the torsion side."""
        U, V, Ub, Vb = self.hessian_parts
        rhs = np.einsum("pr,pjrk->pjk", self.frbar, self.T) \
            - np.einsum("pr,pkrj->pjk", self.fr, np.conj(self.T))
        return Ub - U.transpose(0, 2, 1), V.transpose(0, 2, 1) - Vb - rhs

    def commutation_residuals(self, t) -> np.ndarray:
        """`commutation_residual` at each point, shape (P,) for one t and
        (m, P) for m values of t."""
        a, b = self.commutation_parts
        w = 1.0 - np.asarray(t, dtype=float)[..., None, None, None]
        return np.max(np.abs(a + w * b), axis=(-2, -1))

    def torsion_residuals(self) -> np.ndarray:
        """`torsion_transform_residual` at each point."""
        eye = np.eye(self.chart.n)
        pred = self.T + np.einsum("pj,ik->pijk", self.fr, eye) \
            - np.einsum("pk,ij->pijk", self.fr, eye)
        pred *= np.exp(-self.value)[:, None, None, None]
        r = self.rescaled_data
        direct = _frame_torsion(r, r.E)
        return np.max(np.abs(direct - pred), axis=(1, 2, 3))

    @cached_property
    def delta_parts(self) -> np.ndarray:
        """The (t, s)-free parts D[p, m, k, l, i, j] of `delta_predicted`, the
        four tensors that `delta_weights` weighs.  With H1 = U - (1 - p) V
        (`hessian_parts`), Y(X) = X_{k lbar} d_ij and Z(X) = X_{i lbar} d_jk
        + X_{k jbar} d_il, they are [Y(U), Z(U), Z(V) + Q, S]: Q the
        (1 - p)^2 bracket and S both s^2 brackets of
        `delta_canonical_predicted`.  Its 2p(1 - p) term has no part: in the
        frames V_{k lbar} = -f_r conj(T^k_rl), so Y(V) cancels it."""
        U, V, _, _ = self.hessian_parts
        T, fr, frbar, grad2 = self.T, self.fr, self.frbar, self.grad2
        Tc = np.conj(T)
        eye = np.eye(self.chart.n)
        dd = np.einsum("jk,il->klij", eye, eye)

        def Z(X):
            return np.einsum("pil,jk->pklij", X, eye) + np.einsum("pkj,il->pklij", X, eye)

        Q = (np.einsum("pi,pkjl->pklij", fr, Tc)
             - np.einsum("pr,pjrk,il->pklij", frbar, T, eye)
             + np.einsum("pr,pkrj,il->pklij", fr, Tc, eye)
             + np.einsum("pj,plik->pklij", frbar, T)
             - grad2 * dd
             + np.einsum("pi,pj,kl->pklij", fr, frbar, eye))
        S = (np.einsum("pi,pl,jk->pklij", fr, frbar, eye)
             + np.einsum("pj,pk,il->pklij", frbar, fr, eye)
             - np.einsum("pi,pj,kl->pklij", fr, frbar, eye)
             - grad2 * dd) \
            + (np.einsum("pi,pklj->pklij", fr, Tc)
               - np.einsum("pj,plik->pklij", frbar, T)
               - np.einsum("pr,plri,jk->pklij", frbar, T, eye)
               - np.einsum("pr,pkrj,il->pklij", fr, Tc, eye))
        return np.stack([np.einsum("pkl,ij->pklij", U, eye), Z(U), Z(V) + Q, S], axis=1)

    def delta_predicted(self, params) -> np.ndarray:
        """`delta_canonical_predicted` at each point, shape (P, n, n, n, n)
        for one (t, s) pair and (m, P, n, n, n, n) for m pairs: the
        `delta_weights` combination of `delta_parts`."""
        return np.tensordot(delta_weights(params), self.delta_parts, (-1, 1))

    def delta_symmetrized(self, params) -> np.ndarray:
        """The symmetrized `delta_predicted`, shaped as it is, on any base,
        torsion included: sym Z(U) = 2 sym Y(U) and sym(Z(V) + Q) = sym S
        (`delta_parts`), so the weights (-2p, -(1 - p), (1 - p)^2, s^2) fold
        to the q-line sym(-2 Y(U)) + q sym(S), q = (1 - p)^2 + s^2
        (`qline_weights`)."""
        D = self.delta_parts
        return np.tensordot(qline_weights(params),
                            _symmetrized(np.stack([-2 * D[:, 0], D[:, 3]], axis=1)), (-1, 1))

    def delta_direct(self, params, rows=slice(None)) -> np.ndarray:
        """`delta_direct` at the `rows` (all by default), from one basis stack
        of those rows of the base and rescaled records in their (paired)
        Cholesky frames; m (t, s) pairs give shape (m, rows, ...)."""
        w = canonical_weights(params)
        both = _MetricData(*(np.concatenate([a[rows], r[rows]]) for a, r in
                             zip(vars(self.data).values(), vars(self.rescaled_data).values())))
        base, resc = np.split(_basis_stack(_chern_stack(both, both.E),
                                           _frame_torsion(both, both.E)), 2)
        e2f = np.exp(2 * self.value[rows])[:, None, None, None, None]
        return e2f * np.tensordot(w, resc, (-1, 1)) - np.tensordot(w, base, (-1, 1))


def delta_weights(params) -> np.ndarray:
    """Weights (-2p, -(1 - p), (1 - p)^2, s^2), p = t - t s, of the four
    `FactorAt.delta_parts` in the predicted curvature delta of D^t_s:
    shape (4,) for one (t, s) pair and (m, 4) for m pairs, as
    `canonical_weights` takes them."""
    t, s = _ts_pairs(params, "delta_weights")
    p = t - t * s
    r = 1 - p
    return np.stack([-2 * p, -r, r * r, s * s], axis=-1)


def _at_point(chart: MetricChart, f: ScalarField, points, frame=None) -> FactorAt:
    """The factor f on `chart` at the points: one fill of the base, then its
    `FactorAt`, in the points' Cholesky frames, or in the explicit `frame`
    of a one-point call."""
    return FactorAt(chart, [f], _metric_points(chart, points), frame)


def _rescaled_records(label: str, b: _MetricData, J: WJet2) -> _MetricData:
    """Records of the charts e^2f g at the points b.Z of the base record b,
    one block of len(b.Z) rows per factor, built in one `_fill`: J is the
    factors' jet at b.Z, block-major, and every row carries `label`.  Each
    component's jet is the tree walk's `Mul(Exp(Mul(Const(2), f)), g)` (see
    `rescale`), the scale jet (J * 2.0).exp() times the base record's packed
    jets (G, grad, hess) by `WJet2.__mul__`, so the record is the one a fill
    of the rescaled chart's trees gives.  As in that walk's `eval_jets`, a
    non-finite jet raises NonFinite naming its point."""
    k, (P, n) = len(J.value) // len(b.Z), b.Z.shape
    # The scale's parts as [factor, 1, 1, point, derivative axes] times the
    # base's as [i, j, point, derivative axes].
    scale = (J * 2.0).exp()
    S = WJet2(*(a.reshape((k, 1, 1, P) + a.shape[1:]) for a in vars(scale).values()))
    g = WJet2(*(np.moveaxis(a, (-2, -1), (0, 1)) for a in (b.G, b.grad, b.hess)))
    parts = list(vars(S * g).values())
    if not all(np.isfinite(a).all() for a in parts):
        # The walk checks each rescaled chart's components in turn.
        for q, i, j in np.ndindex(k, n, n):
            try:
                WJet2(*(a[q, i, j] for a in parts)).check_finite()
            except NonFinite as exc:
                raise NonFinite(f"{exc} at point {b.Z[exc.row]}") from None
    return _fill(label, np.tile(b.Z, (k, 1)),
                 *(np.moveaxis(a, (1, 2), (-2, -1)).reshape((k * P,) + a.shape[4:] + (n, n))
                   for a in parts))


def frame_gradient(chart: MetricChart, f: ScalarField, z, frame=None):
    """(f_a, f_abar) = frame components of df on `chart`: f_a = e_a f,
    f_abar = ebar_a f."""
    F = _at_point(chart, f, [z], frame)
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
    H1, H2 = _at_point(chart, f, [z], frame).hessians(t)
    return H1[0], H2[0]


def commutation_residual(chart: MetricChart, f: ScalarField, t: float, z) -> float:
    """Max-norm residual over (j, k) of the commutation rule
    f_{jbar k} - f_{k jbar} = (1 - t)(f_rbar T^j_rk - f_r conj(T^k_rj))."""
    return float(_at_point(chart, f, [z]).commutation_residuals(t)[0])


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
    D = _at_point(pair.base, pair.f, [z], frame).delta_predicted(pr)[0]
    return Curv4(D, connection=f"delta canonical(t={pr.t:g}, s={pr.s:g})")


def delta_gauduchon_predicted(pair: ConformalPair, t: float, z, frame=None) -> Curv4:
    """Predicted e^2f Rtilde^t - R^t for the Gauduchon connection nab^t
    (the s = 0 case of the canonical delta, verbatim)."""
    C = delta_canonical_predicted(pair, (t, 0.0), z, frame)
    C.connection = f"delta gauduchon(t={t:g})"
    return C


def delta_direct(pair: ConformalPair, params, z) -> Curv4:
    """Measured e^2f Rtilde^D - R^D in paired frames; the base side is the
    base's Cholesky-frame curvature from its one-point fill."""
    pr = as_params(params)
    return Curv4(pair.at([z]).delta_direct(pr)[0],
                 connection=f"delta direct(t={pr.t:g}, s={pr.s:g})")


def delta_kahler_predicted(pair: ConformalPair, params, z) -> Curv4:
    """Predicted symmetrized delta e^2f Rhat-tilde^D - Rhat^D over a Kahler
    base:

      -(f_{i lbar} d_jk + f_{k lbar} d_ij + f_{i jbar} d_kl + f_{k jbar} d_il)/2
      + C/4 (f_i f_jbar d_kl + f_k f_jbar d_il + f_i f_lbar d_kj
             + f_k f_lbar d_ij)
      - C/2 f_r f_rbar (d_kl d_ij + d_jk d_il),   C = (p-1)^2 + s^2,

    the row of `FactorAt.delta_symmetrized` at z.  Raises BaseNotKahler when
    the base torsion at z exceeds 1e-10.
    """
    pr = as_params(params)
    at = _at_point(pair.base, pair.f, [z])
    tors = float(np.max(np.abs(at.T)))
    if tors > KAHLER_TOL:
        raise BaseNotKahler(f"base chart {pair.base.label} has torsion "
                            f"{tors:.2e} at {at.data.Z[0]}")
    return Curv4(at.delta_symmetrized(pr)[0],
                 connection=f"delta kahler sym(t={pr.t:g}, s={pr.s:g})")


def delta_direct_symmetrized(pair: ConformalPair, params, z) -> Curv4:
    """Measured e^2f sym(Rtilde^D) - sym(R^D) in paired frames, the base side
    from the base's Cholesky-frame curvature."""
    C = symmetrize(delta_direct(pair, params, z))
    C.connection = "delta direct sym"
    return C
