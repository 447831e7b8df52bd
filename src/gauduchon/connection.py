"""Metric charts, pointwise unitary frames, Chern torsion and related tensors.

A Hermitian metric on an open chart of C^n is given by the matrix of scalar
fields g[i][j] = g(d/dz_i, d/dzbar_j).  All tensors are computed in the
coordinate frame from metric jets and transformed pointwise into a unitary
frame, so frame derivatives never appear.

Torsion convention: the Chern connection has coordinate Christoffel symbols
Gamma^k_ij = g^{k lbar} d_i g_{j lbar} and torsion coefficients
T^k_ij = (Gamma^k_ij - Gamma^k_ji)/2, the coefficients of the torsion forms
tau^k = T^k_ij phi^i ^ phi^j with full (antisymmetrized) summation.  The
factor 1/2 is pinned by requiring the conformal transformation law
Ttilde^i_jk = e^-f (T^i_jk + f_j delta_ik - f_k delta_ij) to hold with
coefficient exactly 1.
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, NotPositiveDefinite
from .wjet import ScalarField, WJet2, as_point, eval_jets

HERMITIAN_TOL = 1e-9
FRAME_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class ConnectionParams:
    """Parameter pair (t, s) of the canonical connection D^t_s.

    s = 0 is the Gauduchon line; (t, s) = (1, 0), (-1, 0), (0, 0) are the
    Chern, Strominger and Lichnerowicz connections, s = 1 is Levi-Civita.
    p and b are always derived, never stored.
    """

    t: float
    s: float = 0.0

    @property
    def p(self) -> float:
        return self.t - self.t * self.s

    @property
    def b(self) -> float:
        return self.p**2 - 2 * self.p - 1 + self.s**2


def as_params(params) -> ConnectionParams:
    if isinstance(params, ConnectionParams):
        return params
    t, s = params
    return ConnectionParams(float(t), float(s))


@dataclass(frozen=True, eq=False)
class MetricChart:
    """Hermitian metric on an open chart of C^n.

    g is an n x n nested tuple of ScalarField with g[i][j] = g_{i jbar};
    it must be Hermitian (g[j][i] evaluates to conj(g[i][j])) and positive
    definite on the domain.  `sampler(rng) -> point` draws from the chart's
    safe sampling region.
    """

    n: int
    g: tuple
    label: str = "chart"
    domain: Callable[[np.ndarray], bool] | None = None
    sampler: Callable[[np.random.Generator], np.ndarray] | None = None

    def component(self, i: int, j: int) -> ScalarField:
        return self.g[i][j]

    def __repr__(self):
        return f"<MetricChart {self.label} n={self.n}>"


@dataclass(eq=False)
class FrameAtPoint:
    """Columns of E express unitary (1,0) frame vectors in the coordinate
    basis: e_a = sum_i E[i,a] d/dz_i.  G is the metric value matrix."""

    E: np.ndarray
    G: np.ndarray

    def rotated(self, U: np.ndarray) -> "FrameAtPoint":
        """Frame e'_a = sum_b e_b U[b,a] for unitary U."""
        return FrameAtPoint(self.E @ U, self.G)


@dataclass(eq=False)
class _PointData:
    """Read-only metric data at one point.  Each jet part is stacked once,
    derivative axes first and the component pair last: dG[a, i, j] =
    d_a g_{i jbar}, ddbarG[a, b, i, j] = d_a dbar_b g_{i jbar}, and so on."""

    G: np.ndarray
    dG: np.ndarray
    dbarG: np.ndarray
    ddG: np.ndarray
    ddbarG: np.ndarray
    dbardbarG: np.ndarray
    ginv: np.ndarray      # ginv[k,j] = g^{k jbar},  sum_j g_{i jbar} g^{k jbar} = delta_ik
    E: np.ndarray
    lc: object = None     # curvature._LCData, built on first use


def _freeze(data):
    """Make the array fields of a cached per-point record read-only."""
    for v in vars(data).values():
        if isinstance(v, np.ndarray):
            v.setflags(write=False)
    return data


def _as_key(z) -> tuple:
    return tuple(complex(c) for c in as_point(z))


# Points kept per chart; the least recently used point goes first.
POINT_STORE_SIZE = 2048
# chart -> {point key: _PointData}.  Weak keys: a chart's points go with it.
_STORE: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _metric_points(chart: MetricChart, keys) -> list[_PointData]:
    """Point data of `chart` at each point key, from the chart's store.

    All misses are evaluated in one batch walk over the chart's component
    trees and checked point by point.  If any point fails (outside the
    domain, at an expression guard, not Hermitian positive definite), the
    error is raised and nothing of the batch is stored."""
    store = _STORE.get(chart)
    if store is None:
        store = _STORE[chart] = OrderedDict()
    found = {}
    for key in keys:
        pd = store.get(key)
        if pd is not None:
            store.move_to_end(key)
        found[key] = pd
    missing = [key for key, pd in found.items() if pd is None]
    if missing:
        found.update(zip(missing, _point_batch(chart, missing)))
        for key in missing:
            store[key] = found[key]
        while len(store) > POINT_STORE_SIZE:
            store.popitem(last=False)
    return [found[key] for key in keys]


def _metric_point(chart: MetricChart, zkey: tuple) -> _PointData:
    store = _STORE.get(chart)
    pd = store.get(zkey) if store is not None else None
    if pd is None:
        return _metric_points(chart, [zkey])[0]
    store.move_to_end(zkey)
    return pd


def _point_batch(chart: MetricChart, keys) -> list[_PointData]:
    for key in keys:
        if len(key) != chart.n:
            raise DomainError(f"point of dim {len(key)} on chart of dim {chart.n}")
    Z = np.array(keys, dtype=complex)
    if chart.domain is not None:
        for z in Z:
            if not chart.domain(z):
                raise DomainError(f"point {z} outside domain of {chart.label}")
    n, P = chart.n, len(Z)
    jets = eval_jets([chart.g[i][j] for i in range(n) for j in range(n)], Z)
    # Stack each jet part over the components, component pair (i, j) last.
    G, dG, dbarG, ddG, ddbarG, dbardbarG = (
        np.stack([getattr(J, part) for J in jets], axis=-1).reshape(
            (P,) + getattr(jets[0], part).shape[1:] + (n, n))
        for part in ("value", "d", "dbar", "dd", "ddbar", "dbardbar"))
    GH = G.conj().transpose(0, 2, 1)
    herm_defect = np.max(np.abs(G - GH), axis=(1, 2))
    Gh = 0.5 * (G + GH)
    eigmin = np.linalg.eigvalsh(Gh).min(axis=1)
    for z, defect, scale, lam in zip(Z, herm_defect, np.max(np.abs(G), axis=(1, 2)),
                                     eigmin):
        if defect > HERMITIAN_TOL * max(1.0, scale):
            raise NotPositiveDefinite(
                f"metric of {chart.label} is not Hermitian at {z} (defect {defect:.2e})")
        if lam <= 0:
            raise NotPositiveDefinite(
                f"metric of {chart.label} has smallest eigenvalue {lam:.3e} at {z}")
    ginv = np.linalg.inv(G).transpose(0, 2, 1)
    L = np.linalg.cholesky(Gh)          # G = L L^H, deterministic, no pivoting
    # Unitarity of a (1,0) frame means g(e_a, ebar_b) = (E^T G conj(E))[a,b]
    # = delta_ab; conjugation sits on the barred slot.
    E = np.linalg.inv(L.transpose(0, 2, 1))
    defects = np.max(np.abs(E.transpose(0, 2, 1) @ G @ E.conj() - np.eye(n)), axis=(1, 2))
    for z, defect in zip(Z, defects):
        if not defect < FRAME_TOL:
            raise NotPositiveDefinite(
                f"Cholesky frame of {chart.label} at {z} has unitarity defect {defect:.3e}")
    return [_freeze(_PointData(*parts)) for parts in
            zip(G, dG, dbarG, ddG, ddbarG, dbardbarG, ginv, E)]


def metric_jet(chart: MetricChart, z):
    """Jets of every g_{i jbar} at z, plus the inverse metric there.

    Returns (jets, ginv), read-only views of the cached point data, with
    jets[i][j] a WJet2 and ginv[k,j] = g^{k jbar}.  Raises
    NotPositiveDefinite if the value matrix fails the PD check."""
    pd = _metric_point(chart, _as_key(z))
    parts = (pd.dG, pd.dbarG, pd.ddG, pd.ddbarG, pd.dbardbarG)
    jets = [[WJet2(complex(pd.G[i, j]), *(a[..., i, j] for a in parts))
             for j in range(chart.n)] for i in range(chart.n)]
    return jets, pd.ginv


def metric_values(chart: MetricChart, z) -> np.ndarray:
    """Value matrix G without derivative propagation (used by FD oracles)."""
    pt = as_point(z)
    if chart.domain is not None and not chart.domain(pt):
        raise DomainError(f"point {pt} outside domain of {chart.label}")
    n = chart.n
    return np.array([[chart.g[i][j]._value(pt) for j in range(n)] for i in range(n)],
                    dtype=complex)


def unitary_frame(chart: MetricChart, z) -> FrameAtPoint:
    """Deterministic pointwise unitary frame from the Cholesky factor of G."""
    pd = _metric_point(chart, _as_key(z))
    return FrameAtPoint(pd.E.copy(), pd.G.copy())


def _frame_matrix(chart: MetricChart, z, frame) -> np.ndarray:
    if frame is None:
        return _metric_point(chart, _as_key(z)).E
    if isinstance(frame, FrameAtPoint):
        return frame.E
    return np.asarray(frame, dtype=complex)


def _to_frame(X: np.ndarray, *mats: np.ndarray) -> np.ndarray:
    """Frame change out[a, b, ...] = sum X[i, j, ...] mats[0][i, a]
    mats[1][j, b] ..., one matrix per axis: E on unbarred lower slots,
    conj(E) on barred slots, inv(E)^T on upper slots.  Each step is one
    matmul on the leading axis that puts the new axis last, so a rank-r
    change costs r matmuls rather than one O(n^(2r)) sum."""
    for M in mats:
        X = (X.reshape(X.shape[0], -1).T @ M).reshape(X.shape[1:] + M.shape[1:])
    return X


def _coordinate_torsion(pd: _PointData) -> np.ndarray:
    """Coordinate torsion T^k_ij from Gamma[k, i, j] = g^{k lbar} d_i g_{j lbar}."""
    Gamma = np.einsum("kl,ijl->kij", pd.ginv, pd.dG)
    return 0.5 * (Gamma - Gamma.transpose(0, 2, 1))


def chern_torsion(chart: MetricChart, z, frame=None) -> np.ndarray:
    """Chern torsion coefficients T[i,j,k] = T^i_jk in the given unitary frame.

    Exactly antisymmetric in (j, k).  Defaults to the Cholesky frame.
    """
    E = _frame_matrix(chart, z, frame)
    T = _to_frame(_coordinate_torsion(_metric_point(chart, _as_key(z))),
                  np.linalg.inv(E).T, E, E)
    return 0.5 * (T - T.transpose(0, 2, 1))   # exact antisymmetry


def torsion_cov_deriv(chart: MetricChart, z, frame=None) -> np.ndarray:
    """Chern-covariant dbar derivative of the torsion.

    Returns TD[j, i, k, l] = T^j_{ik, lbar} in the given unitary frame.  In
    holomorphic coordinates the Chern connection has no mixed Christoffel
    symbols, so the coordinate components are plain dbar_l derivatives; the
    result is then frame-transformed as a (1,3)-tensor.
    """
    pd = _metric_point(chart, _as_key(z))
    # dbar_l g^{k qbar} = - g^{k bbar} (dbar_l g_{a bbar}) g^{a qbar}
    dginv = -np.einsum("kb,lab,aq->lkq", pd.ginv, pd.dbarG, pd.ginv)
    # dbar_l Gamma^k_ij = (dbar_l g^{k qbar}) d_i g_{j qbar} + g^{k qbar} d_i dbar_l g_{j qbar}
    dGamma = np.einsum("lkq,ijq->kijl", dginv, pd.dG) \
        + np.einsum("kq,iljq->kijl", pd.ginv, pd.ddbarG)
    TD_coord = 0.5 * (dGamma - dGamma.transpose(0, 2, 1, 3))
    E = _frame_matrix(chart, z, frame)
    TD = _to_frame(TD_coord, np.linalg.inv(E).T, E, E, E.conj())
    return 0.5 * (TD - TD.transpose(0, 2, 1, 3))


def gamma_theta2(chart: MetricChart, z, frame=None):
    """Coefficient arrays of the 1-forms gamma and theta_2 against the unitary
    coframe (phi^1..phi^n, phibar^1..phibar^n).

    gamma[j, i, k] (k < n) multiplies phi^k and equals T^j_ik;
    gamma[j, i, n + k] multiplies phibar^k and equals -conj(T^i_jk).
    theta2[j, i, k] multiplies phi^k and equals conj(T^k_ij); its phibar part
    vanishes on integrable charts.
    """
    T = chern_torsion(chart, z, frame)
    gamma = np.concatenate([T, -np.conj(T).transpose(1, 0, 2)], axis=2)
    theta2 = np.transpose(np.conj(T), (2, 1, 0))  # theta2[j,i,k] = conj(T[k,i,j])
    return gamma, theta2
