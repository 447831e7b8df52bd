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

from .errors import DomainError, NonFinite, NotPositiveDefinite
from .wjet import WJet2, as_point, eval_jets

HERMITIAN_TOL = 1e-9
FRAME_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class ConnectionParams:
    """Parameter pair (t, s) of the canonical connection D^t_s.

    s = 0 is the Gauduchon line; (t, s) = (1, 0), (-1, 0), (0, 0) are the
    Chern, Strominger and Lichnerowicz connections, s = 1 is Levi-Civita.
    p is always derived, never stored.
    """

    t: float
    s: float = 0.0

    @property
    def p(self) -> float:
        return self.t - self.t * self.s


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
    basis: np.ndarray | None = None   # curvature.canonical_basis in the frame E


def _stack(pds) -> _PointData:
    """Several points' metric data in one record, every array with a leading
    point axis; the batched tensor code takes this form.  One point's record
    is a view of its arrays."""
    names = ("G", "dG", "dbarG", "ddG", "ddbarG", "dbardbarG", "ginv", "E")
    if len(pds) == 1:
        return _PointData(*(getattr(pds[0], name)[None] for name in names))
    return _PointData(*(np.stack([getattr(pd, name) for pd in pds]) for name in names))


def _as_key(z) -> tuple:
    """Store key of a point.  A 1-D complex array is taken as it is; the
    store's batch fill checks its size and finiteness."""
    if isinstance(z, np.ndarray) and z.ndim == 1 and z.size and z.dtype == complex:
        return tuple(z.tolist())
    return tuple(complex(c) for c in as_point(z))


# Points kept per chart; the least recently used point goes first.
POINT_STORE_SIZE = 2048
# chart -> {point key: _PointData}.  Weak keys: a chart's points go with it.
_STORE: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _metric_points(chart: MetricChart, points) -> list[_PointData]:
    """Point data of `chart` at each point, from the chart's store.

    All misses are evaluated in one batch walk over the chart's component
    trees and checked point by point.  If any point fails (outside the
    domain, at an expression guard, not Hermitian positive definite), the
    error is raised and nothing of the batch is stored."""
    keys = [_as_key(z) for z in points]
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


def _frame_E(frame) -> np.ndarray:
    """Matrix of an explicit frame: a FrameAtPoint or the matrix itself."""
    return frame.E if isinstance(frame, FrameAtPoint) else np.asarray(frame, dtype=complex)


def _point(chart: MetricChart, z, frame=None) -> tuple[_PointData, np.ndarray]:
    """Point data of `chart` at z, from one store lookup, and the matrix of
    `frame` there: the point's Cholesky frame when frame is None."""
    pd = _metric_points(chart, [z])[0]
    return pd, pd.E if frame is None else _frame_E(frame)


def _point_batch(chart: MetricChart, keys) -> list[_PointData]:
    for key in keys:
        if len(key) != chart.n:
            raise DomainError(f"point of dim {len(key)} on chart of dim {chart.n}")
    Z = np.array(keys, dtype=complex)
    if not np.all(np.isfinite(Z)):
        raise NonFinite("chart point has non-finite coordinates")
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
    parts = (G, dG, dbarG, ddG, ddbarG, dbardbarG, ginv, E)
    for a in parts:            # read-only, and so is each point's view of it
        a.setflags(write=False)
    return [_PointData(*views) for views in zip(*parts)]


def metric_jet(chart: MetricChart, z):
    """Jets of every g_{i jbar} at z, plus the inverse metric there.

    Returns (jets, ginv), read-only views of the cached point data, with
    jets[i][j] a WJet2 and ginv[k,j] = g^{k jbar}.  Raises
    NotPositiveDefinite if the value matrix fails the PD check."""
    pd, _ = _point(chart, z)
    parts = (pd.dG, pd.dbarG, pd.ddG, pd.ddbarG, pd.dbardbarG)
    jets = [[WJet2(complex(pd.G[i, j]), *(a[..., i, j] for a in parts))
             for j in range(chart.n)] for i in range(chart.n)]
    return jets, pd.ginv


def metric_values(chart: MetricChart, z) -> np.ndarray:
    """Value matrix G at a point, or G[p] at each point of a stack z[p]
    (one `_value` walk per component), without derivative propagation:
    the finite-difference oracles' metric."""
    Z = np.atleast_1d(np.asarray(z, dtype=complex))
    if not np.all(np.isfinite(Z)):
        raise NonFinite("chart point has non-finite coordinates")
    if chart.domain is not None:
        for pt in Z.reshape(-1, Z.shape[-1]):
            if not chart.domain(pt):
                raise DomainError(f"point {pt} outside domain of {chart.label}")
    G = np.array([[g._value(Z) for g in row] for row in chart.g], dtype=complex)
    return np.moveaxis(G, (0, 1), (-2, -1))


def unitary_frame(chart: MetricChart, z) -> FrameAtPoint:
    """Deterministic pointwise unitary frame from the Cholesky factor of G."""
    pd, E = _point(chart, z)
    return FrameAtPoint(E.copy(), pd.G.copy())


def _to_frame(X: np.ndarray, *mats: np.ndarray) -> np.ndarray:
    """Frame change out[..., a, b, ...] = sum X[..., i, j, ...] mats[0][..., i, a]
    mats[1][..., j, b] ..., one matrix per slot: E on unbarred lower slots,
    conj(E) on barred slots, inv(E)^T on upper slots.  Leading axes of the
    matrices (a point axis) are batch axes that X shares.  Each step is one
    matmul on the first slot that puts the new axis last, so a rank-r change
    costs r matmuls rather than one O(n^(2r)) sum."""
    for M in mats:
        lead = M.shape[:-2]
        X = (np.swapaxes(X.reshape(lead + (M.shape[-2], -1)), -1, -2) @ M).reshape(
            lead + X.shape[len(lead) + 1:] + M.shape[-1:])
    return X


def _frame_torsion(b: _PointData, E: np.ndarray) -> np.ndarray:
    """Chern torsion T[p, i, j, k] = T^i_jk of stacked points (see `_stack`)
    in the frames E[p], from the coordinate torsion of
    Gamma[k, i, j] = g^{k lbar} d_i g_{j lbar}; exactly antisymmetric in (j, k)."""
    P, n = b.ginv.shape[:2]
    Gamma = (b.ginv @ b.dG.reshape(P, n * n, n).transpose(0, 2, 1)).reshape(P, n, n, n)
    T = _to_frame(0.5 * (Gamma - Gamma.transpose(0, 1, 3, 2)),
                  np.linalg.inv(E).transpose(0, 2, 1), E, E)
    return 0.5 * (T - T.transpose(0, 1, 3, 2))


def _frame_torsion_dbar(b: _PointData, E: np.ndarray) -> np.ndarray:
    """TD[p, j, i, k, l] = T^j_{ik,lbar} of stacked points in the frames E[p].
    The Chern connection has no mixed coordinate Christoffel symbols, so in
    coordinates this is dbar_l of the torsion, transformed as a (1,3)-tensor."""
    P, n = b.ginv.shape[:2]
    ginv = b.ginv[:, None]
    # dbar_l g^{k qbar} = - g^{k bbar} (dbar_l g_{a bbar}) g^{a qbar}: dginv[p, l, k, q]
    dginv = -(ginv @ b.dbarG.transpose(0, 1, 3, 2) @ ginv)
    # dbar_l Gamma^k_ij = (dbar_l g^{k qbar}) d_i g_{j qbar} + g^{k qbar} d_i dbar_l g_{j qbar}
    dG = b.dG.reshape(P, n * n, n).transpose(0, 2, 1)
    dGamma = (dginv.reshape(P, n * n, n) @ dG).reshape(P, n, n, n, n).transpose(0, 2, 3, 4, 1) \
        + (b.ginv @ b.ddbarG.reshape(P, n ** 3, n).transpose(0, 2, 1)) \
        .reshape(P, n, n, n, n).transpose(0, 1, 2, 4, 3)
    TD = _to_frame(0.5 * (dGamma - dGamma.transpose(0, 1, 3, 2, 4)),
                   np.linalg.inv(E).transpose(0, 2, 1), E, E, E.conj())
    return 0.5 * (TD - TD.transpose(0, 1, 3, 2, 4))


def chern_torsion(chart: MetricChart, z, frame=None) -> np.ndarray:
    """Chern torsion coefficients T[i,j,k] = T^i_jk in the given unitary frame.

    Exactly antisymmetric in (j, k).  Defaults to the Cholesky frame.
    """
    pd, E = _point(chart, z, frame)
    return _frame_torsion(_stack([pd]), E[None])[0]


def torsion_cov_deriv(chart: MetricChart, z, frame=None) -> np.ndarray:
    """Chern-covariant dbar derivative TD[j, i, k, l] = T^j_{ik, lbar} of the
    torsion in the given unitary frame (see `_frame_torsion_dbar`)."""
    pd, E = _point(chart, z, frame)
    return _frame_torsion_dbar(_stack([pd]), E[None])[0]


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
