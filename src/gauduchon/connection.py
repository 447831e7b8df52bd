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

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DimensionError, DomainError, InvalidSpec, NonFinite, NotPositiveDefinite
from .wjet import WJet2, eval_jets

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
    definite on the domain.  `domain(Z)` takes a (P, n) stack of points and
    returns (P,) booleans, one per point, true inside; it is called once per
    stack, not once per point.  `sampler(rng) -> point` draws from the
    chart's safe sampling region.
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


@dataclass(frozen=True, eq=False)
class _MetricData:
    """Read-only metric data at stacked points, every array with a leading
    point axis.  The jets are packed over (z, zbar) as `_component_jets`
    stacks them: grad[p, a, i, j] = d_a g_{i jbar} and hess[p, a, b, i, j],
    exactly symmetric in (a, b); dG, ..., dbardbarG name its blocks as
    views, with or without the point axis.  E[p] is the point's Cholesky
    frame.  A fill's record, built whole in one pass and never written."""

    G: np.ndarray
    grad: np.ndarray
    hess: np.ndarray
    ginv: np.ndarray      # ginv[p,k,j] = g^{k jbar},  sum_j g_{i jbar} g^{k jbar} = delta_ik
    E: np.ndarray

    n = property(lambda self: self.G.shape[-1])
    dG = property(lambda self: self.grad[..., :self.n, :, :])
    dbarG = property(lambda self: self.grad[..., self.n:, :, :])
    ddG = property(lambda self: self.hess[..., :self.n, :self.n, :, :])
    ddbarG = property(lambda self: self.hess[..., :self.n, self.n:, :, :])
    dbardbarG = property(lambda self: self.hess[..., self.n:, self.n:, :, :])


def _metric_points(chart: MetricChart, points) -> _MetricData:
    """The fill: point data of `chart` at the points, one read-only record
    with a leading point axis, checked (`_check_points`), then filled
    (`_chart_fill`).  A failing point (outside the domain, at an expression
    guard, not Hermitian positive definite) raises its error.  Nothing is
    kept: each call fills afresh."""
    return _chart_fill(chart, _check_points(chart, points))


def _chart_fill(chart: MetricChart, Z: np.ndarray) -> _MetricData:
    """The fill of points Z that `_check_points` has passed: one walk
    (`_component_jets`), then the record (`_fill`)."""
    return _fill((chart.label,) * len(Z), Z, *_component_jets(chart, Z))


def _read_only(a: np.ndarray) -> np.ndarray:
    """a, made read-only in place."""
    a.setflags(write=False)
    return a


def _frame_E(frame) -> np.ndarray:
    """Matrix of an explicit frame: a FrameAtPoint or the matrix itself."""
    return frame.E if isinstance(frame, FrameAtPoint) else np.asarray(frame, dtype=complex)


def _point(chart: MetricChart, z, frame=None) -> tuple[_MetricData, np.ndarray]:
    """Point data of `chart` at z, a record of one point from a one-point
    fill, and the matrix of `frame` there with the same point axis: the
    point's Cholesky frame when frame is None."""
    b = _metric_points(chart, [z])
    return b, b.E if frame is None else _frame_E(frame)[None]


def _check_points(chart: MetricChart, points) -> np.ndarray:
    """The points, each a sequence of coordinates, as a (P, n) complex array,
    after checking that each is 1-D (DimensionError), has the chart's
    dimension and finite coordinates and lies in its domain (one call of
    `_outside`, naming the first point outside it)."""
    for z in points:
        if np.ndim(z) != 1:
            raise DimensionError(f"chart point must be a 1-D array, got shape {np.shape(z)}")
        if len(z) != chart.n:
            raise DomainError(f"point of dim {len(z)} on chart of dim {chart.n}")
    Z = np.array(points, dtype=complex).reshape(-1, chart.n)
    if not np.all(np.isfinite(Z)):
        raise NonFinite("chart point has non-finite coordinates")
    k = _outside(chart, Z)
    if k is not None:
        raise DomainError(f"point {Z[k]} outside domain of {chart.label}")
    return Z


def _outside(chart: MetricChart, Z: np.ndarray) -> int | None:
    """Index of the first of the points Z (P, n) outside the chart's domain,
    or None, from one call of `chart.domain` on the stack; a predicate that
    does not return one bool per point raises InvalidSpec."""
    if chart.domain is None:
        return None
    inside = np.asarray(chart.domain(Z))
    if inside.dtype != bool or inside.shape != Z.shape[:1]:
        raise InvalidSpec(f"domain of {chart.label} must return one bool per point: "
                          f"got {inside.dtype} of shape {inside.shape} for {len(Z)} points")
    bad = np.flatnonzero(~inside)
    return int(bad[0]) if bad.size else None


def _component_jets(chart: MetricChart, Z: np.ndarray) -> tuple:
    """The jet stage of a fill: the jets of every component g_{i jbar} at the
    checked points Z from one `eval_jets` walk, stacked as the packed parts
    (G, grad, hess) of `WJet2` with the point axis first and the component
    pair (i, j) last, as `_MetricData` keeps them.  It checks nothing of the
    metric: `_fill` does."""
    n = chart.n
    jets = eval_jets([chart.g[i][j] for i in range(n) for j in range(n)], Z)
    # Stack each part over the distinct component jets once, then spread it
    # to the n^2 components; `take` writes the spread C-contiguous, where
    # fancy indexing would leave the component axis strided for every reader.
    slot = {}
    spread = [slot.setdefault(id(J), len(slot)) for J in jets]
    distinct = list({id(J): J for J in jets}.values())
    return tuple(np.take(np.stack(part, axis=-1), spread, axis=-1).reshape(part[0].shape + (n, n))
                 for part in zip(*(vars(J).values() for J in distinct)))


def _fill(labels, Z: np.ndarray, G, grad, hess) -> _MetricData:
    """The array stage of a fill: from the packed jets (G, grad, hess) of the
    points Z, stacked as `_component_jets` stacks them, check each row
    Hermitian positive definite, build its inverse and Cholesky frame (no
    basis), and freeze the record, which keeps the packed jets as they are.
    Row p belongs to the chart labelled labels[p]; a failing row's error
    names that label and Z[p]."""
    n = G.shape[-1]
    GH = G.conj().transpose(0, 2, 1)
    herm_defect = np.max(np.abs(G - GH), axis=(1, 2))
    Gh = 0.5 * (G + GH)
    eig = np.linalg.eigvalsh(Gh)
    not_herm = herm_defect > HERMITIAN_TOL * np.maximum(1.0, np.max(np.abs(G), axis=(1, 2)))
    bad = np.flatnonzero(not_herm | (eig[:, 0] <= 0))
    if bad.size:
        p = bad[0]
        if not_herm[p]:
            raise NotPositiveDefinite(f"metric of {labels[p]} is not Hermitian at {Z[p]} "
                                      f"(defect {herm_defect[p]:.2e})")
        raise NotPositiveDefinite(
            f"metric of {labels[p]} has smallest eigenvalue {eig[p, 0]:.3e} at {Z[p]}")
    ginv = np.linalg.inv(G).transpose(0, 2, 1)
    L = np.linalg.cholesky(Gh)          # G = L L^H, deterministic, no pivoting
    # Unitarity of a (1,0) frame means g(e_a, ebar_b) = (E^T G conj(E))[a,b]
    # = delta_ab; conjugation sits on the barred slot.
    E = np.linalg.inv(L.transpose(0, 2, 1))
    defects = np.max(np.abs(E.transpose(0, 2, 1) @ G @ E.conj() - np.eye(n)), axis=(1, 2))
    bad = np.flatnonzero(~(defects < FRAME_TOL))
    if bad.size:
        p = bad[0]
        lam, top = eig[p, [0, -1]]
        raise NotPositiveDefinite(
            f"Cholesky frame of {labels[p]} at {Z[p]} has unitarity defect {defects[p]:.3e}"
            f" > {FRAME_TOL:g}: G is positive definite (smallest eigenvalue "
            f"{lam:.3e}) but ill-conditioned (cond(G) = {top / lam:.3e})")
    return _MetricData(*map(_read_only, (G, grad, hess, ginv, E)))   # and so its views


def _rows(b: _MetricData, index) -> _MetricData:
    """Rows `index` of a record, as views for a slice."""
    return _MetricData(*(a[index] for a in vars(b).values()))


def metric_jet(chart: MetricChart, z):
    """Jets of every g_{i jbar} at z, plus the inverse metric there.

    Returns (jets, ginv), read-only, from a one-point fill's record, with
    jets[i][j] a WJet2 and ginv[k,j] = g^{k jbar}.  Raises
    NotPositiveDefinite if the value matrix fails the PD check."""
    b, _ = _point(chart, z)
    jets = [[WJet2(complex(b.G[0, i, j]), b.grad[0, ..., i, j], b.hess[0, ..., i, j])
             for j in range(chart.n)] for i in range(chart.n)]
    return jets, b.ginv[0]


def metric_values(chart: MetricChart, z) -> np.ndarray:
    """Value matrix G at a point, or G[p] at each point of a stack z[p]
    (one `_value` walk per component), without derivative propagation:
    the finite-difference oracles' metric.  The points pass the fill's
    check (`_check_points`)."""
    Z = np.atleast_1d(np.asarray(z, dtype=complex))
    _check_points(chart, Z.reshape(-1, Z.shape[-1]))
    G = np.array([[g._value(Z) for g in row] for row in chart.g], dtype=complex)
    return np.moveaxis(G, (0, 1), (-2, -1))


def unitary_frame(chart: MetricChart, z) -> FrameAtPoint:
    """Deterministic pointwise unitary frame from the Cholesky factor of G."""
    b, E = _point(chart, z)
    return FrameAtPoint(E[0].copy(), b.G[0].copy())


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


def _frame_torsion(b: _MetricData, E: np.ndarray) -> np.ndarray:
    """Chern torsion T[p, i, j, k] = T^i_jk of stacked points in the frames
    E[p], from the coordinate torsion of
    Gamma[k, i, j] = g^{k lbar} d_i g_{j lbar}; exactly antisymmetric in (j, k)."""
    P, n = b.ginv.shape[:2]
    Gamma = (b.ginv @ b.dG.reshape(P, n * n, n).transpose(0, 2, 1)).reshape(P, n, n, n)
    T = _to_frame(0.5 * (Gamma - Gamma.transpose(0, 1, 3, 2)),
                  np.linalg.inv(E).transpose(0, 2, 1), E, E)
    return 0.5 * (T - T.transpose(0, 1, 3, 2))


def _chern_stack(b: _MetricData, E: np.ndarray) -> np.ndarray:
    """Chern curvature of stacked points in the frames E[p], from its
    coordinate formula R[p, k, l, i, j] = -d_k dbar_l g_{i jbar}
    + g^{a bbar} (d_k g_{i bbar}) (dbar_l g_{a jbar}): the quadratic term is
    two matmuls, over b and then over a."""
    P, n = b.ginv.shape[:2]
    X = b.dG.reshape(P, n * n, n) @ b.ginv.transpose(0, 2, 1)          # X[p, (k, i), a]
    Q = X @ b.dbarG.transpose(0, 2, 1, 3).reshape(P, n, n * n)           # Q[p, (k, i), (l, j)]
    R = -b.ddbarG + Q.reshape(P, n, n, n, n).transpose(0, 1, 3, 2, 4)
    return _to_frame(R, E, E.conj(), E, E.conj())


def _torsion_products(T: np.ndarray) -> np.ndarray:
    """N[p, a, b, c, d] = sum_r T^a_br conj(T^c_dr), one matmul over r: the
    basis's quadratic torsion terms and the q-line's X come from it."""
    P, n = T.shape[:2]
    last = T.reshape(P, n * n, n)                                        # [p, (a, b), r]
    return (last @ last.conj().transpose(0, 2, 1)).reshape(P, n, n, n, n)


def _basis_stack(RC: np.ndarray, T: np.ndarray) -> np.ndarray:
    """`curvature.canonical_basis` B[p] of stacked points from their Chern
    curvatures RC[p] and torsions T[p] in one unitary frame, with a leading
    point axis.  The torsion's dbar derivative is RC's by the first Bianchi
    identity (`torsion_cov_deriv`), so B[1] = RC - H and B[0] = H + B[2]
    + B[3], H[k, l, i, j] = (RC[i, l, k, j] + RC[k, j, i, l]) / 2."""
    P, n = T.shape[:2]
    H = 0.5 * (RC.swapaxes(-4, -2) + RC.swapaxes(-3, -1))
    # The quadratic terms are matmuls over the summed index r.  T is exactly
    # antisymmetric in its lower pair, so T^j_rk conj(T^i_rl) = T^j_kr
    # conj(T^i_lr) and conj(T^k_rj) T^l_ir = -conj(T^k_jr T^l_ir) exactly:
    # both come from N (`_torsion_products`).
    first = T.reshape(P, n, n * n)                                       # [p, r, (i, k)]
    A = (first.transpose(0, 2, 1) @ first.conj()).reshape(P, n, n, n, n)    # [p, i, k, j, l]
    N = _torsion_products(T)
    term2 = A.transpose(0, 2, 4, 1, 3) - N.transpose(0, 2, 4, 3, 1)
    term3 = -np.conj(N.transpose(0, 1, 3, 4, 2))
    return np.stack([H + term2 + term3, RC - H, term2, term3], axis=1)


def chern_torsion(chart: MetricChart, z, frame=None) -> np.ndarray:
    """Chern torsion coefficients T[i,j,k] = T^i_jk in the given unitary frame.

    Exactly antisymmetric in (j, k).  Defaults to the Cholesky frame.
    """
    return _frame_torsion(*_point(chart, z, frame))[0]


def torsion_cov_deriv(chart: MetricChart, z, frame=None) -> np.ndarray:
    """Chern-covariant dbar derivative TD[j, i, k, l] = T^j_{ik, lbar} of the
    torsion in the given unitary frame, from the Chern curvature alone by the
    Chern connection's first Bianchi identity, T^j_{ik, lbar} = (R^C_{k lbar
    i jbar} - R^C_{i lbar k jbar}) / 2: exactly antisymmetric in (i, k)."""
    RC = _chern_stack(*_point(chart, z, frame))[0]
    return np.einsum("klij->jikl", 0.5 * (RC - RC.swapaxes(0, 2)))


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
