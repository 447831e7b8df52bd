"""The conformal laws as weight rows: `FactorAt.delta_predicted` is the
`delta_weights` combination of four (t, s)-free parts, its symmetrized form
the `qline_weights` line of two of them, and the Hessians and the
commutation residuals come from parts built once.  The reference here is
the direct form the rows replaced, kept verbatim: the Hessians framed from
coordinates at each t, and the delta assembled at each (t, s) from about 15
einsums, the paper's five terms."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gauduchon as gd
import gauduchon.conformal as conformal
import gauduchon.connection as connection
from gauduchon.cli import _conformal_factors
from gauduchon.conformal import FactorAt, delta_weights
from gauduchon.curvature import _symmetrized
from gauduchon.connection import _to_frame, as_params
from gauduchon.errors import ConfigError

from test_rescaled_records import CATALOG


def reference_hessians(at, t: float):
    """`FactorAt.hessians` as it was: each t framed from coordinates."""
    jf, C, E = at.jet, at.C, at.E
    A = jf.ddbar - (1.0 - t) * np.einsum("pmlk,pm->pkl", C, jf.d)
    B = jf.ddbar.transpose(0, 2, 1) \
        - (1.0 - t) * np.einsum("pmkl,pm->plk", np.conj(C), jf.dbar)
    return _to_frame(A, E, E.conj()), _to_frame(B, E.conj(), E)


def reference_commutation(at, t: float) -> np.ndarray:
    H1, H2 = reference_hessians(at, t)
    rhs = (1.0 - t) * (np.einsum("pr,pjrk->pjk", at.frbar, at.T)
                       - np.einsum("pr,pkrj->pjk", at.fr, np.conj(at.T)))
    return np.max(np.abs(H2 - H1.transpose(0, 2, 1) - rhs), axis=(1, 2))


def reference_delta(at, params) -> np.ndarray:
    """`FactorAt.delta_predicted` as it was: the delta of one (t, s) pair."""
    pr = as_params(params)
    p, s = pr.p, pr.s
    T, fr, frbar, grad2 = at.T, at.fr, at.frbar, at.grad2
    Tc = np.conj(T)
    H1, _ = reference_hessians(at, p)
    eye = np.eye(at.chart.n)
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


def stacked_factors(spec: int, count: int, seed: int):
    """The three `_conformal_factors` of a catalog chart at `count` sampled
    points, as the suite stacks them."""
    chart = gd.make_chart(CATALOG[spec])
    pts = gd.sample_points(chart, count, np.random.default_rng(seed))
    return FactorAt(chart, _conformal_factors(chart.n), connection._metric_points(chart, pts))


def maxabs(x) -> float:
    return float(np.max(np.abs(x)))


CELL = st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))


@settings(max_examples=40, deadline=None, database=None)
@given(spec=st.sampled_from(range(len(CATALOG))), count=st.integers(1, 4),
       cells=st.lists(CELL, min_size=1, max_size=3), seed=st.integers(0, 2**32 - 1))
def test_weight_rows_equal_the_reference(spec, count, cells, seed):
    """Every (t, s) cell, weighed alone or with the others in one call,
    matches the reference within 1e-13 of max|D|; the Hessians and the
    commutation residuals of every t match it within 1e-13."""
    at = stacked_factors(spec, count, seed)
    many = at.delta_predicted(cells)
    ts = np.array([t for t, _ in cells])
    commutation = at.commutation_residuals(ts)
    assert many.shape == (len(cells),) + at.T.shape[:1] + (at.chart.n,) * 4
    for m, (t, s) in enumerate(cells):
        want = reference_delta(at, (t, s))
        bound = 1e-13 * max(maxabs(want), 1e-300)
        assert maxabs(many[m] - want) <= bound
        assert maxabs(at.delta_predicted((t, s)) - want) <= bound
        for got, ref in zip(at.hessians(t), reference_hessians(at, t), strict=True):
            assert maxabs(got - ref) <= 1e-13 * max(maxabs(ref), 1.0)
        ref = reference_commutation(at, t)
        assert maxabs(commutation[m] - ref) <= 1e-13
        assert maxabs(at.commutation_residuals(t) - ref) <= 1e-13


@settings(max_examples=20, deadline=None, database=None)
@given(spec=st.sampled_from(range(len(CATALOG))), count=st.integers(1, 4),
       seed=st.integers(0, 2**32 - 1))
def test_the_two_silent_terms_vanish(spec, count, seed):
    """The paper's 2p(1 - p) term less the Lichnerowicz share of -2p Y(H1),
    Y(V) + F with F = f_r conj(T^k_rl) d_ij, and the commutation part b
    vanish identically: in the frames V_{k lbar} = -f_r conj(T^k_rl), and b
    is the defect of the commutation rule.  So the delta has no part for
    the former, and a mutation of b alone is invisible to the suite; the
    mutation tests scale V and the torsion instead."""
    at = stacked_factors(spec, count, seed)
    U, V, _, _ = at.hessian_parts
    eye = np.eye(at.chart.n)
    silent = np.einsum("pkl,ij->pklij", V, eye) \
        + np.einsum("pr,pkrl,ij->pklij", at.fr, np.conj(at.T), eye)
    a, b = at.commutation_parts
    assert maxabs(silent) <= 1e-14 * max(maxabs(at.delta_parts), 1.0)
    assert maxabs(a) <= 1e-14 * max(maxabs(U), 1.0)
    assert maxabs(b) <= 1e-14 * max(maxabs(V), 1.0)


@settings(max_examples=40, deadline=None, database=None)
@given(spec=st.sampled_from(range(len(CATALOG))), count=st.integers(1, 4),
       cells=st.lists(CELL, min_size=1, max_size=3), seed=st.integers(0, 2**32 - 1))
def test_the_symmetrized_delta_is_a_qline(spec, count, cells, seed):
    """Symmetrized, the parts [Y(U), Z(U), Z(V) + Q, S] fold in pairs:
    sym Z(U) = 2 sym Y(U) bit for bit and sym(Z(V) + Q) = sym S, so on every
    base, torsion included, the weights (-2p, -(1 - p), (1 - p)^2, s^2)
    give the q-line sym(-2 Y(U)) + q sym S, which `delta_symmetrized`
    weighs, many cells in one call."""
    at = stacked_factors(spec, count, seed)
    sym = _symmetrized(at.delta_parts)
    scale = max(maxabs(at.delta_parts), 1.0)
    np.testing.assert_array_equal(sym[:, 1], 2 * sym[:, 0])
    assert maxabs(sym[:, 2] - sym[:, 3]) <= 1e-14 * scale
    many = at.delta_symmetrized(cells)
    want = _symmetrized(at.delta_predicted(cells))
    assert many.shape == want.shape
    assert maxabs(many - want) <= 1e-13 * max(maxabs(want), 1e-300)
    for m, cell in enumerate(cells):
        assert maxabs(at.delta_symmetrized(cell) - many[m]) <= 1e-13 * max(maxabs(many[m]),
                                                                          1e-300)


def test_delta_weights_take_pairs_as_canonical_weights_does():
    w = delta_weights((3.0, 0.5))
    p, q = 1.5, -0.5
    np.testing.assert_array_equal(w, [-2 * p, -q, q * q, 0.25])
    np.testing.assert_array_equal(delta_weights(gd.ConnectionParams(3.0, 0.5)), w)
    rows = delta_weights([(3.0, 0.5), (-1.0, 2.0)])
    assert rows.shape == (2, 4)
    np.testing.assert_array_equal(rows[0], w)
    assert delta_weights([]).shape == (0, 4)
    with pytest.raises(ConfigError, match="delta_weights"):
        delta_weights((1.0, 2.0, 3.0))


def test_kernel_calls_do_not_grow_with_the_cells(monkeypatch):
    """The einsum and `_to_frame` calls behind the delta (predicted and
    direct) and the commutation residuals are the same for 1 cell as for
    6: the cells only weigh parts built once."""
    calls = []
    einsum, to_frame = np.einsum, conformal._to_frame

    def counted(func):
        def call(*args, **kwargs):
            calls.append(func.__name__)
            return func(*args, **kwargs)
        return call

    monkeypatch.setattr(np, "einsum", counted(einsum))
    monkeypatch.setattr(conformal, "_to_frame", counted(to_frame))
    cells = [(1.0, 0.0), (3.0, 0.0), (-1.0, 2.0), (0.5, 0.5), (2.0, -1.0), (0.0, 1.0)]
    counts = []
    for m in (1, len(cells)):
        at = stacked_factors(6, 3, 1)
        calls.clear()
        at.delta_predicted(cells[:m])
        at.delta_direct(cells[:m])
        at.commutation_residuals(np.array([t for t, _ in cells[:m]]))
        counts.append(sorted(calls))
    assert counts[0] == counts[1] and "_to_frame" in counts[0] and "einsum" in counts[0]
