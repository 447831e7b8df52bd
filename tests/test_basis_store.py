"""The stored canonical basis: built once per point, batched over points,
bit-equal to a per-point build, read-only and held by the chart's store."""

import gc
import weakref
from collections import Counter

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

import gauduchon as gd
import gauduchon.cli as cli
import gauduchon.conformal as conformal
import gauduchon.connection as connection
import gauduchon.curvature as curvature
from gauduchon.cli import SuiteConfig, run_suite

ADM_SPEC = {"chart": "admissible", "n": 2, "a": 0.5,
            "multipliers": [[0.5, 0], [0.5, 0]],
            "A": [[[0.2, 0], [0, 0]], [[0, 0], [0.1, 0]]], "c0": 1.0}
SPECS = {"hopf2": {"chart": "hopf_standard", "n": 2},
         "hopf3": {"chart": "hopf_standard", "n": 3},
         "admissible": ADM_SPEC}


def to_frame(X, *mats):
    """One point's frame change, one 2-D matmul per slot."""
    for M in mats:
        X = (X.reshape(X.shape[0], -1).T @ M).reshape(X.shape[1:] + M.shape[1:])
    return X


def per_point_basis(pd):
    """One point's four basis tensors from its metric data in plain 2-D
    numpy: the operations of the batched build, point by point."""
    n = pd.G.shape[0]
    N = 2 * n
    M = np.zeros((N, N), dtype=complex)
    dM = np.zeros((N, N, N), dtype=complex)
    ddM = np.zeros((N, N, N, N), dtype=complex)
    M[:n, n:] = pd.G
    dM[:, :n, n:] = np.concatenate([pd.dG, pd.dbarG])
    ddM[:n, :n, :n, n:] = pd.ddG
    ddM[:n, n:, :n, n:] = pd.ddbarG
    ddM[n:, :n, :n, n:] = pd.ddbarG.transpose(1, 0, 2, 3)
    ddM[n:, n:, :n, n:] = pd.dbardbarG
    M = M + M.T
    dM = dM + dM.transpose(0, 2, 1)
    ddM = ddM + ddM.transpose(0, 1, 3, 2)
    Minv = np.linalg.inv(M)
    S = dM + dM.transpose(2, 1, 0) - dM.transpose(1, 0, 2)
    Sd = S.transpose(1, 0, 2).reshape(N, N * N)
    Gamma = 0.5 * (Minv @ Sd).reshape(N, N, N)
    dS = ddM + ddM.transpose(0, 3, 2, 1) - ddM.transpose(0, 2, 1, 3)
    dMinv = -(Minv @ dM @ Minv)
    dGamma = 0.5 * ((dMinv.reshape(N * N, N) @ Sd).reshape(N, N, N, N)
                    + (Minv @ dS.transpose(0, 2, 1, 3).reshape(N, N, N * N))
                    .reshape(N, N, N, N))
    GG = (Gamma.reshape(N * N, N) @ Gamma.reshape(N, N * N)).reshape(N, N, N, N)
    Rup = (np.einsum("cadb->abcd", dGamma) - np.einsum("dacb->abcd", dGamma)
           + GG.transpose(0, 3, 1, 2) - GG.transpose(0, 3, 2, 1))
    Riem = np.tensordot(Rup, M, axes=(0, 0)).transpose(1, 2, 0, 3)

    E = pd.E
    up = np.linalg.inv(E).T
    Gc = (pd.ginv @ pd.dG.reshape(n * n, n).T).reshape(n, n, n)
    T = to_frame(0.5 * (Gc - Gc.transpose(0, 2, 1)), up, E, E)
    T = 0.5 * (T - T.transpose(0, 2, 1))
    dginv = -(pd.ginv @ pd.dbarG.transpose(0, 2, 1) @ pd.ginv)
    dGc = (dginv.reshape(n * n, n) @ pd.dG.reshape(n * n, n).T) \
        .reshape(n, n, n, n).transpose(1, 2, 3, 0) \
        + (pd.ginv @ pd.ddbarG.reshape(n ** 3, n).T).reshape(n, n, n, n).transpose(0, 1, 3, 2)
    TD = to_frame(0.5 * (dGc - dGc.transpose(0, 2, 1, 3)), up, E, E, E.conj())
    TD = 0.5 * (TD - TD.transpose(0, 2, 1, 3))
    Tc = np.conj(T)
    return np.stack([
        to_frame(Riem[:n, n:, :n, n:], E, E.conj(), E, E.conj()),
        np.einsum("jikl->klij", TD) + np.einsum("ijlk->klij", np.conj(TD)),
        np.einsum("rik,rjl->klij", T, Tc) - np.einsum("jrk,irl->klij", T, Tc),
        np.einsum("krj,lir->klij", Tc, T)])


@settings(max_examples=25, deadline=None, database=None)
@given(name=st.sampled_from(sorted(SPECS)), count=st.integers(1, 5),
       seed=st.integers(0, 2**32 - 1))
def test_batched_bases_equal_per_point_build(name, count, seed):
    chart = gd.make_chart(SPECS[name])
    pts = gd.sample_points(chart, count, np.random.default_rng(seed))
    bases = gd.canonical_bases(chart, pts)
    pds = connection._metric_points(chart, [connection._as_key(p) for p in pts])
    for B, pd in zip(bases, pds, strict=True):
        np.testing.assert_array_equal(B, per_point_basis(pd))
    # an explicit frame is built from the same code, one point at a time
    fr = gd.unitary_frame(chart, pts[0])
    np.testing.assert_array_equal(gd.canonical_basis(chart, pts[0], fr), bases[0])


def test_stored_basis_is_read_only_and_reused():
    chart = gd.make_chart(ADM_SPEC)
    pts = gd.sample_points(chart, 3, np.random.default_rng(2))
    bases = gd.canonical_bases(chart, pts)
    for p, B in zip(pts, bases):
        assert not B.flags.writeable
        assert gd.canonical_basis(chart, p) is B
        with pytest.raises(ValueError):
            B[0, 0, 0, 0, 0] = 1.0
        lc = curvature._lc_point(chart, connection._as_key(p))
        assert not any(a.flags.writeable for a in (lc.Gamma, lc.Riem))


def test_stored_basis_goes_with_its_chart():
    chart = gd.hopf_chart(2)
    pts = gd.sample_points(chart, 2, np.random.default_rng(0))
    held = weakref.ref(gd.canonical_bases(chart, pts)[0].base)
    assert held() is not None
    del chart
    gc.collect()
    assert held() is None


def counting(monkeypatch):
    """Record the point records of every basis build, and whether it was
    in the stored Cholesky frames (E is None) or an explicit frame."""
    builds = []
    build = curvature._basis_stack

    def counted(pds, E=None):
        builds.append((list(pds), E is None))
        return build(pds, E)

    monkeypatch.setattr(curvature, "_basis_stack", counted)
    monkeypatch.setattr(conformal, "_basis_stack", counted)
    return builds


def test_stored_basis_respects_the_store_bound(monkeypatch):
    monkeypatch.setattr(connection, "POINT_STORE_SIZE", 3)
    builds = counting(monkeypatch)
    chart = gd.make_chart(ADM_SPEC)
    pts = gd.sample_points(chart, 5, np.random.default_rng(4))
    gd.canonical_bases(chart, pts)
    assert len(connection._STORE[chart]) == 3
    gd.canonical_bases(chart, pts[2:])          # still stored: no build
    assert [len(pds) for pds, _ in builds] == [5]
    gd.canonical_basis(chart, pts[0])           # evicted: built again
    assert [len(pds) for pds, _ in builds] == [5, 1]


def suite_adm2_config():
    """The bench's suite_adm2 config."""
    return SuiteConfig.from_dict({
        "chart": ADM_SPEC, "sample_count": 40,
        "params_grid": [[-1.0, 0.0], [3.0, 0.0], [-1.0, 2.0], [0.0, 3.0 ** 0.5]]})


def test_suite_builds_each_cholesky_basis_once(monkeypatch):
    """The bench's suite_adm2 config: every (chart, point) gets at most one
    Cholesky-frame basis; the rest are the rescaled-side explicit frames of
    `conformal_delta`, one batched pass per conformal pair over its 3
    points."""
    builds = counting(monkeypatch)
    assert run_suite(suite_adm2_config()).all_passed
    cholesky = [id(pd) for pds, stored in builds if stored for pd in pds]
    assert len(cholesky) == len(set(cholesky)) == 40
    assert [len(pds) for pds, stored in builds if not stored] == [3, 3]


def test_suite_walks_each_conformal_factor_once_per_check(monkeypatch):
    """The bench's suite_adm2 config: each conformal check takes one
    `eval_jets` walk per conformal factor over all of its points."""
    current = [None]
    for name, (tol, check) in list(cli.CHECKS.items()):
        def run_check(suite, name=name, check=check):
            current[0] = name
            return check(suite)
        monkeypatch.setitem(cli.CHECKS, name, (tol, run_check))
    walks, sizes = Counter(), set()
    walk = conformal.eval_jets

    def counted(fields, points):
        walks[current[0], tuple(map(id, fields))] += 1
        sizes.add((current[0], len(points)))
        return walk(fields, points)

    monkeypatch.setattr(conformal, "eval_jets", counted)
    assert run_suite(suite_adm2_config()).all_passed
    assert set(walks.values()) == {1}
    assert Counter(name for name, _ in walks) == {
        "conformal_torsion": 3, "commutation": 3, "conformal_delta": 2}
    assert sizes == {("conformal_torsion", 5), ("commutation", 5), ("conformal_delta", 3)}
