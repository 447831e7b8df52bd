"""The (t, s)-plane basis of the canonical curvature and the batched
constancy table, checked against the direct four-term formula, frame
rotations and the per-cell constancy evaluation."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

import gauduchon as gd
import gauduchon.connection as connection
from gauduchon.cli import SuiteConfig, hsc_payload, run_suite, scan_ts

from conftest import torsion_dbar_reference

ADM_SPEC = {"chart": "admissible", "n": 2, "a": 0.5,
            "multipliers": [[0.5, 0], [0.5, 0]],
            "A": [[[0.2, 0], [0, 0]], [[0, 0], [0.1, 0]]], "c0": 1.0}

CHARTS = {
    "hopf2": gd.hopf_chart(2),
    "hopf3": gd.hopf_chart(3),
    "admissible": gd.make_chart(ADM_SPEC),
}


def sample_point(chart, seed):
    return gd.sample_points(chart, 1, np.random.default_rng(seed))[0]


def random_unitary(rng, n):
    Q, _ = np.linalg.qr(rng.standard_normal((n, n))
                        + 1j * rng.standard_normal((n, n)))
    return Q


def direct_terms(chart, z):
    """The four weighted terms of R^{D^t_s}, each spelled out with its own
    einsums from one fill of z: R = R^C - B[1] + B[2] + B[3],
    B[1] = T^j_{ik,lbar} + conj(T^i_{jl,kbar}) with the torsion's dbar
    derivative from its coordinate formula (`torsion_dbar_reference`),
    B[2] = T^r_ik conj(T^r_jl) - T^j_rk conj(T^i_rl) and
    B[3] = conj(T^k_rj) T^l_ir."""
    b = connection._metric_points(chart, [z])
    RC = connection._chern_stack(b, b.E)[0]
    T = connection._frame_torsion(b, b.E)[0]
    TD = torsion_dbar_reference(connection._rows(b, 0))
    term1 = np.einsum("jikl->klij", TD) + np.einsum("ijlk->klij", np.conj(TD))
    term2 = np.einsum("rik,rjl->klij", T, np.conj(T)) \
        - np.einsum("jrk,irl->klij", T, np.conj(T))
    term3 = np.einsum("krj,lir->klij", np.conj(T), T)
    return RC - term1 + term2 + term3, term1, term2, term3


@settings(max_examples=40, deadline=None, database=None)
@given(name=st.sampled_from(sorted(CHARTS)),
       t=st.floats(-4.0, 4.0), s=st.floats(-3.0, 3.0),
       seed=st.integers(0, 2**32 - 1))
def test_canonical_curvature_matches_four_term_formula(name, t, s, seed):
    chart = CHARTS[name]
    z = sample_point(chart, seed)
    p = t - t * s
    weighted = [w * X for w, X in zip((1.0, p, p * p - 2 * p, s * s - 1),
                                      direct_terms(chart, z))]
    ref = weighted[0] + weighted[1] + weighted[2] + weighted[3]
    scale = max(1.0, max(float(np.max(np.abs(X))) for X in weighted))
    got = gd.canonical_curvature(chart, (t, s), z).R
    assert np.max(np.abs(got - ref)) <= 1e-12 * scale


def test_canonical_weights():
    np.testing.assert_array_equal(gd.canonical_weights((2.0, 0.5)),
                                  [1.0, 1.0, -1.0, -0.75])
    np.testing.assert_array_equal(gd.canonical_weights((3.0, 0.0)),
                                  [1.0, 3.0, 3.0, -1.0])


def weights_one_at_a_time(t, s):
    """The weights of one cell from Python floats, the scalar formula."""
    p = t - t * s
    return [1.0, p, p * p - 2 * p, s * s - 1]


@settings(max_examples=60, deadline=None, database=None)
@given(cells=st.lists(st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)), max_size=30))
def test_canonical_weights_of_many_cells_equal_per_cell_stacking(cells):
    """One call on m cells gives, bit for bit, the rows of m one-cell calls
    (pairs or ConnectionParams) and of the scalar formula, for a list and an
    (m, 2) array alike; no cells give a (0, 4) array."""
    W = gd.canonical_weights(cells)
    assert W.shape == (len(cells), 4) and W.dtype == float
    stacked = np.array([gd.canonical_weights(ts) for ts in cells]).reshape(-1, 4)
    np.testing.assert_array_equal(W, stacked)
    np.testing.assert_array_equal(W, np.array([weights_one_at_a_time(*ts) for ts in cells])
                                  .reshape(-1, 4))
    np.testing.assert_array_equal(gd.canonical_weights(np.array(cells).reshape(-1, 2)), W)
    for ts, row in zip(cells, W):
        assert gd.canonical_weights(ts).shape == (4,)
        np.testing.assert_array_equal(gd.canonical_weights(gd.ConnectionParams(*ts)), row)


def test_canonical_weights_refuse_what_is_not_a_pair():
    assert gd.canonical_weights([]).shape == (0, 4)
    for bad in ((1.0,), (1.0, 2.0, 3.0), [[1.0, 2.0, 3.0]], np.zeros((2, 2, 2))):
        with pytest.raises(gd.ConfigError):
            gd.canonical_weights(bad)


@pytest.mark.parametrize("seed", [0, 1])
def test_canonical_basis_at_n6_matches_four_term_formula(seed):
    """The matmul kernels at n = 6, where every slot has room: the Hopf
    chart's basis against the einsums of `direct_terms`."""
    chart = gd.hopf_chart(6)
    z = sample_point(chart, seed)
    B = gd.canonical_basis(chart, z)
    for X, ref in zip(B, direct_terms(chart, z)):
        assert np.max(np.abs(X - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))
    assert np.max(np.abs(B[3])) > 0.1       # the torsion terms are not trivially 0


def rotate_curv(R, Q):
    """R'[a,b,c,d] = R[k,l,i,j] Q[k,a] conj(Q[l,b]) Q[i,c] conj(Q[j,d])."""
    return np.einsum("klij,ka,lb,ic,jd->abcd", R, Q, Q.conj(), Q, Q.conj())


@settings(max_examples=30, deadline=None, database=None)
@given(name=st.sampled_from(sorted(CHARTS)), seed=st.integers(0, 2**32 - 1))
def test_torsion_and_basis_are_frame_covariant(name, seed):
    chart = CHARTS[name]
    rng = np.random.default_rng(seed)
    z = sample_point(chart, seed)
    fr = gd.unitary_frame(chart, z)
    Q = random_unitary(rng, chart.n)
    rot = fr.rotated(Q)

    T = gd.chern_torsion(chart, z, fr)
    T_pred = np.einsum("ck,kij,ia,jb->cab", Q.conj().T, T, Q, Q)
    T_rot = gd.chern_torsion(chart, z, rot)
    assert np.max(np.abs(T_rot - T_pred)) <= 1e-12 * max(1.0, np.max(np.abs(T)))

    B = gd.canonical_basis(chart, z, fr)
    B_rot = gd.canonical_basis(chart, z, rot)
    assert B.shape == B_rot.shape == (4,) + (chart.n,) * 4
    for X, X_rot in zip(B, B_rot):
        assert np.max(np.abs(X_rot - rotate_curv(X, Q))) \
            <= 1e-12 * max(1.0, np.max(np.abs(X)))


# ---------------------------------------------------------------------------
# the batched constancy table against the per-cell evaluation


def loop_constancy(C):
    """The per-tensor constancy estimate written out with explicit loops:
    c from the upper-triangle diagonal sums, residual as a max-norm."""
    Rh = gd.symmetrize(C).R
    n = Rh.shape[0]
    total = 0.0
    for i in range(n):
        for k in range(i, n):
            total += 2.0 * Rh[i, i, k, k].real / (1.0 + (i == k))
    c = 2.0 * total / (n * (n + 1))
    worst = 0.0
    for k, l, i, j in np.ndindex(Rh.shape):
        target = 0.5 * c * ((k == l) * (i == j) + (k == j) * (i == l))
        worst = max(worst, abs(Rh[k, l, i, j] - target))
    return c, worst


def test_constancy_residual_matches_loop_formula():
    rng = np.random.default_rng(4)
    for n in (1, 2, 3):
        R = rng.standard_normal((n,) * 4) + 1j * rng.standard_normal((n,) * 4)
        for X in (R, 0.5 * (R + np.conj(np.einsum("lkji->klij", R)))):
            c, res = gd.constancy_residual(X)
            c_ref, res_ref = loop_constancy(X)
            assert abs(c - c_ref) <= 1e-14 * max(1.0, abs(c_ref))
            assert abs(res - res_ref) <= 1e-14 * max(1.0, res_ref)


def per_cell(chart, cells, pts):
    """(c, residual) of every point at every (t, s) cell, each from its own
    canonical curvature, the cell's weights on the point's own
    `canonical_basis`: arrays c[cell, point] and residual[cell, point]."""
    bases = [gd.canonical_basis(chart, p) for p in pts]
    return np.moveaxis([[gd.constancy_residual(np.tensordot(gd.canonical_weights(ts), B, 1))
                         for B in bases] for ts in cells], -1, 0)


def test_constancy_table_matches_per_cell():
    chart = CHARTS["admissible"]
    pts = gd.sample_points(chart, 3, np.random.default_rng(5))
    cells = [(t, s) for t in (-2.0, -1.0, 0.5, 3.0, 4.0)
             for s in (-2.5, 0.0, 1.0, 2.0)]
    c, res = gd.constancy_table(chart, cells, pts)
    assert c.shape == res.shape == (len(cells), len(pts))
    c_ref, res_ref = per_cell(chart, cells, pts)
    np.testing.assert_allclose(c, c_ref, rtol=0, atol=1e-12)
    np.testing.assert_allclose(res, res_ref, rtol=0, atol=1e-12)


def test_constancy_table_edges():
    """No cells give empty arrays; no points is a typed error naming the
    empty point list."""
    chart = CHARTS["admissible"]
    pts = gd.sample_points(chart, 2, np.random.default_rng(6))
    c, res = gd.constancy_table(chart, [], pts)
    assert c.shape == res.shape == (0, 2)
    with pytest.raises(gd.ConfigError, match="point list is empty"):
        gd.constancy_table(chart, [(-1.0, 0.0)], [])


def test_scan_matches_per_cell():
    chart = gd.make_chart(ADM_SPEC)
    pts = gd.sample_points(chart, 3, np.random.default_rng(1))
    rows = scan_ts(ADM_SPEC, (-2.0, 4.0, 4), (-2.5, 2.5, 3), samples=3, seed=1)
    assert len(rows) == 12
    _, res_ref = per_cell(chart, [(t, s) for t, s, _, _ in rows], pts)
    for (t, s, worst, _), res in zip(rows, res_ref):
        assert abs(worst - max(res)) <= 1e-12


def test_suite_constancy_records_match_per_cell():
    grid = [(-1.0, 0.0), (0.0, 0.0), (-1.0, 2.0), (2.5, -1.5)]
    config = SuiteConfig.from_dict({"chart": ADM_SPEC, "params_grid": grid,
                                    "sample_count": 4, "seed": 3,
                                    "checks": ["constancy"]})
    report = run_suite(config)
    chart = gd.make_chart(ADM_SPEC)
    pts = gd.sample_points(chart, 4, np.random.default_rng(3))
    assert [r.params for r in report.records] == grid
    for rec, c_ref, res_ref in zip(report.records, *per_cell(chart, grid, pts)):
        assert abs(rec.value - float(np.mean(c_ref))) <= 1e-12
        assert abs(rec.residual_max - float(max(res_ref))) <= 1e-12
        assert rec.passed == bool(rec.residual_max <= rec.tolerance)


def test_hsc_payload_matches_per_cell():
    """`hsc` takes every point's (c, residual) from one constancy table;
    they are the per-point constancy of its canonical curvature."""
    chart = CHARTS["admissible"]
    pts = gd.sample_points(chart, 3, np.random.default_rng(8))
    payload = hsc_payload(ADM_SPEC, 0.5, 1.0, samples=3, seed=8)
    [c_ref], [res_ref] = per_cell(chart, [(0.5, 1.0)], pts)
    rows = payload["per_point"]
    assert [r["point"] for r in rows] == [[[v.real, v.imag] for v in p] for p in pts]
    np.testing.assert_allclose([r["c"] for r in rows], c_ref, rtol=0, atol=1e-12)
    np.testing.assert_allclose([r["residual"] for r in rows], res_ref, rtol=0, atol=1e-12)
    assert payload["c_mean"] == pytest.approx(np.mean(c_ref), rel=0, abs=1e-12)
    assert payload["c_spread"] == pytest.approx(np.ptp(c_ref), rel=0, abs=1e-12)
    assert payload["residual_max"] == pytest.approx(max(res_ref), rel=0, abs=1e-12)
