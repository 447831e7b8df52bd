"""The (t, s)-plane basis of the canonical curvature and the batched
constancy table, checked against the direct four-term formula, frame
rotations and the per-cell constancy evaluation."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

import gauduchon as gd
from gauduchon import cli
from gauduchon.cli import SuiteConfig, run_suite, scan_ts

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


def direct_terms(chart, z, frame=None):
    """The four weighted terms of R^{D^t_s}, each spelled out with its own
    einsums: R, T^j_{ik,lbar} + conj(T^i_{jl,kbar}), T^r_ik conj(T^r_jl)
    - T^j_rk conj(T^i_rl) and conj(T^k_rj) T^l_ir."""
    R = gd.lc_curvature(chart, z, frame).R
    T = gd.chern_torsion(chart, z, frame)
    TD = gd.torsion_cov_deriv(chart, z, frame)
    term1 = np.einsum("jikl->klij", TD) + np.einsum("ijlk->klij", np.conj(TD))
    term2 = np.einsum("rik,rjl->klij", T, np.conj(T)) \
        - np.einsum("jrk,irl->klij", T, np.conj(T))
    term3 = np.einsum("krj,lir->klij", np.conj(T), T)
    return R, term1, term2, term3


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


def per_cell(chart, params, pts):
    """(c, residual) of every point from its own canonical curvature."""
    return np.array([gd.constancy_residual(gd.canonical_curvature(chart, params, p))
                     for p in pts]).T


def test_constancy_table_matches_per_cell():
    chart = CHARTS["admissible"]
    pts = gd.sample_points(chart, 3, np.random.default_rng(5))
    cells = [(t, s) for t in (-2.0, -1.0, 0.5, 3.0, 4.0)
             for s in (-2.5, 0.0, 1.0, 2.0)]
    c, res = gd.constancy_table(chart, cells, pts)
    assert c.shape == res.shape == (len(cells), len(pts))
    for row, params in enumerate(cells):
        c_ref, res_ref = per_cell(chart, params, pts)
        np.testing.assert_allclose(c[row], c_ref, rtol=0, atol=1e-12)
        np.testing.assert_allclose(res[row], res_ref, rtol=0, atol=1e-12)


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
    for t, s, worst, _ in rows:
        assert abs(worst - max(per_cell(chart, (t, s), pts)[1])) <= 1e-12


def test_suite_constancy_records_match_per_cell():
    grid = [(-1.0, 0.0), (0.0, 0.0), (-1.0, 2.0), (2.5, -1.5)]
    config = SuiteConfig.from_dict({"chart": ADM_SPEC, "params_grid": grid,
                                    "sample_count": 4, "seed": 3,
                                    "checks": ["constancy"]})
    report = run_suite(config)
    chart = gd.make_chart(ADM_SPEC)
    pts = gd.sample_points(chart, 4, np.random.default_rng(3))
    assert [r.params for r in report.records] == grid
    for rec in report.records:
        c_ref, res_ref = per_cell(chart, rec.params, pts)
        assert abs(rec.value - float(np.mean(c_ref))) <= 1e-12
        assert abs(rec.residual_max - float(max(res_ref))) <= 1e-12
        assert rec.passed == bool(rec.residual_max <= rec.tolerance)


def test_suite_gauduchon_family_matches_gauduchon_curvature():
    """The suite forms nab^t at every HERMITIAN_T from one basis per point;
    each tensor is exactly the one `gauduchon_curvature` returns."""
    config = SuiteConfig.from_dict({"chart": ADM_SPEC, "sample_count": 3, "seed": 5})
    run = cli._Suite(config, CHARTS["admissible"])
    for p in run.pts:
        for t, R in zip(cli.HERMITIAN_T, run._gauduchon_family(p), strict=True):
            np.testing.assert_array_equal(R, gd.gauduchon_curvature(run.chart, t, p).R)


def test_hsc_report_matches_per_cell():
    chart = CHARTS["admissible"]
    pts = gd.sample_points(chart, 3, np.random.default_rng(8))
    rep = gd.hsc_report(chart, (3.0, 0.0), pts)
    c_ref, res_ref = per_cell(chart, (3.0, 0.0), pts)
    assert [r[1] for r in rep.rows] == pytest.approx(list(c_ref), abs=1e-12)
    assert [r[2] for r in rep.rows] == pytest.approx(list(res_ref), abs=1e-12)
    assert rep.residual_max == pytest.approx(max(res_ref), abs=1e-12)
