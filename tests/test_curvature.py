import numpy as np
import pytest

import gauduchon as gd
from gauduchon.curvature import Curv4, curv4_rows, lc_full, tensor_of
from gauduchon.errors import DimensionError, NotHermitian, ZeroVector

from conftest import pts_of

T_GRID = (-1.0, 0.0, 0.5, 1.0, 2.0, 3.0)


def maxabs(x):
    return float(np.max(np.abs(x)))


# ---------------------------------------------------------------------------
# chern_curvature


def test_chern_flat_exact_zero(flat):
    assert np.all(gd.chern_curvature(flat, [0.4, 0.1j]).R == 0)


def test_chern_equals_lc_on_kahler(fsb):
    for p in pts_of(fsb, 10, 1):
        d = maxabs(gd.chern_curvature(fsb, p).R - gd.lc_curvature(fsb, p).R)
        assert d < 1e-9


def test_chern_hopf_at_unit_point(hopf):
    # prediction from the conformal delta at t = 1 over the flat base:
    # R^c_{2 2bar i jbar} = delta_ij and all (k,l) = (1,1) components vanish
    R = gd.chern_curvature(hopf, [1, 0]).R
    np.testing.assert_allclose(R[1, 1], np.eye(2), atol=1e-12)
    assert maxabs(R[0, 0]) < 1e-12


def test_chern_hermitian_pair_symmetry(hopf, adm):
    for chart in (hopf, adm):
        for p in pts_of(chart, 10, 2):
            R = gd.chern_curvature(chart, p).R
            assert maxabs(R - np.conj(np.einsum("lkji->klij", R))) < 1e-10


# ---------------------------------------------------------------------------
# lc_curvature


def test_lc_flat_exact_zero(flat):
    assert np.all(gd.lc_curvature(flat, [0.2, 0.5]).R == 0)


def test_lc_fs_bergman_constants(fsb):
    for p in pts_of(fsb, 10, 3):
        R = gd.lc_curvature(fsb, p).R
        assert R[0, 0, 0, 0] == pytest.approx(-1.0, abs=1e-9)
        assert R[1, 1, 1, 1] == pytest.approx(1.0, abs=1e-9)
        other = R.copy()
        other[0, 0, 0, 0] = 0
        other[1, 1, 1, 1] = 0
        assert maxabs(other) < 1e-9


def test_lc_against_real_coordinate_oracle(hopf, fsb):
    for chart in (hopf, fsb):
        for p in pts_of(chart, 3, 4):
            d = maxabs(gd.lc_curvature(chart, p).R - gd.lc_curvature_fd(chart, p).R)
            assert d < 1e-5, chart.label


def _seed_lc(pd, n):
    """The Levi-Civita data by the original unoptimized einsum formulas:
    (Gamma, Riem, s_g) from the stacked metric jets of a point."""
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
    Gamma = 0.5 * np.einsum("ad,bdc->abc", Minv, S)
    dS = ddM + ddM.transpose(0, 3, 2, 1) - ddM.transpose(0, 2, 1, 3)
    dMinv = -np.einsum("ab,ebc,cd->ead", Minv, dM, Minv)
    dGamma = 0.5 * (np.einsum("ead,bdc->eabc", dMinv, S)
                    + np.einsum("ad,ebdc->eabc", Minv, dS))
    X = np.einsum("cadb->abcd", dGamma)
    Y = np.einsum("dacb->abcd", dGamma)
    P = np.einsum("ace,edb->abcd", Gamma, Gamma)
    Q = np.einsum("ade,ecb->abcd", Gamma, Gamma)
    Riem = np.einsum("abcd,af->cdbf", X - Y + P - Q, M)
    s_g = float(np.real(np.einsum("ac,bd,abdc->", Minv, Minv, Riem)))
    return Gamma, Riem, s_g


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
def test_lc_contractions_match_einsum_reference(n):
    from gauduchon.connection import _as_key, _metric_point
    from gauduchon.curvature import _lc_point

    spec = gd.hopf_spec(n, 0.5, A=np.diag(np.linspace(0.2, 0.05, n)))
    for chart in (gd.admissible_chart(spec), gd.fubini_study_chart(n)):
        for p in pts_of(chart, 2, n):
            key = _as_key(p)
            lc = _lc_point(chart, key)
            Gamma, Riem, s_g = _seed_lc(_metric_point(chart, key), n)
            scale = maxabs(Riem)
            assert maxabs(lc.Riem - Riem) <= 1e-13 * scale
            assert maxabs(lc.Gamma - Gamma) <= 1e-13 * maxabs(Gamma)
            assert abs(lc.s_g - s_g) <= 1e-13 * max(1.0, abs(s_g))


def test_lc_riemann_symmetries(hopf, adm):
    """Pair symmetry and first Bianchi of the full complexified tensor."""
    for chart in (hopf, adm):
        p = pts_of(chart, 1, 5)[0]
        R = lc_full(chart, p)
        assert maxabs(R - np.einsum("cdbf->bfcd", R)) < 1e-9
        assert maxabs(R + np.einsum("abcd->abdc", R)) < 1e-12
        bianchi = R + np.einsum("bcad->abcd", R) + np.einsum("cabd->abcd", R)
        assert maxabs(bianchi) < 1e-9


def test_scalar_curvature_values(flat, hopf, fs, chyp, fsb):
    assert gd.scalar_curvature(flat, [0.1, 0.2]) == pytest.approx(0.0, abs=1e-12)
    # standard Hopf: s_g = 3 everywhere (measured; constant by homogeneity)
    for p in pts_of(hopf, 5, 6):
        assert gd.scalar_curvature(hopf, p) == pytest.approx(3.0, abs=1e-10)
    p = [0.3 + 0.1j, -0.2 + 0.4j]
    assert gd.scalar_curvature(fs, p) == pytest.approx(12.0, abs=1e-9)
    assert gd.scalar_curvature(chyp, p) == pytest.approx(-12.0, abs=1e-9)
    assert gd.scalar_curvature(fsb, p) == pytest.approx(0.0, abs=1e-9)


def test_scalar_curvature_fd_oracle(hopf, fsb):
    for chart in (hopf, fsb):
        p = pts_of(chart, 1, 7)[0]
        assert abs(gd.scalar_curvature(chart, p)
                   - gd.scalar_curvature_fd(chart, p)) < 1e-5


# ---------------------------------------------------------------------------
# gauduchon / canonical families


def test_gauduchon_t1_is_chern(catalog_charts):
    for chart in catalog_charts:
        for p in pts_of(chart, 10, 8):
            d = maxabs(gd.gauduchon_curvature(chart, 1.0, p).R
                       - gd.chern_curvature(chart, p).R)
            assert d < 1e-9, chart.label


def test_gauduchon_strominger_flat_on_hopf(hopf):
    for p in pts_of(hopf, 20, 9):
        assert maxabs(gd.gauduchon_curvature(hopf, -1.0, p).R) < 1e-9


def test_gauduchon_hopf_t3_pinned_components(hopf):
    R = gd.gauduchon_curvature(hopf, 3.0, [0, 1]).R
    assert R[0, 0, 1, 1] == pytest.approx(4.0, abs=1e-10)
    assert R[1, 1, 0, 0] == pytest.approx(0.0, abs=1e-10)
    assert R[0, 1, 0, 1] == pytest.approx(0.0, abs=1e-10)


def test_canonical_interpolation(catalog_charts):
    for chart in catalog_charts:
        for p in pts_of(chart, 5, 10):
            Rlc = gd.lc_curvature(chart, p).R
            for t in T_GRID:
                d0 = maxabs(gd.canonical_curvature(chart, (t, 0.0), p).R
                            - gd.gauduchon_curvature(chart, t, p).R)
                d1 = maxabs(gd.canonical_curvature(chart, (t, 1.0), p).R - Rlc)
                assert d0 < 1e-10 and d1 < 1e-10, chart.label


def test_kahler_families_collapse(kahler_charts):
    for chart in kahler_charts:
        for p in pts_of(chart, 5, 12):
            Rlc = gd.lc_curvature(chart, p).R
            for ts in [(-1, 0), (0, 0), (3, 0), (2, 1), (0.5, -0.5)]:
                d = maxabs(gd.canonical_curvature(chart, ts, p).R - Rlc)
                assert d < 1e-9, chart.label


def test_hermitian_symmetry_gauduchon_family(hopf, adm):
    for chart in (hopf, adm):
        for p in pts_of(chart, 10, 13):
            for t in (-1.0, 0.0, 1.0, 3.0):
                R = gd.gauduchon_curvature(chart, t, p).R
                assert maxabs(R - np.conj(np.einsum("lkji->klij", R))) < 1e-10


# ---------------------------------------------------------------------------
# symmetrize


def test_symmetrize_fixed_point():
    eye = np.eye(2)
    c = 1.7
    R = 0.5 * c * (np.einsum("kl,ij->klij", eye, eye)
                   + np.einsum("kj,il->klij", eye, eye)).astype(complex)
    np.testing.assert_allclose(gd.symmetrize(R).R, R, atol=1e-15)


def test_symmetrize_hopf_t3_entry():
    # Rhat_{1 1bar 2 2bar} = (4 + (-2) + (-2) + 0)/4 = 0 at z = (0, 1)
    C = gd.hopf_t3_reference([0, 1])
    R = C.R
    perm_sum = R[0, 0, 1, 1] + R[1, 0, 0, 1] + R[0, 1, 1, 0] + R[1, 1, 0, 0]
    assert R[0, 0, 1, 1] == pytest.approx(4.0)
    assert R[1, 0, 0, 1] == pytest.approx(-2.0)
    assert R[0, 1, 1, 0] == pytest.approx(-2.0)
    assert perm_sum == pytest.approx(0.0, abs=1e-14)
    assert gd.symmetrize(C).R[0, 0, 1, 1] == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize("seed", range(5))
def test_symmetrize_idempotent(seed):
    rng = np.random.default_rng(700 + seed)
    R = rng.standard_normal((2, 2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2, 2))
    once = gd.symmetrize(R).R
    twice = gd.symmetrize(once).R
    np.testing.assert_allclose(once, twice, atol=1e-15)


def test_symmetrize_output_symmetries(hopf):
    Rh = gd.symmetrize(gd.gauduchon_curvature(hopf, 3.0, [0.7, 0.2])).R
    np.testing.assert_array_equal(Rh, np.einsum("ilkj->ijkl", Rh))
    np.testing.assert_array_equal(Rh, np.einsum("kjil->ijkl", Rh))


# ---------------------------------------------------------------------------
# hsc / constancy


def test_hsc_flat_zero(flat):
    C = gd.lc_curvature(flat, [0.3, 0.4])
    assert gd.hsc(C, [1, 2j]) == 0.0


def test_hsc_scale_invariance(hopf):
    C = gd.gauduchon_curvature(hopf, 3.0, [0.8, 0.1])
    eta = np.array([0.3 + 1j, -0.7])
    assert gd.hsc(C, eta) == pytest.approx(gd.hsc(C, 2 * eta), rel=1e-12)


def test_hsc_zero_vector_raises(flat):
    with pytest.raises(ZeroVector):
        gd.hsc(gd.lc_curvature(flat, [0.3, 0.4]), [0, 0])


def test_hsc_non_hermitian_tensor_raises():
    rng = np.random.default_rng(11)
    R = rng.standard_normal((2,) * 4) + 1j * rng.standard_normal((2,) * 4)
    with pytest.raises(NotHermitian):
        gd.hsc(R, [1.0, 0.5j])


def test_hsc_admissible_reference_value(adm, adm_spec):
    C = gd.canonical_curvature(adm, (-1.0, 0.0), [1, 0])
    for eta in ([1, 0], [0, 1], [1, 1j], [0.3, -0.8 + 0.1j]):
        assert gd.hsc(C, eta) == pytest.approx(-0.4, abs=1e-10)


def test_hsc_equals_hsc_of_symmetrization(hopf):
    rng = np.random.default_rng(14)
    for p in pts_of(hopf, 3, 15):
        C = gd.canonical_curvature(hopf, (2.0, 0.7), p)
        S = gd.symmetrize(C)
        for _ in range(5):
            eta = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            assert abs(gd.hsc(C, eta) - gd.hsc(S, eta)) < 1e-10


def test_constancy_flat(flat):
    c, res = gd.constancy_residual(gd.lc_curvature(flat, [0.1, 0.2]))
    assert c == 0.0 and res == 0.0


def test_constancy_hopf_t3(hopf):
    for p in pts_of(hopf, 100, 16):
        c, res = gd.constancy_residual(gd.gauduchon_curvature(hopf, 3.0, p))
        assert res < 1e-8
        assert abs(c) < 1e-8


def test_constancy_hopf_lichnerowicz_fails(hopf):
    worst = max(gd.constancy_residual(gd.gauduchon_curvature(hopf, 0.0, p))[1]
                for p in pts_of(hopf, 20, 17))
    assert worst > 1e-2


def test_constancy_frame_independent(hopf):
    rng = np.random.default_rng(18)
    for p in pts_of(hopf, 5, 19):
        fr = gd.unitary_frame(hopf, p)
        Q, _ = np.linalg.qr(rng.standard_normal((2, 2))
                            + 1j * rng.standard_normal((2, 2)))
        c1, r1 = gd.constancy_residual(gd.gauduchon_curvature(hopf, 3.0, p, fr))
        c2, r2 = gd.constancy_residual(
            gd.gauduchon_curvature(hopf, 3.0, p, fr.rotated(Q)))
        assert abs(c1 - c2) < 1e-9 and abs(r1 - r2) < 1e-9


# ---------------------------------------------------------------------------
# self-duality and W_-


def test_selfdual_flat(flat):
    assert gd.selfdual_residual(flat, [0.5, 0.1]) == (0.0, 0.0, 0.0)


def test_selfdual_fs_bergman(fsb):
    for p in pts_of(fsb, 50, 20):
        assert max(gd.selfdual_residual(fsb, p)) < 1e-8


def test_selfdual_fails_off_list(non_selfdual):
    worst = max(max(gd.selfdual_residual(non_selfdual, p))
                for p in pts_of(non_selfdual, 10, 21))
    assert worst > 1e-3


def test_selfdual_dimension_guard():
    with pytest.raises(DimensionError):
        gd.selfdual_residual(gd.euclidean_chart(3), [0.1, 0.2, 0.3])
    with pytest.raises(DimensionError):
        gd.weyl_minus(gd.euclidean_chart(3), [0.1, 0.2, 0.3])


def test_weyl_minus_flat(flat):
    np.testing.assert_array_equal(gd.weyl_minus(flat, [0.2, 0.9]), np.zeros((3, 3)))


def test_weyl_minus_fubini_study(fs):
    for p in pts_of(fs, 10, 22):
        assert np.linalg.norm(gd.weyl_minus(fs, p), 2) < 1e-8


def test_weyl_minus_hermitian_and_tracefree(non_selfdual):
    """tr W_- = 0 and W_- Hermitian even when W_- != 0: a sharp pin on the
    scalar-curvature normalization of the Weyl operator."""
    for p in pts_of(non_selfdual, 5, 23):
        W = gd.weyl_minus(non_selfdual, p)
        assert np.linalg.norm(W, 2) > 1e-3
        assert abs(np.trace(W)) < 1e-9
        assert maxabs(W - W.conj().T) < 1e-9


def _perm_sign(p):
    sign, p = 1, list(p)
    for i in range(len(p)):
        while p[i] != i:
            j = p[i]
            p[i], p[j] = p[j], p[i]
            sign = -sign
    return sign


def test_weyl_minus_matches_operator_construction(non_selfdual, fs):
    """Independent route to W_-: real oriented orthonormal frame
    (X1, JX1, X2, JX2), explicit Hodge star on the 6 bivectors, operator
    (curv_op + star curv_op star)/2 - s/12, projected by (1 - star)/2.
    Eigenvalues must match the 3x3 Gram matrix (plus a 3-dim kernel)."""
    for chart, p in ((non_selfdual, [0.4 + 0.2j, -0.3 + 0.5j]),
                     (fs, [0.5, 0.2 - 0.3j])):
        E = gd.unitary_frame(chart, p).E
        Rfull = lc_full(chart, p)
        rt2 = np.sqrt(2.0)
        vecs = []
        for a in range(2):
            x = np.zeros(4, complex)
            x[:2], x[2:] = E[:, a] / rt2, np.conj(E[:, a]) / rt2
            y = np.zeros(4, complex)
            y[:2], y[2:] = 1j * E[:, a] / rt2, -1j * np.conj(E[:, a]) / rt2
            vecs += [x, y]                      # order (X1, Y1, X2, Y2)

        def R4(a, b, c, d):
            return np.einsum("p,q,r,s,pqrs->", vecs[a], vecs[b],
                             vecs[c], vecs[d], Rfull)

        pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        M = np.array([[-R4(*ab, *cd) for cd in pairs] for ab in pairs])
        assert maxabs(M.imag) < 1e-10           # honest real bivector Gram
        M = M.real
        np.testing.assert_allclose(M, M.T, atol=1e-9)
        star = np.zeros((6, 6))
        for i, (a, b) in enumerate(pairs):
            c, d = [x for x in range(4) if x not in (a, b)]
            star[pairs.index((c, d)), i] = _perm_sign((a, b, c, d))
        # the paper's basis of Lambda^2_- is anti-self-dual in this
        # orientation: check *u1 = -u1 for u1 = e1 ^ ebar2
        u1 = np.zeros(6, complex)
        u1[pairs.index((0, 2))] = 0.5
        u1[pairs.index((0, 3))] = -0.5j
        u1[pairs.index((1, 2))] = 0.5j
        u1[pairs.index((1, 3))] = 0.5
        np.testing.assert_allclose(star @ u1, -u1, atol=1e-14)

        s_g = gd.scalar_curvature(chart, p)
        Wop = 0.5 * (M + star @ M @ star) - (s_g / 12.0) * np.eye(6)
        Pm = 0.5 * (np.eye(6) - star)
        Wm_op = Pm @ Wop @ Pm
        W3 = gd.weyl_minus(chart, p)
        eig_op = np.sort(np.linalg.eigvalsh(0.5 * (Wm_op + Wm_op.T)))
        eig_gram = np.sort(np.concatenate([
            np.linalg.eigvalsh(0.5 * (W3 + W3.conj().T)), np.zeros(3)]))
        np.testing.assert_allclose(eig_op, eig_gram, atol=1e-9)


def test_weyl_selfdual_equivalence(catalog_charts, non_selfdual):
    charts = list(catalog_charts) + [non_selfdual]
    for chart in charts:
        for p in pts_of(chart, 5, 24):
            sd = max(gd.selfdual_residual(chart, p))
            w = np.linalg.norm(gd.weyl_minus(chart, p), 2)
            assert (sd < 1e-8) == (w < 1e-6), chart.label


def test_constancy_implies_selfdual(adm):
    """Self-duality as a consequence of pointwise constant HSC, on the
    admissible chart at circle parameters."""
    for p in pts_of(adm, 10, 25):
        _, res = gd.constancy_residual(gd.canonical_curvature(adm, (3.0, 0.0), p))
        assert res < 1e-8
        assert max(gd.selfdual_residual(adm, p)) < 1e-6


# ---------------------------------------------------------------------------
# plumbing


@pytest.fixture(scope="module")
def generic_chart():
    """Non-diagonal, non-Kahler Hermitian metric: the hardest input class."""
    g11 = gd.parse_field("(add 1 (mul z1 zbar1) (mul 0.5 z2 zbar2))")
    g22 = gd.parse_field("(add 1 (mul z1 zbar1))")
    g12 = gd.parse_field("(mul 0.1 z2 zbar1)")
    g21 = gd.parse_field("(mul 0.1 zbar2 z1)")
    return gd.inline_chart(2, [[g11, g12], [g21, g22]], label="generic")


def test_generic_chart_is_non_kahler(generic_chart):
    worst = max(maxabs(gd.chern_torsion(generic_chart, p))
                for p in pts_of(generic_chart, 5, 26))
    assert worst > 1e-3


def test_generic_chart_lc_vs_fd_oracle(generic_chart):
    for p in pts_of(generic_chart, 5, 27):
        d = maxabs(gd.lc_curvature(generic_chart, p).R
                   - gd.lc_curvature_fd(generic_chart, p).R)
        assert d < 1e-5
        assert abs(gd.scalar_curvature(generic_chart, p)
                   - gd.scalar_curvature_fd(generic_chart, p)) < 1e-5


def test_generic_chart_family_identities(generic_chart):
    for p in pts_of(generic_chart, 5, 28):
        d = maxabs(gd.gauduchon_curvature(generic_chart, 1.0, p).R
                   - gd.chern_curvature(generic_chart, p).R)
        assert d < 1e-10
        for t in (-1.0, 0.0, 3.0):
            R = gd.gauduchon_curvature(generic_chart, t, p).R
            assert maxabs(R - np.conj(np.einsum("lkji->klij", R))) < 1e-10


def test_generic_chart_conformal_delta(generic_chart):
    f = 0.1 * (gd.z(0) + gd.zbar(0)) + 0.05 * gd.abs2(2)
    pair = gd.rescale(generic_chart, f)
    for p in pts_of(generic_chart, 3, 29):
        assert gd.torsion_transform_residual(pair, p) < 1e-8
        for ts in [(3.0, 0.0), (-1.0, 2.0)]:
            d = maxabs(gd.delta_canonical_predicted(pair, ts, p).R
                       - gd.delta_direct(pair, ts, p).R)
            assert d < 1e-7


def test_curv4_rows_layout(hopf):
    C = gd.gauduchon_curvature(hopf, 3.0, [0, 1])
    rows = curv4_rows(C)
    assert len(rows) == 16
    assert rows[0][:4] == (1, 1, 1, 1)
    lut = {r[:4]: (r[4], r[5]) for r in rows}
    assert lut[(1, 1, 2, 2)][0] == pytest.approx(4.0, abs=1e-10)


def test_tensor_of_accepts_arrays():
    R = np.zeros((2, 2, 2, 2), complex)
    assert tensor_of(R) is R
    assert tensor_of(Curv4(R)) is R
