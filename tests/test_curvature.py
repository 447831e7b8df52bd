import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gauduchon as gd
from gauduchon import cli, connection, curvature
from gauduchon.cli import SuiteConfig, run_suite
from gauduchon.curvature import Curv4, curv4_rows, lc_full, tensor_of
from gauduchon.errors import DimensionError, DomainError, NotHermitian, ZeroVector

from conftest import bases_of, curvatures, make_generic_chart, pts_of

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
    """The reference at s = 1 (`lc_full` and its Christoffel symbols) equals
    the unoptimized einsums; the production Levi-Civita tensor, scalar
    curvature and mixed Christoffel symbols, built from the Chern side,
    agree with them."""
    from gauduchon.conformal import _at_point
    from gauduchon.connection import _rows

    spec = gd.hopf_spec(n, 0.5, A=np.diag(np.linspace(0.2, 0.05, n)))
    for chart in (gd.admissible_chart(spec), gd.fubini_study_chart(n)):
        pts = pts_of(chart, 2, n)
        at = _at_point(chart, gd.const(0.0), pts)
        for k, (p, C) in enumerate(zip(pts, at.C)):
            b, E = _rows(at.data, slice(k, k + 1)), at.data.E[k]
            Gamma, Riem, s_g = _seed_lc(connection._rows(b, 0), n)
            scale = maxabs(Riem)
            assert maxabs(lc_full(chart, p) - Riem) <= 1e-13 * scale
            parts = curvature._christoffel_parts(b)
            ref = curvature._christoffel(parts, (0.0, 1.0))[0][0]
            assert maxabs(ref - Gamma) <= 1e-13 * maxabs(Gamma)
            assert maxabs(C - Gamma[:n, n:, :n]) <= 1e-13 * maxabs(Gamma)
            R = np.einsum("klij,ka,lb,ic,jd->abcd", Riem[:n, n:, :n, n:],
                          E, E.conj(), E, E.conj())
            assert maxabs(gd.lc_curvature(chart, p).R - R) <= 1e-13 * max(1.0, maxabs(R))
            assert abs(gd.scalar_curvature(chart, p) - s_g) <= 1e-13 * max(1.0, abs(s_g))


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


@pytest.mark.parametrize("oracle", [gd.lc_curvature_fd, gd.scalar_curvature_fd])
def test_lc_oracle_values_its_stencil_in_one_call(monkeypatch, hopf, oracle):
    """The nested stencil, 2m + 1 = 9 Christoffel centres at n = 2 with 1 + 4m
    = 17 metric points each, is one `metric_values` call."""
    calls = []
    values = curvature.metric_values

    def counted(chart, z):
        calls.append(np.shape(z))
        return values(chart, z)

    monkeypatch.setattr(curvature, "metric_values", counted)
    oracle(hopf, [0.6, 0.2 - 0.3j])
    assert calls == [(9, 17, 2)]


@pytest.mark.parametrize("oracle", [gd.lc_curvature_fd, gd.scalar_curvature_fd])
def test_lc_oracle_stencil_error_names_the_callers_point(chyp, oracle):
    """Near the ball's boundary the caller's point is in the domain but a
    stencil point is not: the DomainError names both, as `fd_jets` does."""
    p = 0.9999 * np.array([1.0, 1.0]) / np.sqrt(2.0)
    stencil = p + np.array([2e-4, 0.0])
    with pytest.raises(DomainError) as err:
        oracle(chyp, p)
    assert str(err.value) == (f"finite-difference stencil point {stencil.astype(complex)} "
                              f"of point {p.astype(complex)} exits domain")


def test_scalar_curvature_fd_oracle(hopf, fsb):
    for chart in (hopf, fsb):
        p = pts_of(chart, 1, 7)[0]
        assert abs(gd.scalar_curvature(chart, p)
                   - gd.scalar_curvature_fd(chart, p)) < 1e-5


# ---------------------------------------------------------------------------
# gauduchon / canonical families


def test_gauduchon_t1_is_chern(catalog_charts):
    """At every point, from one fill; the public functions at the first."""
    for chart in catalog_charts:
        pts = pts_of(chart, 10, 8)
        b = connection._metric_points(chart, pts)
        d = maxabs(curvatures(bases_of(b), [(1.0, 0.0)])[0]
                   - connection._chern_stack(b, b.E))
        assert d < 1e-9, chart.label
        d = maxabs(gd.gauduchon_curvature(chart, 1.0, pts[0]).R
                   - gd.chern_curvature(chart, pts[0]).R)
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
    """The s = 1 line is Levi-Civita at every point, from one fill; the
    public per-point functions agree at the first point."""
    for chart in catalog_charts:
        pts = pts_of(chart, 5, 10)
        B = gd.canonical_bases(chart, pts)
        Rt = curvatures(B, [(t, 0.0) for t in T_GRID])
        Rlc = curvatures(B, [(0.0, 1.0)])
        assert maxabs(curvatures(B, [(t, 1.0) for t in T_GRID]) - Rlc) < 1e-10, chart.label
        p = pts[0]
        assert maxabs(gd.lc_curvature(chart, p).R - Rlc[0, 0]) < 1e-10, chart.label
        for t, R in zip(T_GRID, Rt[:, 0]):
            assert maxabs(gd.gauduchon_curvature(chart, t, p).R - R) < 1e-10, chart.label


# The catalog charts and the generic chart below, by name.
ORACLE_CHARTS = {
    "euclidean": lambda: gd.euclidean_chart(2),
    "hopf2": lambda: gd.hopf_chart(2),
    "hopf3": lambda: gd.hopf_chart(3),
    "admissible": lambda: gd.admissible_chart(gd.hopf_spec(2, 0.5, A=[[0.2, 0.0], [0.0, 0.1]])),
    "fubini_study3": lambda: gd.fubini_study_chart(3),
    "fs_bergman": gd.fs_bergman_chart,
    "complex_hyperbolic": lambda: gd.complex_hyperbolic_chart(2),
    "generic": make_generic_chart,
}


@settings(max_examples=40, deadline=None, database=None)
@given(name=st.sampled_from(sorted(ORACLE_CHARTS)),
       cells=st.lists(st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)), max_size=3),
       count=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_oracle_matches_canonical_curvature(name, cells, count, seed):
    """The curvature of D^t_s from its own Christoffel symbols in Wirtinger
    coordinates equals the basis combination, to 1e-12 relative, at
    every (t, s) of a params list; each cell is exactly what a call for that
    cell alone gives, and an empty list gives no cell."""
    chart = ORACLE_CHARTS[name]()
    pts = gd.sample_points(chart, count, np.random.default_rng(seed))
    R = gd.connection_curvature_oracle(chart, cells, pts)
    assert R.shape == (len(cells), count) + (chart.n,) * 4
    wants = curvatures(gd.canonical_bases(chart, pts), cells)
    for ts, cell, want_cell in zip(cells, R, wants):
        np.testing.assert_array_equal(cell, gd.connection_curvature_oracle(chart, [ts], pts)[0])
        for Rp, want in zip(cell, want_cell):
            assert maxabs(Rp - want) <= 1e-12 * max(1.0, maxabs(want)), (name, ts)


def test_oracle_catches_a_torsion_term_mutation(monkeypatch):
    """Adding 0.1 B[3] to B[1] and B[2] changes the D^t_s curvature by
    0.1 (p^2 - p) B[3]: nothing at p = 0 or 1, so the t = 1 Chern comparison
    and every s = 1 identity pass it, but the oracle sees it at (3, 0) on each
    non-Kahler chart, and the suite's interpolation check fails.  The
    mutation goes into `_basis_stack`, the one code that builds bases, in
    every module that calls it."""
    build = connection._basis_stack

    def mutated(RC, T):
        B = build(RC, T)
        B[:, 1:3] += 0.1 * B[:, 3:4]
        return B

    for module in (connection, curvature, cli):
        monkeypatch.setattr(module, "_basis_stack", mutated)
    for name in ("hopf2", "hopf3", "admissible", "generic"):
        chart = ORACLE_CHARTS[name]()
        pts = gd.sample_points(chart, 3, np.random.default_rng(41))
        [R] = gd.connection_curvature_oracle(chart, [(3.0, 0.0)], pts)
        for p, Rp in zip(pts, R):
            assert maxabs(gd.gauduchon_curvature(chart, 1.0, p).R
                          - gd.chern_curvature(chart, p).R) < 1e-10
            assert maxabs(gd.canonical_curvature(chart, (2.0, 1.0), p).R
                          - gd.lc_curvature(chart, p).R) < 1e-10
            assert maxabs(gd.canonical_curvature(chart, (3.0, 0.0), p).R - Rp) > 1e-3, name
    config = SuiteConfig.from_dict({"chart": {"chart": "hopf_standard", "n": 2},
                                    "sample_count": 10, "checks": ["interpolation"]})
    [rec] = run_suite(config).records
    assert rec.name == "interpolation" and not rec.passed


def test_kahler_families_collapse(kahler_charts):
    for chart in kahler_charts:
        B = gd.canonical_bases(chart, pts_of(chart, 5, 12))
        d = maxabs(curvatures(B, [(-1, 0), (0, 0), (3, 0), (2, 1), (0.5, -0.5)])
                   - curvatures(B, [(0.0, 1.0)]))
        assert d < 1e-9, chart.label


def test_hermitian_symmetry_gauduchon_family(hopf, adm):
    for chart in (hopf, adm):
        R = curvatures(gd.canonical_bases(chart, pts_of(chart, 10, 13)),
                       [(t, 0.0) for t in (-1.0, 0.0, 1.0, 3.0)])
        assert maxabs(R - np.conj(np.einsum("...lkji->...klij", R))) < 1e-10


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


def test_hsc_on_a_stack_of_directions(adm):
    """k directions give k values from one contraction, each the value of
    its direction alone; a single direction gives a float.  A zero or a
    non-real direction anywhere in the stack raises."""
    C = gd.canonical_curvature(adm, (2.0, 0.5), pts_of(adm, 1, 42)[0])
    rng = np.random.default_rng(43)
    eta = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
    H = gd.hsc(C, eta)
    assert H.shape == (5,)
    for h, e in zip(H, eta):
        one = gd.hsc(C, e)
        assert type(one) is float
        assert h == pytest.approx(one, rel=1e-14, abs=1e-15)
    with pytest.raises(ZeroVector):
        gd.hsc(C, np.vstack([eta, np.zeros(2)]))
    R = np.zeros((2, 2, 2, 2), complex)
    R[0, 0, 0, 0] = 1j
    with pytest.raises(NotHermitian):
        gd.hsc(R, np.array([[0.0, 1.0], [1.0, 0.5j]]))


def hermitian_tensor(rng, lead, n):
    """Random tensors R[..., k, l, i, j] with R_{k lbar i jbar} =
    conj(R_{l kbar j ibar}), so every HSC contraction is real."""
    X = rng.standard_normal(lead + (n,) * 4) + 1j * rng.standard_normal(lead + (n,) * 4)
    return X + np.conj(np.swapaxes(np.swapaxes(X, -4, -3), -2, -1))


@settings(max_examples=40, deadline=None, database=None)
@given(n=st.sampled_from([2, 3, 4, 6]), shape=st.sampled_from(["one", "stack", "points"]),
       k=st.integers(1, 5), P=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_hsc_matmuls_match_the_einsum_reference(n, shape, k, P, seed):
    """The four slot-by-slot matmuls of `hsc` give the 5-operand einsum's
    value to 1e-13 of the sum of the absolute terms, for one direction, a
    stack of k directions and a point axis (P, 1) of tensors against (P, k)
    directions."""
    rng = np.random.default_rng(seed)
    lead_R, lead_eta = {"one": ((), ()), "stack": ((), (k,)), "points": ((P, 1), (P, k))}[shape]
    R = hermitian_tensor(rng, lead_R, n)
    eta = rng.standard_normal(lead_eta + (n,)) + 1j * rng.standard_normal(lead_eta + (n,))
    spec = "...klij,...k,...l,...i,...j->..."
    ref = np.einsum(spec, R, eta, eta.conj(), eta, eta.conj())
    bound = np.einsum(spec, *(np.abs(x) for x in (R, eta, eta, eta, eta)))
    norm2 = np.sum(np.abs(eta) ** 2, axis=-1)
    got = gd.hsc(R, eta)
    assert np.shape(got) == ref.shape == np.broadcast_shapes(lead_R, lead_eta)
    assert (type(got) is float) == (shape == "one")
    assert np.all(np.abs(got - ref.real / norm2**2) <= 1e-13 * bound / norm2**2)


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
    return make_generic_chart()


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
