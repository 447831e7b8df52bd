import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gauduchon as gd
import gauduchon.connection as connection
import gauduchon.curvature as curvature
from gauduchon.cli import _conformal_factors
from gauduchon.conformal import frame_gradient
from gauduchon.connection import metric_values
from gauduchon.errors import BaseNotKahler, DomainError, NonRealConformalFactor

from conftest import bases_of, pts_of

TS_GRID = [(-1.0, 0.0), (0.0, 0.0), (0.5, 0.0), (1.0, 0.0), (2.0, 0.0),
           (3.0, 0.0), (-1.0, 2.0), (0.0, np.sqrt(3.0)), (2.0, 1.0),
           (1.3, -0.7)]


def maxabs(x):
    return float(np.max(np.abs(x)))


def log_norm_factor(scale=-0.5):
    return scale * gd.log(gd.abs2(2))


# ---------------------------------------------------------------------------
# rescale


def test_rescale_identity(flat):
    pair = gd.rescale(flat, gd.const(0.0))
    for p in pts_of(flat, 5, 0):
        np.testing.assert_allclose(metric_values(pair.rescaled, p),
                                   metric_values(flat, p), atol=1e-15)


def test_rescale_flat_to_hopf(flat, hopf):
    pair = gd.rescale(flat, log_norm_factor(),
                      check_points=pts_of(hopf, 4, 1))
    for p in pts_of(hopf, 10, 2):
        np.testing.assert_allclose(metric_values(pair.rescaled, p),
                                   metric_values(hopf, p), atol=1e-14)


def test_rescale_flat_to_admissible(flat, adm, adm_spec):
    f = -0.5 * gd.log(gd.xi_field(adm_spec))
    pair = gd.rescale(flat, f, check_points=pts_of(adm, 4, 3))
    for p in pts_of(adm, 10, 4):
        np.testing.assert_allclose(metric_values(pair.rescaled, p),
                                   metric_values(adm, p), atol=1e-14)


def test_rescale_rejects_non_real_factor(flat):
    with pytest.raises(NonRealConformalFactor):
        gd.rescale(flat, gd.z(0))


@pytest.mark.parametrize("imag, shown", [(1e-10j, "3.000e-11"), (1e-6j, "3.000e-07")])
def test_a_non_real_factor_on_a_chart_with_no_sampler_is_named_at_its_point(imag, shown):
    # With no sampler `rescale` checks no point, so the factor's realness is
    # first checked at the rows the law rescales, before their fill: neither
    # an ill-conditioned frame (the small imaginary part) nor a non-Hermitian
    # metric (the larger one) of the rescaled chart is blamed.
    chart = gd.MetricChart(2, gd.euclidean_chart(2).g, label="bare")
    pair = gd.rescale(chart, imag * gd.z(0) + 0.1 * gd.z(0) * gd.zbar(0))
    for law in (lambda: gd.torsion_transform_residual(pair, [0.3, 0.2]),
                lambda: gd.delta_direct(pair, (1.0, 0.0), [0.3, 0.2])):
        with pytest.raises(NonRealConformalFactor,
                           match=rf"^conformal factor has imaginary part {shown} at "
                                 rf"\[0\.3\+0\.j 0\.2\+0\.j\]$"):
            law()


def test_a_factor_stack_in_an_explicit_frame_has_no_rescaled_side(flat):
    # The rescaled records are read in Cholesky frames, which an explicit
    # frame of the base does not pair with: the stack refuses them.
    p = [0.1, 0.2j]
    at = gd.FactorAt(flat, [0.1 * gd.abs2(2)], connection._metric_points(flat, [p]),
                     frame=gd.unitary_frame(flat, p))
    with pytest.raises(gd.GauduchonError, match="explicit frame has no rescaled side"):
        at.rescaled_data


@pytest.mark.parametrize("point", [[0.5, 0.5, 0.5], [0.5], [0.0, 0.0]])
def test_rescale_checks_its_points_against_the_chart(hopf, point):
    # A point of the wrong dimension, or the origin outside the Hopf
    # domain, is refused before f is evaluated there.
    with pytest.raises(DomainError, match="chart of dim 2|outside domain"):
        gd.rescale(hopf, 0.1 * (gd.z(0) + gd.zbar(0)), check_points=[[0.5, 0.5], point])


@pytest.mark.parametrize("f", [0.1 * (gd.z(0) + gd.zbar(0)), 0.1 * (gd.z(1) + gd.zbar(1))])
def test_factor_at_a_point_off_the_chart_is_the_charts_domain_error(hopf, f):
    # Whichever coordinates f reads, the chart refuses the point first.
    with pytest.raises(DomainError, match="point of dim 1 on chart of dim 2"):
        gd.f_covariant_hessians(hopf, f, 1.0, [0.5])


def test_paired_frames_are_unitary(flat):
    pair = gd.rescale(flat, log_norm_factor())
    for p in pts_of(gd.hopf_chart(2), 5, 5):
        fb, fr = gd.paired_frames(pair, p)
        assert maxabs(fr.E.T @ fr.G @ fr.E.conj() - np.eye(2)) < 1e-12
        np.testing.assert_allclose(fr.E, np.exp(-pair.f(p).real) * fb.E,
                                   atol=1e-15)


# ---------------------------------------------------------------------------
# torsion transformation law


def test_torsion_transform_zero_factor(flat):
    pair = gd.rescale(flat, gd.const(0.0))
    assert gd.torsion_transform_residual(pair, [0.4, 0.3]) < 1e-15


def test_torsion_transform_flat_to_hopf(flat, hopf):
    pair = gd.rescale(flat, log_norm_factor())
    for p in pts_of(hopf, 50, 6):
        assert gd.torsion_transform_residual(pair, p) < 1e-8
    # witness: predicted Ttilde^2_12 = -1/2 at (1,0)
    _, fr = gd.paired_frames(pair, [1, 0])
    T = gd.chern_torsion(pair.rescaled, [1, 0], fr)
    assert T[1, 0, 1] == pytest.approx(-0.5, abs=1e-12)


def test_torsion_transform_fs_base(fs):
    f = 0.05 * (gd.z(0) + gd.zbar(0))   # 0.1 Re z1
    pair = gd.rescale(fs, f)
    for p in pts_of(fs, 20, 7):
        assert gd.torsion_transform_residual(pair, p) < 1e-8


# ---------------------------------------------------------------------------
# Gauduchon-family delta (s = 0)


def test_delta_zero_factor(flat):
    pair = gd.rescale(flat, gd.const(0.0))
    D = gd.delta_gauduchon_predicted(pair, 2.0, [0.3, 0.1])
    assert maxabs(D.R) < 1e-15


def test_delta_gauduchon_flat_to_hopf_t1(flat):
    # hand reduction at t = 1: e^2f Rtilde = -2 f_{k lbar} delta_ij,
    # giving Rtilde^1_{2 2bar i jbar} = delta_ij at (1, 0)
    pair = gd.rescale(flat, log_norm_factor())
    D = gd.delta_gauduchon_predicted(pair, 1.0, [1, 0]).R
    np.testing.assert_allclose(D[1, 1], np.eye(2), atol=1e-12)
    direct = gd.delta_direct(pair, (1.0, 0.0), [1, 0]).R
    np.testing.assert_allclose(direct, D, atol=1e-12)


@pytest.mark.parametrize("t", [-1.0, 0.0, 0.5, 1.0, 2.0, 3.0])
def test_delta_gauduchon_predicted_vs_direct(flat, fs, t):
    factors = [log_norm_factor(-0.5),
               0.1 * (gd.z(0) + gd.zbar(0)) + 0.05 * gd.abs2(2)]
    charts = [gd.hopf_chart(2), fs]
    for base, f, chart in zip((flat, fs), factors, charts):
        pair = gd.rescale(base, f, check_points=pts_of(chart, 3, 8))
        for p in pts_of(chart, 4, 9):
            d = maxabs(gd.delta_gauduchon_predicted(pair, t, p).R
                       - gd.delta_direct(pair, (t, 0.0), p).R)
            assert d < 1e-7


# ---------------------------------------------------------------------------
# canonical-family delta


def test_delta_canonical_s0_equals_gauduchon(flat):
    pair = gd.rescale(flat, log_norm_factor())
    p = [0.8, 0.3 - 0.2j]
    for t in (-1.0, 2.0, 3.0):
        D1 = gd.delta_canonical_predicted(pair, (t, 0.0), p).R
        D2 = gd.delta_gauduchon_predicted(pair, t, p).R
        np.testing.assert_array_equal(D1, D2)


def test_delta_canonical_flat_to_admissible(flat, adm, adm_spec):
    f = -0.5 * gd.log(gd.xi_field(adm_spec))
    pair = gd.rescale(flat, f, check_points=pts_of(adm, 3, 10))
    for p in pts_of(adm, 20, 11):
        d = maxabs(gd.delta_canonical_predicted(pair, (-1.0, 2.0), p).R
                   - gd.delta_direct(pair, (-1.0, 2.0), p).R)
        assert d < 1e-7


def test_delta_canonical_fuzz_grid(hopf, flat):
    pair = gd.rescale(flat, log_norm_factor())
    for p in pts_of(hopf, 3, 12):
        for ts in TS_GRID:
            d = maxabs(gd.delta_canonical_predicted(pair, ts, p).R
                       - gd.delta_direct(pair, ts, p).R)
            assert d < 1e-7, ts


def test_delta_constant_factor(fs):
    """Constant f: delta vanishes and curvature scales by e^-2f."""
    pair = gd.rescale(fs, gd.const(0.3))
    p = [0.4, -0.2 + 0.3j]
    D = gd.delta_canonical_predicted(pair, (2.0, 0.5), p).R
    assert maxabs(D) < 1e-14
    assert maxabs(gd.delta_direct(pair, (2.0, 0.5), p).R) < 1e-9
    fb, fr = gd.paired_frames(pair, p)
    Rb = gd.canonical_curvature(fs, (2.0, 0.5), p, fb).R
    Rt = gd.canonical_curvature(pair.rescaled, (2.0, 0.5), p, fr).R
    np.testing.assert_allclose(Rt, np.exp(-0.6) * Rb, atol=1e-9)


def test_delta_frame_rotation_robust(flat, hopf):
    """The curvature deltas are tensorial: they hold in rotated unitary frames."""
    pair = gd.rescale(flat, log_norm_factor())
    rng = np.random.default_rng(13)
    for p in pts_of(hopf, 3, 14):
        Q, _ = np.linalg.qr(rng.standard_normal((2, 2))
                            + 1j * rng.standard_normal((2, 2)))
        fb, fr = gd.paired_frames(pair, p)
        fbQ, frQ = fb.rotated(Q), fr.rotated(Q)
        for ts in [(3.0, 0.0), (-1.0, 2.0)]:
            pred = gd.delta_canonical_predicted(pair, ts, p, fbQ).R
            Rb = gd.canonical_curvature(pair.base, ts, p, fbQ).R
            Rt = gd.canonical_curvature(pair.rescaled, ts, p, frQ).R
            direct = np.exp(2 * pair.f(p).real) * Rt - Rb
            assert maxabs(pred - direct) < 1e-7


# ---------------------------------------------------------------------------
# Kahler-base symmetrized delta


def test_delta_kahler_flat_base(flat, hopf):
    fq = 0.2 * gd.abs2(2) + 0.1 * (gd.z(0) * gd.z(1) + gd.zbar(0) * gd.zbar(1))
    pair = gd.rescale(flat, fq)
    for p in pts_of(hopf, 3, 15):
        for ts in [(3.0, 0.0), (-1.0, 2.0), (0.5, 0.5)]:
            d = maxabs(gd.delta_kahler_predicted(pair, ts, p).R
                       - gd.delta_direct_symmetrized(pair, ts, p).R)
            assert d < 1e-7


def test_delta_kahler_zero_factor(fs):
    pair = gd.rescale(fs, gd.const(0.0))
    assert maxabs(gd.delta_kahler_predicted(pair, (2.0, 1.0), [0.3, 0.1]).R) < 1e-15


def test_delta_kahler_s0_coefficient_identity(flat):
    """At s = 0 the coefficient collapses to (1-t)^2: any params with equal
    (p-1)^2 + s^2 give the identical prediction."""
    pair = gd.rescale(flat, 0.1 * gd.abs2(2))
    p = [0.5, 0.2 - 0.4j]
    # params (2, 0.5) have p = 1, coeff = 0 + 0.25; params with s = 0 and
    # the same (p-1)^2 + s^2 give the identical prediction
    D1 = gd.delta_kahler_predicted(pair, (2.0, 0.5), p).R
    D2 = gd.delta_kahler_predicted(pair, (0.5, 0.0), p).R   # (1-0.5)^2 = 0.25
    np.testing.assert_allclose(D1, D2, atol=1e-15)


def test_delta_kahler_rejects_non_kahler_base(hopf):
    pair = gd.rescale(hopf, gd.const(0.1))
    with pytest.raises(BaseNotKahler):
        gd.delta_kahler_predicted(pair, (2.0, 0.0), [0.8, 0.1])


# ---------------------------------------------------------------------------
# commutation rule


def test_commutation_kahler(kahler_charts):
    f = 0.2 * (gd.z(0) + gd.zbar(0)) + 0.1 * gd.abs2(2)
    for chart in kahler_charts:
        for p in pts_of(chart, 5, 16):
            for t in (-1.0, 0.0, 2.0):
                assert gd.commutation_residual(chart, f, t, p) < 1e-10


def test_commutation_chern_case(hopf):
    f = 0.3 * (gd.z(0) * gd.z(1) + gd.zbar(0) * gd.zbar(1))
    for p in pts_of(hopf, 10, 17):
        assert gd.commutation_residual(hopf, f, 1.0, p) < 1e-9


@pytest.mark.parametrize("seed", range(5))
def test_commutation_hopf_random_factors(hopf, seed):
    rng = np.random.default_rng(800 + seed)
    c = rng.standard_normal(3).round(3)
    f = (c[0] * (gd.z(0) + gd.zbar(0)) + c[1] * gd.abs2(2)
         + c[2] * 0.5 * (gd.z(0) * gd.z(1) + gd.zbar(0) * gd.zbar(1)))
    for p in pts_of(hopf, 4, 18):
        assert gd.commutation_residual(hopf, f, 3.0, p) < 1e-8


# ---------------------------------------------------------------------------
# conformal invariance of self-duality


def test_selfdual_conformal_invariance(flat, fsb):
    cases = [(flat, log_norm_factor(), gd.hopf_chart(2)),
             (fsb, 0.05 * (gd.z(0) + gd.zbar(0)) + 0.02 * gd.abs2(2), fsb)]
    for base, f, sample_chart in cases:
        pair = gd.rescale(base, f, check_points=pts_of(sample_chart, 3, 19))
        for p in pts_of(sample_chart, 5, 20):
            assert max(gd.selfdual_residual(base, p)) < 1e-8
            assert max(gd.selfdual_residual(pair.rescaled, p)) < 1e-6


# ---------------------------------------------------------------------------
# batched factor laws


SPECS = {"hopf2": {"chart": "hopf_standard", "n": 2},
         "hopf3": {"chart": "hopf_standard", "n": 3},
         "admissible": {"chart": "admissible", "n": 2, "a": 0.5,
                        "multipliers": [[0.5, 0], [0.5, 0]],
                        "A": [[[0.2, 0], [0, 0]], [[0, 0], [0.1, 0]]], "c0": 1.0}}


def per_point_laws(pair, t, params, z):
    """Frame gradient, Hessians at t, torsion-law and commutation residuals
    and the predicted and direct canonical deltas at one point, from the
    per-point formulas in plain numpy (2-D matmuls and unbatched einsums)."""
    chart, f, n = pair.base, pair.f, pair.base.n
    b = connection._metric_points(chart, [z])
    E = b.E[0]
    jf = gd.eval_jet(f, z)
    fr, frbar = E.T @ jf.d, E.conj().T @ jf.dbar
    # the mixed Christoffel symbols Gamma^m_{lbar k} of the complexified
    # reference at s = 1
    parts = curvature._christoffel_parts(b)
    C = curvature._christoffel(parts, (0.0, 1.0))[0][0, :n, n:, :n]

    def hessians(t):
        A = jf.ddbar - (1.0 - t) * np.einsum("mlk,m->kl", C, jf.d)
        B = jf.ddbar.T - (1.0 - t) * np.einsum("mkl,m->lk", np.conj(C), jf.dbar)
        return E.T @ A @ E.conj(), E.conj().T @ B @ E

    H1, H2 = hessians(t)
    T = connection._frame_torsion(b, b.E)[0]
    Tc = np.conj(T)
    eye = np.eye(n)
    c = np.exp(-f(z).real)
    pred = c * (T + np.einsum("j,ik->ijk", fr, eye) - np.einsum("k,ij->ijk", fr, eye))
    # the rescaled chart's own trees, filled at z and read in the paired frame
    rb = connection._metric_points(pair.rescaled, [z])
    torsion = np.max(np.abs(connection._frame_torsion(rb, (c * E)[None])[0] - pred))
    rhs = (1.0 - t) * (np.einsum("r,jrk->jk", frbar, T) - np.einsum("r,krj->jk", fr, Tc))
    commutation = np.max(np.abs(H2 - H1.T - rhs))

    pr = gd.ConnectionParams(*params)
    p, s2 = pr.p, pr.s ** 2
    Hp, _ = hessians(p)
    grad2 = np.real(np.dot(fr, frbar))
    dd = np.einsum("jk,il->klij", eye, eye)
    D = (-2 * p * np.einsum("kl,ij->klij", Hp, eye)
         + 2 * p * (1 - p) * np.einsum("r,krl,ij->klij", fr, Tc, eye)
         - (1 - p) * (np.einsum("il,jk->klij", Hp, eye) + np.einsum("kj,il->klij", Hp, eye))
         + (1 - p) ** 2 * (np.einsum("i,kjl->klij", fr, Tc)
                           - np.einsum("r,jrk,il->klij", frbar, T, eye)
                           + np.einsum("r,krj,il->klij", fr, Tc, eye)
                           + np.einsum("j,lik->klij", frbar, T) - grad2 * dd
                           + np.einsum("i,j,kl->klij", fr, frbar, eye))
         + s2 * (np.einsum("i,l,jk->klij", fr, frbar, eye)
                 + np.einsum("j,k,il->klij", frbar, fr, eye)
                 - np.einsum("i,j,kl->klij", fr, frbar, eye) - grad2 * dd)
         + s2 * (np.einsum("i,klj->klij", fr, Tc) - np.einsum("j,lik->klij", frbar, T)
                 - np.einsum("r,lri,jk->klij", frbar, T, eye)
                 - np.einsum("r,krj,il->klij", fr, Tc, eye)))
    w = gd.canonical_weights(pr)
    rescaled_basis = bases_of(rb, (c * E)[None])[0]
    direct = (np.exp(2 * f(z).real) * np.tensordot(w, rescaled_basis, 1)
              - np.tensordot(w, bases_of(b)[0], 1))
    return [fr, frbar, H1, H2, torsion, commutation, D, direct]


def assert_close(got, want):
    """Equal within 1e-13 of max|want|, the scale taken as at least 1 for
    the residuals, whose own size is rounding."""
    scale = max(float(np.max(np.abs(want))), 1.0)
    assert float(np.max(np.abs(np.asarray(got) - want))) <= 1e-13 * scale


@settings(max_examples=30, deadline=None, database=None)
@given(name=st.sampled_from(sorted(SPECS)), count=st.integers(1, 5),
       which=st.integers(0, 2), t=st.floats(-3.0, 3.0), s=st.floats(-3.0, 3.0),
       seed=st.integers(0, 2**32 - 1))
def test_batched_factor_laws_equal_per_point(name, count, which, t, s, seed):
    """The batched laws at P points equal the per-point formulas at every
    point, and the public per-point functions, the laws' P = 1 calls, equal
    the batched rows at the first point."""
    chart = gd.make_chart(SPECS[name])
    factors = _conformal_factors(chart.n)
    f = factors[which % len(factors)]
    pts = gd.sample_points(chart, count, np.random.default_rng(seed))
    pair = gd.rescale(chart, f, check_points=pts)
    at = pair.at(pts)
    assert at.E.shape[0] == count
    batched = [at.fr, at.frbar, *at.hessians(t), at.torsion_residuals(),
               at.commutation_residuals(t), at.delta_predicted((t, s)), at.delta_direct((t, s))]
    for j, p in enumerate(pts):
        for b, ref in zip(batched, per_point_laws(pair, t, (t, s), p), strict=True):
            assert_close(b[j], ref)
    p = pts[0]
    one = [*frame_gradient(chart, f, p), *gd.f_covariant_hessians(chart, f, t, p),
           gd.torsion_transform_residual(pair, p), gd.commutation_residual(chart, f, t, p),
           gd.delta_canonical_predicted(pair, (t, s), p).R, gd.delta_direct(pair, (t, s), p).R]
    for b, o in zip(batched, one, strict=True):
        assert_close(b[0], o)


@pytest.mark.parametrize("name", sorted(SPECS))
def test_rescaled_cholesky_frame_is_the_paired_frame(name):
    """Cholesky factors are unique, so chol(e^2f G) = e^f chol(G): the
    rescaled chart's Cholesky frame is the paired frame e^-f E, which is why
    `FactorAt` reads the rescaled side in the rescaled chart's own Cholesky
    frames."""
    chart = gd.make_chart(SPECS[name])
    pts = gd.sample_points(chart, 5, np.random.default_rng(7))
    for f in _conformal_factors(chart.n):
        pair = gd.rescale(chart, f, check_points=pts)
        at = pair.at(pts)
        paired = np.exp(-at.value)[:, None, None] * at.E
        assert maxabs(at.rescaled_data.E - paired) <= 1e-15 * maxabs(paired)
