import numpy as np
import pytest

from hypothesis import given, settings, strategies as st

import gauduchon as gd
import gauduchon.connection as connection
from gauduchon.connection import ConnectionParams, metric_values
from gauduchon.errors import DimensionError, DomainError, NonFinite, NotPositiveDefinite

from conftest import make_generic_chart, pts_of, torsion_dbar_reference


def frame_defect(chart, p):
    fr = gd.unitary_frame(chart, p)
    return np.max(np.abs(fr.E.T @ fr.G @ fr.E.conj() - np.eye(chart.n)))


# ---------------------------------------------------------------------------
# metric_jet


def test_metric_jet_euclidean(flat):
    jets, ginv = gd.metric_jet(flat, [0.3 + 0.2j, -1.1])
    for i in range(2):
        for j in range(2):
            assert jets[i][j].value == (1.0 if i == j else 0.0)
            assert np.all(jets[i][j].d == 0) and np.all(jets[i][j].ddbar == 0)
    np.testing.assert_array_equal(ginv, np.eye(2))


def test_metric_jet_hopf_at_unit_point(hopf):
    jets, _ = gd.metric_jet(hopf, [1, 0])
    G = np.array([[jets[i][j].value for j in range(2)] for i in range(2)])
    np.testing.assert_allclose(G, np.eye(2), atol=1e-15)
    # dbar_2 g_{1 1bar} = -z_2/|z|^4 = 0 and dbar_1 g_{1 1bar} = -1 at (1, 0)
    assert jets[0][0].dbar[1] == pytest.approx(0.0, abs=1e-15)
    assert jets[0][0].dbar[0] == pytest.approx(-1.0, abs=1e-15)


def test_metric_jet_admissible_diag(adm):
    jets, _ = gd.metric_jet(adm, [1, 0])
    G = np.array([[jets[i][j].value for j in range(2)] for i in range(2)])
    np.testing.assert_allclose(G, np.eye(2) / 1.4, atol=1e-15)


def test_metric_inverse_contract(catalog_charts):
    for chart in catalog_charts:
        for p in pts_of(chart, 10, 3):
            jets, ginv = gd.metric_jet(chart, p)
            G = np.array([[jets[i][j].value for j in range(chart.n)]
                          for i in range(chart.n)])
            np.testing.assert_allclose(ginv @ G.T, np.eye(chart.n), atol=1e-12)


def test_cached_point_data_is_read_only(adm):
    p = [0.6 + 0.1j, -0.3j]
    before = gd.chern_torsion(adm, p)
    jets, ginv = gd.metric_jet(adm, p)
    with pytest.raises(ValueError):
        ginv[0, 0] = 42.0
    with pytest.raises(ValueError):
        jets[0][1].d[0] = 42.0
    with pytest.raises(ValueError):
        jets[1][1].ddbar[0, 0] = 42.0
    np.testing.assert_array_equal(gd.chern_torsion(adm, p), before)


_GOOD = [[0.9, 0.1j], [-0.8, 0.7]]


@pytest.mark.parametrize("chart,bad,err", [
    (gd.hopf_chart(2), [0.0, 0.0], DomainError),
    (gd.inline_chart(2, [["(div 1 (mul z1 zbar1))", "0"], ["0", "1"]]), [0.0, 0.5],
     DomainError),
    (gd.inline_chart(2, [["(sub (mul z1 zbar1) 0.5)", "0"], ["0", "1"]]), [0.1, 0.2],
     NotPositiveDefinite),
])
def test_bad_point_in_batch_raises_and_stores_nothing(chart, bad, err):
    """A bad point raises its typed error, alone or among good points, and
    leaves nothing behind: the good points then fill as before."""
    from gauduchon.connection import _metric_points, _point

    with pytest.raises(err):
        _point(chart, bad)
    with pytest.raises(err):
        _metric_points(chart, [_GOOD[0], bad, _GOOD[1]])
    assert len(_metric_points(chart, [_GOOD[0], _GOOD[1]]).G) == 2


@pytest.mark.parametrize("bad,err", [
    (np.array([np.nan + 0j, 0.5]), NonFinite),
    ([0.5, np.inf], NonFinite),
    (np.array([0.5 + 0j, 0.2, 0.1]), DomainError),
    ([0.5, 0.2, 0.1], DomainError),
    (np.array([[0.5 + 0j, 0.2]]), DimensionError),
])
def test_bad_point_raises_whatever_its_type(hopf, bad, err):
    readers = [gd.chern_torsion, lambda chart, z: gd.canonical_bases(chart, [z]),
               gd.lc_curvature_fd, gd.scalar_curvature_fd]
    if np.ndim(bad) == 1:       # to metric_values a 2-D array is a stack of points
        readers.append(metric_values)
    for reader in readers:
        with pytest.raises(err):
            reader(hopf, bad)


def test_ill_conditioned_frame_error_names_the_conditioning():
    """Near the ball's boundary the metric is positive definite (smallest
    eigenvalue 5e4) but its condition number, 5e4, makes the Cholesky frame
    miss unitarity by 4.7e-12 > FRAME_TOL: the error says so."""
    chyp = gd.complex_hyperbolic_chart(2)
    p = np.array([0.99999, 0.99999]) / np.sqrt(2)
    with pytest.raises(NotPositiveDefinite,
                       match=r"unitarity defect 4\.7\d*e-12 > 1e-12: G is positive definite "
                             r"\(smallest eigenvalue 5\.000e\+04\) but ill-conditioned "
                             r"\(cond\(G\) = 5\.000e\+04\)"):
        gd.unitary_frame(chyp, p)


def test_batch_filled_point_data_is_read_only(adm):
    """Every record, from a fill, a one-point fill (`_point`), `_rows` views
    of a fill, or a `FactorAt`'s tiled base rows and rescaled records, has
    its 5 arrays read-only, and no field can be set.  The packed jets a fill
    took are read-only after it too."""
    from dataclasses import FrozenInstanceError

    from gauduchon.conformal import FactorAt
    from gauduchon.connection import (_check_points, _component_jets, _fill, _metric_points,
                                      _point, _rows)

    pts = pts_of(adm, 3, 11)
    whole = _metric_points(adm, pts)
    factors = FactorAt(adm, [0.1 * gd.abs2(2)] * 2, np.array(pts), whole)
    reads = [whole, _metric_points(adm, [pts[2], pts[0], pts[2]]), _point(adm, pts[1])[0],
             _rows(whole, slice(1, 3)), factors.data, factors.rescaled_data]
    for b in reads:
        arrays = list(vars(b).values())
        assert len(arrays) == 5 and all(isinstance(a, np.ndarray) for a in arrays)
        assert not any(a.flags.writeable for a in arrays)
        with pytest.raises(FrozenInstanceError):
            b.E = None
    Z = _check_points(adm, pts)
    packed = _component_jets(adm, Z)
    _fill((adm.label,) * len(Z), Z, *packed)
    assert not any(a.flags.writeable for a in packed)


def test_not_positive_definite_is_structured():
    bad = gd.inline_chart(2, [["(sub (mul z1 zbar1) 0.5)", "0"], ["0", "1"]],
                          label="indefinite")
    with pytest.raises(NotPositiveDefinite):
        gd.metric_jet(bad, [0.1, 0.2])
    # still fine where positive
    gd.metric_jet(bad, [2.0, 0.0])


# ---------------------------------------------------------------------------
# unitary_frame


def test_frame_euclidean_identity(flat):
    fr = gd.unitary_frame(flat, [0.5, 0.5j])
    np.testing.assert_allclose(fr.E, np.eye(2), atol=1e-15)


def test_frame_hopf_scales_by_norm(hopf):
    for p in pts_of(hopf, 5, 0):
        fr = gd.unitary_frame(hopf, p)
        np.testing.assert_allclose(fr.E, np.linalg.norm(p) * np.eye(2), atol=1e-13)


def test_frame_admissible_at_unit_point(adm):
    fr = gd.unitary_frame(adm, [1, 0])
    np.testing.assert_allclose(fr.E, np.sqrt(1.4) * np.eye(2), atol=1e-13)


def test_frame_unitarity_catalog(catalog_charts):
    for chart in catalog_charts:
        worst = max(frame_defect(chart, p) for p in pts_of(chart, 50, 11))
        assert worst < 1e-12, chart.label


# ---------------------------------------------------------------------------
# chern_torsion


def test_torsion_flat_exact_zero(flat):
    T = gd.chern_torsion(flat, [0.2, 0.7j])
    assert np.all(T == 0)


def test_torsion_kahler_charts_vanish(kahler_charts):
    for chart in kahler_charts:
        worst = max(np.max(np.abs(gd.chern_torsion(chart, p)))
                    for p in pts_of(chart, 50, 2))
        assert worst < 1e-10, chart.label


def test_torsion_hopf_pinned_values(hopf):
    T = gd.chern_torsion(hopf, [1, 0])
    assert T[1, 0, 1] == pytest.approx(-0.5, abs=1e-12)   # T^2_12
    assert T[0, 0, 1] == pytest.approx(0.0, abs=1e-12)    # T^1_12


def test_torsion_antisymmetry_exact(catalog_charts):
    for chart in catalog_charts:
        for p in pts_of(chart, 10, 4):
            T = gd.chern_torsion(chart, p)
            np.testing.assert_array_equal(T, -T.transpose(0, 2, 1))


@pytest.mark.parametrize("seed", range(10))
def test_conformal_pin_over_flat(flat, seed):
    """Convention lock: torsion of e^2f * flat equals e^-f (f_j d_ik - f_k d_ij)."""
    rng = np.random.default_rng(600 + seed)
    c = rng.standard_normal(3).round(3)
    f = (c[0] * (gd.z(0) + gd.zbar(0)) + c[1] * (gd.z(1) + gd.zbar(1))
         + c[2] * 0.2 * gd.abs2(2))
    pair = gd.rescale(flat, f)
    p = 0.6 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
    fb, fr = gd.paired_frames(pair, p)
    jf = gd.eval_jet(f, p)
    fj = fb.E.T @ jf.d
    eye = np.eye(2)
    pred = np.exp(-f(p).real) * (np.einsum("j,ik->ijk", fj, eye)
                                 - np.einsum("k,ij->ijk", fj, eye))
    T = gd.chern_torsion(pair.rescaled, p, fr)
    assert np.max(np.abs(T - pred)) < 1e-8


def test_torsion_tensoriality_under_rotation(hopf, adm):
    rng = np.random.default_rng(8)
    for chart in (hopf, adm):
        for p in pts_of(chart, 5, 9):
            fr = gd.unitary_frame(chart, p)
            Q, _ = np.linalg.qr(rng.standard_normal((2, 2))
                                + 1j * rng.standard_normal((2, 2)))
            T = gd.chern_torsion(chart, p, fr)
            Trot = gd.chern_torsion(chart, p, fr.rotated(Q))
            pred = np.einsum("ck,kij,ia,jb->cab", Q.conj().T, T, Q, Q)
            assert np.max(np.abs(Trot - pred)) < 1e-10


# ---------------------------------------------------------------------------
# torsion_cov_deriv


def test_cov_deriv_flat_exact_zero(flat):
    TD = gd.torsion_cov_deriv(flat, [0.1, 0.9])
    assert np.all(TD == 0)


def test_cov_deriv_kahler_vanishes(kahler_charts):
    for chart in kahler_charts:
        worst = max(np.max(np.abs(gd.torsion_cov_deriv(chart, p)))
                    for p in pts_of(chart, 10, 5))
        assert worst < 1e-10, chart.label


def _fd_cov_deriv(chart, p, h=1e-4):
    """FD oracle: dbar_l of the coordinate torsion (the Chern connection has
    no mixed coordinate Christoffels), then frame-transformed."""
    def coord_torsion(q):
        # the identity matrix as the frame leaves the coordinate torsion
        return gd.chern_torsion(chart, q, np.eye(chart.n))

    n = chart.n
    TDc = np.zeros((n, n, n, n), dtype=complex)
    for l in range(n):
        ex = np.zeros(n, complex)
        ex[l] = 1.0
        dx = (coord_torsion(p + h * ex) - coord_torsion(p - h * ex)) / (2 * h)
        dy = (coord_torsion(p + 1j * h * ex) - coord_torsion(p - 1j * h * ex)) / (2 * h)
        TDc[:, :, :, l] = 0.5 * (dx + 1j * dy)
    E = gd.unitary_frame(chart, p).E
    Einv = np.linalg.inv(E)
    return np.einsum("ak,kijl,ib,jc,ld->abcd", Einv, TDc, E, E, E.conj())


def test_cov_deriv_hopf_against_fd_oracle(hopf, adm):
    """The Chern side of the identity against finite differences of the
    torsion, on Hopf, the admissible chart and a generic inline chart."""
    for chart in (hopf, adm, make_generic_chart()):
        for p in pts_of(chart, 4, 6):
            TD = gd.torsion_cov_deriv(chart, p)
            TD_fd = _fd_cov_deriv(chart, p)
            assert np.max(np.abs(TD - TD_fd)) < 1e-5, chart.label


# The catalog charts, a generic inline chart and a conformal chart at n = 3.
TD_CHARTS = {
    "euclidean": gd.euclidean_chart(2),
    "hopf2": gd.hopf_chart(2),
    "hopf3": gd.hopf_chart(3),
    "hopf6": gd.hopf_chart(6),
    "admissible": gd.admissible_chart(gd.hopf_spec(2, 0.5, A=[[0.2, 0.0], [0.0, 0.1]])),
    "fubini_study": gd.fubini_study_chart(2),
    "fs_bergman": gd.fs_bergman_chart(),
    "complex_hyperbolic": gd.complex_hyperbolic_chart(2),
    "generic": make_generic_chart(),
    "conformal_fubini_study3": gd.make_chart({
        "chart": "conformal", "base": {"chart": "fubini_study", "n": 3},
        "f": "(add (mul 0.1 (add z1 zbar1)) (mul 0.05 z2 zbar2))"}),
}


@settings(max_examples=40, deadline=None, database=None)
@given(name=st.sampled_from(sorted(TD_CHARTS)), seed=st.integers(0, 2**32 - 1))
def test_cov_deriv_is_the_dbar_of_the_coordinate_torsion(name, seed):
    """The first Bianchi identity: `torsion_cov_deriv`, read off the Chern
    curvature R^C, equals dbar of the coordinate torsion moved to the frame
    (`torsion_dbar_reference`) to rounding, 2e-15 of max(1, max|R^C|), the
    scale it is read from."""
    chart = TD_CHARTS[name]
    z = gd.sample_points(chart, 1, np.random.default_rng(seed))[0]
    TD = gd.torsion_cov_deriv(chart, z)
    ref = torsion_dbar_reference(connection._rows(connection._metric_points(chart, [z]), 0))
    scale = max(1.0, np.max(np.abs(gd.chern_curvature(chart, z).R)))
    assert np.max(np.abs(TD - ref)) <= 2e-15 * scale


def test_cov_deriv_antisymmetry(hopf):
    TD = gd.torsion_cov_deriv(hopf, [0.8, 0.1 + 0.2j])
    np.testing.assert_array_equal(TD, -TD.transpose(0, 2, 1, 3))


# ---------------------------------------------------------------------------
# gamma_theta2


def test_gamma_theta2_kahler_zero(fsb):
    gamma, theta2 = gd.gamma_theta2(fsb, [0.3, 0.4])
    assert np.max(np.abs(gamma)) < 1e-10
    assert np.max(np.abs(theta2)) < 1e-10


def test_gamma_theta2_flat_exact(flat):
    gamma, theta2 = gd.gamma_theta2(flat, [0.3, 0.4])
    assert np.all(gamma == 0) and np.all(theta2 == 0)


def test_gamma_theta2_hopf_coefficients(hopf):
    gamma, theta2 = gd.gamma_theta2(hopf, [1, 0])
    T = gd.chern_torsion(hopf, [1, 0])
    # gamma^2_1 paired with phi^2 is T^2_12 = -1/2
    assert gamma[1, 0, 1] == pytest.approx(-0.5, abs=1e-12)
    # phibar coefficients are -conj(T^i_jk)
    np.testing.assert_allclose(gamma[1, 0, 2:], -np.conj(T[0, 1, :]), atol=1e-14)
    # theta2 phi^k coefficient is conj(T^k_ij)
    np.testing.assert_allclose(theta2[1, 0, :],
                               np.conj(T[:, 0, 1]), atol=1e-14)


# ---------------------------------------------------------------------------
# ConnectionParams


def test_connection_params_derived():
    pr = ConnectionParams(t=2.0, s=0.5)
    assert pr.p == pytest.approx(1.0)
    assert ConnectionParams(3.0).s == 0.0
    assert ConnectionParams(3.0).p == 3.0


def test_metric_values_on_a_stack_is_the_per_point_matrices(catalog_charts, chyp):
    for chart in catalog_charts:
        pts = np.array(pts_of(chart, 6, 2))
        G = metric_values(chart, pts)
        assert G.shape == (6, chart.n, chart.n)
        for p, Gp in zip(pts, G):
            np.testing.assert_allclose(Gp, metric_values(chart, p), rtol=1e-13, atol=1e-15)
        np.testing.assert_array_equal(metric_values(chart, pts.reshape(2, 3, chart.n)),
                                      G.reshape(2, 3, chart.n, chart.n))
    with pytest.raises(DomainError, match=r"point \[0.9"):
        metric_values(chyp, [[0.1, 0.2], [0.9, 0.9j]])
    with pytest.raises(NonFinite):
        metric_values(chyp, [[0.1, 0.2], [np.nan, 0.0]])


def test_metric_values_matches_jets(hopf):
    p = [0.7, 0.2 - 0.4j]
    jets, _ = gd.metric_jet(hopf, p)
    G = metric_values(hopf, p)
    for i in range(2):
        for j in range(2):
            assert G[i, j] == pytest.approx(jets[i][j].value)
