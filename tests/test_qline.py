"""The q-line: symmetrized, the canonical plane's curvature depends on (t, s)
only through q = (1 - p)^2 + s^2.  The basis collapses to the pair
(sym R^C, X), X = -sym(T^j_rk conj(T^i_rl)), and the HSC of D^t_s has a
closed form in the Chern HSC and the torsion, nonincreasing in q."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

import gauduchon as gd
import gauduchon.connection as connection
import gauduchon.curvature as curvature

from conftest import bases_of

ADM_SPEC = {"chart": "admissible", "n": 2, "a": 0.5,
            "multipliers": [[0.5, 0], [0.5, 0]],
            "A": [[[0.2, 0], [0, 0]], [[0, 0], [0.1, 0]]], "c0": 1.0}
CHARTS = {
    "admissible": gd.make_chart(ADM_SPEC),
    "hopf3": gd.hopf_chart(3),
    "hopf6": gd.hopf_chart(6),
    "fs_bergman": gd.fs_bergman_chart(),
    "fubini_study3": gd.fubini_study_chart(3),
}


def record(name, count, seed):
    chart = CHARTS[name]
    return chart, connection._metric_points(
        chart, gd.sample_points(chart, count, np.random.default_rng(seed)))


@settings(max_examples=30, deadline=None, database=None)
@given(name=st.sampled_from(sorted(CHARTS)), count=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1))
def test_symmetrized_basis_is_the_qline_pair(name, count, seed):
    """sym B[1] = 0, sym B[2] = sym B[3] = X and sym B[0] = sym R^C + 2X,
    each to 1e-15 of max|B|, with (sym R^C, X) the production pair."""
    _, b = record(name, count, seed)
    B = curvature._symmetrized(bases_of(b))
    S, X = np.moveaxis(curvature._qline_pair(connection._chern_stack(b, b.E),
                                             connection._frame_torsion(b, b.E)), 1, 0)
    tol = 1e-15 * max(1.0, np.max(np.abs(bases_of(b))))
    for got, want in ((B[:, 1], 0.0), (B[:, 2], X), (B[:, 3], X), (B[:, 0], S + 2 * X)):
        assert np.max(np.abs(got - want)) <= tol


def qline_hsc(chart, q, z, eta):
    """H^D(eta) = H^C(eta) - q sum_r |sum_{j,k} T^j_rk eta_k conj(eta_j)|^2
    / |eta|^4, from the Chern curvature and the torsion alone."""
    HC = gd.hsc(gd.chern_curvature(chart, z), eta)
    T = gd.chern_torsion(chart, z)
    v = np.einsum("jrk,...k,...j->...r", T, eta, eta.conj())
    return HC - q * np.sum(np.abs(v) ** 2, axis=-1) / np.sum(np.abs(eta) ** 2, axis=-1) ** 2


cells = st.tuples(st.floats(-4.0, 4.0), st.floats(-3.0, 3.0))


@settings(max_examples=30, deadline=None, database=None)
@given(name=st.sampled_from(sorted(CHARTS)), cell=cells, other=cells,
       seed=st.integers(0, 2**32 - 1))
def test_hsc_closed_form_and_monotone_in_q(name, cell, other, seed):
    """The closed form equals `hsc` of the canonical curvature at every
    (t, s); at a fixed direction, the cell with the larger q has the
    smaller HSC."""
    chart = CHARTS[name]
    rng = np.random.default_rng(seed)
    z = gd.sample_points(chart, 1, rng)[0]
    draws = rng.standard_normal((4, 2, chart.n))
    eta = draws[:, 0] + 1j * draws[:, 1]
    H = []
    for ts in (cell, other):
        q = gd.qline_weights(ts)[1]
        R = gd.canonical_curvature(chart, ts, z).R
        H.append(gd.hsc(R, eta))
        scale = max(1.0, np.max(np.abs(R)))
        assert np.max(np.abs(H[-1] - qline_hsc(chart, q, z, eta))) <= 1e-12 * scale
    (q1, q2), scale = gd.qline_weights([cell, other])[:, 1], max(1.0, *np.abs(H).ravel())
    lo, hi = (H[0], H[1]) if q1 <= q2 else (H[1], H[0])
    assert np.all(hi <= lo + 1e-12 * scale)


def test_qline_weights():
    """(1, q) with q = (1 - p)^2 + s^2: 0 at Chern, 4 on the circle law's
    cells, 2 at Levi-Civita; shaped as `canonical_weights` shapes its rows."""
    np.testing.assert_array_equal(gd.qline_weights((1.0, 0.0)), [1.0, 0.0])
    np.testing.assert_array_equal(gd.qline_weights([(3.0, 0.0), (-1.0, 2.0), (0.0, 1.0)]),
                                  [[1.0, 4.0], [1.0, 4.0], [1.0, 2.0]])
    assert gd.qline_weights([]).shape == (0, 2)
    with pytest.raises(gd.ConfigError, match="qline_weights"):
        gd.qline_weights((1.0,))
    W = gd.canonical_weights([(0.5, 0.5), (2.0, -1.0)])
    # the weights on sym B = (sym R^C + 2X, 0, X, X) sum to (1, q)
    np.testing.assert_allclose(np.stack([W[:, 0], 2 * W[:, 0] + W[:, 2] + W[:, 3]], axis=1),
                               gd.qline_weights([(0.5, 0.5), (2.0, -1.0)]), rtol=0, atol=1e-15)
