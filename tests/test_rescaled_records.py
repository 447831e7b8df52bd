"""The rescaled records the conformal laws read: the scale jet times the
base record's jets under `WJet2.__mul__`, bit for bit the jets a fill of
the rescaled chart's trees gives, within the finite-difference oracle's
tolerance of the rescaled trees' jets, and failing as that fill fails.
Every record, base or rescaled, keeps an exactly symmetric packed Hessian,
and its five block names are views of its gradient and Hessian."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gauduchon as gd
import gauduchon.connection as connection
from gauduchon.cli import _conformal_factors, _jet_rel_err
from gauduchon.conformal import FactorAt, _rescaled_records
from gauduchon.errors import NonFinite, NotPositiveDefinite

from conftest import bases_of, make_generic_chart

# One spec of every catalog chart tag.
CATALOG = [
    {"chart": "euclidean", "n": 2},
    {"chart": "hopf_standard", "n": 2, "a": 0.5},
    {"chart": "hopf_standard", "n": 3},
    {"chart": "fs_bergman"},
    {"chart": "fubini_study", "n": 2},
    {"chart": "complex_hyperbolic", "n": 2},
    {"chart": "admissible", "n": 2, "a": 0.5,
     "A": [[[0.2, 0.1], [0, 0.05]], [[0, 0.05], [0.1, 0]]], "c0": 1.3},
    {"chart": "conformal", "base": {"chart": "euclidean", "n": 2},
     "f": "(mul 0.1 (add z1 zbar1))"},
    {"chart": "inline", "n": 2, "g": [["(add 1 (mul z1 zbar1))", "0"], ["0", "1"]]},
]


def stacked(jets):
    """One jet of the jets' rows, block after block."""
    return gd.WJet2(*map(np.concatenate, zip(*(vars(j).values() for j in jets))))


def assert_rel(got, want, rtol=1e-15):
    scale = max(float(np.max(np.abs(want))), 1e-300)
    assert float(np.max(np.abs(got - want))) <= rtol * scale


def assert_same_record(got, want):
    """Jets bit for bit; E, ginv and the bases built from the records
    within 1e-15 of their size."""
    for name in ("G", "grad", "hess"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name), err_msg=name)
    for name in ("E", "ginv"):
        assert_rel(getattr(got, name), getattr(want, name))
    assert_rel(*(bases_of(r) for r in (got, want)))


def assert_packed_record(b):
    """b's Hessian equal bit for bit to its transpose over the derivative
    pair, and its block names the cuts of grad and hess, read-only, also in
    a row without the point axis (`connection._rows`)."""
    n = b.G.shape[-1]
    np.testing.assert_array_equal(b.hess, b.hess.swapaxes(1, 2))
    cuts = {"dG": b.grad[:, :n], "dbarG": b.grad[:, n:], "ddG": b.hess[:, :n, :n],
            "ddbarG": b.hess[:, :n, n:], "dbardbarG": b.hess[:, n:, n:]}
    row = connection._rows(b, len(b.G) - 1)
    for name, cut in cuts.items():
        view = getattr(b, name)
        np.testing.assert_array_equal(view, cut, err_msg=name)
        assert np.shares_memory(view, cut) and not view.flags.writeable, name
        np.testing.assert_array_equal(getattr(row, name), cut[-1], err_msg=name)


@settings(max_examples=40, deadline=None, database=None)
@given(spec=st.sampled_from(range(len(CATALOG) + 1)), count=st.integers(1, 5),
       seed=st.integers(0, 2**32 - 1))
def test_records_keep_an_exactly_symmetric_packed_hessian(spec, count, seed):
    """On the fill of a catalog chart or the generic one, and on the
    rescaled records of the suite's conformal factors there: the lower mixed
    block the oracle's Christoffel symbols read is ddbarG transposed."""
    chart = gd.make_chart(CATALOG[spec]) if spec < len(CATALOG) else make_generic_chart()
    pts = gd.sample_points(chart, count, np.random.default_rng(seed))
    b = connection._metric_points(chart, pts)
    assert_packed_record(b)
    factors = _conformal_factors(chart.n)
    Z = np.array(pts)
    jet = stacked(gd.eval_jets(factors, Z))
    assert_packed_record(_rescaled_records([f"f{k}" for k in range(len(factors))], Z, b, jet))


@settings(max_examples=40, deadline=None, database=None)
@given(spec=st.sampled_from(range(len(CATALOG))), which=st.integers(0, 2),
       count=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
def test_leibniz_record_equals_the_rescaled_trees_fill(spec, which, count, seed):
    chart = gd.make_chart(CATALOG[spec])
    factors = _conformal_factors(chart.n)
    f = factors[which % len(factors)]
    pts = gd.sample_points(chart, count, np.random.default_rng(seed))
    pair = gd.rescale(chart, f, check_points=pts)
    want = connection._metric_points(pair.rescaled, pts)
    Z = np.array(pts)
    [jet] = gd.eval_jets([f], Z)
    got = _rescaled_records([pair.rescaled.label], Z, connection._metric_points(chart, pts), jet)
    assert_same_record(got, want)
    assert_same_record(pair.at(pts).rescaled_data, want)
    assert all(not a.flags.writeable for a in vars(got).values())


@pytest.mark.parametrize("spec", range(len(CATALOG)))
def test_rescaled_jets_match_the_finite_difference_oracle(spec):
    """Each rescaled record's jets against `fd_jets` of the rescaled chart's
    component trees, to the `wjet_oracle` tolerance: a check of the product
    rule that does not run it."""
    chart = gd.make_chart(CATALOG[spec])
    pts = gd.sample_points(chart, 3, np.random.default_rng(5))
    fs = _conformal_factors(chart.n)
    pairs = [gd.rescale(chart, f, check_points=pts) for f in fs]
    records = FactorAt(chart, fs, np.array(pts),
                       connection._metric_points(chart, pts)).rescaled_data
    jets = (records.G, records.grad, records.hess)
    P = len(pts)
    for k, pair in enumerate(pairs):
        for i, j in np.ndindex(chart.n, chart.n):
            exact = gd.WJet2(*(a[k * P:(k + 1) * P, ..., i, j] for a in jets))
            err = _jet_rel_err(exact, gd.fd_jets(pair.rescaled.g[i][j], pts))
            assert np.max(err) <= 1e-5, (pair.rescaled.label, k, i, j)


@pytest.mark.parametrize("spec", [0, 2, 6])
def test_stacked_factors_equal_each_pair_on_its_own(spec):
    """A `FactorAt` of several factors walks them once and fills all the
    rescaled rows together; its rows run (factor, point), and each factor's
    block of rows is its pair's own `FactorAt`."""
    chart = gd.make_chart(CATALOG[spec])
    pts = gd.sample_points(chart, 5, np.random.default_rng(4))
    P = len(pts)
    fs = _conformal_factors(chart.n)
    pairs = [gd.rescale(chart, f, check_points=pts) for f in fs]
    stacked = FactorAt(chart, fs, np.array(pts), connection._metric_points(chart, pts))
    assert stacked.E.shape[0] == len(pairs) * P
    torsion = stacked.torsion_residuals()
    direct = stacked.delta_direct((3.0, 0.0))
    for k, pair in enumerate(pairs):
        block, one = slice(k * P, (k + 1) * P), pair.at(pts)
        for name in ("points", "value", "fr", "frbar", "grad2", "T", "E"):
            np.testing.assert_array_equal(getattr(stacked, name)[block], getattr(one, name),
                                          err_msg=name)
        for name, a in vars(stacked.data).items():
            np.testing.assert_array_equal(a[block], getattr(one.data, name), err_msg=name)
        assert_same_record(connection._rows(stacked.rescaled_data, block),
                           connection._metric_points(pair.rescaled, pts))
        np.testing.assert_array_equal(torsion[block], one.torsion_residuals())
        # one weighted sum over all the rows: BLAS rounds its blocks apart
        assert_rel(direct[block], one.delta_direct((3.0, 0.0)))


def overflow_case():
    """A real factor on the flat chart whose exp(2f) overflows at the second
    of three points only; the factor itself is finite there."""
    chart = gd.euclidean_chart(2)
    pts = np.array([[0.1, 0.2], [1.0, 0.0], [0.2, 0.1j]], dtype=complex)
    f = 200.0 * (gd.z(0) + gd.zbar(0))
    return chart, pts, gd.rescale(chart, f, check_points=pts)


def test_overflowing_scale_raises_as_the_trees_fill_does():
    chart, pts, pair = overflow_case()
    with pytest.raises(NonFinite) as walked, np.errstate(over="ignore", invalid="ignore"):
        connection._metric_points(pair.rescaled, pts)
    assert "at point [1.+0.j 0.+0.j]" in str(walked.value)
    with pytest.raises(NonFinite) as built, np.errstate(over="ignore", invalid="ignore"):
        pair.at(pts).rescaled_data
    assert str(built.value) == str(walked.value)
    ok = 0.1 * gd.abs2(2)
    stack = FactorAt(chart, [ok, pair.f, ok], pts, connection._metric_points(chart, pts))
    with pytest.raises(NonFinite) as stacked, np.errstate(over="ignore", invalid="ignore"):
        stack.rescaled_data
    assert str(stacked.value) == str(walked.value)


def test_a_bad_row_of_the_stacked_fill_names_its_own_chart_and_point():
    """Three factor blocks on one base: the second factor's scale is not
    real at the third point only, so its rescaled metric is not Hermitian
    there, and the error names that block's label and that point."""
    chart = gd.euclidean_chart(2)
    pts = np.array([[0.1, 0.2], [0.3, 0.0], [0.2 + 0.3j, 0.1]], dtype=complex)
    jets = gd.eval_jets([0.1 * gd.abs2(2), gd.z(0) - gd.zbar(0), 0.1 * gd.abs2(2)], pts)
    base = connection._metric_points(chart, pts)
    labels = ["A*exp(2f)", "B*exp(2f)", "C*exp(2f)"]
    with pytest.raises(NotPositiveDefinite,
                       match=r"^metric of B\*exp\(2f\) is not Hermitian at \[0\.2\+0\.3j"):
        _rescaled_records(labels, pts, base, stacked(jets))
    good = _rescaled_records(labels[:1], pts, base, jets[0])
    assert good.G.shape == (3, 2, 2)
