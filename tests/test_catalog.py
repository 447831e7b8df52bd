import re

import numpy as np
import pytest

import gauduchon as gd
from gauduchon.catalog import SPEC_KEYS
from gauduchon.connection import MetricChart, _check_points, metric_values
from gauduchon.errors import DomainError, InvalidSpec, ZeroPoint
from gauduchon.wjet import Const, Div, Quadratic

from conftest import pts_of


def maxabs(x):
    return float(np.max(np.abs(x)))


# ---------------------------------------------------------------------------
# make_chart and constructors


def test_hopf_components_at_unit_point(hopf):
    G = metric_values(hopf, [1, 0])
    assert G[0, 0] == pytest.approx(1.0)
    assert G[0, 1] == pytest.approx(0.0)


def test_admissible_components(adm):
    G = metric_values(adm, [1, 0])
    np.testing.assert_allclose(G, np.eye(2) / 1.4, atol=1e-15)


def test_fs_bergman_components(fsb):
    rng = np.random.default_rng(0)
    for p in pts_of(fsb, 10, 1):
        G = metric_values(fsb, p)
        assert G[0, 0] == pytest.approx(2.0 / (1 - abs(p[0]) ** 2) ** 2)
        assert G[1, 1] == pytest.approx(2.0 / (1 + abs(p[1]) ** 2) ** 2)
        assert G[0, 1] == 0 and G[1, 0] == 0


def test_catalog_positive_definite_everywhere(catalog_charts):
    for chart in catalog_charts:
        for p in pts_of(chart, 200, 2):
            G = metric_values(chart, p)
            eig = np.linalg.eigvalsh(0.5 * (G + G.conj().T))
            assert eig.min() > 0, chart.label


# One spec of every chart tag; the admissible ones with real and with
# complex entries of A.
CATALOG_SPECS = [
    {"chart": "euclidean", "n": 2},
    {"chart": "hopf_standard", "n": 2, "a": 0.5},
    {"chart": "fs_bergman"},
    {"chart": "fubini_study", "n": 2},
    {"chart": "complex_hyperbolic", "n": 2},
    {"chart": "admissible", "n": 2, "a": 0.5,
     "multipliers": [[0.5, 0], [0.5, 0]],
     "A": [[[0.2, 0], [0, 0]], [[0, 0], [0.1, 0]]], "c0": 1.0},
    {"chart": "admissible", "n": 2, "a": 0.5,
     "A": [[[0.2, 0.1], [0, 0.05]], [[0, 0.05], [0.1, 0]]], "c0": 1.3},
    {"chart": "conformal", "base": {"chart": "euclidean", "n": 2},
     "f": "(mul 0.1 (add z1 zbar1))"},
    {"chart": "inline", "n": 2,
     "g": [["(add 1 (mul z1 zbar1))", "0"], ["0", "1"]]},
]


def test_make_chart_json_tags(adm_spec):
    assert {spec["chart"] for spec in CATALOG_SPECS} == set(SPEC_KEYS)
    for spec in CATALOG_SPECS:
        chart = gd.make_chart(spec)
        p = gd.sample_points(chart, 1, 3)[0]
        metric_values(chart, p)


@pytest.mark.parametrize("spec", CATALOG_SPECS, ids=lambda spec: spec["chart"])
def test_serialized_components_parse_back_to_the_same_field(spec):
    """Every component of every catalog chart serializes to text that
    `parse_field` reads back into a field with bit-equal values and jets."""
    chart = gd.make_chart(spec)
    Z = np.array(gd.sample_points(chart, 4, 5))
    fields = [f for row in chart.g for f in row]
    parsed = [gd.parse_field(f.serialize()) for f in fields]
    for f, g in zip(fields, parsed):
        assert g.serialize() == f.serialize()
        np.testing.assert_array_equal(g._value(Z), f._value(Z))
    for jf, jg in zip(gd.eval_jets(fields, Z), gd.eval_jets(parsed, Z)):
        for part in ("value", "d", "dbar", "dd", "ddbar", "dbardbar"):
            np.testing.assert_array_equal(getattr(jg, part), getattr(jf, part))


@pytest.mark.parametrize("spec", [spec for spec in CATALOG_SPECS
                                  if spec["chart"] in ("hopf_standard", "admissible")]
                         + [{"chart": "hopf_standard", "n": 6}], ids=lambda spec: spec["chart"])
def test_hopf_family_components_are_one_quadratic_form(spec):
    """The diagonal components of the Hopf-family charts are c0 over one
    closed-form quadratic form, shared by every diagonal entry."""
    chart = gd.make_chart(spec)
    [comp] = {id(chart.g[i][i]): chart.g[i][i] for i in range(chart.n)}.values()
    assert isinstance(comp, Div) and isinstance(comp.a, Const) and isinstance(comp.b, Quadratic)
    assert comp.a.value == spec.get("c0", 1.0)


def test_make_chart_admissible_matches_constructor(adm, adm_spec):
    chart = gd.make_chart({"chart": "admissible", "n": 2, "a": 0.5,
                           "multipliers": [[0.5, 0], [0.5, 0]],
                           "A": [[[0.2, 0], [0, 0]], [[0, 0], [0.1, 0]]]})
    p = [0.7, 0.2 - 0.1j]
    np.testing.assert_allclose(metric_values(chart, p), metric_values(adm, p),
                               atol=1e-15)


@pytest.mark.parametrize("bad", [
    {"chart": "nope"},
    {"chart": "conformal", "base": {"chart": "euclidean", "n": 2}},
    {"chart": "inline", "n": 2},
    "euclidean",
])
def test_make_chart_rejects_bad_specs(bad):
    with pytest.raises(InvalidSpec):
        gd.make_chart(bad)


@pytest.mark.parametrize("a", [-3.0, 0.0, 1.0, float("nan")])
def test_hopf_modulus_outside_the_unit_interval_is_refused(a):
    """As `admissible` does, `hopf_standard` refuses a modulus outside
    (0, 1), NaN included: its sampler would leave the fundamental annulus
    and reach the origin.  make_chart refuses a NaN as a non-finite
    number before the chart sees it."""
    with pytest.raises(InvalidSpec, match=re.escape(f"modulus: a = {a} not in (0, 1)")):
        gd.hopf_chart(2, a)
    with pytest.raises(InvalidSpec, match="finite number" if np.isnan(a) else "modulus"):
        gd.make_chart({"chart": "hopf_standard", "n": 2, "a": a})


def test_hopf_modulus_near_one_leaves_no_sampling_region():
    with pytest.raises(InvalidSpec, match="no safe sampling region"):
        gd.make_chart({"chart": "hopf_standard", "n": 2, "a": 0.92})


# ---------------------------------------------------------------------------
# validate_admissible


def test_validate_admissible_valid(adm_spec):
    assert gd.validate_admissible(adm_spec) == []


def test_validate_spectral_bound_violation():
    spec = gd.hopf_spec(2, 0.5, A=[[0.6, 0], [0, 0]])
    out = gd.validate_admissible(spec)
    assert any("spectral bound" in v and "0.36" in v for v in out)


def test_validate_equivariance_violation():
    spec = gd.hopf_spec(2, 0.5, multipliers=(0.5j, 0.5), A=[[0.2, 0], [0, 0]])
    out = gd.validate_admissible(spec)
    assert any("equivariance" in v for v in out)
    # the actual defect: (a_1)^2 0.2 = -0.05 vs a^2 0.2 = +0.05
    D = np.diag(spec.mult_vector())
    A = spec.matrix()
    assert (D @ A @ D)[0, 0] == pytest.approx(-0.05)
    assert (0.25 * A)[0, 0] == pytest.approx(0.05)


def test_validate_modulus_and_symmetry():
    assert any("modulus" in v for v in
               gd.validate_admissible(gd.hopf_spec(2, 1.5)))
    bad_sym = gd.hopf_spec(2, 0.5, A=[[0.0, 0.1], [0.0, 0.0]])
    assert any("symmetry" in v for v in gd.validate_admissible(bad_sym))


def test_admissible_chart_rejects_invalid():
    with pytest.raises(InvalidSpec):
        gd.admissible_chart(gd.hopf_spec(2, 0.5, A=[[0.6, 0], [0, 0]]))


def test_xi_equivariance_under_deck_map(adm_spec):
    """sigma^* xi_A = a^2 xi_A on samples (the chart-level deck relation)."""
    xi = gd.xi_field(adm_spec)
    mult = adm_spec.mult_vector()
    rng = np.random.default_rng(4)
    for _ in range(20):
        p = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        assert xi(mult * p) == pytest.approx(adm_spec.a ** 2 * xi(p), rel=1e-12)


# ---------------------------------------------------------------------------
# admissible_hsc_reference


def test_hsc_reference_zero_matrix():
    spec = gd.hopf_spec(2, 0.5)
    assert gd.admissible_hsc_reference(spec, [0.7, 0.2 + 0.1j]) == 0.0


def test_hsc_reference_pinned_value(adm_spec):
    assert gd.admissible_hsc_reference(adm_spec, [1, 0]) == pytest.approx(-0.4)


def test_hsc_reference_real_and_finite(adm_spec):
    rng = np.random.default_rng(5)
    for _ in range(100):
        p = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        v = gd.admissible_hsc_reference(adm_spec, p)
        assert isinstance(v, float) and np.isfinite(v)


def test_hsc_reference_nonconstant_for_nonzero_A(adm_spec, adm):
    vals = [gd.admissible_hsc_reference(adm_spec, p) for p in pts_of(adm, 200, 6)]
    assert max(vals) - min(vals) > 1e-3


def test_hsc_reference_scales_with_c0():
    spec1 = gd.hopf_spec(2, 0.5, A=[[0.2, 0], [0, 0.1]])
    spec2 = gd.hopf_spec(2, 0.5, A=[[0.2, 0], [0, 0.1]], c0=2.0)
    assert gd.admissible_hsc_reference(spec2, [1, 0]) == pytest.approx(
        0.5 * gd.admissible_hsc_reference(spec1, [1, 0]))


# ---------------------------------------------------------------------------
# hopf_t3_reference


def test_t3_reference_pinned_values():
    R = gd.hopf_t3_reference([0, 1]).R
    assert R[0, 0, 1, 1] == pytest.approx(4.0)
    assert R[1, 1, 0, 0] == pytest.approx(0.0)
    assert R[0, 1, 0, 1] == pytest.approx(0.0)
    R10 = gd.hopf_t3_reference([1, 0]).R
    assert R10[0, 0, 1, 1] == pytest.approx(0.0)   # 3 - 3


def test_t3_reference_zero_point_raises():
    with pytest.raises(ZeroPoint):
        gd.hopf_t3_reference([0, 0])


def test_t3_reference_constancy(hopf):
    for p in pts_of(hopf, 50, 7):
        c, res = gd.constancy_residual(gd.hopf_t3_reference(p))
        assert abs(c) < 1e-12 and res < 1e-12


def test_t3_reference_matches_direct(hopf):
    for p in pts_of(hopf, 50, 8):
        d = maxabs(gd.gauduchon_curvature(hopf, 3.0, p).R
                   - gd.hopf_t3_reference(p).R)
        assert d < 1e-8


def test_t3_reference_general_dimension():
    hopf3 = gd.hopf_chart(3)
    for p in pts_of(hopf3, 5, 9):
        d = maxabs(gd.gauduchon_curvature(hopf3, 3.0, p).R
                   - gd.hopf_t3_reference(p).R)
        assert d < 1e-8


# ---------------------------------------------------------------------------
# circle_residual


@pytest.mark.parametrize("t,s,expected", [
    (-1.0, 0.0, 0.0), (3.0, 0.0, 0.0), (-1.0, 2.0, 0.0),
    (1.0, 0.0, -4.0), (0.0, 0.0, -3.0),
])
def test_circle_residual_values(t, s, expected):
    assert gd.circle_residual(t, s) == pytest.approx(expected)


def test_circle_residual_sqrt3():
    assert gd.circle_residual(0.0, np.sqrt(3.0)) == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize("t", [-2.0, 0.0, 1.0, 5.0])
def test_levi_civita_always_off_circle(t):
    assert gd.circle_residual(t, 1.0) == pytest.approx(-2.0)


# ---------------------------------------------------------------------------
# circle law on the admissible chart


def test_circle_params_match_reference(adm, adm_spec):
    pts = pts_of(adm, 50, 10)
    circle = [(-1.0, 0.0), (3.0, 0.0), (-1.0, 2.0), (0.0, np.sqrt(3.0))]
    assert all(abs(gd.circle_residual(*ts)) < 1e-12 for ts in circle)
    c, res = gd.constancy_table(adm, circle, pts)
    ref = [gd.admissible_hsc_reference(adm_spec, p) for p in pts]
    assert np.all(res < 1e-7)
    for row in c:
        assert list(row) == pytest.approx(ref, abs=1e-7)


@pytest.mark.parametrize("spec_kwargs", [
    # non-diagonal symmetric A, equal real multipliers
    dict(A=[[0.15, 0.1], [0.1, -0.05]]),
    # sign-flipped multiplier: a_1 a_1 = a^2 still holds for diagonal A
    dict(multipliers=(-0.5, 0.5), A=[[0.2, 0], [0, 0.1]]),
    # complex phase pair: a_1 a_1 = (0.5i)^2 = -0.25 needs A_11 = 0
    dict(multipliers=(0.5j, 0.5), A=[[0.0, 0], [0, 0.1]]),
])
def test_circle_law_generalizes_over_specs(spec_kwargs):
    spec = gd.hopf_spec(2, 0.5, **spec_kwargs)
    assert gd.validate_admissible(spec) == []
    chart = gd.admissible_chart(spec)
    pts = pts_of(chart, 10, 13)
    c, res = gd.constancy_table(chart, [(-1.0, 0.0), (3.0, 0.0), (-1.0, 2.0)], pts)
    ref = [gd.admissible_hsc_reference(spec, p) for p in pts]
    assert np.all(res < 1e-7)
    for row in c:
        assert list(row) == pytest.approx(ref, abs=1e-7)


def test_off_circle_params_fail_constancy(adm):
    off = [(1.0, 0.0), (0.0, 0.0), (2.0, 1.0)]
    _, res = gd.constancy_table(adm, off, pts_of(adm, 20, 11))
    for ts, row in zip(off, res):
        assert row.max() > 1e-3, ts


def test_sampler_respects_safe_regions(catalog_charts):
    for chart in catalog_charts:
        for p in pts_of(chart, 100, 12):
            r = np.linalg.norm(p)
            if chart.label.startswith(("hopf", "admissible")):
                assert 0.55 - 1e-12 <= r <= 0.95 + 1e-12
            if chart.label.startswith("complex_hyperbolic"):
                assert r <= 0.9 + 1e-12
            if chart.label == "fs_bergman":
                assert abs(p[0]) <= 0.9 + 1e-12


# ---------------------------------------------------------------------------
# Stacked domains

# Each catalog domain as the per-point predicate the charts carried before
# domains took stacks; a conformal chart has its base's.
POINT_DOMAINS = {
    "hopf_standard": lambda p: bool(np.linalg.norm(p) > 1e-8),
    "admissible": lambda p: bool(np.linalg.norm(p) > 1e-8),
    "fs_bergman": lambda p: bool(abs(p[0]) < 1.0),
    "complex_hyperbolic": lambda p: bool(np.linalg.norm(p) < 1.0),
}


@pytest.mark.parametrize("spec", CATALOG_SPECS + [
    {"chart": "conformal", "base": {"chart": "hopf_standard", "n": 2}, "f": "(mul 0.1 z1 zbar1)"},
    {"chart": "hopf_standard", "n": 3}, {"chart": "complex_hyperbolic", "n": 1}],
    ids=lambda spec: spec["chart"])
def test_catalog_domains_take_stacks(spec):
    """Every catalog domain, on a stack of points inside and outside it,
    returns one bool per point: the values of the points one at a time and
    of the per-point predicate it replaced."""
    chart = gd.make_chart(spec)
    tag = spec["base"]["chart"] if spec["chart"] == "conformal" else spec["chart"]
    if tag not in POINT_DOMAINS:
        assert chart.domain is None
        return
    n = chart.n
    rng = np.random.default_rng(3)
    Z = np.concatenate([
        np.array(pts_of(chart, 6, 1)),
        np.zeros((1, n)), np.full((1, n), 1e-9), np.full((1, n), 0.999 / np.sqrt(n)),
        1.5 * np.eye(n), np.eye(n), 0.99 * np.eye(n),
        2 * (rng.standard_normal((6, n)) + 1j * rng.standard_normal((6, n)))]).astype(complex)
    inside = chart.domain(Z)
    assert inside.dtype == bool and inside.shape == (len(Z),)
    want = [POINT_DOMAINS[tag](z) for z in Z]
    assert inside.tolist() == want == [bool(chart.domain(z[None])[0]) for z in Z]
    assert 0 < sum(want) < len(want)


def test_stacked_check_names_the_first_point_outside():
    chart = gd.complex_hyperbolic_chart(2)
    pts = [[0.1, 0.2], [1.5, 0.0], [0.3, 0.0], [0.0, 2.0]]
    # The per-point loop's choice: the first point outside.
    first = next(z for z in np.array(pts, complex) if not POINT_DOMAINS["complex_hyperbolic"](z))
    with pytest.raises(DomainError, match=rf"^point {re.escape(str(first))} outside domain of "):
        _check_points(chart, pts)
    with pytest.raises(DomainError, match="outside domain"):
        metric_values(chart, np.array(pts))
    np.testing.assert_array_equal(_check_points(chart, pts[::2]), np.array(pts[::2], complex))


@pytest.mark.parametrize("domain", [
    lambda p: bool(np.linalg.norm(p) > 0.5),          # one bool for the stack
    lambda Z: np.linalg.norm(Z, axis=-1),              # numbers, not bools
    lambda Z: np.ones((len(Z), 1), bool),              # not one per point
])
def test_a_domain_that_is_not_one_bool_per_point_is_refused(domain):
    flat = gd.euclidean_chart(2)
    chart = MetricChart(2, flat.g, label="odd", domain=domain)
    with pytest.raises(InvalidSpec, match="domain of odd must return one bool per point"):
        _check_points(chart, [[0.7, 0.1], [0.2, 0.9]])
