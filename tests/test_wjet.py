import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gauduchon as gd
from gauduchon.errors import DimensionError, DomainError, InvalidSpec
from gauduchon.wjet import (Add, Const, Coord, CoordBar, Div, Mul, Neg, Pow, Sub, WJet2,
                            as_field)

from gauduchon.cli import CHECKS, _jet_rel_err

from conftest import (JET_PARTS, compose_reference, jet_blocks, mul_reference, quadratic_tree,
                      xi_tree_reference)


def rel_jet_err(f, pt, h=1e-4):
    je, jf = gd.eval_jet(f, pt), gd.fd_jet(f, pt, h)
    err, scale = 0.0, 1.0
    for name in ("value", "d", "dbar", "dd", "ddbar", "dbardbar"):
        a, b = np.atleast_1d(getattr(je, name)), np.atleast_1d(getattr(jf, name))
        err = max(err, float(np.max(np.abs(a - b))))
        scale = max(scale, float(np.max(np.abs(a))))
    return err / scale


def random_field(rng, n=2, depth=3):
    """Random expression over z, zbar with guarded div/log/exp."""
    if depth == 0:
        choice = rng.integers(3)
        if choice == 0:
            return gd.const(round(rng.uniform(-2, 2), 3))
        i = int(rng.integers(n))
        return gd.z(i) if choice == 1 else gd.zbar(i)
    a = random_field(rng, n, depth - 1)
    b = random_field(rng, n, depth - 1)
    op = rng.integers(6)
    if op == 0:
        return a + b
    if op == 1:
        return a - b
    if op == 2:
        return a * b
    if op == 3:
        return a / (gd.const(2.0) + gd.abs2(n))
    if op == 4:
        return gd.exp(gd.const(0.1) * a * b)
    return gd.log(gd.const(2.0) + gd.abs2(n)) * a


def test_abs2_jet_at_unit_point():
    j = gd.eval_jet(gd.abs2(2), [1, 0])
    assert j.value == 1
    np.testing.assert_array_equal(j.d, [1, 0])
    np.testing.assert_array_equal(j.dbar, [1, 0])
    np.testing.assert_array_equal(j.ddbar, np.eye(2))
    np.testing.assert_array_equal(j.dd, np.zeros((2, 2)))
    np.testing.assert_array_equal(j.dbardbar, np.zeros((2, 2)))


def test_constant_jet():
    j = gd.eval_jet(gd.const(2.5 - 1j), [0.3, 0.4j])
    assert j.value == 2.5 - 1j
    for name in ("d", "dbar", "dd", "ddbar", "dbardbar"):
        assert np.all(getattr(j, name) == 0)


def test_log_abs2_derived_values():
    # d_1 = zbar_1/|z|^2, ddbar_11 = (|z|^2 - |z_1|^2)/|z|^4 at (1, 0)
    j = gd.eval_jet(gd.log(gd.abs2(2)), [1, 0])
    np.testing.assert_allclose(j.d, [1, 0], atol=1e-15)
    np.testing.assert_allclose(j.ddbar[0, 0], 0.0, atol=1e-15)
    np.testing.assert_allclose(j.ddbar[1, 1], 1.0, atol=1e-15)


def test_fd_matches_exact_on_abs2():
    assert rel_jet_err(gd.abs2(2), [1, 0]) <= 1e-6


def test_fd_on_constant_is_tiny():
    j = gd.fd_jet(gd.const(3.7), [0.2 + 0.1j, -0.5])
    for name in ("d", "dbar", "dd", "ddbar", "dbardbar"):
        assert np.max(np.abs(getattr(j, name))) <= 1e-12


@pytest.mark.parametrize("seed", range(20))
def test_fd_fuzz_degree3_polynomials(seed):
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal(6).round(2)
    f = (coeffs[0] * gd.z(0) * gd.z(0) * gd.zbar(1)
         + coeffs[1] * gd.z(1) + coeffs[2] * gd.zbar(0) * gd.z(1)
         + coeffs[3] * gd.zbar(1) * gd.zbar(1) * gd.z(0)
         + coeffs[4] * gd.z(0) * gd.z(1) + coeffs[5])
    pt = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    assert rel_jet_err(f, pt) <= 1e-5


@pytest.mark.parametrize("seed", range(10))
def test_random_trees_fd_agreement(seed):
    rng = np.random.default_rng(100 + seed)
    f = random_field(rng)
    pt = 0.7 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
    assert rel_jet_err(f, pt) <= 1e-5


@pytest.mark.parametrize("seed", range(10))
def test_dd_blocks_exactly_symmetric(seed):
    rng = np.random.default_rng(200 + seed)
    f = random_field(rng)
    pt = 0.5 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
    j = gd.eval_jet(f, pt)
    np.testing.assert_array_equal(j.dd, j.dd.T)
    np.testing.assert_array_equal(j.dbardbar, j.dbardbar.T)


@pytest.mark.parametrize("seed", range(6))
def test_real_field_conjugation_invariants(seed):
    rng = np.random.default_rng(300 + seed)
    g = random_field(rng)
    # f + conj(f) realized structurally by mirroring z <-> zbar is not
    # available; build manifestly real fields instead.
    f = (gd.z(0) * gd.zbar(0) + 0.3 * (gd.z(0) * gd.z(1) + gd.zbar(0) * gd.zbar(1))
         + gd.log(gd.const(1.5) + gd.abs2(2)))
    pt = 0.6 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
    j = gd.eval_jet(f, pt)
    assert abs(j.value.imag) < 1e-14
    np.testing.assert_allclose(j.dbar, np.conj(j.d), atol=1e-14)
    np.testing.assert_allclose(j.ddbar, j.ddbar.conj().T, atol=1e-14)
    np.testing.assert_allclose(j.dbardbar, np.conj(j.dd), atol=1e-14)


@pytest.mark.parametrize("seed", range(8))
def test_product_rule(seed):
    rng = np.random.default_rng(400 + seed)
    f, g = random_field(rng), random_field(rng)
    pt = 0.5 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
    jf, jg = gd.eval_jet(f, pt), gd.eval_jet(g, pt)
    jp = gd.eval_jet(f * g, pt)
    prod = jf * jg
    for name in ("value", "d", "dbar", "dd", "ddbar", "dbardbar"):
        np.testing.assert_allclose(np.atleast_1d(getattr(jp, name)),
                                   np.atleast_1d(getattr(prod, name)),
                                   rtol=0, atol=1e-12)


def test_quotient_and_power_rules():
    pt = np.array([0.4 + 0.3j, -0.2 + 0.1j])
    f = (gd.const(1.0) + gd.abs2(2)) ** 3 / (gd.const(2.0) + gd.z(0) * gd.zbar(1))
    assert rel_jet_err(f, pt) < 1e-6
    g = (gd.const(1.0) + gd.abs2(2)) ** (-2)
    assert rel_jet_err(g, pt) < 1e-6


def test_pow_zero_and_one():
    pt = [0.3, 0.5j]
    j0 = gd.eval_jet(gd.z(0) ** 0, pt)
    assert j0.value == 1 and np.all(j0.d == 0)
    j1 = gd.eval_jet(gd.z(0) ** 1, pt)
    assert j1.value == pytest.approx(0.3)


def test_log_of_zero_raises_domain_error():
    with pytest.raises(DomainError):
        gd.eval_jet(gd.log(gd.abs2(2)), [0, 0])


def test_division_guard_raises():
    with pytest.raises(DomainError):
        gd.eval_jet(gd.const(1.0) / gd.abs2(2), [0, 0])


def test_fd_jet_values_its_stencil_in_one_walk(monkeypatch):
    """The whole stencil at n = 2, 1 + 4m + 2m(m - 1) = 41 points for the
    m = 4 real coordinates, is one `_value` call at the root."""
    f = gd.const(1.0) / gd.abs2(2)
    calls = []
    value = Div._value

    def counted(self, z):
        if self is f:
            calls.append(np.shape(z))
        return value(self, z)

    monkeypatch.setattr(Div, "_value", counted)
    gd.fd_jet(f, [0.3 + 0.1j, -0.5j])
    assert calls == [(41, 2)]


def test_coordinate_out_of_range():
    with pytest.raises(DimensionError):
        gd.eval_jet(gd.z(3), [1, 0])


def test_serialize_roundtrip():
    rng = np.random.default_rng(5)
    for seed in range(6):
        f = random_field(np.random.default_rng(500 + seed))
        text = f.serialize()
        g = gd.parse_field(text)
        pt = 0.5 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
        assert f(pt) == pytest.approx(g(pt), rel=1e-14)


def test_parse_complex_literal_and_pow():
    f = gd.parse_field("(mul [0.0, 1.0] (pow z1 2))")
    assert f([2.0, 0.0]) == pytest.approx(4j)
    g = gd.parse_field("(div 1 (add (mul z1 zbar1) (mul z2 zbar2)))")
    assert g([1.0, 1.0]) == pytest.approx(0.5)


def test_parse_variadic_add_mul():
    f = gd.parse_field("(add 1 2 3 (mul 2 z1 zbar1))")
    assert f([2.0, 0.0]) == pytest.approx(6 + 8)


# A tree over every operator, a complex constant, z, zbar and a negative power.
GOLDEN = "(sub (add (mul [1.5, -0.25] z1) (div (neg zbar2) 2)) (log (exp (pow z2 -2))))"


def test_serialize_golden_text():
    f = Sub(Add(Mul(Const(1.5 - 0.25j), gd.z(0)), Div(Neg(gd.zbar(1)), Const(2))),
            gd.log(gd.exp(Pow(gd.z(1), -2))))
    assert f.serialize() == GOLDEN
    assert gd.parse_field(GOLDEN).serialize() == GOLDEN
    # add and mul take two or more arguments, folded left.
    assert (gd.parse_field("(add 1 z1 (mul 2 zbar1 z2))").serialize()
            == "(add (add 1 z1) (mul (mul 2 zbar1) z2))")
    assert not isinstance(CoordBar(0), Coord)


@pytest.mark.parametrize("bad", [
    "(frob z1 z2)", "(add 1)", "z0", "(pow z1 z2)", "(add 1 2", "1 2",
    "(pow z1 1.5)", "[1, x]",
])
def test_parse_errors(bad):
    with pytest.raises(InvalidSpec):
        gd.parse_field(bad)


@pytest.mark.parametrize("text,token", [
    ("inf", "inf"), ("-inf", "-inf"), ("nan", "nan"), ("1e999", "1e999"),
    ("(add 1 (mul inf 0))", "inf"), ("[1e999, 0]", "1e999"), ("[0, nan]", "nan"),
])
def test_non_finite_numbers_are_refused_by_name(text, token):
    """A number that reads as inf or nan is a malformed spec, named by its
    token, not a constant whose failure shows later at some point."""
    with pytest.raises(InvalidSpec, match=rf"number '{re.escape(token)}' in field expression "
                                          r"is not finite"):
        gd.parse_field(text)
    assert gd.parse_field("1e300").serialize() == "1e+300"


def test_as_field_lifts_numbers():
    f = as_field(2.0) * gd.z(0)
    assert f([3.0, 0.0]) == pytest.approx(6.0)


def test_jet_constant_helper():
    j = WJet2.constant(1 + 2j, 3)
    assert j.n == 3 and j.value == 1 + 2j


def random_jet(rng, n: int, P: int) -> WJet2:
    """A batched jet of P rows with random parts, its Hessian symmetric and
    its value of modulus in [0.5, 1.5], clear of the guards."""
    def c(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    H = c(P, 2 * n, 2 * n)
    value = (0.5 + rng.random(P)) * np.exp(2j * np.pi * rng.random(P))
    return WJet2(value, c(P, 2 * n), H + H.swapaxes(-1, -2))


def power_reference(s, k: int):
    """The k-th power of a six-block jet by the chain rule; k = 0 is the
    constant 1."""
    u = s.value
    if k == 0:
        zero = np.zeros_like
        return SimpleNamespace(value=np.ones_like(u), d=zero(s.d), dbar=zero(s.dbar),
                               dd=zero(s.dd), ddbar=zero(s.ddbar), dbardbar=zero(s.dbardbar))
    return compose_reference(s, u**k, k * u ** (k - 1),
                             k * (k - 1) * u ** (k - 2) if k != 1 else 0.0)


@settings(max_examples=100, deadline=None, database=None)
@given(n=st.integers(1, 4), P=st.integers(1, 4), k=st.integers(-3, 4),
       seed=st.integers(0, 2**32 - 1))
def test_packed_algebra_equals_the_six_block_formulas(n, P, k, seed):
    """The packed product, reciprocal, exp, log and integer powers against the
    six-block formulas to 1e-15 of the parts' size; every packed Hessian is
    exactly symmetric, its lower mixed block the upper one transposed."""
    rng = np.random.default_rng(seed)
    f, g = random_jet(rng, n, P), random_jet(rng, n, P)
    F, G = jet_blocks(f), jet_blocks(g)
    u = F.value
    cases = {
        "mul": (f * g, mul_reference(F, G)),
        "reciprocal": (f.reciprocal(), compose_reference(F, 1 / u, -1 / u**2, 2 / u**3)),
        "exp": (f.exp(), compose_reference(F, np.exp(u), np.exp(u), np.exp(u))),
        "log": (f.log(), compose_reference(F, np.log(u), 1 / u, -1 / u**2)),
        "pow": (f**k, power_reference(F, k)),
    }
    for op, (got, want) in cases.items():
        scale = max(1.0, *(np.max(np.abs(getattr(want, name))) for name in JET_PARTS))
        for name in JET_PARTS:
            err = np.max(np.abs(getattr(got, name) - getattr(want, name)))
            assert err <= 1e-15 * scale, (op, name, err / scale)
        np.testing.assert_array_equal(got.dd, got.dd.swapaxes(-1, -2))
        np.testing.assert_array_equal(got.dbardbar, got.dbardbar.swapaxes(-1, -2))
        np.testing.assert_array_equal(got.hess[..., n:, :n], got.ddbar.swapaxes(-1, -2))


# ---------------------------------------------------------------------------
# The closed-form quadratic field


def random_symmetric(rng, n: int) -> np.ndarray:
    H = rng.standard_normal((2 * n, 2 * n)) + 1j * rng.standard_normal((2 * n, 2 * n))
    return H + H.T


@settings(max_examples=100, deadline=None, database=None)
@given(n=st.integers(1, 4), P=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_quadratic_jets_equal_its_tree_and_finite_differences(n, P, seed):
    """A `Quadratic` over a random symmetric H at a random stack: its jets
    equal the equivalent `Coord`/`CoordBar`/`Mul`/`Add` tree's to 1e-14 of
    the parts' size and its finite-difference jets within `wjet_oracle`'s
    tolerance, and its `_value` is rowwise, bit for bit."""
    rng = np.random.default_rng(seed)
    H = random_symmetric(rng, n)
    Z = 0.7 * (rng.standard_normal((P, n)) + 1j * rng.standard_normal((P, n)))
    q = gd.Quadratic(H)
    [got, want] = gd.eval_jets([q, quadratic_tree(H)], Z)
    scale = max(1.0, *(np.max(np.abs(getattr(want, name))) for name in JET_PARTS))
    for name in JET_PARTS:
        err = np.max(np.abs(getattr(got, name) - getattr(want, name)))
        assert err <= 1e-14 * scale, (name, err / scale)
    assert np.max(_jet_rel_err(got, gd.fd_jets(q, Z))) <= CHECKS["wjet_oracle"][0]
    values = q._value(Z)
    np.testing.assert_array_equal(values, got.value)
    np.testing.assert_array_equal(values, [q._value(z) for z in Z])
    np.testing.assert_array_equal(q._value(np.stack([Z, Z[::-1]])), [values, values[::-1]])


def test_quadratic_reads_back_bit_for_bit():
    rng = np.random.default_rng(7)
    for n in (1, 2, 3):
        H = random_symmetric(rng, n)
        H[0, 1] = H[1, 0] = 0.0        # written as 0
        H[0, 0] = complex(-0.0, 2.0)   # a signed zero part
        q = gd.Quadratic(H)
        text = q.serialize()
        assert text.startswith("(quad ")
        back = gd.parse_field(text)
        assert isinstance(back, gd.Quadratic) and back.serialize() == text
        assert back.H.tobytes() == q.H.tobytes()
    assert gd.abs2(2).serialize() == "(quad 0 0 1 0 0 0 1 0 0 0)"
    assert gd.parse_field("(quad [0, 1] 2 3)").H.tolist() == [[1j, 2], [2, 3]]


@pytest.mark.parametrize("text", [
    "(quad)", "(quad 1)", "(quad 1 2)", "(quad 1 2 3 4)", "(quad 1 2 3 4 5 6)",
    "(quad 1 2 z1)", "(quad 1 (add 1 2) 3)", "(quad 1 2 x)", "(quad 1 2 inf)",
])
def test_malformed_quad_is_refused(text):
    with pytest.raises(InvalidSpec):
        gd.parse_field(text)


def test_quadratic_refuses_a_point_of_another_dimension():
    q = gd.abs2(2)
    for z in ([1.0], [1.0, 0.0, 0.5]):
        with pytest.raises(DimensionError):
            gd.eval_jet(q, z)
        with pytest.raises(DimensionError):
            q(z)
    with pytest.raises(DimensionError):
        gd.Quadratic(np.eye(3))
    with pytest.raises(InvalidSpec):
        gd.Quadratic(np.triu(np.ones((2, 2))))


def test_quadratic_matrix_is_read_only():
    q = gd.Quadratic(np.eye(4))
    with pytest.raises(ValueError):
        q.H[0, 0] = 2.0
    jet = gd.eval_jets([q], [[0.3, 0.1j]])[0]
    with pytest.raises(ValueError):
        jet.hess[0, 0, 0] = 2.0


def test_abs2_and_xi_are_their_trees(adm_spec):
    """`abs2` and `catalog.xi_field` against the trees they replaced, on a
    real and a complex symmetric A."""
    rng = np.random.default_rng(11)
    Z = 0.5 * (rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2)))
    complex_spec = gd.hopf_spec(2, 0.5, A=[[0.2 + 0.1j, 0.05], [0.05, 0.1]])
    for q, tree in [(gd.abs2(2), gd.z(0) * gd.zbar(0) + gd.z(1) * gd.zbar(1)),
                    (gd.xi_field(adm_spec), xi_tree_reference(adm_spec)),
                    (gd.xi_field(complex_spec), xi_tree_reference(complex_spec))]:
        got, want = gd.eval_jets([q, tree], Z)
        for name in JET_PARTS:
            np.testing.assert_allclose(getattr(got, name), getattr(want, name),
                                       rtol=0, atol=1e-15)
