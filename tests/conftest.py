from types import SimpleNamespace

import numpy as np
import pytest

import gauduchon as gd
import gauduchon.connection as connection

# A jet's value and its five Hessian and gradient blocks by name: the six
# parts the tests' block-by-block references read.
JET_PARTS = ("value", "d", "dbar", "dd", "ddbar", "dbardbar")


@pytest.fixture(scope="session")
def flat():
    return gd.euclidean_chart(2)


@pytest.fixture(scope="session")
def hopf():
    return gd.hopf_chart(2)


@pytest.fixture(scope="session")
def fsb():
    return gd.fs_bergman_chart()


@pytest.fixture(scope="session")
def fs():
    return gd.fubini_study_chart(2)


@pytest.fixture(scope="session")
def chyp():
    return gd.complex_hyperbolic_chart(2)


@pytest.fixture(scope="session")
def adm_spec():
    return gd.hopf_spec(2, 0.5, A=[[0.2, 0.0], [0.0, 0.1]])


@pytest.fixture(scope="session")
def adm(adm_spec):
    return gd.admissible_chart(adm_spec)


@pytest.fixture(scope="session")
def kahler_charts(flat, fs, fsb, chyp):
    return [flat, fs, fsb, chyp]


@pytest.fixture(scope="session")
def catalog_charts(flat, hopf, adm, fs, fsb, chyp):
    return [flat, hopf, adm, fs, fsb, chyp]


@pytest.fixture(scope="session")
def non_selfdual():
    """Kaehler product of curvatures -1 and +1/2: not conformally flat, not
    constant-HSC, hence W_- != 0 (the negative control for self-duality)."""
    g11 = gd.const(2.0) / (gd.const(1.0) - gd.z(0) * gd.zbar(0)) ** 2
    g22 = gd.const(4.0) / (gd.const(1.0) + gd.z(1) * gd.zbar(1)) ** 2
    zero = gd.const(0.0)
    return gd.inline_chart(2, [[g11, zero], [zero, g22]], label="unbalanced_product")


def make_generic_chart():
    """Non-diagonal, non-Kahler Hermitian metric: the hardest input class."""
    g11 = gd.parse_field("(add 1 (mul z1 zbar1) (mul 0.5 z2 zbar2))")
    g22 = gd.parse_field("(add 1 (mul z1 zbar1))")
    g12 = gd.parse_field("(mul 0.1 z2 zbar1)")
    g21 = gd.parse_field("(mul 0.1 zbar2 z1)")
    return gd.inline_chart(2, [[g11, g12], [g21, g22]], label="generic")


def pts_of(chart, count, seed):
    return gd.sample_points(chart, count, np.random.default_rng(seed))


def curvatures(bases, params_list):
    """R[cell, p] of D^t_s for every (t, s) of params_list at every point of
    a `canonical_bases` stack: one `canonical_weights` row per cell, the
    stacked form of `canonical_curvature`."""
    return np.tensordot(gd.canonical_weights(params_list), bases, (1, 1))


def jet_rel_err(je, jf) -> float:
    """Relative difference of one point's exact jet je from its
    finite-difference jet jf: the suite's `wjet_oracle` formula, point by
    point, the reference for its batched form."""
    num, scale = 0.0, 1.0
    for name in JET_PARTS:
        a = np.atleast_1d(getattr(je, name))
        b = np.atleast_1d(getattr(jf, name))
        num = max(num, float(np.max(np.abs(a - b))))
        scale = max(scale, float(np.max(np.abs(a))))
    return num / scale


def bases_of(b, E=None):
    """`connection._basis_stack` of a fill record's Chern curvature and
    torsion, in its Cholesky frames or the unitary frames E[p]."""
    E = b.E if E is None else E
    return connection._basis_stack(connection._chern_stack(b, E), connection._frame_torsion(b, E))


def torsion_dbar_reference(pd):
    """TD[j, i, k, l] = T^j_{ik,lbar} of one point's metric data `pd` (a
    record row without its point axis, `connection._rows(b, k)`) in its
    Cholesky frame, from the coordinate formula: the Chern connection has
    no mixed coordinate Christoffel symbols, so this is
    dbar_l of the coordinate torsion (1/2)(Gamma^j_ik - Gamma^j_ki),
    Gamma^j_ik = g^{j qbar} d_i g_{k qbar}, moved to the frame as a
    (1,3)-tensor.  The production code reads it off the Chern curvature by
    the first Bianchi identity instead."""
    ginv, E = pd.ginv, pd.E
    # dbar_l g^{j qbar} = -g^{j bbar} (dbar_l g_{a bbar}) g^{a qbar}
    dginv = -np.einsum("jb,lab,aq->ljq", ginv, pd.dbarG, ginv)
    dGamma = np.einsum("ljq,ikq->jikl", dginv, pd.dG) \
        + np.einsum("jq,ilkq->jikl", ginv, pd.ddbarG)
    TDc = 0.5 * (dGamma - dGamma.transpose(0, 2, 1, 3))
    return np.einsum("aj,jikl,ib,kc,ld->abcd", np.linalg.inv(E), TDc, E, E, E.conj())


def jet_blocks(jet):
    """The six parts of a jet by name (`JET_PARTS`), as the six-block
    references below take and return them."""
    return SimpleNamespace(**{name: getattr(jet, name) for name in JET_PARTS})


def _outer(x, y):
    """Outer product over the last axis, rowwise over any batch axis."""
    return x[..., None] * y[..., None, :]


def mul_reference(s, o):
    """The Leibniz rule on six-block jets (`jet_blocks`), one formula per
    block: the reference for the packed `WJet2.__mul__`."""
    a, b = s.value[..., None], o.value[..., None]
    A, B = a[..., None], b[..., None]
    cross, crossb = _outer(s.d, o.d), _outer(s.dbar, o.dbar)
    return SimpleNamespace(
        value=s.value * o.value,
        d=s.d * b + a * o.d,
        dbar=s.dbar * b + a * o.dbar,
        dd=(s.dd * B + A * o.dd) + (cross + cross.swapaxes(-1, -2)),
        ddbar=s.ddbar * B + _outer(s.d, o.dbar) + _outer(o.d, s.dbar) + A * o.ddbar,
        dbardbar=(s.dbardbar * B + A * o.dbardbar) + (crossb + crossb.swapaxes(-1, -2)))


def compose_reference(s, h0, h1, h2):
    """The chain rule for h(f) on a six-block jet, given h(value), h'(value)
    and h''(value): the reference for the packed `WJet2.compose`."""
    X, Xb = _outer(s.d, s.d), _outer(s.dbar, s.dbar)
    g1 = np.asarray(h1)[..., None]
    G1, G2 = g1[..., None], np.asarray(h2)[..., None, None]
    return SimpleNamespace(
        value=h0, d=g1 * s.d, dbar=g1 * s.dbar,
        dd=G2 * (0.5 * (X + X.swapaxes(-1, -2))) + G1 * s.dd,
        ddbar=G2 * _outer(s.d, s.dbar) + G1 * s.ddbar,
        dbardbar=G2 * (0.5 * (Xb + Xb.swapaxes(-1, -2))) + G1 * s.dbardbar)


def quadratic_tree(H):
    """(1/2) w^T H w over w = (z, zbar) as a left-folded `Add` of `Mul`
    terms over `Coord`/`CoordBar` leaves, one per entry a <= b of the upper
    triangle: the tree form of `wjet.Quadratic`, its reference."""
    H = np.asarray(H, dtype=complex)
    n = len(H) // 2
    leaf = [gd.z(i) for i in range(n)] + [gd.zbar(i) for i in range(n)]
    terms = [gd.const(H[a, b] * (0.5 if a == b else 1.0)) * leaf[a] * leaf[b]
             for a, b in zip(*np.triu_indices(2 * n))]
    total = terms[0]
    for term in terms[1:]:
        total = total + term
    return total


def xi_tree_reference(spec):
    """xi_A = |z|^2 + tz A z + conj(tz A z) as the expression tree that
    `catalog.xi_field` built before its closed form: the reference for the
    `Quadratic` it returns now."""
    n, A = spec.n, spec.matrix()
    expr = gd.z(0) * gd.zbar(0)
    for i in range(1, n):
        expr = expr + gd.z(i) * gd.zbar(i)
    for i in range(n):
        for j in range(n):
            if A[i, j] != 0:
                expr = expr + gd.const(A[i, j]) * gd.z(i) * gd.z(j)
                expr = expr + gd.const(np.conj(A[i, j])) * gd.zbar(i) * gd.zbar(j)
    return expr
