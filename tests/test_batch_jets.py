"""Property tests of the batch walk `eval_jets` on random expression trees.

Trees are grown from a pool, so later nodes reuse earlier ones and several
fields share subtrees: the walk's identity memo evaluates each shared node
once, and every row must still match the single-point jet and the
finite-difference oracle.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import gauduchon as gd
from gauduchon.errors import DomainError, NonFinite
from gauduchon.wjet import (Add, Const, Coord, CoordBar, Div, Exp, Log, Mul, Neg,
                            Pow, Sub, eval_jets)

PARTS = ("value", "d", "dbar", "dd", "ddbar", "dbardbar")
OPS = ("add", "sub", "mul", "div", "neg", "pow", "negpow", "exp", "log")

small = st.floats(-1.0, 1.0, allow_nan=False)


def _away_from_zero(node):
    """2 + node/4: far from the guards while |node| stays below 4."""
    return Add(Const(2.0), Mul(Const(0.25), node))


@st.composite
def forests(draw):
    """(n, fields, points, pool): every node built is a field, so fields
    share subtrees of one pool, and a field may repeat."""
    n = draw(st.sampled_from([2, 3, 1]))
    pool = [Coord(i) for i in range(n)] + [CoordBar(i) for i in range(n)]
    pool.append(Const(complex(draw(small), draw(small))))
    leaves = len(pool)
    # Uniform picks: sampled_from leans towards the first entries, which
    # would make most products z1 * z1.
    rnd = draw(st.randoms(use_true_random=False))
    for _ in range(draw(st.integers(4, 10))):
        op = rnd.choice(OPS)
        a, b = rnd.choice(pool), rnd.choice(pool)
        node = {
            "add": lambda: Add(a, b),
            "sub": lambda: Sub(a, b),
            "mul": lambda: Mul(a, b),
            "div": lambda: Div(a, _away_from_zero(b)),
            "neg": lambda: Neg(a),
            "pow": lambda: Pow(a, rnd.randint(0, 3)),
            "negpow": lambda: Pow(_away_from_zero(a), rnd.randint(-3, -1)),
            "exp": lambda: Exp(Mul(Const(0.5), a)),
            "log": lambda: Log(_away_from_zero(a)),
        }[op]()
        pool.append(node)
    fields = pool[leaves:] + [rnd.choice(pool)]
    P = draw(st.integers(1, 5))
    coords = draw(st.lists(small, min_size=2 * n * P, max_size=2 * n * P))
    Z = 0.7 * np.array(coords[:n * P]).reshape(P, n) \
        + 0.7j * np.array(coords[n * P:]).reshape(P, n)
    return n, fields, Z, pool


def _tame(pool, Z):
    """Every node stays below 4 in modulus at every point, so the guarded
    arguments 2 + node/4 keep |.| >= 1 and the oracle's step is accurate."""
    return all(abs(node(z)) < 4.0 for node in pool for z in Z)


@settings(max_examples=80, deadline=None)
@given(forests())
def test_batch_walk_matches_pointwise_and_oracle(forest):
    n, fields, Z, pool = forest
    assume(_tame(pool, Z))
    batch = eval_jets(fields, Z)
    assert len(batch) == len(fields)
    for field, jet in zip(fields, batch):
        assert np.shape(jet.value) == (len(Z),) and jet.dd.shape == (len(Z), n, n)
        for p, z in enumerate(Z):
            row = jet.row(p)
            np.testing.assert_array_equal(row.dd, row.dd.T)
            np.testing.assert_array_equal(row.dbardbar, row.dbardbar.T)
            single, oracle = gd.eval_jet(field, z), gd.fd_jet(field, z)
            scale = max(1.0, *(np.max(np.abs(getattr(row, k))) for k in PARTS))
            for k in PARTS:
                a = np.atleast_1d(getattr(row, k))
                assert np.max(np.abs(a - getattr(single, k))) <= 1e-13 * scale, k
                assert np.max(np.abs(a - getattr(oracle, k))) <= 1e-5 * scale, k


@settings(max_examples=80, deadline=None)
@given(forests(), st.data())
def test_value_walk_is_rowwise(forest, data):
    """`_value` on a (P, n) batch is `_value` row by row, and a guard hit at
    any one row refuses the whole batch."""
    n, fields, Z, pool = forest
    assume(_tame(pool, Z))
    for field in fields:
        batch = field._value(Z)
        rows = np.array([field._value(z) for z in Z])
        assert batch.shape == (len(Z),)
        assert np.max(np.abs(batch - rows)) <= 1e-13 * max(1.0, np.max(np.abs(rows)))
    field = data.draw(st.sampled_from(fields))
    row = data.draw(st.integers(0, len(Z) - 1))
    guarded = Log(Sub(field, Const(complex(field._value(Z)[row]))))
    with pytest.raises(DomainError, match="log guard"):
        guarded._value(Z)


def test_shared_nodes_are_evaluated_once(monkeypatch):
    calls = []
    inner = gd.abs2(2)
    original = type(inner)._jet

    def counting(self, walk):
        calls.append(id(self))
        return original(self, walk)

    monkeypatch.setattr(type(inner), "_jet", counting)
    f = Const(1.0) / inner
    zero = Const(0.0)
    jets = eval_jets([f, zero, zero, f], [[0.3, 0.4j], [0.5, -0.1]])
    assert calls == [id(inner)]
    assert jets[0] is jets[3] and jets[1] is jets[2]


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("field,points,err", [
    (gd.const(1.0) / gd.abs2(2), [[0.5, 0.1], [0.0, 0.0], [0.2, 0.3]], DomainError),
    (gd.log(gd.z(0)), [[0.5, 0.1], [0.0, 0.3]], DomainError),
    (gd.z(1) ** -2, [[0.5, 0.1], [0.5, 0.0]], DomainError),
    (gd.exp(gd.const(800.0) * gd.z(0)), [[0.1, 0.0], [1.0, 0.0]], NonFinite),
])
def test_batch_errors_name_the_offending_point(field, points, err):
    bad = np.asarray(points[-1] if err is NonFinite else points[1], dtype=complex)
    with pytest.raises(err, match=r"at point \[") as info:
        eval_jets([field], points)
    assert str(bad) in str(info.value)
    with pytest.raises(err):
        gd.eval_jet(field, bad)
