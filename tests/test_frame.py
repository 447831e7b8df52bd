"""Property tests of the frame-change helper against explicit einsum sums."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from gauduchon.connection import _to_frame

LETTERS = "abcd"
SLOTS = ("lower", "barred", "upper")
TOL = 1e-12          # relative to the bound max|X| * prod_k max_a sum_i |M_k[i, a]|


def cholesky_frame(rng, n):
    """Frame built the way the package builds it: E = inv(L^T) for the
    Cholesky factor L of a random Hermitian positive definite G."""
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    G = A @ A.conj().T + n * np.eye(n)
    return np.linalg.inv(np.linalg.cholesky(G).T)


def slot_matrix(E, slot):
    return {"lower": E, "barred": E.conj(), "upper": np.linalg.inv(E).T}[slot]


def einsum_reference(X, mats):
    """out[a, b, ...] = sum X[i, j, ...] M0[i, a] M1[j, b] ..., spelled out
    as one explicit einsum."""
    src = "ijkl"[:X.ndim]
    dst = LETTERS[:X.ndim]
    spec = ",".join([src] + [s + d for s, d in zip(src, dst)]) + "->" + dst
    return np.einsum(spec, X, *mats)


@settings(max_examples=30, deadline=None, database=None)
@given(n=st.integers(1, 6),
       slots=st.lists(st.sampled_from(SLOTS), min_size=2, max_size=4),
       seed=st.integers(0, 2**32 - 1))
def test_to_frame_matches_einsum(n, slots, seed):
    rng = np.random.default_rng(seed)
    E = cholesky_frame(rng, n)
    shape = (n,) * len(slots)
    X = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    mats = [slot_matrix(E, s) for s in slots]
    out = _to_frame(X, *mats)
    ref = einsum_reference(X, mats)
    assert out.shape == ref.shape
    scale = np.max(np.abs(X)) * np.prod([np.abs(M).sum(axis=0).max() for M in mats])
    assert np.max(np.abs(out - ref)) <= TOL * scale


def test_to_frame_accepts_read_only_strided_input():
    rng = np.random.default_rng(3)
    E = cholesky_frame(rng, 2)
    big = rng.standard_normal((4, 4, 4, 4)) + 0j
    big.setflags(write=False)
    block = big[:2, 2:, :2, 2:]
    mats = [E, E.conj(), E, E.conj()]
    np.testing.assert_allclose(_to_frame(block, *mats),
                               einsum_reference(block, mats), rtol=0, atol=1e-12)
