from types import SimpleNamespace

import numpy as np
import pytest

import gauduchon as gd


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


def pts_of(chart, count, seed):
    return gd.sample_points(chart, count, np.random.default_rng(seed))


def point_record(b, k):
    """Point k of a stacked fill record, its arrays without the point
    axis: the input of the tests' per-point reference formulas."""
    return SimpleNamespace(**{name: a[k] for name, a in vars(b).items()})


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
    for name in ("value", "d", "dbar", "dd", "ddbar", "dbardbar"):
        a = np.atleast_1d(getattr(je, name))
        b = np.atleast_1d(getattr(jf, name))
        num = max(num, float(np.max(np.abs(a - b))))
        scale = max(scale, float(np.max(np.abs(a))))
    return num / scale
