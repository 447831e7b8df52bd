"""The fill's records: each point's data, built in one stacked fill,
bit-equal to a one-point fill, read-only, and filled afresh on every call;
the canonical bases its readers build from it, bit-equal to a per-point
build; and the fills and basis builds each command makes."""

import json
from collections import Counter

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

import gauduchon as gd
import gauduchon.cli as cli
import gauduchon.conformal as conformal
import gauduchon.connection as connection
import gauduchon.curvature as curvature
import gauduchon.wjet as wjet
from gauduchon.cli import SuiteConfig, run_suite
from gauduchon.errors import DomainError

from conftest import bases_of, jet_rel_err

ADM_SPEC = {"chart": "admissible", "n": 2, "a": 0.5,
            "multipliers": [[0.5, 0], [0.5, 0]],
            "A": [[[0.2, 0], [0, 0]], [[0, 0], [0.1, 0]]], "c0": 1.0}
SPECS = {"hopf2": {"chart": "hopf_standard", "n": 2},
         "hopf3": {"chart": "hopf_standard", "n": 3},
         "admissible": ADM_SPEC}


def to_frame(X, *mats):
    """One point's frame change, one 2-D matmul per slot."""
    for M in mats:
        X = (X.reshape(X.shape[0], -1).T @ M).reshape(X.shape[1:] + M.shape[1:])
    return X


def per_point_basis(pd):
    """One point's four basis tensors from its metric data in plain 2-D
    numpy: the operations of the batched build, point by point, from the
    Chern curvature and torsion alone, B[1] = R^C - H and B[0] = H + B[2]
    + B[3], every contraction a 2-D matmul."""
    n = pd.G.shape[0]
    E = pd.E
    Gc = (pd.ginv @ pd.dG.reshape(n * n, n).T).reshape(n, n, n)
    T = to_frame(0.5 * (Gc - Gc.transpose(0, 2, 1)), np.linalg.inv(E).T, E, E)
    T = 0.5 * (T - T.transpose(0, 2, 1))
    Q = (pd.dG.reshape(n * n, n) @ pd.ginv.T) @ pd.dbarG.transpose(1, 0, 2).reshape(n, n * n)
    chern = to_frame(-pd.ddbarG + Q.reshape(n, n, n, n).transpose(0, 2, 1, 3),
                     E, E.conj(), E, E.conj())
    # H[k, l, i, j] = (R^C[i, l, k, j] + R^C[k, j, i, l]) / 2
    H = 0.5 * (chern.transpose(2, 1, 0, 3) + chern.transpose(0, 3, 2, 1))
    # A[i, k, j, l] = T^r_ik conj(T^r_jl); N[a, b, c, d] = T^a_br conj(T^c_dr)
    A = (T.reshape(n, n * n).T @ T.reshape(n, n * n).conj()).reshape(n, n, n, n)
    N = (T.reshape(n * n, n) @ T.reshape(n * n, n).conj().T).reshape(n, n, n, n)
    term2 = A.transpose(1, 3, 0, 2) - N.transpose(1, 3, 2, 0)
    term3 = -np.conj(N.transpose(0, 2, 3, 1))
    return np.stack([H + term2 + term3, chern - H, term2, term3])


@settings(max_examples=25, deadline=None, database=None)
@given(name=st.sampled_from(sorted(SPECS)), count=st.integers(1, 5),
       seed=st.integers(0, 2**32 - 1))
def test_batched_bases_equal_per_point_build(name, count, seed):
    chart = gd.make_chart(SPECS[name])
    pts = gd.sample_points(chart, count, np.random.default_rng(seed))
    bases = gd.canonical_bases(chart, pts)
    assert bases.shape == (count, 4) + (chart.n,) * 4
    b = connection._metric_points(chart, pts)
    # the Levi-Civita tensor from the Chern side is the reference's s = 1
    [lc] = curvature._curvature_oracle([(0.0, 1.0)], b)
    for k, (B, R) in enumerate(zip(bases, lc, strict=True)):
        np.testing.assert_array_equal(B, per_point_basis(connection._rows(b, k)))
        assert np.max(np.abs(B[0] - R)) <= 1e-12 * max(1.0, np.max(np.abs(R)))
    # an explicit frame is built from the same code, one point at a time
    fr = gd.unitary_frame(chart, pts[0])
    np.testing.assert_array_equal(gd.canonical_basis(chart, pts[0], fr), bases[0])


FIELDS = ("G", "grad", "hess", "ginv", "E")


@settings(max_examples=25, deadline=None, database=None)
@given(name=st.sampled_from(sorted(SPECS)), seed=st.integers(0, 2**32 - 1),
       read=st.lists(st.integers(0, 5), min_size=1, max_size=8),
       bad=st.none() | st.integers(0, 8))
def test_stacked_read_equals_a_fresh_one_batch_fill(name, seed, read, bad):
    """Any list of points, with repeats and in any order, given as arrays or
    as lists, fills to one stacked record whose rows equal, bit for bit,
    one-point fills of its points on a fresh chart, and no array of either
    is writeable; `canonical_bases` is `_basis_stack` of the record.  A
    list with a point outside the domain raises its typed error."""
    chart = gd.make_chart(SPECS[name])
    pts = gd.sample_points(chart, 6, np.random.default_rng(seed))
    points = [pts[i] if k % 2 else list(pts[i]) for k, i in enumerate(read)]
    if bad is not None:
        points.insert(min(bad, len(points)), np.zeros(chart.n))
        with pytest.raises(DomainError):
            connection._metric_points(chart, points)
        return
    b = connection._metric_points(chart, points)
    fresh = gd.make_chart(SPECS[name])
    assert list(vars(b)) == list(FIELDS)
    for k, i in enumerate(read):
        one = connection._metric_points(fresh, [pts[i]])
        for field in FIELDS:
            got, want = getattr(b, field), getattr(one, field)
            assert got.shape[0] == len(points) and want.shape[0] == 1
            np.testing.assert_array_equal(got[k], want[0])
            assert not got.flags.writeable and not want.flags.writeable
    np.testing.assert_array_equal(gd.canonical_bases(chart, points),
                                  bases_of(b))


def test_per_point_basis_is_read_only_and_filled_per_call(monkeypatch):
    """Each per-point call fills its point afresh, and its basis is
    read-only; every basis, in the Cholesky frame or an explicit one, is
    built from a fill's record outside the fill, and the reference is
    computed afresh on each call."""
    builds, fills = counting(monkeypatch)
    chart = gd.make_chart(ADM_SPEC)
    pts = gd.sample_points(chart, 3, np.random.default_rng(2))
    bases = gd.canonical_bases(chart, pts)
    assert not bases.flags.writeable
    for p, B in zip(pts, bases):
        one = gd.canonical_basis(chart, p)
        np.testing.assert_array_equal(one, B)
        assert not one.flags.writeable
        with pytest.raises(ValueError):
            one[0, 0, 0, 0, 0] = 1.0
        R = gd.lc_full(chart, p)
        kept = R.copy()
        R += 1.0
        np.testing.assert_array_equal(gd.lc_full(chart, p), kept)
    # three one-point fills per point, and a basis for two of them
    assert fills == [3] + [1] * 9 and builds == [(3, False)] + [(1, False)] * 3
    fr = gd.unitary_frame(chart, pts[1])
    builds.clear()
    np.testing.assert_array_equal(gd.canonical_basis(chart, pts[1], fr), bases[1])
    assert builds == [(1, False)]


def counting(monkeypatch):
    """Record the row count of every basis build, and whether it ran in a
    fill's array stage (`_fill`, which `_metric_points`, the suite's fill
    and the rescaled records share), and the row count of every `_fill`."""
    builds, fills, filling = [], [], [False]
    build, fill = connection._basis_stack, connection._fill

    def counted(RC, T):
        builds.append((len(T), filling[0]))
        return build(RC, T)

    def counted_fill(labels, *args):
        fills.append(len(labels))
        filling[0] = True
        try:
            return fill(labels, *args)
        finally:
            filling[0] = False

    for module in (connection, curvature, conformal, cli):
        monkeypatch.setattr(module, "_basis_stack", counted)
    for module in (connection, conformal, cli):
        monkeypatch.setattr(module, "_fill", counted_fill)
    return builds, fills


def suite_adm2_config(**keys):
    """The bench's suite_adm2 config, with any other config `keys`."""
    return SuiteConfig.from_dict({
        "chart": ADM_SPEC, "sample_count": 40,
        "params_grid": [[-1.0, 0.0], [3.0, 0.0], [-1.0, 2.0], [0.0, 3.0 ** 0.5]], **keys})


def test_suite_builds_bases_only_for_the_rows_it_reads(monkeypatch):
    """The bench's suite_adm2 config: 2 fills, the suite's own of the 40
    sample points from its walk and one of the 15 rescaled rows (the first
    5 points on each of the three rescaled charts), and no basis in either.
    Bases are built for 10 + 12 rows: the first 10 points, which
    `gauduchon`, `interpolation`, `hsc_symmetrize`, `selfdual_weyl` and
    `kahler_families` read, then, in one stack, the 6 base and 6 rescaled
    rows `conformal_delta` compares (2 factors x 3 points).  `constancy` reads
    the 40 points' q-line pairs, no basis."""
    builds, fills = counting(monkeypatch)
    assert run_suite(suite_adm2_config()).all_passed
    assert fills == [40, 15]
    assert builds == [(10, False), (12, False)]


def test_a_run_that_reads_no_rescaled_side_fills_none(monkeypatch):
    """`commutation` alone reads the base rows of the conformal factors and
    not their rescaled records, so the run's one fill is its own of the 40
    sample points."""
    _, fills = counting(monkeypatch)
    assert run_suite(suite_adm2_config(checks=["commutation"])).all_passed
    assert fills == [40]


def counting_fills(monkeypatch):
    """Record the points of every `_metric_points` fill, in every module
    that makes one."""
    fills = []
    fill = connection._metric_points

    def counted(chart, points):
        fills.append(len(points))
        return fill(chart, points)

    for module in (connection, curvature, conformal, cli):
        if getattr(module, "_metric_points", None) is fill:
            monkeypatch.setattr(module, "_metric_points", counted)
    return fills


FRAMED_READERS = {
    "chern_torsion": gd.chern_torsion,
    "torsion_cov_deriv": gd.torsion_cov_deriv,
    "chern_curvature": gd.chern_curvature,
    "lc_curvature": gd.lc_curvature,
    "canonical_basis": gd.canonical_basis,
    "canonical_curvature": lambda chart, p, fr: gd.canonical_curvature(chart, (2.0, 0.5), p, fr),
    "gauduchon_curvature": lambda chart, p, fr: gd.gauduchon_curvature(chart, 2.0, p, fr),
    "gamma_theta2": gd.gamma_theta2,
    "lc_curvature_fd": gd.lc_curvature_fd,
}


# The per-point readers that read a basis: one row each.
BASIS_READERS = {"canonical_basis", "canonical_curvature", "gauduchon_curvature",
                 "lc_curvature", "scalar_curvature"}


@pytest.mark.parametrize("name", sorted(FRAMED_READERS))
@pytest.mark.parametrize("frame", ["cholesky", "explicit"])
def test_per_point_reader_makes_one_store_lookup(monkeypatch, name, frame):
    """Each per-point reader fills its point once (one `_metric_points`
    call), in the Cholesky frame and in an explicit one; the
    finite-difference oracle needs no fill for an explicit frame.  Only
    the readers of a basis build one, of one row."""
    chart = gd.make_chart(ADM_SPEC)
    p = gd.sample_points(chart, 1, np.random.default_rng(8))[0]
    fr = gd.unitary_frame(chart, p) if frame == "explicit" else None
    builds, _ = counting(monkeypatch)
    fills = counting_fills(monkeypatch)
    FRAMED_READERS[name](chart, p, fr)
    assert fills == ([] if name == "lc_curvature_fd" and fr is not None else [1])
    assert builds == ([(1, False)] if name in BASIS_READERS else [])


@pytest.mark.parametrize("reader", [gd.metric_jet, gd.unitary_frame, gd.lc_full,
                                    gd.scalar_curvature])
def test_frameless_reader_makes_one_store_lookup(monkeypatch, reader):
    chart = gd.make_chart(ADM_SPEC)
    p = gd.sample_points(chart, 1, np.random.default_rng(8))[0]
    builds, _ = counting(monkeypatch)
    fills = counting_fills(monkeypatch)
    reader(chart, p)
    assert fills == [1]
    assert builds == ([(1, False)] if reader.__name__ in BASIS_READERS else [])


def test_kahler_delta_makes_one_fill(monkeypatch):
    """`delta_kahler_predicted` reads no rescaled record, so its factor
    builds none: one fill of the base at the point, no rescaled fill and no
    basis."""
    pair = gd.rescale(gd.euclidean_chart(2), 0.1 * gd.abs2(2))
    builds, fills = counting(monkeypatch)
    gd.delta_kahler_predicted(pair, (2.0, 0.5), [0.1, 0.2j])
    assert fills == [1] and builds == []


def test_suite_makes_no_store_lookup(monkeypatch):
    """The bench's suite_adm2 config: no `_metric_points` fill.  The run
    fills its points' data once from its own walk, as one stacked record,
    which `interpolation`'s oracle, `constancy` and the conformal checks
    read too; the conformal checks' rescaled records
    are built from it, not filled again from the charts."""
    fills = counting_fills(monkeypatch)
    assert run_suite(suite_adm2_config()).all_passed
    assert fills == []


def test_scan_hsc_and_curv_fill_their_points_once(monkeypatch, tmp_path):
    """The bench's scan and hsc commands and a curv dump, counted in `_fill`
    calls and their rows, and in rows passed to `_basis_stack`: scan and hsc
    fill their sample points once and build no basis, as they read only the
    q-line pair; curv fills its one point once and builds its one basis
    outside the fill.  `test_suite_builds_bases_only_for_the_rows_it_reads`
    counts the suite's."""
    builds, fills = counting(monkeypatch)
    adm = tmp_path / "adm.json"
    adm.write_text(json.dumps(ADM_SPEC))
    hopf6 = tmp_path / "hopf6.json"
    hopf6.write_text(json.dumps({"chart": "hopf_standard", "n": 6}))
    out = str(tmp_path / "out")
    for argv, want in (
            (["scan", "--chart", str(adm), "--t=-2:4:13", "--s=-2.5:2.5:11", "--samples", "4"],
             ([4], [])),
            (["hsc", "--chart", str(hopf6), "--t", "3", "--s", "0", "--samples", "3"],
             ([3], [])),
            (["curv", "--chart", str(adm), "--t", "0", "--s", "1", "--point", "0.3,0.1;0,0.2"],
             ([1], [(1, False)]))):
        builds.clear()
        fills.clear()
        assert cli.main(argv + ["--out", out]) == 0
        assert (fills, builds) == want, argv[0]


def test_no_command_but_the_suite_builds_complexified_arrays(monkeypatch, tmp_path):
    """The complexified reference (`_christoffel_parts`, `_christoffel`,
    `_riemann`) is the only code that builds (2n)^4 arrays.  The bench's scan
    and hsc commands and a curv dump never call it, and a suite run calls it
    only from `interpolation`: the (t, s)-free part once, the weighting and
    the Riemann tensor once per oracle cell."""
    current = [None]
    for name, (tol, check) in list(cli.CHECKS.items()):
        def run_check(suite, name=name, check=check):
            current[0] = name
            return check(suite)
        monkeypatch.setitem(cli.CHECKS, name, (tol, run_check))
    calls = Counter()
    for name in ("_christoffel_parts", "_christoffel", "_riemann"):
        def counted(*args, func=getattr(curvature, name), name=name):
            calls[current[0], name] += 1
            return func(*args)
        monkeypatch.setattr(curvature, name, counted)
    adm = tmp_path / "adm.json"
    adm.write_text(json.dumps(ADM_SPEC))
    hopf6 = tmp_path / "hopf6.json"
    hopf6.write_text(json.dumps({"chart": "hopf_standard", "n": 6}))
    out = str(tmp_path / "out")
    for argv in (["scan", "--chart", str(adm), "--t=-2:4:13", "--s=-2.5:2.5:11",
                  "--samples", "4"],
                 ["hsc", "--chart", str(hopf6), "--t", "3", "--s", "0", "--samples", "3"],
                 ["curv", "--chart", str(adm), "--t", "0", "--s", "1", "--point", "0.3,0.1;0,0.2"]):
        assert cli.main(argv + ["--out", out]) == 0
    assert not calls
    assert run_suite(suite_adm2_config()).all_passed
    k = len(cli.ORACLE_PARAMS)
    assert calls == Counter({("interpolation", "_christoffel_parts"): 1,
                             ("interpolation", "_christoffel"): k,
                             ("interpolation", "_riemann"): k})


def test_suite_walks_each_conformal_factor_once_per_check(monkeypatch):
    """The bench's suite_adm2 config: `conformal_torsion` takes one
    `eval_jets` walk of all three conformal factors over its 5 points, and
    `commutation` and `conformal_delta` reuse it."""
    current = [None]
    for name, (tol, check) in list(cli.CHECKS.items()):
        def run_check(suite, name=name, check=check):
            current[0] = name
            return check(suite)
        monkeypatch.setitem(cli.CHECKS, name, (tol, run_check))
    walks, sizes = Counter(), set()
    walk = conformal.eval_jets

    def counted(fields, points):
        walks[current[0], tuple(map(id, fields))] += 1
        sizes.add((current[0], len(points)))
        return walk(fields, points)

    monkeypatch.setattr(conformal, "eval_jets", counted)
    assert run_suite(suite_adm2_config()).all_passed
    [(name, fields)] = walks
    assert (name, len(fields), walks[name, fields]) == ("conformal_torsion", 3, 1)
    assert sizes == {("conformal_torsion", 5)}


def test_suite_walks_no_rescaled_tree(monkeypatch):
    """The bench's suite_adm2 config: 2 `eval_jets` walks in all: the run's
    walk of the metric components over the 40 points, which both its fill
    and `wjet_oracle` read, and one of the three conformal factors over the
    first 5; the run makes no `_metric_points` fill and no `rescale` call,
    so no rescaled chart's trees exist: the rescaled records come from the
    base record."""
    rescales, walks, filled = [], [], []
    pair_of, walk, fill = conformal.rescale, wjet.eval_jets, connection._metric_points

    def recording_rescale(chart, f, **kwargs):
        rescales.append(f)
        return pair_of(chart, f, **kwargs)

    def counted_walk(fields, points):
        walks.append((fields, len(points)))
        return walk(fields, points)

    def counted_fill(chart, points):
        filled.append(chart)
        return fill(chart, points)

    assert not hasattr(cli, "rescale")
    for module in (gd, gd.catalog, conformal):
        monkeypatch.setattr(module, "rescale", recording_rescale)
    for module in (wjet, connection, conformal):
        monkeypatch.setattr(module, "eval_jets", counted_walk)
    for module in (connection, curvature, conformal, cli):
        if getattr(module, "_metric_points", None) is fill:
            monkeypatch.setattr(module, "_metric_points", counted_fill)
    assert run_suite(suite_adm2_config()).all_passed
    assert [(len(fields), count) for fields, count in walks] == [(4, 40), (3, 5)]
    assert rescales == [] and filled == []


def test_suite_oracle_takes_one_fd_jets_walk_per_tree(monkeypatch):
    """The bench's suite_adm2 config: the admissible chart's four metric
    components are two distinct trees, so `wjet_oracle` takes 2 stacked
    `fd_jets` walks over its 10 points (it took 2 x 10 `fd_jet`s), and its
    record is the one the per-point formula over every (point, component)
    pair gives."""
    calls = []
    fd_jets = cli.fd_jets

    def counted(f, points):
        calls.append(len(points))
        return fd_jets(f, points)

    monkeypatch.setattr(cli, "fd_jets", counted)
    [rec] = [r for r in run_suite(suite_adm2_config()).records if r.name == "wjet_oracle"]
    assert calls == [10, 10]
    chart = gd.make_chart(ADM_SPEC)
    pts = gd.sample_points(chart, 40, np.random.default_rng(0))[:10]
    fields = [f for row in chart.g for f in row]
    assert len({id(f) for f in fields}) == 2
    res = np.array([jet_rel_err(gd.eval_jet(f, p), gd.fd_jet(f, p))
                    for p in pts for f in fields])
    assert (rec.points, rec.residual_max, rec.residual_mean, rec.passed) == \
        (10, float(res.max()), float(res.mean()), True)


def counting_checks(monkeypatch):
    """Record the point count of every `_check_points` call, in every module
    that makes one."""
    checks = []
    check = connection._check_points

    def counted(chart, points):
        checks.append(len(points))
        return check(chart, points)

    for module in (connection, curvature, conformal, cli):
        if getattr(module, "_check_points", None) is check:
            monkeypatch.setattr(module, "_check_points", counted)
    return checks


def test_each_point_is_checked_once(monkeypatch):
    """The bench's suite_adm2 config checks its 40 sample points once; its
    conformal factors are stacked on 5 of those points, which no `rescale`
    call checks again.  A per-point conformal function checks its point
    once, before its walk and its fill."""
    checks = counting_checks(monkeypatch)
    assert run_suite(suite_adm2_config()).all_passed
    assert checks == [40]
    chart = gd.make_chart(ADM_SPEC)
    p = gd.sample_points(chart, 1, np.random.default_rng(8))[0]
    pair = gd.rescale(chart, 0.1 * gd.abs2(2), check_points=[p])
    for call in (lambda: gd.commutation_residual(chart, pair.f, 2.0, p),
                 lambda: gd.torsion_transform_residual(pair, p),
                 lambda: gd.delta_canonical_predicted(pair, (2.0, 0.5), p)):
        checks.clear()
        call()
        assert checks == [1]
