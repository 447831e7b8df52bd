"""The batched forms equal their per-point calls: `fd_jets` rows and
`fd_jet`, the stacked self-duality and `W_-` formulas and the per-point
public functions, and the suite checks that run as one pass over stacked
points and the per-point loops they replace, kept here as references."""

import numpy as np
import pytest

import gauduchon as gd
import gauduchon.cli as cli
import gauduchon.connection as connection
import gauduchon.curvature as curvature
from gauduchon.cli import SuiteConfig

from conftest import JET_PARTS, bases_of

ADM_SPEC = {"chart": "admissible", "n": 2, "a": 0.5,
            "multipliers": [[0.5, 0], [0.5, 0]],
            "A": [[[0.2, 0], [0, 0]], [[0, 0], [0.1, 0]]], "c0": 1.0}


def maxabs(x):
    return float(np.max(np.abs(x)))


def suite(spec=ADM_SPEC, seed=0):
    """A fresh suite run of 40 points; its RNG has drawn only the points."""
    config = SuiteConfig.from_dict({"chart": spec, "sample_count": 40, "seed": seed})
    return cli._Suite(config, gd.make_chart(spec))


@pytest.mark.parametrize("spec", [ADM_SPEC, {"chart": "hopf_standard", "n": 3},
                                  {"chart": "fs_bergman"}])
def test_fd_jets_rows_equal_fd_jet(spec):
    chart = gd.make_chart(spec)
    pts = gd.sample_points(chart, 6, np.random.default_rng(12))
    for row in chart.g:
        for f in row:
            jets = gd.fd_jets(f, pts)
            for j, p in enumerate(pts):
                single = gd.fd_jet(f, p)
                for name in JET_PARTS:
                    a, b = getattr(jets.row(j), name), getattr(single, name)
                    assert np.shape(a) == np.shape(b)
                    assert maxabs(a - b) <= 1e-15 * max(1.0, maxabs(b)), (spec, name)


def test_stacked_selfduality_equals_the_per_point_values(fs, chyp, hopf, non_selfdual):
    for chart in (fs, chyp, hopf, non_selfdual):
        pts = gd.sample_points(chart, 5, np.random.default_rng(3))
        R = gd.canonical_bases(chart, pts)[:, 0]
        sd, W = curvature._selfdual(R), curvature._weyl_minus(R)
        assert sd.shape == (5, 3) and W.shape == (5, 3, 3)
        for p, sd_p, W_p in zip(pts, sd, W):
            np.testing.assert_array_equal(sd_p, gd.selfdual_residual(chart, p))
            np.testing.assert_array_equal(W_p, gd.weyl_minus(chart, p))


def test_torsion_tensoriality_equals_the_per_point_loop():
    run, ref = suite(), suite()
    [row] = run.torsion_tensoriality()
    chart, rng, n = ref.chart, ref.rng, ref.chart.n
    res = []
    for p in ref.small:
        fr = gd.unitary_frame(chart, p)
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        T = gd.chern_torsion(chart, p, fr)
        Trot = gd.chern_torsion(chart, p, fr.rotated(Q))
        res.append(maxabs(Trot - np.einsum("ck,kij,ia,jb->cab", Q.conj().T, T, Q, Q)))
    np.testing.assert_array_equal(row["residuals"], res)
    assert run.rng.standard_normal() == rng.standard_normal()


def test_hsc_symmetrize_equals_the_per_point_loop():
    run, ref = suite(seed=5), suite(seed=5)
    [row] = run.hsc_symmetrize()
    res = []
    for p in ref.small:
        C = gd.canonical_curvature(ref.chart, (2.0, 0.5), p)
        draws = ref.rng.standard_normal((4, 2, ref.chart.n))
        eta = draws[:, 0] + 1j * draws[:, 1]
        res += list(np.abs(gd.hsc(C, eta) - gd.hsc(gd.symmetrize(C), eta)))
    np.testing.assert_array_equal(row["residuals"], res)
    assert run.rng.standard_normal() == ref.rng.standard_normal()


@pytest.mark.parametrize("spec", [ADM_SPEC, {"chart": "hopf_standard", "n": 3}])
def test_interpolation_equals_the_per_point_loop(spec):
    run = suite(spec)
    [row] = run.interpolation()
    # one point's record at a time, each read as the per-point functions do
    records = [connection._point(run.chart, p)[0] for p in run.small]

    def curvature_of(ts, b):
        return np.tensordot(gd.canonical_weights(ts), bases_of(b)[0], 1)

    res = [maxabs(curvature_of((1.0, 0.0), b) - connection._chern_stack(b, b.E)[0])
           for b in records]
    oracle = [curvature._curvature_oracle(cli.ORACLE_PARAMS, b)[:, 0] for b in records]
    for k, ts in enumerate(cli.ORACLE_PARAMS):
        res += [maxabs(curvature_of(ts, b) - R[k]) for b, R in zip(records, oracle)]
    np.testing.assert_allclose(row["residuals"], res, rtol=0, atol=1e-14)


def test_a_one_point_mutation_shows_on_that_point_only(monkeypatch):
    """0.1i B[3] added to the suite's B[1] of the 7th point only: both
    `hermitian_symmetry` (B[3] is Hermitian-symmetric, i B[3] is not) and
    `interpolation` (the Chern cell and every cell with p != 0) fail, and
    only on that point's residuals, so a batched reduction or broadcast
    over the wrong axis shows."""
    run = suite()
    # The point's torsion, bit for bit what the run passes to the basis.
    target = run.chern[1][6]
    build = connection._basis_stack

    def mutated(RC, T):
        B = build(RC, T)
        for k in np.flatnonzero(np.all(T == target, axis=(1, 2, 3))):
            B[k, 1] += 0.1j * B[k, 3]
        return B

    monkeypatch.setattr(cli, "_basis_stack", mutated)
    P = len(run.small)
    for name, point_of in (("hermitian_symmetry", lambda i: i // len(cli.HERMITIAN_T)),
                           ("interpolation", lambda i: i % P)):
        [row] = getattr(run, name)()
        res = np.asarray(row["residuals"])
        assert res.max() > 1e-3 > cli.CHECKS[name][0], name
        assert point_of(int(np.argmax(res))) == 6, name
        assert {point_of(i) for i in np.flatnonzero(res > 1e-10)} == {6}, name


def test_constancy_table_in_blocks_equals_one_pass(monkeypatch):
    """Past `FIT_ENTRIES` the points are fitted in blocks, with the same
    numbers as one pass over all of them."""
    chart = gd.make_chart(ADM_SPEC)
    pts = gd.sample_points(chart, 7, np.random.default_rng(9))
    cells = [(-1.0, 0.0), (3.0, 0.0), (0.5, 0.5)]
    whole = gd.constancy_table(chart, cells, pts)
    monkeypatch.setattr(curvature, "FIT_ENTRIES", 2 * len(cells) * chart.n ** 4)
    for a, b in zip(whole, gd.constancy_table(chart, cells, pts)):
        assert a.shape == (3, 7)
        np.testing.assert_array_equal(a, b)
