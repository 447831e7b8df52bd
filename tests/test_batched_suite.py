"""The batched forms equal their per-point calls: `fd_jets` rows and
`fd_jet`, the stacked self-duality and `W_-` formulas and the per-point
public functions, and the suite checks that run as one pass over stacked
points and the per-point loops they replace, kept here as references.  A
check's residuals keep their axes, which it names (`axes`, ("point",) if
not given): each loop nests in that order."""

import numpy as np
import pytest

import gauduchon as gd
import gauduchon.cli as cli
import gauduchon.connection as connection
import gauduchon.curvature as curvature
from gauduchon.cli import SuiteConfig

from conftest import JET_PARTS, bases_of, jet_rel_err

# The names a check's residual axes are drawn from.
AXIS_NAMES = {"point", "cell", "factor", "component", "direction"}
CIRCLE = [[-1.0, 0.0], [3.0, 0.0], [-1.0, 2.0], [0.0, 3.0 ** 0.5]]
ADM_SPEC = {"chart": "admissible", "n": 2, "a": 0.5,
            "multipliers": [[0.5, 0], [0.5, 0]],
            "A": [[[0.2, 0], [0, 0]], [[0, 0], [0.1, 0]]], "c0": 1.0}


def maxabs(x):
    return float(np.max(np.abs(x)))


def suite(spec=ADM_SPEC, seed=0):
    """A fresh suite run of 40 points; its RNG has drawn only the points."""
    config = SuiteConfig.from_dict({"chart": spec, "sample_count": 40, "seed": seed})
    return cli._Suite(config, gd.make_chart(spec))


def axes_of(row) -> tuple:
    """The axis names a check's row declares."""
    return row.get("axes", ("point",))


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
        res.append(maxabs(Trot - connection._to_frame(T, Q.conj(), Q, Q)))
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
        res.append(np.abs(gd.hsc(C, eta) - gd.hsc(gd.symmetrize(C), eta)))
    assert axes_of(row) == ("point", "direction")
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

    res = [[maxabs(curvature_of((1.0, 0.0), b) - connection._chern_stack(b, b.E)[0])
            for b in records]]
    oracle = [curvature._curvature_oracle(cli.ORACLE_PARAMS, b)[:, 0] for b in records]
    for k, ts in enumerate(cli.ORACLE_PARAMS):
        res.append([maxabs(curvature_of(ts, b) - R[k]) for b, R in zip(records, oracle)])
    assert axes_of(row) == ("cell", "point")
    np.testing.assert_allclose(row["residuals"], res, rtol=0, atol=1e-14)


@pytest.mark.parametrize("spec", [ADM_SPEC, {"chart": "hopf_standard", "n": 3}])
def test_wjet_oracle_equals_the_per_point_loop(spec):
    run = suite(spec)
    [row] = run.wjet_oracle()
    res = [[jet_rel_err(gd.eval_jet(f, p), gd.fd_jet(f, p)) for g_i in run.chart.g for f in g_i]
           for p in run.small]
    assert axes_of(row) == ("point", "component")
    np.testing.assert_array_equal(row["residuals"], res)


@pytest.mark.parametrize("spec", [ADM_SPEC, {"chart": "hopf_standard", "n": 3}])
def test_hermitian_symmetry_equals_the_per_point_loop(spec):
    run = suite(spec)
    [row] = run.hermitian_symmetry()
    res = [[maxabs(R - np.conj(R.transpose(1, 0, 3, 2)))
            for R in (gd.gauduchon_curvature(run.chart, t, p).R for t in cli.HERMITIAN_T)]
           for p in run.small]
    assert axes_of(row) == ("point", "cell")
    np.testing.assert_array_equal(row["residuals"], res)


def test_kahler_families_equals_the_per_point_loop():
    run = suite({"chart": "fubini_study", "n": 3})
    [row] = run.kahler_families()
    res = [[maxabs(gd.gauduchon_curvature(run.chart, t, p).R - gd.chern_curvature(run.chart, p).R)
            for t in cli.HERMITIAN_T] for p in run.small]
    assert axes_of(row) == ("point", "cell")
    np.testing.assert_array_equal(row["residuals"], res)


@pytest.mark.parametrize("spec", [ADM_SPEC, {"chart": "hopf_standard", "n": 3}])
def test_conformal_checks_equal_the_per_point_loops(spec):
    """`conformal_torsion` over (factor, point), `commutation` over (factor,
    t, point) at t = 1 and 3, and `conformal_delta` over (factor, cell,
    point) for the first 2 factors at the first 3 points, each bit for bit
    the per-point public function's."""
    run = suite(spec)
    chart, pts = run.chart, run.cpts
    fs = cli._conformal_factors(chart.n)
    pairs = [gd.rescale(chart, f, check_points=pts) for f in fs]
    cells = [(1.0, 0.0), (3.0, 0.0), (-1.0, 2.0)]
    loops = {
        "conformal_torsion": (("factor", "point"),
                              [[gd.torsion_transform_residual(pair, p) for p in pts]
                               for pair in pairs]),
        "commutation": (("factor", "cell", "point"),
                        [[[gd.commutation_residual(chart, f, t, p) for p in pts]
                          for t in (1.0, 3.0)] for f in fs]),
        "conformal_delta": (("factor", "cell", "point"),
                            [[[maxabs(gd.delta_canonical_predicted(pair, ts, p).R
                                      - gd.delta_direct(pair, ts, p).R) for p in pts[:3]]
                              for ts in cells] for pair in pairs[:2]]),
    }
    for name, (axes, res) in loops.items():
        [row] = getattr(run, name)()
        assert axes_of(row) == axes, name
        np.testing.assert_array_equal(row["residuals"], res, err_msg=name)


def test_the_suites_factor_stack_reads_its_own_first_five_rows():
    """The conformal checks' stack holds the suite's first 5 rows once per
    factor, each with its point, bit for bit; `small` and `cpts` are views
    of the suite's checked points."""
    run = suite()
    at, k = run.factors, len(run.cpts)
    assert k == 5 and np.shares_memory(run.cpts, run.Z) and np.shares_memory(run.small, run.Z)
    np.testing.assert_array_equal(run.cpts, run.data.Z[:k])
    for name, a in vars(at.data).items():
        np.testing.assert_array_equal(a, np.concatenate([getattr(run.data, name)[:k]]
                                                        * len(at.fs)), err_msg=name)


@pytest.mark.parametrize("spec", [ADM_SPEC, {"chart": "fubini_study", "n": 3}])
def test_every_check_names_its_axes_and_counts_its_point_axis(spec):
    """Each check's rows name one known axis per array axis, with exactly one
    point axis; the record's `points` is that axis's length, and its
    residual statistics are those of the array raveled in C order.  The two
    charts reach all 14 checks between them."""
    config = SuiteConfig.from_dict({"chart": spec, "sample_count": 40, "params_grid": CIRCLE})
    run = cli._Suite(config, gd.make_chart(spec))
    rows = [(name, row) for name, (_, check) in cli.CHECKS.items() for row in check(run)]
    records = cli.run_suite(config).records
    assert [r.name for r in records] == [name for name, _ in rows]
    for (name, row), record in zip(rows, records):
        res, axes = np.asarray(row["residuals"]), axes_of(row)
        assert len(axes) == res.ndim and set(axes) <= AXIS_NAMES, name
        assert axes.count("point") == 1, name
        assert record.points == res.shape[axes.index("point")], name
        flat = res.ravel(order="C")
        assert (record.residual_max, record.residual_mean) == (flat.max(), flat.mean()), name
    missed = set(cli.CHECKS) - {r.name for r in records}
    assert missed == ({"kahler_families"} if spec is ADM_SPEC else {"selfdual_weyl"})


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
    for name in ("hermitian_symmetry", "interpolation"):
        [row] = getattr(run, name)()
        res, point = np.asarray(row["residuals"]), axes_of(row).index("point")
        assert res.max() > 1e-3 > cli.CHECKS[name][0], name
        assert np.unravel_index(np.argmax(res), res.shape)[point] == 6, name
        assert set(np.nonzero(res > 1e-10)[point]) == {6}, name


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
