"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the lines; tolerances
are the contract values, pinned here and nowhere else.
"""

import numpy as np
import pytest

import gauduchon as gd
import gauduchon.connection as connection
import gauduchon.curvature as curvature

from conftest import bases_of, curvatures, pts_of


def emit(num, ok, text):
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {text}")


def maxabs(x):
    return float(np.max(np.abs(x)))


def tensor_max(R):
    """max |R| of each four-tensor of a stack R[..., k, l, i, j]."""
    return np.max(np.abs(R), axis=(-4, -3, -2, -1))


@pytest.fixture(scope="module")
def adm_pts(adm):
    return pts_of(adm, 50, 31)


def test_criterion_01_strominger_flatness_of_hopf(hopf):
    worst = maxabs(curvatures(gd.canonical_bases(hopf, pts_of(hopf, 100, 30)), [(-1.0, 0.0)]))
    ok = worst < 1e-8
    emit(1, ok, f"hopf t=-1 max ||R|| = {worst:.2e} < 1e-8 at 100 points")
    assert ok


def test_criterion_02_zero_hsc_nonzero_tensor(hopf):
    pts = pts_of(hopf, 100, 30)
    c, res = gd.constancy_table(hopf, [(3.0, 0.0)], pts)
    worst_res, worst_c = maxabs(res), maxabs(c)
    worst_norm = maxabs(curvatures(gd.canonical_bases(hopf, pts), [(3.0, 0.0)]))
    witness = gd.gauduchon_curvature(hopf, 3.0, [0, 1]).R[0, 0, 1, 1]
    ok = (worst_res < 1e-8 and worst_c < 1e-8 and worst_norm >= 1.0
          and abs(witness - 4.0) < 1e-8)
    emit(2, ok, f"hopf t=3: residual {worst_res:.2e}, |c| {worst_c:.2e}, "
                f"max ||R|| {worst_norm:.3f} >= 1, R_1122(0,1) = {witness.real:.6f}")
    assert ok


CIRCLE = [(-1.0, 0.0), (3.0, 0.0), (-1.0, 2.0), (0.0, np.sqrt(3.0))]
OFF_CIRCLE = [(1.0, 0.0), (0.0, 0.0), (2.0, 1.0)]


def test_criterion_03_circle_law_on_admissible(adm, adm_spec, adm_pts):
    c, res = gd.constancy_table(adm, CIRCLE, adm_pts)
    ref = np.array([gd.admissible_hsc_reference(adm_spec, p) for p in adm_pts])
    ok = bool(np.all(res < 1e-7) and np.all(np.abs(c - ref) < 1e-7))
    measured, reference = c.ravel(), np.tile(ref, len(CIRCLE))
    fitted = float(np.dot(measured, reference) / np.dot(reference, reference))
    ok &= abs(fitted - 1.0) < 1e-7
    off_worst = np.max(gd.constancy_table(adm, OFF_CIRCLE, adm_pts)[1], axis=1)
    ok &= bool(np.all(off_worst > 1e-3))
    emit(3, ok, f"circle params constant with HSC = reference "
                f"(fitted scalar {fitted:.12f}); off-circle residuals "
                f"{['%.2e' % w for w in off_worst]} all > 1e-3")
    assert ok


def test_criterion_04_fs_bergman_constants(fsb):
    ok = True
    for p in pts_of(fsb, 50, 32):
        R = gd.lc_curvature(fsb, p).R
        ok &= abs(R[0, 0, 0, 0] + 1.0) < 1e-8
        ok &= abs(R[1, 1, 1, 1] - 1.0) < 1e-8
        rest = R.copy()
        rest[0, 0, 0, 0] = 0
        rest[1, 1, 1, 1] = 0
        ok &= maxabs(rest) < 1e-8
    emit(4, ok, "fs_bergman unitary-frame LC curvature is "
                "diag(-1, +1) with all other mixed components < 1e-8 at 50 points")
    assert ok


def test_criterion_05_selfdual_weyl_equivalence(catalog_charts):
    rng = np.random.default_rng(33)
    factors = [0.1 * (gd.z(0) + gd.zbar(0)),
               0.05 * gd.abs2(2),
               0.05 * (gd.z(0) * gd.z(1) + gd.zbar(0) * gd.zbar(1))]
    samples = 0
    disagreements = 0
    charts2 = [c for c in catalog_charts if c.n == 2]
    while samples < 200:
        for chart in charts2:
            base_pts = gd.sample_points(chart, 2, rng)
            f = factors[samples % len(factors)]
            resc = gd.rescale(chart, f, check_points=base_pts).rescaled
            for cc, pts in ((chart, base_pts), (resc, gd.sample_points(chart, 1, rng))):
                # the stacked forms of selfdual_residual and weyl_minus
                R = gd.canonical_bases(cc, pts)[:, 0]
                sd = np.max(curvature._selfdual(R), axis=1)
                w = np.linalg.norm(curvature._weyl_minus(R), 2, axis=(1, 2))
                disagreements += int(np.sum((sd < 1e-8) != (w < 1e-6)))
                samples += len(pts)
    ok = disagreements == 0
    emit(5, ok, f"{samples} fuzz samples (catalog charts + rescalings): "
                f"{disagreements} disagreements between component self-duality "
                f"residuals < 1e-8 and ||W_-|| < 1e-6")
    assert ok


def test_criterion_06_constancy_implies_selfdual(adm, adm_pts):
    _, res = gd.constancy_table(adm, CIRCLE, adm_pts)
    passing = np.any(res < 1e-7, axis=0)
    # the stacked form of selfdual_residual at the passing points
    sd = curvature._selfdual(gd.canonical_bases(adm, adm_pts)[passing, 0])
    worst = float(np.max(sd, initial=0.0))
    ok = worst < 1e-6
    emit(6, ok, f"all constancy-passing (chart, params) samples are self-dual: "
                f"max residual {worst:.2e} < 1e-6")
    assert ok


def test_criterion_07_conformal_laws(flat, fs, fsb, hopf):
    rng = np.random.default_rng(34)
    bases = [flat, fs, fsb, hopf]
    ts_pool = [(1.0, 0.0), (3.0, 0.0), (-1.0, 0.0), (0.5, 0.0),
               (-1.0, 2.0), (0.0, np.sqrt(3.0)), (2.0, 1.0), (1.3, -0.7)]
    worst_delta, worst_torsion, worst_comm = 0.0, 0.0, 0.0
    for case in range(20):
        base = bases[case % len(bases)]
        c = rng.standard_normal(3) * 0.1
        f = (c[0] * (gd.z(0) + gd.zbar(0)) + c[1] * gd.abs2(2)
             + c[2] * (gd.z(0) * gd.z(1) + gd.zbar(0) * gd.zbar(1)))
        t, s = ts_pool[case % len(ts_pool)]
        sample_chart = hopf if base is flat else base
        pts = gd.sample_points(sample_chart, 2, rng)
        at = gd.rescale(base, f, check_points=pts).at(pts)
        cells = [(t, 0.0), (t, s)]
        worst_delta = max(worst_delta, maxabs(at.delta_predicted(cells) - at.delta_direct(cells)))
        worst_torsion = max(worst_torsion, maxabs(at.torsion_residuals()))
        worst_comm = max(worst_comm, maxabs(at.commutation_residuals(t)))
    ok = worst_delta < 1e-7 and worst_torsion < 1e-8 and worst_comm < 1e-8
    emit(7, ok, f"20 fuzz cases: delta {worst_delta:.2e} < 1e-7, torsion law "
                f"{worst_torsion:.2e} < 1e-8, commutation {worst_comm:.2e} < 1e-8")
    assert ok


T_GRID = (-1.0, 0.0, 0.5, 1.0, 2.0, 3.0)


ORACLE_TS = [(t, s) for t in T_GRID for s in (0.0, 1.0)] + [(0.5, 0.5), (2.0, -1.0), (-1.0, 2.0)]


GAUDUCHON_LINE = [(t, 0.0) for t in T_GRID]


def chern_and_line(chart, pts):
    """The Chern curvature R[p] and the Gauduchon line's curvatures R[t, p]
    at the points, from one fill."""
    b = connection._metric_points(chart, pts)
    B = bases_of(b)
    return connection._chern_stack(b, b.E), curvatures(B, GAUDUCHON_LINE), B


def test_criterion_08_interpolation_identities(catalog_charts, kahler_charts):
    worst = 0.0
    worst_o = 0.0
    for chart in catalog_charts:
        pts = pts_of(chart, 50, 35)
        Rc, Rt, B = chern_and_line(chart, pts)
        worst = max(worst, maxabs(Rt[T_GRID.index(1.0)] - Rc))
        worst = max(worst, maxabs(curvatures(B, [(t, 1.0) for t in T_GRID])
                                  - curvatures(B, [(0.0, 1.0)])))
        # the public per-point functions at the first point
        p = pts[0]
        worst = max(worst, maxabs(gd.gauduchon_curvature(chart, 1.0, p).R
                                  - gd.chern_curvature(chart, p).R))
        for t, R in zip(T_GRID, Rt[:, 0]):
            worst = max(worst, maxabs(gd.canonical_curvature(chart, (t, 0.0), p).R - R),
                        maxabs(gd.gauduchon_curvature(chart, t, p).R - R))
        # the connection's own curvature, from its Christoffel symbols
        R = gd.connection_curvature_oracle(chart, ORACLE_TS, pts)
        want = curvatures(B, ORACLE_TS)
        worst_o = max(worst_o, float(np.max(tensor_max(R - want)
                                            / np.maximum(1.0, tensor_max(want)))))
    worst_k = 0.0
    for chart in kahler_charts:
        Rc, Rt, _ = chern_and_line(chart, pts_of(chart, 50, 36))
        worst_k = max(worst_k, maxabs(Rt - Rc))
    ok = worst < 1e-10 and worst_k < 1e-9 and worst_o < 1e-12
    emit(8, ok, f"interpolation identities {worst:.2e} < 1e-10 on all catalog "
                f"charts; Kahler families coincide to {worst_k:.2e} < 1e-9; "
                f"connection oracle at {len(ORACLE_TS)} (t, s) {worst_o:.2e} < 1e-12 relative")
    assert ok


def test_criterion_09_oracle_agreement(hopf, fsb, catalog_charts):
    worst_lc = 0.0
    for chart in (hopf, fsb):
        pts = pts_of(chart, 20, 37)
        b = connection._metric_points(chart, pts)
        for p, R, E in zip(pts, bases_of(b)[:, 0], b.E):
            worst_lc = max(worst_lc, maxabs(R - gd.lc_curvature_fd(chart, p, E).R))
    worst_jet = 0.0
    for chart in catalog_charts:
        for p in pts_of(chart, 50, 38):
            for i in range(chart.n):
                for j in range(chart.n):
                    je = gd.eval_jet(chart.g[i][j], p)
                    jf = gd.fd_jet(chart.g[i][j], p)
                    scale = max(1.0, abs(je.value),
                                maxabs(je.ddbar), maxabs(je.d))
                    for name in ("value", "d", "dbar", "dd", "ddbar",
                                 "dbardbar"):
                        dv = np.atleast_1d(getattr(je, name)) \
                            - np.atleast_1d(getattr(jf, name))
                        worst_jet = max(worst_jet, maxabs(dv) / scale)
    ok = worst_lc < 1e-5 and worst_jet < 1e-5
    emit(9, ok, f"lc vs real-coordinate FD oracle {worst_lc:.2e} < 1e-5; "
                f"eval_jet vs fd_jet {worst_jet:.2e} < 1e-5 on catalog components")
    assert ok


SPACE_FORM_C = {"fubini_study(2)": 2.0, "complex_hyperbolic(2)": -2.0}
GRID_5X5 = [(t, s) for t in (-1.0, 0.0, 1.0, 2.0, 3.0)
            for s in (-1.0, -0.5, 0.0, 0.5, 1.0)]


def test_criterion_10_space_forms(fs, chyp):
    ok = True
    summary = []
    for chart in (fs, chyp):
        frozen = SPACE_FORM_C[chart.label]
        c, res = gd.constancy_table(chart, GRID_5X5, pts_of(chart, 12, 39))
        ok &= bool(np.all(res < 1e-7))
        cs = list(c.ravel())
        spread = max(cs) - min(cs)
        ok &= spread < 1e-7
        ok &= (min(cs) > 0) if frozen > 0 else (max(cs) < 0)
        ok &= abs(np.mean(cs) - frozen) < 1e-7
        summary.append(f"{chart.label}: c = {np.mean(cs):+.9f} "
                       f"(frozen {frozen:+g}), spread {spread:.2e}")
    emit(10, ok, "; ".join(summary))
    assert ok
