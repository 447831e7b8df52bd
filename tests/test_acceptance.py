"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the lines; tolerances
are the contract values, pinned here and nowhere else.
"""

import numpy as np
import pytest

import gauduchon as gd

from conftest import pts_of


def emit(num, ok, text):
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {text}")


def maxabs(x):
    return float(np.max(np.abs(x)))


@pytest.fixture(scope="module")
def adm_pts(adm):
    return pts_of(adm, 50, 31)


def test_criterion_01_strominger_flatness_of_hopf(hopf):
    worst = max(maxabs(gd.gauduchon_curvature(hopf, -1.0, p).R)
                for p in pts_of(hopf, 100, 30))
    ok = worst < 1e-8
    emit(1, ok, f"hopf t=-1 max ||R|| = {worst:.2e} < 1e-8 at 100 points")
    assert ok


def test_criterion_02_zero_hsc_nonzero_tensor(hopf):
    pts = pts_of(hopf, 100, 30)
    worst_res, worst_c, worst_norm = 0.0, 0.0, 0.0
    for p in pts:
        C = gd.gauduchon_curvature(hopf, 3.0, p)
        c, res = gd.constancy_residual(C)
        worst_res = max(worst_res, res)
        worst_c = max(worst_c, abs(c))
        worst_norm = max(worst_norm, maxabs(C.R))
    witness = gd.gauduchon_curvature(hopf, 3.0, [0, 1]).R[0, 0, 1, 1]
    ok = (worst_res < 1e-8 and worst_c < 1e-8 and worst_norm >= 1.0
          and abs(witness - 4.0) < 1e-8)
    emit(2, ok, f"hopf t=3: residual {worst_res:.2e}, |c| {worst_c:.2e}, "
                f"max ||R|| {worst_norm:.3f} >= 1, R_1122(0,1) = {witness.real:.6f}")
    assert ok


CIRCLE = [(-1.0, 0.0), (3.0, 0.0), (-1.0, 2.0), (0.0, np.sqrt(3.0))]
OFF_CIRCLE = [(1.0, 0.0), (0.0, 0.0), (2.0, 1.0)]


def test_criterion_03_circle_law_on_admissible(adm, adm_spec, adm_pts):
    ok = True
    measured, reference = [], []
    for ts in CIRCLE:
        for p in adm_pts:
            c, res = gd.constancy_residual(gd.canonical_curvature(adm, ts, p))
            ref = gd.admissible_hsc_reference(adm_spec, p)
            ok &= res < 1e-7 and abs(c - ref) < 1e-7
            measured.append(c)
            reference.append(ref)
    fitted = float(np.dot(measured, reference) / np.dot(reference, reference))
    ok &= abs(fitted - 1.0) < 1e-7
    off_worst = []
    for ts in OFF_CIRCLE:
        worst = max(gd.constancy_residual(gd.canonical_curvature(adm, ts, p))[1]
                    for p in adm_pts)
        off_worst.append(worst)
        ok &= worst > 1e-3
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
            todo = [(chart, p) for p in base_pts]
            f = factors[samples % len(factors)]
            resc = gd.rescale(chart, f, check_points=base_pts).rescaled
            todo += [(resc, p) for p in gd.sample_points(chart, 1, rng)]
            for cc, p in todo:
                sd = max(gd.selfdual_residual(cc, p))
                w = float(np.linalg.norm(gd.weyl_minus(cc, p), 2))
                if (sd < 1e-8) != (w < 1e-6):
                    disagreements += 1
                samples += 1
    ok = disagreements == 0
    emit(5, ok, f"{samples} fuzz samples (catalog charts + rescalings): "
                f"{disagreements} disagreements between component self-duality "
                f"residuals < 1e-8 and ||W_-|| < 1e-6")
    assert ok


def test_criterion_06_constancy_implies_selfdual(adm, adm_pts):
    worst = 0.0
    for ts in CIRCLE:
        for p in adm_pts:
            _, res = gd.constancy_residual(gd.canonical_curvature(adm, ts, p))
            if res < 1e-7:
                worst = max(worst, max(gd.selfdual_residual(adm, p)))
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
        pair = gd.rescale(base, f, check_points=pts)
        for p in pts:
            worst_delta = max(worst_delta, maxabs(
                gd.delta_gauduchon_predicted(pair, t, p).R
                - gd.delta_direct(pair, (t, 0.0), p).R))
            worst_delta = max(worst_delta, maxabs(
                gd.delta_canonical_predicted(pair, (t, s), p).R
                - gd.delta_direct(pair, (t, s), p).R))
            worst_torsion = max(worst_torsion,
                                gd.torsion_transform_residual(pair, p))
            worst_comm = max(worst_comm,
                             gd.commutation_residual(base, f, t, p))
    ok = worst_delta < 1e-7 and worst_torsion < 1e-8 and worst_comm < 1e-8
    emit(7, ok, f"20 fuzz cases: delta {worst_delta:.2e} < 1e-7, torsion law "
                f"{worst_torsion:.2e} < 1e-8, commutation {worst_comm:.2e} < 1e-8")
    assert ok


T_GRID = (-1.0, 0.0, 0.5, 1.0, 2.0, 3.0)


ORACLE_TS = [(t, s) for t in T_GRID for s in (0.0, 1.0)] + [(0.5, 0.5), (2.0, -1.0), (-1.0, 2.0)]


def test_criterion_08_interpolation_identities(catalog_charts, kahler_charts):
    worst = 0.0
    worst_o = 0.0
    for chart in catalog_charts:
        pts = pts_of(chart, 50, 35)
        for p in pts:
            worst = max(worst, maxabs(gd.gauduchon_curvature(chart, 1.0, p).R
                                      - gd.chern_curvature(chart, p).R))
            Rlc = gd.lc_curvature(chart, p).R
            for t in T_GRID:
                worst = max(worst, maxabs(
                    gd.canonical_curvature(chart, (t, 0.0), p).R
                    - gd.gauduchon_curvature(chart, t, p).R))
                worst = max(worst, maxabs(
                    gd.canonical_curvature(chart, (t, 1.0), p).R - Rlc))
        # the connection's own curvature, from its Christoffel symbols
        for ts, cell in zip(ORACLE_TS, gd.connection_curvature_oracle(chart, ORACLE_TS, pts)):
            for p, R in zip(pts, cell):
                want = gd.canonical_curvature(chart, ts, p).R
                worst_o = max(worst_o, maxabs(R - want) / max(1.0, maxabs(want)))
    worst_k = 0.0
    for chart in kahler_charts:
        for p in pts_of(chart, 50, 36):
            Rc = gd.chern_curvature(chart, p).R
            for t in T_GRID:
                worst_k = max(worst_k, maxabs(
                    gd.gauduchon_curvature(chart, t, p).R - Rc))
    ok = worst < 1e-10 and worst_k < 1e-9 and worst_o < 1e-12
    emit(8, ok, f"interpolation identities {worst:.2e} < 1e-10 on all catalog "
                f"charts; Kahler families coincide to {worst_k:.2e} < 1e-9; "
                f"connection oracle at {len(ORACLE_TS)} (t, s) {worst_o:.2e} < 1e-12 relative")
    assert ok


def test_criterion_09_oracle_agreement(hopf, fsb, catalog_charts):
    worst_lc = 0.0
    for chart in (hopf, fsb):
        for p in pts_of(chart, 20, 37):
            worst_lc = max(worst_lc, maxabs(
                gd.lc_curvature(chart, p).R - gd.lc_curvature_fd(chart, p).R))
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
        pts = pts_of(chart, 12, 39)
        cs = []
        for ts in GRID_5X5:
            for p in pts:
                c, res = gd.constancy_residual(
                    gd.canonical_curvature(chart, ts, p))
                ok &= res < 1e-7
                cs.append(c)
        spread = max(cs) - min(cs)
        ok &= spread < 1e-7
        ok &= (min(cs) > 0) if frozen > 0 else (max(cs) < 0)
        ok &= abs(np.mean(cs) - frozen) < 1e-7
        summary.append(f"{chart.label}: c = {np.mean(cs):+.9f} "
                       f"(frozen {frozen:+g}), spread {spread:.2e}")
    emit(10, ok, "; ".join(summary))
    assert ok
