"""The three benchmark workloads and the checks on their outputs.

Each workload is one real CLI command, run over and over with
``--seed base+i``.  Its check reads the ``--out`` file back and returns a
description of the first problem, or None when the output is right.  The
thresholds are the ones the suite and the acceptance tests pin.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

# The admissible n=2 chart of the README: A = diag(0.2, 0.1).
ADMISSIBLE_N2 = {"chart": "admissible", "n": 2, "a": 0.5,
                 "multipliers": [[0.5, 0], [0.5, 0]],
                 "A": [[[0.2, 0], [0, 0]], [[0, 0], [0.1, 0]]], "c0": 1.0}
HOPF_N6 = {"chart": "hopf_standard", "n": 6}
CIRCLE_POINTS = [[-1.0, 0.0], [3.0, 0.0], [-1.0, 2.0], [0.0, math.sqrt(3.0)]]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    args: tuple        # CLI arguments; "{input}" names the workload's input file
    input: dict        # JSON written once to the input file
    chart: dict        # chart spec, for the set-up measurement
    samples: int       # sample points drawn per invocation
    evals: int         # sample points x (t, s) pairs per invocation
    check: Callable[[str], str | None]

    def argv(self, input_path: str, out_path: str, seed: int) -> list[str]:
        return [a.replace("{input}", input_path) for a in self.args] + [
            "--seed", str(seed), "--out", out_path]


# ---------------------------------------------------------------------------
# scan_adm2

SCAN_T = np.linspace(-2.0, 4.0, 13)
SCAN_S = np.linspace(-2.5, 2.5, 11)
SCAN_HEADER = "t,s,max_constancy_residual,circle_residual"


def check_scan(text: str) -> str | None:
    """143 sorted rows of the 13 x 11 grid; circle_residual matches
    (1 - t + ts)^2 + s^2 - 4; the 3 cells exactly on the circle have a
    constancy residual below 1e-7 and every cell with |circle_residual| > 1
    one above 1e-3."""
    lines = text.splitlines()
    if not lines or lines[0] != SCAN_HEADER:
        return "missing CSV header"
    try:
        rows = [tuple(float(v) for v in line.split(",")) for line in lines[1:]]
    except ValueError as exc:
        return f"unparsable row: {exc}"
    if any(len(r) != 4 for r in rows):
        return "row without 4 fields"
    cells = [(float(t), float(s)) for t in SCAN_T for s in SCAN_S]
    if [(r[0], r[1]) for r in rows] != cells:
        return f"rows are not the sorted {len(SCAN_T)} x {len(SCAN_S)} grid"
    on_circle = 0
    for t, s, res, circ in rows:
        want = (1.0 - t + t * s) ** 2 + s**2 - 4.0
        if not abs(circ - want) <= 1e-12 * max(1.0, abs(want)):
            return f"circle_residual {circ!r} at ({t}, {s}), expected {want!r}"
        if not (math.isfinite(res) and res >= 0.0):
            return f"constancy residual {res!r} at ({t}, {s})"
        if want == 0.0:
            on_circle += 1
            if not res < 1e-7:
                return f"on-circle cell ({t}, {s}) has residual {res:.3g} >= 1e-7"
        elif abs(want) > 1.0 and not res > 1e-3:
            return f"off-circle cell ({t}, {s}) has residual {res:.3g} <= 1e-3"
    if on_circle != 3:
        return f"{on_circle} cells exactly on the circle, expected 3"
    return None


# ---------------------------------------------------------------------------
# hsc_hopf6

HSC_SAMPLES = 3


def check_hsc(text: str) -> str | None:
    """The standard Hopf chart at (t, s) = (3, 0) has HSC identically 0:
    |c_mean|, c_spread, every |hsc_min| and |hsc_max| at most 1e-8, and
    residual_max at most 1e-7."""
    try:
        d = json.loads(text)
        rows = d["per_point"]
        if d["params"] != [3.0, 0.0] or len(rows) != HSC_SAMPLES:
            return "wrong params or point count"
        small = [abs(d["c_mean"]), d["c_spread"]]
        small += [abs(r[k]) for r in rows for k in ("hsc_min", "hsc_max")]
        residuals = [d["residual_max"]] + [r["residual"] for r in rows]
    except (ValueError, KeyError, TypeError) as exc:
        return f"malformed hsc payload: {exc!r}"
    if not all(0.0 <= v <= 1e-8 for v in small):
        return f"HSC values not within 1e-8 of 0: max {max(small):.3g}"
    if not all(0.0 <= r <= 1e-7 for r in residuals):
        return f"constancy residual above 1e-7: {max(residuals):.3g}"
    return None


# ---------------------------------------------------------------------------
# suite_adm2

SUITE_SAMPLES = 40

# (name, params, points, tolerance) of every record the seed's suite emits
# for this config.  Comparing against it means a faster suite cannot come
# from dropping or weakening a check.
SUITE_RECORDS = [
    ("wjet_oracle", None, 10, 1e-05),
    ("metric_inverse", None, 40, 1e-12),
    ("frame_unitarity", None, 40, 1e-12),
    ("torsion_antisymmetry", None, 40, 0.0),
    ("torsion_tensoriality", None, 10, 1e-10),
    ("hermitian_symmetry", None, 10, 1e-10),
    ("interpolation", None, 10, 1e-10),
    ("hsc_symmetrize", None, 10, 1e-10),
    ("constancy", CIRCLE_POINTS[0], 40, 1e-07),
    ("constancy", CIRCLE_POINTS[1], 40, 1e-07),
    ("constancy", CIRCLE_POINTS[2], 40, 1e-07),
    ("constancy", CIRCLE_POINTS[3], 40, 1e-07),
    ("conformal_torsion", None, 5, 1e-08),
    ("commutation", None, 5, 1e-08),
    ("conformal_delta", None, 3, 1e-07),
    ("selfdual_weyl", None, 10, 0.0),
]


def check_suite(text: str) -> str | None:
    """Every record passed, and the records are the seed's 16."""
    try:
        d = json.loads(text)
        records = d["records"]
        got = [(r["name"], r["params"], r["points"], r["tolerance"])
               for r in records]
        failed = [r["name"] for r in records
                  if not (r["passed"] is True
                          and r["residual_max"] <= r["tolerance"])]
        summary_failed = d["summary"]["failed"]
    except (ValueError, KeyError, TypeError) as exc:
        return f"malformed suite report: {exc!r}"
    if got != SUITE_RECORDS:
        return f"records differ from the seed's {len(SUITE_RECORDS)}: {got}"
    if failed or summary_failed != 0:
        return f"failed records: {failed}"
    return None


# ---------------------------------------------------------------------------

WORKLOADS = {w.name: w for w in [
    Workload(
        name="scan_adm2",
        why="the circle-law scan: few points reused over 143 (t, s) cells, "
            "so warm curvature assembly in connection and curvature dominates",
        args=("scan", "--chart", "{input}", "--t=-2:4:13", "--s=-2.5:2.5:11",
              "--samples", "4"),
        input=ADMISSIBLE_N2, chart=ADMISSIBLE_N2, samples=4, evals=4 * 143,
        check=check_scan),
    Workload(
        name="hsc_hopf6",
        why="large n: HSC at n=6, where O(n^8) frame-transform einsums in "
            "lc_curvature and torsion_cov_deriv dominate",
        args=("hsc", "--chart", "{input}", "--t", "3", "--s", "0",
              "--samples", str(HSC_SAMPLES)),
        input=HOPF_N6, chart=HOPF_N6, samples=HSC_SAMPLES, evals=HSC_SAMPLES,
        check=check_hsc),
    Workload(
        name="suite_adm2",
        why="the verification battery on cold points: jets and the fd_jet "
            "oracle in wjet, conformal rescaling, curvature used cold",
        args=("suite", "{input}", "--no-timestamp"),
        input={"chart": ADMISSIBLE_N2, "params_grid": CIRCLE_POINTS,
               "sample_count": SUITE_SAMPLES},
        chart=ADMISSIBLE_N2, samples=SUITE_SAMPLES,
        evals=SUITE_SAMPLES * len(CIRCLE_POINTS),
        check=check_suite),
]}
