"""Committed outputs of the four commands, the benchmark's three at seed
0, so a change that moves a reported number beyond rounding shows here:

- `suite_adm2_seed0.json`: the `--no-timestamp` suite report of the
  suite_adm2 config (admissible n=2 chart, the four circle points, 40
  samples);
- `scan_adm2_seed0.csv`: the scan of that chart over the 13 x 11 grid
  t in [-2, 4], s in [-2.5, 2.5] with 4 samples;
- `hsc_hopf6_seed0.json`: the hsc payload of the standard Hopf chart at
  n=6, (t, s) = (3, 0), with 3 samples;
- `curv_adm2.json`: the curv payload of the admissible chart at
  (t, s) = (0.5, 0.5) and the point (0.3 + 0.1i, -0.2 + 0.25i).

Each output is regenerated from its own command.  Every non-numeric field
must match exactly and every number within 1e-12 absolute plus 1e-12
relative.  A deliberate change regenerates the files with

    PYTHONPATH=src python -m gauduchon.cli suite CONFIG --no-timestamp \
        --seed 0 --out tests/data/suite_adm2_seed0.json
    PYTHONPATH=src python -m gauduchon.cli scan --chart ADM_CHART \
        --t=-2:4:13 --s=-2.5:2.5:11 --samples 4 --seed 0 \
        --out tests/data/scan_adm2_seed0.csv
    PYTHONPATH=src python -m gauduchon.cli hsc --chart HOPF6_CHART --t 3 \
        --s 0 --samples 3 --seed 0 --out tests/data/hsc_hopf6_seed0.json
    PYTHONPATH=src python -m gauduchon.cli curv --chart ADM_CHART --t 0.5 \
        --s 0.5 --point "0.3,0.1;-0.2,0.25" --out tests/data/curv_adm2.json

and says so in CHANGES.md.
"""

import json
import math
from pathlib import Path

from gauduchon.cli import main

DATA = Path(__file__).parent / "data"
PINNED = DATA / "suite_adm2_seed0.json"
SCAN_PINNED = DATA / "scan_adm2_seed0.csv"
HSC_PINNED = DATA / "hsc_hopf6_seed0.json"
CURV_PINNED = DATA / "curv_adm2.json"
CURV_PARAMS = ("0.5", "0.5")
SCAN_ARGS = ["--t=-2:4:13", "--s=-2.5:2.5:11", "--samples", "4", "--seed", "0"]


def mismatches(want, got, path="report"):
    """Paths where got differs from want: numbers beyond 1e-12 absolute plus
    1e-12 relative, anything else by value or type."""
    if isinstance(want, dict) and isinstance(got, dict):
        if want.keys() != got.keys():
            return [f"{path}: keys {sorted(want)} != {sorted(got)}"]
        return [m for k in want for m in mismatches(want[k], got[k], f"{path}.{k}")]
    if isinstance(want, list) and isinstance(got, list):
        if len(want) != len(got):
            return [f"{path}: length {len(want)} != {len(got)}"]
        return [m for i, (w, g) in enumerate(zip(want, got))
                for m in mismatches(w, g, f"{path}[{i}]")]
    numbers = (int, float)
    if (isinstance(want, numbers) and isinstance(got, numbers)
            and not isinstance(want, bool) and not isinstance(got, bool)):
        if type(want) is not type(got):
            return [f"{path}: {got!r} != pinned {want!r}"]
        if not math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12):
            return [f"{path}: {got!r} differs from pinned {want!r}"]
        return []
    return [] if want == got else [f"{path}: {got!r} != pinned {want!r}"]


def test_suite_report_matches_the_pinned_one(tmp_path):
    pinned = json.loads(PINNED.read_text())
    config = {k: pinned[k] for k in ("chart", "params_grid", "sample_count")}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "report.json"
    assert main(["suite", str(cfg), "--no-timestamp", "--seed", str(pinned["seed"]),
                 "--out", str(out)]) == 0
    assert mismatches(pinned, json.loads(out.read_text())) == []


def csv_rows(text):
    """The header, then every row as a list of numbers."""
    header, *rows = text.splitlines()
    return [header] + [[float(v) for v in row.split(",")] for row in rows]


def test_scan_output_matches_the_pinned_one(tmp_path):
    chart = tmp_path / "chart.json"
    chart.write_text(json.dumps(json.loads(PINNED.read_text())["chart"]))
    out = tmp_path / "scan.csv"
    assert main(["scan", "--chart", str(chart), *SCAN_ARGS, "--out", str(out)]) == 0
    assert mismatches(csv_rows(SCAN_PINNED.read_text()), csv_rows(out.read_text()),
                      "scan") == []


def test_hsc_output_matches_the_pinned_one(tmp_path):
    pinned = json.loads(HSC_PINNED.read_text())
    chart = tmp_path / "chart.json"
    chart.write_text(json.dumps(pinned["chart"]))
    out = tmp_path / "hsc.json"
    t, s = pinned["params"]
    assert main(["hsc", "--chart", str(chart), "--t", repr(t), "--s", repr(s),
                 "--samples", str(pinned["samples"]), "--seed", str(pinned["seed"]),
                 "--out", str(out)]) == 0
    assert mismatches(pinned, json.loads(out.read_text()), "hsc") == []


def test_curv_output_matches_the_pinned_one(tmp_path):
    pinned = json.loads(CURV_PINNED.read_text())
    chart = tmp_path / "chart.json"
    chart.write_text(json.dumps(pinned["chart"]))
    out = tmp_path / "curv.json"
    t, s = CURV_PARAMS
    point = ";".join(f"{re!r},{im!r}" for re, im in pinned["point"])
    assert main(["curv", "--chart", str(chart), "--t", t, "--s", s, "--point", point,
                 "--out", str(out)]) == 0
    assert mismatches(pinned, json.loads(out.read_text()), "curv") == []
