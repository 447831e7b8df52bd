"""The committed `--no-timestamp` suite report of the benchmark's suite_adm2
config (admissible n=2 chart, the four circle points, 40 samples) at seed 0.

The report is regenerated from its own chart, grid, sample count and seed.
Every non-numeric field must match exactly and every number within 1e-12
absolute plus 1e-12 relative, so a change that moves a reported number
beyond rounding shows here.  A deliberate change regenerates the file with

    PYTHONPATH=src python -m gauduchon.cli suite CONFIG --no-timestamp \
        --seed 0 --out tests/data/suite_adm2_seed0.json

and says so in CHANGES.md.
"""

import json
import math
from pathlib import Path

from gauduchon.cli import main

PINNED = Path(__file__).parent / "data" / "suite_adm2_seed0.json"


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
