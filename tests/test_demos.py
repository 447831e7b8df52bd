"""Every narrative script in demos/ runs to the end and prints its story;
demos/04_conformal_laws.py is also the only caller of the per-point
conformal API outside the library's own tests."""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip(), f"{path.name} printed nothing"
