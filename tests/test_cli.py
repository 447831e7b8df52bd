import csv
import io
import json

import numpy as np
import pytest

import gauduchon as gd
from gauduchon.cli import (SuiteConfig, main, parse_point, parse_range,
                           run_suite, scan_csv, scan_ts)
from gauduchon.errors import ConfigError

ADM_SPEC = {"chart": "admissible", "n": 2, "a": 0.5,
            "multipliers": [[0.5, 0], [0.5, 0]],
            "A": [[[0.2, 0], [0, 0]], [[0, 0], [0.1, 0]]], "c0": 1.0}


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


# ---------------------------------------------------------------------------
# run_suite


def test_suite_euclidean_all_pass():
    config = SuiteConfig.from_dict({
        "chart": {"chart": "euclidean", "n": 2},
        "params_grid": [[1.0, 0.0]], "sample_count": 10, "seed": 1})
    config.timestamp = False
    report = run_suite(config)
    assert report.all_passed
    by_name = {(r.name, r.params): r for r in report.records}
    const = by_name[("constancy", (1.0, 0.0))]
    assert const.residual_max == 0.0 and const.value == 0.0


def test_suite_hopf_circle_params_pass():
    config = SuiteConfig.from_dict({
        "chart": {"chart": "hopf_standard", "n": 2},
        "params_grid": [[-1.0, 0.0], [3.0, 0.0]],
        "sample_count": 30, "seed": 3})
    config.timestamp = False
    report = run_suite(config)
    assert report.all_passed
    for r in report.records:
        if r.name == "constancy":
            assert abs(r.value) < 1e-10          # c = 0 on both rows
            assert r.residual_max < 1e-7


def test_suite_hopf_lichnerowicz_fails_constancy():
    config = SuiteConfig.from_dict({
        "chart": {"chart": "hopf_standard", "n": 2},
        "params_grid": [[0.0, 0.0]], "sample_count": 30, "seed": 3,
        "checks": ["constancy"]})
    config.timestamp = False
    report = run_suite(config)
    assert not report.all_passed
    rec = report.records[0]
    assert rec.name == "constancy" and rec.residual_max > 1e-2


def test_suite_config_validation_errors():
    with pytest.raises(ConfigError):
        SuiteConfig.from_dict({"params_grid": []})
    with pytest.raises(ConfigError):
        SuiteConfig.from_dict({"chart": {"chart": "euclidean"},
                               "sample_count": 0})
    with pytest.raises(ConfigError):
        SuiteConfig.from_dict({"chart": {"chart": "euclidean"},
                               "tolerances": {"bogus": 1e-3}})
    with pytest.raises(ConfigError):
        SuiteConfig.from_dict({"chart": {"chart": "euclidean"},
                               "tolerances": {"constancy": -1}})
    with pytest.raises(ConfigError):
        SuiteConfig.from_dict({"chart": {"chart": "euclidean"},
                               "checks": ["bogus"]})


BAD_TOLERANCES = ["abc", "-1", "0", "nan", "inf", "", None, 0, float("nan")]


@pytest.mark.parametrize("value", BAD_TOLERANCES)
def test_suite_config_rejects_bad_tolerance_values(value):
    with pytest.raises(ConfigError):
        SuiteConfig.from_dict({"chart": {"chart": "euclidean", "n": 2},
                               "tolerances": {"constancy": value}})


def test_suite_config_takes_integral_counts_and_seeds():
    config = SuiteConfig.from_dict({"chart": {"chart": "euclidean", "n": 2},
                                    "sample_count": 3.0, "seed": "4"})
    assert (config.sample_count, config.seed) == (3, 4)
    assert type(config.sample_count) is int and type(config.seed) is int


def test_jet_oracle_alone_reads_no_metric_data():
    """The suite fills the metric store up front only for checks that read
    it, so the jet oracle still runs on a chart that is nowhere positive."""
    config = SuiteConfig.from_dict({
        "chart": {"chart": "inline", "n": 2,
                  "g": [["(sub (mul z1 zbar1) 2)", "0"], ["0", "1"]]},
        "sample_count": 3, "checks": ["wjet_oracle"]})
    report = run_suite(config)
    assert [r.name for r in report.records] == ["wjet_oracle"]
    assert report.all_passed


def test_suite_config_stores_tolerances_as_floats():
    config = SuiteConfig.from_dict({"chart": {"chart": "euclidean", "n": 2},
                                    "tolerances": {"constancy": "1e-3"}})
    assert config.tolerances == {"constancy": 1e-3}
    with pytest.raises(ConfigError):
        SuiteConfig.from_dict({"chart": {"chart": "euclidean", "n": 2},
                               "tolerances": [["constancy", 1e-3]]})


# ---------------------------------------------------------------------------
# CLI entry point


def test_cli_suite_exit_codes_and_determinism(tmp_path, capsys):
    cfg = write_json(tmp_path, "cfg.json", {
        "chart": {"chart": "hopf_standard", "n": 2},
        "params_grid": [[-1.0, 0.0]], "sample_count": 10, "seed": 5})
    out1, out2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
    assert main(["suite", cfg, "--no-timestamp", "--out", out1]) == 0
    assert main(["suite", cfg, "--no-timestamp", "--out", out2]) == 0
    b1 = open(out1, "rb").read()
    assert b1 == open(out2, "rb").read()
    report = json.loads(b1)
    assert report["schema_version"] == gd.SCHEMA_VERSION
    assert "generated_at" not in report
    assert all("wall_time_s" not in r for r in report["records"])
    assert all(r["seed"] == 5 for r in report["records"])
    assert all(r["conventions_version"] == gd.CONVENTIONS_VERSION
               for r in report["records"])


def test_cli_suite_timestamp_fields(tmp_path):
    cfg = write_json(tmp_path, "cfg.json", {
        "chart": {"chart": "euclidean", "n": 2},
        "params_grid": [[1.0, 0.0]], "sample_count": 5, "seed": 0,
        "checks": ["constancy"]})
    out = str(tmp_path / "r.json")
    assert main(["suite", cfg, "--out", out]) == 0
    report = json.loads(open(out).read())
    assert "generated_at" in report
    assert all("wall_time_s" in r for r in report["records"])


def test_constancy_records_share_the_table_wall_time():
    config = SuiteConfig.from_dict({
        "chart": {"chart": "hopf_standard", "n": 2},
        "params_grid": [[-1.0, 0.0], [3.0, 0.0], [0.0, 0.0]],
        "sample_count": 3, "checks": ["constancy"]})
    times = [r.wall_time_s for r in run_suite(config).records]
    assert len(times) == 3 and times[0] > 0 and len(set(times)) == 1


def test_cli_suite_failure_exit_code(tmp_path):
    cfg = write_json(tmp_path, "cfg.json", {
        "chart": {"chart": "hopf_standard", "n": 2},
        "params_grid": [[0.0, 0.0]], "sample_count": 10, "seed": 5,
        "checks": ["constancy"]})
    assert main(["suite", cfg, "--no-timestamp",
                 "--out", str(tmp_path / "r.json")]) == 1


def test_cli_tol_override_flips_result(tmp_path):
    cfg = write_json(tmp_path, "cfg.json", {
        "chart": {"chart": "hopf_standard", "n": 2},
        "params_grid": [[0.0, 0.0]], "sample_count": 10, "seed": 5,
        "checks": ["constancy"]})
    out = str(tmp_path / "r.json")
    assert main(["suite", cfg, "--no-timestamp", "--tol", "constancy=10.0",
                 "--out", out]) == 0


@pytest.mark.parametrize("item", ["constancy=abc", "constancy=-1",
                                  "constancy=0", "constancy=nan",
                                  "constancy=inf", "bogus=1e-3", "constancy"])
def test_cli_bad_tol_exit_2(tmp_path, item):
    cfg = write_json(tmp_path, "cfg.json", {
        "chart": {"chart": "euclidean", "n": 2}, "sample_count": 2,
        "checks": ["constancy"]})
    assert main(["suite", cfg, "--no-timestamp", "--tol", item,
                 "--out", str(tmp_path / "r.json")]) == 2
    assert not (tmp_path / "r.json").exists()


BAD_INPUTS = [
    ("scan", ["--t=a:1:2", "--s=0:1:2"]),
    ("scan", ["--t=0:b:2", "--s=0:1:2"]),
    ("scan", ["--t=0:1:x", "--s=0:1:2"]),
    ("scan", ["--t=0:1:2", "--s=0:1:2.5"]),
    ("scan", ["--t=0:1:2", "--s=0:1:2", "--seed=-1"]),
    ("suite", {"sample_count": "abc"}),
    ("suite", {"seed": "x"}),
    ("suite", {"seed": None}),
    ("suite", {"seed": -1}),
    ("suite", {"checks": "constancy"}),
    ("hsc", ["--t", "3", "--samples", "0"]),
    ("hsc", ["--t", "3", "--seed=-1"]),
    ("suite", {"sample_count": 2.7}),
    ("suite", {"sample_count": True}),
    ("suite", {"seed": 1.5}),
    ("suite", {"seed": False}),
]


@pytest.mark.parametrize("command,bad", BAD_INPUTS)
def test_bad_inputs_exit_2_with_config_error(tmp_path, capsys, command, bad):
    """main() reports "config error" only for a ConfigError; any other
    exception would escape it and fail the test."""
    if command == "suite":
        raw = {"chart": {"chart": "euclidean", "n": 2}, "sample_count": 2, **bad}
        argv = ["suite", write_json(tmp_path, "cfg.json", raw)]
    else:
        chart = write_json(tmp_path, "chart.json", {"chart": "euclidean", "n": 2})
        argv = [command, "--chart", chart, *bad]
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error")
    assert not out.exists()


def test_cli_config_error_exit_2(tmp_path):
    missing = str(tmp_path / "nope.json")
    assert main(["suite", missing]) == 2
    bad = write_json(tmp_path, "bad.json", {"no_chart": 1})
    assert main(["suite", bad]) == 2
    chart = write_json(tmp_path, "c.json", {"chart": "euclidean", "n": 2})
    assert main(["scan", "--chart", chart, "--t", "0:1:1", "--s", "0:1:2"]) == 2
    assert main(["curv", "--chart", chart, "--t", "1", "--point", "oops"]) == 2


# ---------------------------------------------------------------------------
# scan


def test_scan_flat_chart_all_tiny(tmp_path):
    rows = scan_ts({"chart": "euclidean", "n": 2}, (-1, 3, 3), (-1, 1, 3),
                   samples=4, seed=2)
    assert len(rows) == 9
    assert all(np.isfinite(r).all() for r in (np.array(rows),))
    assert max(r[2] for r in rows) < 1e-10
    assert rows == sorted(rows, key=lambda r: (r[0], r[1]))


def test_scan_csv_schema():
    rows = scan_ts({"chart": "euclidean", "n": 2}, (0, 1, 2), (0, 1, 2),
                   samples=2, seed=0)
    text = scan_csv(rows)
    parsed = list(csv.DictReader(io.StringIO(text)))
    assert len(parsed) == 4
    assert set(parsed[0]) == {"t", "s", "max_constancy_residual",
                              "circle_residual"}


def test_scan_admissible_circle_locus(tmp_path):
    """Cells near the constancy circle have much smaller residual."""
    rows = scan_ts(ADM_SPEC, (-2.0, 4.0, 11), (-2.5, 2.5, 11),
                   samples=6, seed=2)
    assert len(rows) == 121
    near = [r[2] for r in rows if abs(r[3]) < 0.05]
    far = [r[2] for r in rows if abs(r[3]) > 1.0]
    assert near and far
    assert max(near) < 0.1 * min(far)


def test_cli_scan_command(tmp_path):
    chart = write_json(tmp_path, "chart.json", {"chart": "euclidean", "n": 2})
    out = str(tmp_path / "scan.csv")
    assert main(["scan", "--chart", chart, "--t", "0:2:3", "--s=-1:1:3",
                 "--samples", "3", "--seed", "1", "--out", out]) == 0
    rows = list(csv.DictReader(open(out)))
    assert len(rows) == 9


def test_scan_ts_validates_resolution():
    with pytest.raises(ConfigError):
        scan_ts({"chart": "euclidean", "n": 2}, (0, 1, 1), (0, 1, 3), samples=2)
    with pytest.raises(ConfigError):
        scan_ts({"chart": "euclidean", "n": 2}, (0, 1, 3), (0, 1, 3), samples=0)


def test_parse_range_and_point():
    assert parse_range("0:1:5") == (0.0, 1.0, 5)
    with pytest.raises(ConfigError):
        parse_range("0:1")
    with pytest.raises(ConfigError):
        parse_range("0:1:1")
    np.testing.assert_array_equal(parse_point("1,0;0,-2"),
                                  np.array([1.0, -2j]))
    with pytest.raises(ConfigError):
        parse_point("1;2")


# ---------------------------------------------------------------------------
# curv / hsc commands


def test_cli_curv_json(tmp_path, capsys):
    chart = write_json(tmp_path, "chart.json", ADM_SPEC)
    assert main(["curv", "--chart", chart, "--t=-1", "--s", "0",
                 "--point", "1,0;0,0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n"] == 2 and len(payload["entries"]) == 16
    lut = {tuple(e[:4]): e[4] for e in payload["entries"]}
    assert lut[(1, 1, 1, 1)] == pytest.approx(-0.4, abs=1e-10)


def test_cli_curv_csv(tmp_path, capsys):
    chart = write_json(tmp_path, "chart.json", {"chart": "hopf_standard", "n": 2})
    assert main(["curv", "--chart", chart, "--t", "3", "--s", "0",
                 "--point", "0,0;1,0", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("# {")
    meta = json.loads(lines[0][2:])
    assert meta["connection"].startswith("canonical")
    assert lines[1] == "k,l,i,j,re,im"
    row = [ln for ln in lines[2:] if ln.startswith("1,1,2,2,")][0]
    assert float(row.split(",")[4]) == pytest.approx(4.0, abs=1e-10)


def test_cli_hsc_matches_reference(tmp_path, capsys):
    chart = write_json(tmp_path, "chart.json", ADM_SPEC)
    assert main(["hsc", "--chart", chart, "--t", "3", "--s", "0",
                 "--samples", "5", "--seed", "9"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["residual_max"] < 1e-10
    spec = gd.hopf_spec(2, 0.5, A=[[0.2, 0], [0, 0.1]])
    for rec in payload["per_point"]:
        p = np.array([complex(a, b) for a, b in rec["point"]])
        assert rec["c"] == pytest.approx(gd.admissible_hsc_reference(spec, p),
                                         abs=1e-9)
        assert rec["hsc_max"] - rec["hsc_min"] < 1e-9


def test_hsc_payload_builds_each_curvature_once(monkeypatch):
    import gauduchon.cli as cli
    import gauduchon.curvature as curvature
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return gd.canonical_curvature(*args, **kwargs)

    # Both modules bind the name; count calls made through either.
    monkeypatch.setattr(cli, "canonical_curvature", counting)
    monkeypatch.setattr(curvature, "canonical_curvature", counting)
    payload = cli.hsc_payload(ADM_SPEC, 3.0, 0.0, samples=4, seed=2)
    assert len(calls) == len(payload["per_point"]) == 4
