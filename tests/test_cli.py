import csv
import io
import json

import numpy as np
import pytest

import gauduchon as gd
from gauduchon.cli import (CHECKS, SuiteConfig, main, parse_point, parse_range,
                           run_suite, scan_csv, scan_ts)
from gauduchon.errors import ConfigError, InvalidSpec

from conftest import jet_rel_err

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


# fs_bergman is Kähler and of dimension 2, so every check applies to it.
FS_BERGMAN_SUITE = {"chart": {"chart": "fs_bergman"},
                    "params_grid": [[-1.0, 0.0], [3.0, 0.0]],
                    "sample_count": 4, "seed": 2}


@pytest.fixture(scope="module")
def fs_bergman_records():
    return run_suite(SuiteConfig.from_dict(FS_BERGMAN_SUITE)).records


def test_full_suite_lists_records_in_table_order(fs_bergman_records):
    names = [r.name for r in fs_bergman_records]
    assert list(dict.fromkeys(names)) == list(CHECKS) == [
        "wjet_oracle", "metric_inverse", "frame_unitarity", "torsion_antisymmetry",
        "torsion_tensoriality", "hermitian_symmetry", "interpolation",
        "hsc_symmetrize", "constancy", "kahler_families", "conformal_torsion",
        "commutation", "conformal_delta", "selfdual_weyl"]
    assert names == sorted(names, key=list(CHECKS).index)


@pytest.mark.parametrize("name", list(CHECKS))
def test_each_check_alone_gives_exactly_its_records(fs_bergman_records, name):
    config = SuiteConfig.from_dict({**FS_BERGMAN_SUITE, "checks": [name]})
    records = run_suite(config).records
    default = 0.0 if name == "selfdual_weyl" else CHECKS[name][0]
    assert records
    assert all(r.name == name and r.tolerance == default for r in records)
    assert ([(r.params, r.points) for r in records]
            == [(r.params, r.points) for r in fs_bergman_records if r.name == name])


def test_conformal_delta_counts_the_points_it_uses():
    for samples, used in [(2, 2), (4, 3)]:
        config = SuiteConfig.from_dict({"chart": ADM_SPEC, "sample_count": samples,
                                        "checks": ["conformal_delta"]})
        assert [r.points for r in run_suite(config).records] == [used]


def test_suite_rescales_each_conformal_factor_once(monkeypatch):
    # The two checks that read the rescaled side share one build of it: one
    # `_rescaled_records` fill, one block of rows per factor.
    import gauduchon.conformal as conformal
    fills = []
    rescaled_records = conformal._rescaled_records

    def counting(labels, *args):
        fills.append(list(labels))
        return rescaled_records(labels, *args)

    monkeypatch.setattr(conformal, "_rescaled_records", counting)
    config = SuiteConfig.from_dict({"chart": ADM_SPEC, "sample_count": 5,
                                    "checks": ["conformal_torsion", "conformal_delta"]})
    report = run_suite(config)
    assert [r.name for r in report.records] == ["conformal_torsion", "conformal_delta"]
    chart = report.records[0].chart
    assert fills == [[f"{chart}*exp(2f)"] * 3]     # n = 2: three factors, each rescaled once


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
    """The suite fills its metric record up front only for checks that read
    it, so the jet oracle still runs on a chart that is nowhere positive."""
    config = SuiteConfig.from_dict({
        "chart": {"chart": "inline", "n": 2,
                  "g": [["(sub (mul z1 zbar1) 2)", "0"], ["0", "1"]]},
        "sample_count": 3, "checks": ["wjet_oracle"]})
    report = run_suite(config)
    assert [r.name for r in report.records] == ["wjet_oracle"]
    assert report.all_passed


def test_suite_config_refuses_unknown_keys():
    with pytest.raises(ConfigError, match="sample_cout"):
        SuiteConfig.from_dict({"chart": {"chart": "euclidean", "n": 2},
                               "sample_cout": 3})


def test_jet_oracle_matches_pointwise_jets():
    """The oracle's exact and finite-difference jets come from one batch
    walk each; its residuals are the ones single-point `eval_jet` and
    `fd_jet` calls give, to the bit."""
    config = SuiteConfig.from_dict({"chart": ADM_SPEC, "sample_count": 12,
                                    "seed": 7, "checks": ["wjet_oracle"]})
    [rec] = run_suite(config).records
    chart = gd.make_chart(ADM_SPEC)
    pts = gd.sample_points(chart, 12, np.random.default_rng(7))[:10]
    res = np.array([jet_rel_err(gd.eval_jet(f, p), gd.fd_jet(f, p))
                    for p in pts for row in chart.g for f in row])
    assert (rec.points, rec.residual_max, rec.residual_mean) == \
        (10, float(res.max()), float(res.mean()))


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


# An inline chart whose g has an unterminated field expression.
UNTERMINATED = {"chart": "inline", "n": 2, "g": [["(add 1 (mul z1 zbar1)", "0"], ["0", "1"]]}

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
    ("suite", {"params_grid": [[float("nan"), 0.0]]}),
    ("suite", {"params_grid": [[1.0, float("inf")]]}),
    ("scan", ["--t=nan:1:2", "--s=0:1:2"]),
    ("scan", ["--t=0:1:2", "--s=0:inf:2"]),
    ("curv", ["--t", "inf", "--point", "1,0;0,0"]),
    ("hsc", ["--t", "nan"]),
    ("hsc", ["--t", "3", "--s=-inf"]),
    ("suite", {"sample_cout": 3}),
    ("suite", {"tolerance": {"constancy": 1}}),
    ("suite", {"output": "report.json"}),
    ("suite", {"checks": []}),
    ("suite", {"checks": [["constancy"]]}),
    ("suite", {"tolerances": {"constancy": True}}),
    ("suite", {"params_grid": [[True, False]]}),
    ("suite", {"chart": {"chart": "nope"}}),
    ("suite", {"chart": UNTERMINATED}),
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


BAD_SPECS = [
    {"chart": "euclidean", "n": "x"},
    {"chart": "euclidean", "n": 0},
    {"chart": "euclidean", "n": 2.5},
    {"chart": "hopf_standard", "n": 2, "a": "x"},
    {**ADM_SPEC, "a": "x"},
    {**ADM_SPEC, "c0": True},
    {**ADM_SPEC, "A": [[1]]},
    {**ADM_SPEC, "multipliers": 0.5},
    {**ADM_SPEC, "multipliers": [[0.5, 0, 1], [0.5, 0]]},
    {"chart": "inline", "n": 2, "g": [["1"]]},
    {"chart": "inline", "n": 2, "g": [[1, 0], [0, 1]]},
    {"chart": "inline", "n": 2, "g": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]},
    {"chart": "conformal", "base": {"chart": "euclidean", "n": 2}, "f": 3},
    UNTERMINATED,
    {"chart": "conformal", "base": {"chart": "euclidean", "n": 2}, "f": "(foo z1)"},
    {"chart": "inline", "n": 2, "g": [["(pow z1 1.5)", "0"], ["0", "1"]]},
    {"chart": "inline", "n": 2, "g": [["1", "0"], ["0", "1"]], "label": 5},
    {"chart": "inline", "n": 2, "g": [["1", "0"], ["0", "1"]], "label": ["x"]},
]


@pytest.mark.parametrize("spec", BAD_SPECS)
def test_malformed_chart_spec_exits_2(tmp_path, capsys, spec):
    """A malformed spec is an InvalidSpec, never a Python error that would
    escape main() as exit 1, nor silently truncated."""
    with pytest.raises(InvalidSpec):
        gd.make_chart(spec)
    chart = write_json(tmp_path, "chart.json", spec)
    out = tmp_path / "out"
    argv = ["hsc", "--chart", chart, "--t", "1", "--samples", "1", "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error")
    assert not out.exists()


@pytest.mark.parametrize("command", [["scan", "--t=0:1:2", "--s=0:1:2"],
                                     ["curv", "--t=1", "--point", "0.5,0;0.5,0"]])
def test_malformed_expression_exits_2_from_scan_and_curv(tmp_path, capsys, command):
    chart = write_json(tmp_path, "chart.json", UNTERMINATED)
    out = tmp_path / "out"
    assert main([*command, "--chart", chart, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error") and "unterminated field expression" in err
    assert not out.exists()


@pytest.mark.parametrize("command", [["hsc", "--t=1", "--samples", "1"],
                                     ["scan", "--t=0:1:2", "--s=0:1:2"],
                                     ["curv", "--t=1", "--point", "0.5,0;0.5,0"]])
def test_non_finite_literal_exits_2_naming_the_token(tmp_path, capsys, command):
    """An inline `g` with `inf` in it is refused as a malformed spec that
    names the token, before any point is evaluated."""
    spec = {"chart": "inline", "n": 2, "g": [["(add 1 (mul inf 0))", "0"], ["0", "1"]]}
    chart = write_json(tmp_path, "chart.json", spec)
    out = tmp_path / "out"
    assert main([*command, "--chart", chart, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error") and "number 'inf' in field expression is not finite" in err
    assert "RuntimeWarning" not in err and not out.exists()


@pytest.mark.parametrize("a", [-3, 0, 1])
def test_hopf_modulus_outside_the_unit_interval_exits_2(tmp_path, capsys, a):
    chart = write_json(tmp_path, "chart.json", {"chart": "hopf_standard", "n": 2, "a": a})
    out = tmp_path / "out"
    argv = ["hsc", "--chart", chart, "--t", "1", "--samples", "1", "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error") and f"modulus: a = {float(a)} not in (0, 1)" in err
    assert not out.exists()


UNREAD_KEYS = [
    ({"chart": "admissible", "n": 2, "a": 0.5, "multiplier": [[0.3, 0], [0.3, 0]]},
     "does not take 'multiplier'; its keys are 'chart', 'n', 'a', 'multipliers', 'A', 'c0'"),
    ({"chart": "fs_bergman", "n": 5}, "fs_bergman has n = 2, got 5"),
    ({"chart": "conformal", "n": 3, "base": {"chart": "euclidean", "n": 2},
      "f": "(mul 0.1 (add z1 zbar1))"},
     "does not take 'n'; its keys are 'chart', 'base', 'f'"),
    ({"chart": "euclidean", "n": 2, "label": "flat"}, "does not take 'label'"),
]


@pytest.mark.parametrize("spec,message", UNREAD_KEYS)
def test_chart_spec_key_its_tag_does_not_read_exits_2(tmp_path, capsys, spec, message):
    """A key the chart's tag would ignore, such as a misspelt `multiplier` or
    an `n` the chart cannot have, is refused and named, not run with the
    defaults."""
    chart = write_json(tmp_path, "chart.json", spec)
    out = tmp_path / "out"
    argv = ["hsc", "--chart", chart, "--t", "1", "--samples", "1", "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error") and message in err
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
    for t_range, s_range in [((float("nan"), 1, 2), (0, 1, 2)),
                             ((0, 1, 2), (0, float("inf"), 2))]:
        with pytest.raises(ConfigError, match="finite"):
            scan_ts({"chart": "euclidean", "n": 2}, t_range, s_range, samples=2)
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
    """No basis is built and no `canonical_curvature` called: every point's
    HSC tensor is sym R^C + q X, one weighted sum of its q-line pair.  The
    HSC extremes are those of the per-point canonical curvatures and the
    same direction draws, to rounding (a tensor's HSC is its
    symmetrization's)."""
    import gauduchon.cli as cli
    import gauduchon.connection as connection
    import gauduchon.curvature as curvature
    calls, builds = [], []
    curv, build = gd.canonical_curvature, connection._basis_stack

    def counting(*args, **kwargs):
        calls.append(args)
        return curv(*args, **kwargs)

    def counted(RC, T):
        builds.append(len(T))
        return build(RC, T)

    # Each module binds the names; count calls made through any of them.
    monkeypatch.setattr(cli, "canonical_curvature", counting)
    monkeypatch.setattr(curvature, "canonical_curvature", counting)
    for module in (cli, connection, curvature):
        monkeypatch.setattr(module, "_basis_stack", counted)
    payload = cli.hsc_payload(ADM_SPEC, 3.0, 0.0, samples=4, seed=2)
    assert calls == [] and builds == [] and len(payload["per_point"]) == 4
    chart = gd.make_chart(ADM_SPEC)
    rng = np.random.default_rng(2)
    for p, rec in zip(gd.sample_points(chart, 4, rng), payload["per_point"]):
        draws = rng.standard_normal((cli.HSC_DIRECTIONS, 2, chart.n))
        eta = draws[:, 0] + 1j * draws[:, 1]
        eta /= np.linalg.norm(eta, axis=1, keepdims=True)
        hs = gd.hsc(curv(chart, (3.0, 0.0), p), eta)
        np.testing.assert_allclose([rec["hsc_min"], rec["hsc_max"]], [hs.min(), hs.max()],
                                   rtol=0, atol=1e-14)


def test_hsc_payload_reads_its_points_once(monkeypatch):
    """One fill of the sample points feeds c, the residual and the HSC
    tensor, and its Chern curvature and torsion are built once."""
    import gauduchon.cli as cli
    import gauduchon.connection as connection
    import gauduchon.curvature as curvature
    reads = []
    read = connection._metric_points

    def counting(chart, points):
        reads.append(len(points))
        return read(chart, points)

    # Each module that binds the name; count reads made through any of them.
    for module in (cli, connection, curvature):
        if getattr(module, "_metric_points", None) is read:
            monkeypatch.setattr(module, "_metric_points", counting)
    kernels = []
    for name in ("_chern_stack", "_frame_torsion"):
        kernel = getattr(connection, name)

        def counted(*args, func=kernel, name=name):
            kernels.append((name, len(args[1])))
            return func(*args)
        for module in (cli, connection, curvature):
            if getattr(module, name, None) is kernel:
                monkeypatch.setattr(module, name, counted)
    cli.hsc_payload(ADM_SPEC, 3.0, 0.0, samples=4, seed=2)
    assert reads == [4]
    assert sorted(kernels) == [("_chern_stack", 4), ("_frame_torsion", 4)]


def test_direction_stack_draws_the_per_direction_stream():
    """`hsc_payload` and the suite's `hsc_symmetrize` draw k directions as
    one (k, 2, n) array: the same numbers, in the same order, as k pairs of
    n-vector draws (real part, then imaginary part), and the stream goes on
    from the same place."""
    for n, k in [(2, 4), (6, 8)]:
        stacked, pairs = np.random.default_rng(3), np.random.default_rng(3)
        draws = stacked.standard_normal((k, 2, n))
        per = [pairs.standard_normal(n) + 1j * pairs.standard_normal(n) for _ in range(k)]
        np.testing.assert_array_equal(draws[:, 0] + 1j * draws[:, 1], per)
        assert stacked.standard_normal() == pairs.standard_normal()


def test_parser_is_built_once_and_keeps_no_parsed_state(tmp_path, monkeypatch):
    """Every `main` call parses with the one parser, and each gets a fresh
    namespace: a `--tol` of one suite call is not seen by the next, and an
    hsc call between them carries none of the suite's arguments."""
    import gauduchon.cli as cli
    parser = cli._parser()
    seen = []
    parse = parser.parse_args

    def recording(argv=None):
        seen.append(parse(argv))
        return seen[-1]

    monkeypatch.setattr(parser, "parse_args", recording)
    config = write_json(tmp_path, "config.json",
                        {"chart": {"chart": "euclidean", "n": 2}, "sample_count": 2,
                         "checks": ["metric_inverse"]})
    chart = write_json(tmp_path, "chart.json", ADM_SPEC)
    out = str(tmp_path / "out")
    assert main(["suite", config, "--tol", "metric_inverse=1e-9", "--out", out]) == 0
    assert main(["hsc", "--chart", chart, "--t", "3", "--samples", "1", "--out", out]) == 0
    assert main(["suite", config, "--out", out]) == 0
    assert cli._parser() is parser
    first, middle, last = seen
    assert first.tol == ["metric_inverse=1e-9"] and last.tol == []
    assert first is not last and first.tol is not last.tol
    assert middle.command == "hsc" and not hasattr(middle, "tol")
    assert not hasattr(last, "samples")
    assert json.loads(open(out).read())["records"][0]["tolerance"] == 1e-12
