"""Tests of the benchmark itself; run with ``python -m pytest bench``."""

from __future__ import annotations

import inspect
import json
import math
import subprocess
import sys

import pytest

import run as bench
from tracer import Tracer
from workloads import WORKLOADS

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())


def test_metric_lists_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == bench.END_TO_END
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == bench.PER_LAYER


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_prints_every_metric_with_its_unit(name, trace):
    r = bench.run(WORKLOADS[name], seed=0, seconds=60.0, trace=trace,
                  max_invocations=4, setup_reps=1)
    line = bench.result_line(r, trace)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] == 4
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert [(k, v["unit"]) for k, v in line["metrics"].items()] == \
        [(m["name"], m["unit"]) for m in wanted]
    assert all(math.isfinite(v["value"]) for v in line["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in line["metrics"].values())
        # Recorded on the run line, not gated (bench/README.md).
        assert [(k, v["unit"]) for k, v in r.facts["ungated"].items()] == \
            [("cmd_s_p50", "s"), ("cmd_s_tail", "s"), ("cmd_s_best", "s")]
        assert all(v["value"] > 0 for v in r.facts["ungated"].values())
        assert r.facts["peak_rss_after_invocations"] == 4


def test_command_prints_result_as_last_line():
    proc = subprocess.run(
        [sys.executable, str(bench.HERE / "run.py"), "--workload", "hsc_hopf6",
         "--seed", "3", "--seconds", "0.5", "--trace", "0"],
        capture_output=True, text=True, timeout=180, check=True)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["attempted"] >= 1
    facts = json.loads(lines[-2])["run"]
    assert facts["machine"]["nproc"] >= 1 and facts["probe_s"]["end"] > 0


def _output(name: str) -> str:
    w = WORKLOADS[name]
    bench.WORK.mkdir(exist_ok=True)
    inp, out = bench.WORK / f"test_{name}.json", bench.WORK / f"test_{name}.out"
    inp.write_text(json.dumps(w.input))
    wall, problem = bench.invoke(bench.load_cli(), w.argv(str(inp), str(out), 11),
                                 out, w.check)
    assert problem is None
    text = out.read_text()
    inp.unlink()
    out.unlink()
    return text


def test_scan_check_rejects_zeroed_off_circle_residual():
    lines = _output("scan_adm2").splitlines()
    for k, line in enumerate(lines[1:], start=1):
        t, s, res, circ = line.split(",")
        if abs(float(circ)) > 1.0:
            lines[k] = ",".join((t, s, "0.0", circ))
            break
    assert WORKLOADS["scan_adm2"].check("\n".join(lines) + "\n") is not None


def test_hsc_check_rejects_nonzero_c_mean():
    d = json.loads(_output("hsc_hopf6"))
    d["c_mean"] = 1.0
    assert WORKLOADS["hsc_hopf6"].check(json.dumps(d)) is not None


def test_suite_check_rejects_a_deleted_record():
    d = json.loads(_output("suite_adm2"))
    del d["records"][3]
    assert WORKLOADS["suite_adm2"].check(json.dumps(d)) is not None


def test_self_times_sum_to_traced_wall():
    r = bench.run(WORKLOADS["scan_adm2"], seed=0, seconds=60.0, trace=True,
                  max_invocations=6)
    slack = max(abs(r.metrics["trace.overhead_frac"]), 0.01)
    assert sorted(r.layers) == sorted(r.traced_walls) == [1, 3, 5]
    for inv, agg in r.layers.items():
        wall = r.traced_walls[inv]
        assert agg["total_s"] <= wall
        assert abs(agg["total_s"] - wall) <= slack * wall


def test_tracer_rebinds_every_holder_and_restores_them():
    cli = bench.load_cli()
    import gauduchon
    import gauduchon.curvature as curvature

    holders = [(gauduchon, "canonical_curvature"), (cli, "canonical_curvature"),
               (curvature, "canonical_curvature"), (cli, "make_chart"),
               (curvature, "chern_torsion"), (cli, "main")]
    before = [getattr(m, a) for m, a in holders]
    tracer = Tracer()
    tracer.install()
    try:
        assert all(getattr(m, a).__wrapped__ is f
                   for (m, a), f in zip(holders, before))
    finally:
        tracer.uninstall()
    assert [getattr(m, a) for m, a in holders] == before
    for module in (gauduchon, cli, curvature):
        assert not any(inspect.isfunction(v) and hasattr(v, "__wrapped__")
                       for v in vars(module).values())


def test_tail_leaves_ten_invocations_beyond_it():
    walls = [float(k) for k in range(40)]
    value, pct = bench.tail(walls)
    assert sum(w > value for w in walls) == 10
    assert pct == 75.0
