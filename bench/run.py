#!/usr/bin/env python3
"""Benchmark of the gauduchon CLI commands.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Closed loop, one client: invocation i calls ``gauduchon.cli.main`` in this
process with ``--seed 10000 N + i`` and ``--out`` pointing to a file under
``.bench_work/``, then reads that file back and checks it.  Each invocation
builds a new chart from its spec and the per-point caches are keyed by chart
identity, so every invocation starts cold, as a CLI process does.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
traced and untraced invocations and prints the per-layer metrics.  The last
line of stdout is the result; the line before it records the machine and the
run.  The program is imported from ``src/`` next to this directory; without
it the benchmark exits with an error.  See bench/README.md.
"""

from __future__ import annotations

import os

# One BLAS thread: the benchmark starts no threads of its own, and at n <= 12
# BLAS would not split the work between threads anyway.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tracer import LAYERS, Tracer
from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SEED_STRIDE = 10_000
SETUP_REPS = 7
REPORTED_FAILURES = 3
# peak_rss_mb is read after this many invocations, not at the end of the run:
# the lru_caches keep every invocation's dead charts alive, so the peak grows
# with the invocation count, and that count follows the host's speed.
RSS_INVOCATIONS = 32

END_TO_END = [
    ("setup_s", "s"),
    ("evals_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "frac"),
]

# Per-layer metrics named beyond the per-layer calls, self_s and self_frac.
SPAN_CALLS = ["wjet.eval_jet", "connection.chern_torsion",
              "curvature.canonical_curvature", "curvature.hsc",
              "conformal.rescale"]
SPAN_SELF = ["wjet.eval_jet", "wjet.fd_jet", "connection.metric_jet",
             "connection.unitary_frame", "connection.chern_torsion",
             "connection.torsion_cov_deriv", "curvature.lc_curvature",
             "curvature.chern_curvature", "curvature.constancy_residual",
             "curvature.symmetrize", "conformal.delta_direct",
             "conformal.delta_canonical_predicted",
             "conformal.commutation_residual", "catalog.make_chart",
             "catalog.sample_points"]
SPAN_COLD_WARM = ["curvature.canonical_curvature", "curvature.lc_curvature"]

PER_LAYER = (
    [(f"{layer}.{kind}", unit) for layer in LAYERS
     for kind, unit in (("calls", "count"), ("self_s", "s"),
                        ("self_frac", "frac"))]
    + [(f"{name}.calls", "count") for name in SPAN_CALLS]
    + [(f"{name}.self_s", "s") for name in SPAN_SELF]
    + [(f"{name}.{temp}_self_s", "s") for name in SPAN_COLD_WARM
       for temp in ("cold", "warm")]
    + [("curvature.tensors_per_eval", "ratio"),
       ("wjet.jets_per_point", "ratio"),
       ("trace.overhead_frac", "frac")])

SETUP_CODE = """\
import json, sys
sys.path.insert(0, sys.argv[1])
import gauduchon.cli
from gauduchon.catalog import make_chart, sample_points
sample_points(make_chart(json.loads(sys.argv[2])), int(sys.argv[3]), int(sys.argv[4]))
"""


def load_cli():
    """Import the CLI module from the source tree next to the benchmark."""
    if not (SRC / "gauduchon" / "__init__.py").is_file():
        raise SystemExit(f"bench: no gauduchon source under {SRC}")
    sys.path.insert(0, str(SRC))
    import gauduchon.cli
    return gauduchon.cli


def probe() -> float:
    """Fixed calibration loop, pure Python then small numpy.  Recorded at the
    start and end of each run to show drift in host speed; no metric is
    divided by it."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i % 7
    a = np.eye(4, dtype=complex)
    b = np.full((4, 4), 0.25 + 0.25j)
    for _ in range(2_000):
        a = a @ b + 1.0
        a /= np.abs(a).max()
    return time.perf_counter() - t0


def setup_once(w: Workload, seed: int) -> float:
    """Wall seconds for a fresh interpreter to import gauduchon.cli, build the
    workload's chart and draw its sample points."""
    cmd = [sys.executable, "-c", SETUP_CODE, str(SRC), json.dumps(w.chart),
           str(w.samples), str(seed)]
    t0 = time.perf_counter()
    # No timeout: with one, Popen.wait polls in sleeps of up to 50 ms, which
    # would round every sample up to that grid.
    subprocess.run(cmd, cwd=ROOT, check=True, stdin=subprocess.DEVNULL)
    return time.perf_counter() - t0


def peak_rss_mb() -> float:
    """Peak RSS of this process so far, in MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def invoke(cli, argv: list[str], out: Path, check) -> tuple[float, str | None]:
    """One CLI invocation: its wall seconds and the problem found, if any."""
    out.unlink(missing_ok=True)
    t0 = time.perf_counter()
    try:
        rc = cli.main(argv)
    except Exception:
        return time.perf_counter() - t0, "raised\n" + traceback.format_exc()
    wall = time.perf_counter() - t0
    if rc != 0:
        return wall, f"exit code {rc}"
    try:
        text = out.read_text(encoding="utf-8")
    except OSError as exc:
        return wall, f"no output: {exc}"
    return wall, check(text)


def tail(walls: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten invocations beyond it: the
    11th-largest wall time, at percentile 100 (N - 10) / N.  With ten or
    fewer invocations, the largest."""
    ordered = sorted(walls)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def machine_facts() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "machine": platform.machine(),
        "commit": git_commit(),
    }


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git; None
    outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


@dataclass
class Run:
    attempted: int = 0
    failed: int = 0
    walls: list = field(default_factory=list)          # untraced invocations
    traced_walls: dict = field(default_factory=dict)   # invocation -> wall
    setups: list = field(default_factory=list)
    rss_mb: float | None = None                        # after RSS_INVOCATIONS
    layers: dict = field(default_factory=dict)         # Tracer.per_invocation
    facts: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)


def run(w: Workload, seed: int, seconds: float, trace: bool,
        max_invocations: int | None = None,
        setup_reps: int = SETUP_REPS) -> Run:
    """Run one workload for `seconds` of invocations (or `max_invocations`).

    Untraced, the set-up measurement is repeated `setup_reps` times, spread
    evenly over the run so that it sees the same host as the invocations;
    its time does not count toward `seconds`.
    """
    cli = load_cli()
    WORK.mkdir(exist_ok=True)
    inp = WORK / f"{w.name}.input.json"
    out = WORK / f"{w.name}.out"
    inp.write_text(json.dumps(w.input), encoding="utf-8")
    base = SEED_STRIDE * seed
    r = Run()
    tracer = Tracer() if trace else None
    cpus = sorted(os.sched_getaffinity(0))
    probe_start = probe()
    if not trace:
        setup_once(w, base)           # warm the file cache, not counted
    setup_spent = 0.0
    start = time.perf_counter()
    try:
        while True:
            elapsed = time.perf_counter() - start - setup_spent
            if not trace and len(r.setups) < setup_reps \
                    and elapsed >= len(r.setups) * seconds / setup_reps:
                t0 = time.perf_counter()
                r.setups.append(setup_once(w, base + len(r.setups)))
                setup_spent += time.perf_counter() - t0
                continue
            if elapsed >= seconds or r.attempted == max_invocations:
                break
            i = r.attempted
            # Other tenants slow each CPU of a shared VM, not always
            # together, for tens of seconds at a time.  Moving to the next
            # CPU every two invocations makes a run sample all of them, not
            # whichever one the scheduler kept it on; pairs keep traced and
            # untraced invocations on the same CPUs.
            os.sched_setaffinity(0, {cpus[i // 2 % len(cpus)]})
            argv = w.argv(str(inp), str(out), base + i)
            if trace and i % 2 == 1:
                tracer.begin(i)
                tracer.install()
                try:
                    wall, problem = invoke(cli, argv, out, w.check)
                finally:
                    tracer.uninstall()
                r.traced_walls[i] = wall
            else:
                wall, problem = invoke(cli, argv, out, w.check)
                r.walls.append(wall)
            r.attempted += 1
            if r.attempted == RSS_INVOCATIONS:
                r.rss_mb = peak_rss_mb()
            if problem is not None:
                r.failed += 1
                if r.failed <= REPORTED_FAILURES:
                    print(f"bench: {w.name} seed {base + i}: {problem}",
                          file=sys.stderr)
        while not trace and len(r.setups) < setup_reps:
            r.setups.append(setup_once(w, base + len(r.setups)))
    finally:
        os.sched_setaffinity(0, cpus)
    probe_end = probe()
    out.unlink(missing_ok=True)
    if r.rss_mb is None:
        r.rss_mb = peak_rss_mb()

    r.facts = {"workload": w.name, "seed": seed, "base_seed": base,
               "seconds": seconds, "trace": int(trace),
               "invocations": r.attempted, "failed": r.failed,
               "failed_frac": r.failed / r.attempted,
               "peak_rss_after_invocations": min(r.attempted, RSS_INVOCATIONS),
               "probe_s": {"start": probe_start, "end": probe_end},
               "cpus": cpus, "machine": machine_facts()}
    if trace:
        r.layers = tracer.per_invocation()
        spans = WORK / f"{w.name}.spans.csv"
        tracer.write(spans)
        r.facts["spans_file"] = str(spans.relative_to(ROOT))
        r.facts["traced_invocations"] = len(r.traced_walls)
        r.metrics = layer_metrics(w, r)
    else:
        tail_s, tail_pct = tail(r.walls)
        # Quantiles of the invocation time are recorded but not gated: each
        # sits in one state of a shared host, and the share of a run spent
        # in each state swings from run to run (bench/README.md).
        r.facts.update({"cmd_s_samples": len(r.walls),
                        "cmd_s_tail_percentile": tail_pct,
                        "ungated": {
                            name: {"value": value, "unit": "s"} for name, value
                            in (("cmd_s_p50", statistics.median(r.walls)),
                                ("cmd_s_tail", tail_s),
                                ("cmd_s_best", min(r.walls)))},
                        "setup_s_samples": r.setups})
        r.metrics = {
            "setup_s": statistics.median(r.setups),
            "evals_per_s": w.evals * len(r.walls) / sum(r.walls),
            "peak_rss_mb": r.rss_mb,
            "ok_frac": (r.attempted - r.failed) / r.attempted,
        }
    return r


def layer_metrics(w: Workload, r: Run) -> dict:
    """Per-layer metrics: each the median over traced invocations."""
    per_inv = []
    for agg in r.layers.values():
        m = {}
        for layer in LAYERS:
            prefix = layer + "."
            m[prefix + "calls"] = sum(
                c for name, c in agg["calls"].items() if name.startswith(prefix))
            m[prefix + "self_s"] = sum(
                s for name, s in agg["self_s"].items() if name.startswith(prefix))
            m[prefix + "self_frac"] = m[prefix + "self_s"] / agg["total_s"]
        for name in SPAN_CALLS:
            m[name + ".calls"] = agg["calls"][name]
        for name in SPAN_SELF:
            m[name + ".self_s"] = agg["self_s"][name]
        for name in SPAN_COLD_WARM:
            m[name + ".cold_self_s"] = agg["cold_self_s"][name]
            m[name + ".warm_self_s"] = agg["warm_self_s"][name]
        m["curvature.tensors_per_eval"] = \
            agg["calls"]["curvature.canonical_curvature"] / w.evals
        m["wjet.jets_per_point"] = \
            agg["calls"]["wjet.eval_jet"] / max(1, agg["points"])
        per_inv.append(m)
    out = {name: statistics.median(m[name] for m in per_inv)
           for name, _ in PER_LAYER if name != "trace.overhead_frac"}
    out["trace.overhead_frac"] = (statistics.median(r.traced_walls.values())
                                  / statistics.median(r.walls) - 1.0)
    return out


def result_line(r: Run, trace: bool) -> dict:
    units = PER_LAYER if trace else END_TO_END
    return {"correct": r.failed == 0, "attempted": r.attempted,
            "failed": r.failed,
            "metrics": {name: {"value": r.metrics[name], "unit": unit}
                        for name, unit in units}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    trace = bool(args.trace)
    r = run(WORKLOADS[args.workload], args.seed, args.seconds, trace)
    print(json.dumps({"run": r.facts}))
    print(json.dumps(result_line(r, trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
