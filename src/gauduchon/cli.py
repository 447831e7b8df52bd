"""Command-line driver: verification suites, (t, s)-plane scans and report
emission.

Commands:
  gauduchon suite <config.json> [--out FILE] [--seed S] [--tol NAME=V ...]
                  [--no-timestamp]
  gauduchon scan --chart spec.json --t a:b:n --s a:b:n [--samples K]
                 [--seed S] [--out file.csv]
  gauduchon curv --chart spec.json --t T --s S --point "re,im;re,im"
                 [--format json|csv] [--out FILE]
  gauduchon hsc --chart spec.json --t T --s S [--samples K] [--seed S]
                [--out FILE]

Exit codes: 0 all checks passed, 1 at least one check failed, 2 configuration
error.  Reports are deterministic for a fixed config and seed; timestamps and
wall times are emitted only without --no-timestamp.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

from . import SCHEMA_VERSION, CONVENTIONS_VERSION
from .catalog import make_chart, sample_points
from .conformal import (commutation_residual, delta_canonical_predicted,
                        delta_direct, rescale, torsion_transform_residual)
from .connection import chern_torsion, metric_jet, unitary_frame
from .curvature import (canonical_curvature, chern_curvature, constancy_residual,
                        constancy_table, curv4_rows, gauduchon_curvature, hsc,
                        lc_curvature, selfdual_residual, symmetrize, weyl_minus)
from .catalog import circle_residual
from .errors import ConfigError, GauduchonError
from .wjet import abs2, eval_jet, fd_jet, z, zbar

DEFAULT_TOLERANCES = {
    "wjet_oracle": 1e-5,
    "metric_inverse": 1e-12,
    "frame_unitarity": 1e-12,
    "torsion_antisymmetry": 0.0,
    "torsion_tensoriality": 1e-10,
    "hermitian_symmetry": 1e-10,
    "interpolation": 1e-10,
    "hsc_symmetrize": 1e-10,
    "constancy": 1e-7,
    "kahler_families": 1e-9,
    "conformal_torsion": 1e-8,
    "commutation": 1e-8,
    "conformal_delta": 1e-7,
    "selfdual_weyl": 1e-6,
}

T_GRID = (-1.0, 0.0, 0.5, 1.0, 2.0, 3.0)
HERMITIAN_T = (-1.0, 0.0, 1.0, 3.0)


def check_tolerance(name: str, value) -> float:
    """Validate one tolerance override: a known check name and a finite
    positive number.  Returns the value as a float."""
    if name not in DEFAULT_TOLERANCES:
        raise ConfigError(f"unknown tolerance name {name!r}")
    try:
        v = float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"tolerance {name} must be a number, got {value!r}") from None
    if not (np.isfinite(v) and v > 0):
        raise ConfigError(f"tolerance {name} must be finite and positive, got {value!r}")
    return v


def _as_int(what: str, value) -> int:
    try:
        return int(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{what} must be an integer, got {value!r}") from None


def _check_sampling(samples: int, seed: int):
    """Reject a sample count or an RNG seed that cannot draw points."""
    if samples < 1:
        raise ConfigError("samples must be >= 1")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")


@dataclass
class SuiteConfig:
    chart: dict
    params_grid: list
    sample_count: int = 50
    seed: int = 0
    tolerances: dict = field(default_factory=dict)
    checks: list | None = None
    output: str | None = None
    timestamp: bool = True

    @staticmethod
    def from_dict(raw: dict) -> "SuiteConfig":
        if not isinstance(raw, dict):
            raise ConfigError("suite config must be a JSON object")
        if "chart" not in raw:
            raise ConfigError("suite config needs a 'chart' spec")
        grid = raw.get("params_grid", [[1.0, 0.0]])
        try:
            grid = [(float(t), float(s)) for t, s in grid]
        except (TypeError, ValueError):
            raise ConfigError("params_grid must be a list of [t, s] pairs") from None
        count = _as_int("sample_count", raw.get("sample_count", 50))
        if count < 1:
            raise ConfigError("sample_count must be >= 1")
        tol = raw.get("tolerances", {})
        if not isinstance(tol, dict):
            raise ConfigError("tolerances must be a JSON object")
        tol = {name: check_tolerance(name, v) for name, v in tol.items()}
        checks = raw.get("checks")
        if checks is not None:
            if not isinstance(checks, list):
                raise ConfigError("checks must be a list of check names or null")
            bad = [c for c in checks if c not in DEFAULT_TOLERANCES]
            if bad:
                raise ConfigError(f"unknown checks: {bad}")
        return SuiteConfig(chart=raw["chart"], params_grid=grid,
                           sample_count=count, seed=_as_int("seed", raw.get("seed", 0)),
                           tolerances=tol, checks=checks,
                           output=raw.get("output"))


@dataclass
class Record:
    name: str
    chart: str
    params: tuple | None
    points: int
    residual_max: float
    residual_mean: float
    tolerance: float
    passed: bool
    value: float | None = None
    detail: str = ""
    wall_time_s: float | None = None

    def as_dict(self, seed: int, timestamp: bool) -> dict:
        out = {
            "name": self.name,
            "chart": self.chart,
            "params": list(self.params) if self.params is not None else None,
            "points": self.points,
            "residual_max": self.residual_max,
            "residual_mean": self.residual_mean,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "value": self.value,
            "detail": self.detail,
            "seed": seed,
            "conventions_version": CONVENTIONS_VERSION,
        }
        if timestamp and self.wall_time_s is not None:
            out["wall_time_s"] = self.wall_time_s
        return out


@dataclass
class Report:
    config: SuiteConfig
    records: list

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.records)

    def as_dict(self) -> dict:
        recs = [r.as_dict(self.config.seed, self.config.timestamp)
                for r in self.records]
        out = {
            "schema_version": SCHEMA_VERSION,
            "conventions_version": CONVENTIONS_VERSION,
            "command": "suite",
            "chart": self.config.chart,
            "params_grid": [list(p) for p in self.config.params_grid],
            "sample_count": self.config.sample_count,
            "seed": self.config.seed,
            "records": recs,
            "summary": {
                "total": len(recs),
                "passed": sum(r.passed for r in self.records),
                "failed": sum(not r.passed for r in self.records),
            },
        }
        if self.config.timestamp:
            out["generated_at"] = datetime.now(timezone.utc).isoformat()
        return out

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True) + "\n"


def _stats(values) -> tuple[float, float]:
    arr = np.asarray(list(values), dtype=float)
    return float(arr.max()), float(arr.mean())


def _conformal_factors(n: int):
    fs = [0.1 * (z(0) + zbar(0)), 0.05 * abs2(n)]
    if n >= 2:
        fs.append(0.05 * (z(0) * z(1) + zbar(0) * zbar(1)))
    return fs


def _jet_rel_err(f, pt) -> float:
    je = eval_jet(f, pt)
    jf = fd_jet(f, pt)
    num, scale = 0.0, 1.0
    for name in ("value", "d", "dbar", "dd", "ddbar", "dbardbar"):
        a = np.atleast_1d(getattr(je, name))
        b = np.atleast_1d(getattr(jf, name))
        num = max(num, float(np.max(np.abs(a - b))))
        scale = max(scale, float(np.max(np.abs(a))))
    return num / scale


def run_suite(config: SuiteConfig) -> Report:
    """Run the selected verification battery; failures are recorded, not
    raised."""
    _check_sampling(config.sample_count, config.seed)
    try:
        chart = make_chart(config.chart)
    except GauduchonError as exc:
        raise ConfigError(str(exc)) from exc
    tol = dict(DEFAULT_TOLERANCES)
    tol.update(config.tolerances)
    rng = np.random.default_rng(config.seed)
    pts = sample_points(chart, config.sample_count, rng)
    small = pts[:min(len(pts), 10)]
    records: list[Record] = []
    selected = config.checks

    def want(name: str) -> bool:
        return selected is None or name in selected

    def add(name, residuals, tolerance, params=None, value=None, detail="",
            t0=None, points=None, wall_time_s=None):
        rmax, rmean = _stats(residuals)
        if t0 is not None:
            wall_time_s = time.perf_counter() - t0
        records.append(Record(
            name=name, chart=chart.label, params=params,
            points=points if points is not None else len(pts),
            residual_max=rmax, residual_mean=rmean, tolerance=tolerance,
            passed=bool(rmax <= tolerance), value=value, detail=detail,
            wall_time_s=wall_time_s))

    if want("wjet_oracle"):
        t0 = time.perf_counter()
        res = [_jet_rel_err(chart.g[i][j], p)
               for p in small for i in range(chart.n) for j in range(chart.n)]
        add("wjet_oracle", res, tol["wjet_oracle"], t0=t0, points=len(small),
            detail="eval_jet vs fd_jet on metric components, relative")

    if want("metric_inverse"):
        t0 = time.perf_counter()
        res = [np.max(np.abs(metric_jet(chart, p)[1] @ unitary_frame(chart, p).G.T
                             - np.eye(chart.n))) for p in pts]
        add("metric_inverse", res, tol["metric_inverse"], t0=t0)

    if want("frame_unitarity"):
        t0 = time.perf_counter()
        res = []
        for p in pts:
            fr = unitary_frame(chart, p)
            res.append(np.max(np.abs(fr.E.T @ fr.G @ fr.E.conj() - np.eye(chart.n))))
        add("frame_unitarity", res, tol["frame_unitarity"], t0=t0)

    if want("torsion_antisymmetry"):
        t0 = time.perf_counter()
        res = [np.max(np.abs(chern_torsion(chart, p)
                             + chern_torsion(chart, p).transpose(0, 2, 1)))
               for p in pts]
        add("torsion_antisymmetry", res, tol["torsion_antisymmetry"], t0=t0)

    if want("torsion_tensoriality"):
        t0 = time.perf_counter()
        res = []
        for p in small:
            fr = unitary_frame(chart, p)
            Q, _ = np.linalg.qr(rng.standard_normal((chart.n, chart.n))
                                + 1j * rng.standard_normal((chart.n, chart.n)))
            T = chern_torsion(chart, p, fr)
            Trot = chern_torsion(chart, p, fr.rotated(Q))
            pred = np.einsum("ck,kij,ia,jb->cab", Q.conj().T, T, Q, Q)
            res.append(np.max(np.abs(Trot - pred)))
        add("torsion_tensoriality", res, tol["torsion_tensoriality"], t0=t0,
            points=len(small))

    if want("hermitian_symmetry"):
        t0 = time.perf_counter()
        res = []
        for p in small:
            for t in HERMITIAN_T:
                R = gauduchon_curvature(chart, t, p).R
                res.append(np.max(np.abs(R - np.conj(np.einsum("lkji->klij", R)))))
        add("hermitian_symmetry", res, tol["hermitian_symmetry"], t0=t0,
            points=len(small))

    if want("interpolation"):
        t0 = time.perf_counter()
        res = []
        for p in small:
            res.append(np.max(np.abs(gauduchon_curvature(chart, 1.0, p).R
                                     - chern_curvature(chart, p).R)))
            for t in T_GRID:
                res.append(np.max(np.abs(
                    canonical_curvature(chart, (t, 0.0), p).R
                    - gauduchon_curvature(chart, t, p).R)))
                res.append(np.max(np.abs(
                    canonical_curvature(chart, (t, 1.0), p).R
                    - lc_curvature(chart, p).R)))
        add("interpolation", res, tol["interpolation"], t0=t0, points=len(small))

    if want("hsc_symmetrize"):
        t0 = time.perf_counter()
        res = []
        for p in small:
            C = canonical_curvature(chart, (2.0, 0.5), p)
            S = symmetrize(C)
            for _ in range(4):
                eta = rng.standard_normal(chart.n) + 1j * rng.standard_normal(chart.n)
                res.append(abs(hsc(C, eta) - hsc(S, eta)))
        add("hsc_symmetrize", res, tol["hsc_symmetrize"], t0=t0, points=len(small))

    if want("constancy") and config.params_grid:
        # One table for the whole grid; each record gets an equal share of
        # its wall time.
        t0 = time.perf_counter()
        cs, res = constancy_table(chart, config.params_grid, pts)
        share = (time.perf_counter() - t0) / len(config.params_grid)
        for (t, s), c, r in zip(config.params_grid, cs, res):
            add("constancy", r, tol["constancy"], params=(t, s),
                value=float(np.mean(c)), wall_time_s=share,
                detail=f"c in [{min(c):.6g}, {max(c):.6g}]; "
                       f"circle_residual={circle_residual(t, s):.6g}")

    if want("kahler_families"):
        t0 = time.perf_counter()
        tors = max(float(np.max(np.abs(chern_torsion(chart, p)))) for p in small)
        if tors < 1e-10:
            res = []
            for p in small:
                Rc = chern_curvature(chart, p).R
                for t in HERMITIAN_T:
                    res.append(np.max(np.abs(gauduchon_curvature(chart, t, p).R - Rc)))
            add("kahler_families", res, tol["kahler_families"], t0=t0,
                points=len(small), detail="all Gauduchon curvatures equal Chern")

    if want("conformal_torsion") or want("commutation") or want("conformal_delta"):
        factors = _conformal_factors(chart.n)
        cpts = pts[:min(len(pts), 5)]
        if want("conformal_torsion"):
            t0 = time.perf_counter()
            res = []
            for f in factors:
                pair = rescale(chart, f, check_points=cpts)
                res += [torsion_transform_residual(pair, p) for p in cpts]
            add("conformal_torsion", res, tol["conformal_torsion"], t0=t0,
                points=len(cpts))
        if want("commutation"):
            t0 = time.perf_counter()
            res = [commutation_residual(chart, f, t, p)
                   for f in factors for t in (1.0, 3.0) for p in cpts]
            add("commutation", res, tol["commutation"], t0=t0, points=len(cpts))
        if want("conformal_delta"):
            t0 = time.perf_counter()
            res = []
            for f in factors[:2]:
                pair = rescale(chart, f, check_points=cpts)
                for (t, s) in [(1.0, 0.0), (3.0, 0.0), (-1.0, 2.0)]:
                    for p in cpts[:3]:
                        d = np.max(np.abs(delta_canonical_predicted(pair, (t, s), p).R
                                          - delta_direct(pair, (t, s), p).R))
                        res.append(d)
            add("conformal_delta", res, tol["conformal_delta"], t0=t0, points=3)

    if want("selfdual_weyl") and chart.n == 2:
        t0 = time.perf_counter()
        res = []
        for p in small:
            sd = max(selfdual_residual(chart, p))
            w = float(np.linalg.norm(weyl_minus(chart, p), 2))
            res.append(0.0 if (sd < 1e-8) == (w < tol["selfdual_weyl"]) else 1.0)
        add("selfdual_weyl", res, 0.0, t0=t0, points=len(small),
            detail=f"disagreements between component self-duality residuals "
                   f"< 1e-8 and ||W_-|| < {tol['selfdual_weyl']:g}")

    return Report(config=config, records=records)


# ---------------------------------------------------------------------------
# scan


def parse_range(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"range {text!r} must be a:b:n")
    try:
        a, b, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ConfigError(f"range {text!r} must be a:b:n with numbers a, b "
                          f"and an integer n") from None
    if n < 2:
        raise ConfigError("range resolution must be >= 2")
    return a, b, n


def scan_ts(chart_spec: dict, t_range, s_range, samples: int = 20, seed: int = 0):
    """Grid scan of the constancy residual over the (t, s)-plane.

    Returns rows (t, s, max constancy residual, circle_residual), sorted
    lexicographically by (t, s).  The same sample points are reused for every
    cell.
    """
    chart = make_chart(chart_spec)
    _check_sampling(samples, seed)
    ta, tb, tn = t_range
    sa, sb, sn = s_range
    if int(tn) < 2 or int(sn) < 2:
        raise ConfigError("scan resolution must be >= 2 per axis")
    pts = sample_points(chart, samples, np.random.default_rng(seed))
    cells = [(t, s) for t in np.linspace(ta, tb, tn) for s in np.linspace(sa, sb, sn)]
    _, res = constancy_table(chart, cells, pts)
    rows = [(float(t), float(s), float(worst), float(circle_residual(t, s)))
            for (t, s), worst in zip(cells, res.max(axis=1))]
    rows.sort(key=lambda r: (r[0], r[1]))
    return rows


def scan_csv(rows) -> str:
    lines = ["t,s,max_constancy_residual,circle_residual"]
    for t, s, r, c in rows:
        lines.append(f"{t!r},{s!r},{r!r},{c!r}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# curv / hsc


def parse_point(text: str) -> np.ndarray:
    try:
        coords = []
        for part in text.split(";"):
            re_s, im_s = part.split(",")
            coords.append(complex(float(re_s), float(im_s)))
        return np.array(coords, dtype=complex)
    except ValueError:
        raise ConfigError(f"point {text!r} must look like 're,im;re,im'") from None


def curv_payload(chart_spec: dict, t: float, s: float, point: np.ndarray) -> dict:
    chart = make_chart(chart_spec)
    C = canonical_curvature(chart, (t, s), point)
    return {
        "schema_version": SCHEMA_VERSION,
        "conventions_version": CONVENTIONS_VERSION,
        "chart": chart_spec,
        "point": [[c.real, c.imag] for c in point],
        "connection": C.connection,
        "frame": "cholesky",
        "n": chart.n,
        "entries": [list(r) for r in curv4_rows(C)],
    }


def curv_csv(payload: dict) -> str:
    meta = {k: payload[k] for k in ("schema_version", "conventions_version",
                                    "chart", "point", "connection", "frame", "n")}
    lines = ["# " + json.dumps(meta, sort_keys=True), "k,l,i,j,re,im"]
    for k, l, i, j, re_v, im_v in payload["entries"]:
        lines.append(f"{k},{l},{i},{j},{re_v!r},{im_v!r}")
    return "\n".join(lines) + "\n"


def hsc_payload(chart_spec: dict, t: float, s: float, samples: int,
                seed: int, directions: int = 8) -> dict:
    chart = make_chart(chart_spec)
    _check_sampling(samples, seed)
    rng = np.random.default_rng(seed)
    pts = sample_points(chart, samples, rng)
    per_point = []
    for p in pts:
        C = canonical_curvature(chart, (t, s), p)
        c, res = constancy_residual(C)
        hs = []
        for _ in range(directions):
            eta = rng.standard_normal(chart.n) + 1j * rng.standard_normal(chart.n)
            eta /= np.linalg.norm(eta)     # uniform on the unit sphere
            hs.append(hsc(C, eta))
        per_point.append({
            "point": [[v.real, v.imag] for v in p],
            "c": c,
            "residual": res,
            "hsc_min": min(hs),
            "hsc_max": max(hs),
        })
    cs = [r["c"] for r in per_point]
    return {
        "schema_version": SCHEMA_VERSION,
        "conventions_version": CONVENTIONS_VERSION,
        "chart": chart_spec,
        "params": [t, s],
        "seed": seed,
        "samples": samples,
        "directions": directions,
        "c_mean": float(np.mean(cs)),
        "c_spread": float(max(cs) - min(cs)),
        "residual_max": float(max(r["residual"] for r in per_point)),
        "per_point": per_point,
    }


# ---------------------------------------------------------------------------
# entry point


def _write_out(text: str, path: str | None):
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read JSON {path}: {exc}") from exc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gauduchon",
        description="Verification suites and scans for Gauduchon/canonical "
                    "connection curvature on Hermitian charts.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_suite = sub.add_parser("suite", help="run a verification suite from a config")
    p_suite.add_argument("config")
    p_suite.add_argument("--out")
    p_suite.add_argument("--seed", type=int)
    p_suite.add_argument("--tol", action="append", default=[],
                         metavar="NAME=VALUE")
    p_suite.add_argument("--no-timestamp", action="store_true")

    p_scan = sub.add_parser("scan", help="scan constancy residuals over (t, s)")
    p_scan.add_argument("--chart", required=True, help="chart spec JSON file")
    p_scan.add_argument("--t", required=True, metavar="a:b:n")
    p_scan.add_argument("--s", required=True, metavar="a:b:n")
    p_scan.add_argument("--samples", type=int, default=20)
    p_scan.add_argument("--seed", type=int, default=0)
    p_scan.add_argument("--out")

    p_curv = sub.add_parser("curv", help="dump a curvature tensor at a point")
    p_curv.add_argument("--chart", required=True)
    p_curv.add_argument("--t", type=float, required=True)
    p_curv.add_argument("--s", type=float, default=0.0)
    p_curv.add_argument("--point", required=True, metavar="re,im;re,im")
    p_curv.add_argument("--format", choices=("json", "csv"), default="json")
    p_curv.add_argument("--out")

    p_hsc = sub.add_parser("hsc", help="sample holomorphic sectional curvature")
    p_hsc.add_argument("--chart", required=True)
    p_hsc.add_argument("--t", type=float, required=True)
    p_hsc.add_argument("--s", type=float, default=0.0)
    p_hsc.add_argument("--samples", type=int, default=20)
    p_hsc.add_argument("--seed", type=int, default=0)
    p_hsc.add_argument("--out")

    args = parser.parse_args(argv)
    try:
        if args.command == "suite":
            config = SuiteConfig.from_dict(_load_json(args.config))
            if args.seed is not None:
                config.seed = args.seed
            for item in args.tol:
                if "=" not in item:
                    raise ConfigError(f"--tol wants NAME=VALUE, got {item!r}")
                name, val = item.split("=", 1)
                config.tolerances[name] = check_tolerance(name, val)
            config.timestamp = not args.no_timestamp
            report = run_suite(config)
            _write_out(report.to_json(), args.out or config.output)
            return 0 if report.all_passed else 1
        if args.command == "scan":
            rows = scan_ts(_load_json(args.chart), parse_range(args.t),
                           parse_range(args.s), samples=args.samples,
                           seed=args.seed)
            _write_out(scan_csv(rows), args.out)
            return 0
        if args.command == "curv":
            payload = curv_payload(_load_json(args.chart), args.t, args.s,
                                   parse_point(args.point))
            text = (json.dumps(payload, indent=2, sort_keys=True) + "\n"
                    if args.format == "json" else curv_csv(payload))
            _write_out(text, args.out)
            return 0
        if args.command == "hsc":
            payload = hsc_payload(_load_json(args.chart), args.t, args.s,
                                  args.samples, args.seed)
            _write_out(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                       args.out)
            return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except GauduchonError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
