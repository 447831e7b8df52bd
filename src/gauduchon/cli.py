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
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from functools import cached_property

import numpy as np

from . import SCHEMA_VERSION, CONVENTIONS_VERSION
from .catalog import circle_residual, make_chart, sample_points
from .conformal import FactorAt, rescale
from .connection import (MetricChart, chern_torsion, metric_jet, unitary_frame,
                         _as_key, _metric_points)
from .curvature import (canonical_basis, canonical_bases, canonical_curvature,
                        canonical_weights, chern_curvature, constancy_residual,
                        constancy_table, curv4_rows, gauduchon_curvature, hsc,
                        lc_curvature, selfdual_residual, symmetrize, weyl_minus)
from .errors import ConfigError, GauduchonError
from .wjet import abs2, eval_jets, fd_jet, z, zbar

T_GRID = (-1.0, 0.0, 0.5, 1.0, 2.0, 3.0)
HERMITIAN_T = (-1.0, 0.0, 1.0, 3.0)
HSC_DIRECTIONS = 8


def check_tolerance(name: str, value) -> float:
    """Validate one tolerance override: a known check name and a finite
    positive number.  Returns the value as a float."""
    if name not in CHECKS:
        raise ConfigError(f"unknown tolerance name {name!r}")
    try:
        v = float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"tolerance {name} must be a number, got {value!r}") from None
    if not (np.isfinite(v) and v > 0):
        raise ConfigError(f"tolerance {name} must be finite and positive, got {value!r}")
    return v


def _as_int(what: str, value) -> int:
    """An integer config value: an int, an integral float such as 3.0 or a
    string of digits.  Booleans and fractions are refused, not truncated."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ConfigError(f"{what} must be an integer, got {value!r}")
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


def _check_finite(what: str, *values: float):
    """Reject a NaN or infinite t or s: no connection has such parameters."""
    if not np.all(np.isfinite(values)):
        raise ConfigError(f"{what} must be finite, got {values}")


# The keys a suite config may hold; any other key is refused.
CONFIG_KEYS = ("chart", "params_grid", "sample_count", "seed", "tolerances", "checks")


@dataclass
class SuiteConfig:
    chart: dict
    params_grid: list
    sample_count: int = 50
    seed: int = 0
    tolerances: dict = field(default_factory=dict)
    checks: list | None = None
    timestamp: bool = True

    @staticmethod
    def from_dict(raw: dict) -> "SuiteConfig":
        if not isinstance(raw, dict):
            raise ConfigError("suite config must be a JSON object")
        if "chart" not in raw:
            raise ConfigError("suite config needs a 'chart' spec")
        unknown = sorted(set(raw) - set(CONFIG_KEYS))
        if unknown:
            raise ConfigError(f"unknown suite config keys {unknown}; "
                              f"known keys are {list(CONFIG_KEYS)}")
        grid = raw.get("params_grid", [[1.0, 0.0]])
        try:
            grid = [(float(t), float(s)) for t, s in grid]
        except (TypeError, ValueError):
            raise ConfigError("params_grid must be a list of [t, s] pairs") from None
        _check_finite("params_grid entries", *(v for ts in grid for v in ts))
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
            bad = [c for c in checks if c not in CHECKS]
            if bad:
                raise ConfigError(f"unknown checks: {bad}")
        return SuiteConfig(chart=raw["chart"], params_grid=grid,
                           sample_count=count, seed=_as_int("seed", raw.get("seed", 0)),
                           tolerances=tol, checks=checks)


@dataclass
class Record:
    name: str
    chart: str
    points: int
    residual_max: float
    residual_mean: float
    tolerance: float
    passed: bool
    params: tuple | None = None
    value: float | None = None
    detail: str = ""
    wall_time_s: float | None = None

    def as_dict(self, seed: int, timestamp: bool) -> dict:
        out = asdict(self) | {"seed": seed, "conventions_version": CONVENTIONS_VERSION}
        if not timestamp or self.wall_time_s is None:
            del out["wall_time_s"]
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


def _conformal_factors(n: int):
    fs = [0.1 * (z(0) + zbar(0)), 0.05 * abs2(n)]
    if n >= 2:
        fs.append(0.05 * (z(0) * z(1) + zbar(0) * zbar(1)))
    return fs


def _jet_rel_err(je, f, pt) -> float:
    """Relative difference of the exact jet je of f at pt from its
    finite-difference jet."""
    jf = fd_jet(f, pt)
    num, scale = 0.0, 1.0
    for name in ("value", "d", "dbar", "dd", "ddbar", "dbardbar"):
        a = np.atleast_1d(getattr(je, name))
        b = np.atleast_1d(getattr(jf, name))
        num = max(num, float(np.max(np.abs(a - b))))
        scale = max(scale, float(np.max(np.abs(a))))
    return num / scale


class _Suite:
    """One suite run: the chart, its sample points (`small` and `cpts` are
    the first 10 and 5), the RNG the checks draw from in table order, the
    tolerances and the (t, s) grid.  A check returns one row per record:
    residuals and point count, plus `params`, `value`, `detail` or a record
    `tolerance` where those vary; none where the check does not apply."""

    def __init__(self, config: SuiteConfig, chart: MetricChart):
        self.chart = chart
        self.grid = config.params_grid
        self.tol = {name: tol for name, (tol, _) in CHECKS.items()} | config.tolerances
        self.rng = np.random.default_rng(config.seed)
        self.pts = sample_points(chart, config.sample_count, self.rng)
        self.small = self.pts[:10]
        self.cpts = self.pts[:5]

    @cached_property
    def pairs(self) -> list:
        """One conformal pair per factor, shared by the checks that compare
        a rescaled chart; each fills its first 5 points in one walk."""
        pairs = [rescale(self.chart, f, check_points=self.cpts)
                 for f in _conformal_factors(self.chart.n)]
        for pair in pairs:
            _metric_points(pair.rescaled, [_as_key(p) for p in self.cpts])
        return pairs

    def _gauduchon_family(self, p) -> list:
        """R of nab^t for each t in HERMITIAN_T: `canonical_weights` rows on
        the point's stored `canonical_basis`, the same sum
        `gauduchon_curvature` forms."""
        B = canonical_basis(self.chart, p)
        return [np.tensordot(canonical_weights((t, 0.0)), B, 1) for t in HERMITIAN_T]

    def wjet_oracle(self) -> list:
        fields = [f for components in self.chart.g for f in components]
        jets = eval_jets(fields, self.small)
        res = [_jet_rel_err(jet.row(j), f, p)
               for j, p in enumerate(self.small) for f, jet in zip(fields, jets)]
        return [dict(residuals=res, points=len(self.small),
                     detail="eval_jet vs fd_jet on metric components, relative")]

    def metric_inverse(self) -> list:
        chart = self.chart
        res = [np.max(np.abs(metric_jet(chart, p)[1] @ unitary_frame(chart, p).G.T
                             - np.eye(chart.n))) for p in self.pts]
        return [dict(residuals=res, points=len(self.pts))]

    def frame_unitarity(self) -> list:
        res = []
        for p in self.pts:
            fr = unitary_frame(self.chart, p)
            res.append(np.max(np.abs(fr.E.T @ fr.G @ fr.E.conj() - np.eye(self.chart.n))))
        return [dict(residuals=res, points=len(self.pts))]

    def torsion_antisymmetry(self) -> list:
        res = [np.max(np.abs(T + T.transpose(0, 2, 1)))
               for T in (chern_torsion(self.chart, p) for p in self.pts)]
        return [dict(residuals=res, points=len(self.pts))]

    def torsion_tensoriality(self) -> list:
        chart, rng = self.chart, self.rng
        res = []
        for p in self.small:
            fr = unitary_frame(chart, p)
            Q, _ = np.linalg.qr(rng.standard_normal((chart.n, chart.n))
                                + 1j * rng.standard_normal((chart.n, chart.n)))
            T = chern_torsion(chart, p, fr)
            Trot = chern_torsion(chart, p, fr.rotated(Q))
            pred = np.einsum("ck,kij,ia,jb->cab", Q.conj().T, T, Q, Q)
            res.append(np.max(np.abs(Trot - pred)))
        return [dict(residuals=res, points=len(self.small))]

    def hermitian_symmetry(self) -> list:
        canonical_bases(self.chart, self.small)
        res = [np.max(np.abs(R - np.conj(np.einsum("lkji->klij", R))))
               for p in self.small for R in self._gauduchon_family(p)]
        return [dict(residuals=res, points=len(self.small))]

    def interpolation(self) -> list:
        chart = self.chart
        canonical_bases(chart, self.small)
        res = []
        for p in self.small:
            res.append(np.max(np.abs(gauduchon_curvature(chart, 1.0, p).R
                                     - chern_curvature(chart, p).R)))
            for t in T_GRID:
                res.append(np.max(np.abs(
                    canonical_curvature(chart, (t, 0.0), p).R
                    - gauduchon_curvature(chart, t, p).R)))
                res.append(np.max(np.abs(
                    canonical_curvature(chart, (t, 1.0), p).R
                    - lc_curvature(chart, p).R)))
        return [dict(residuals=res, points=len(self.small))]

    def hsc_symmetrize(self) -> list:
        n = self.chart.n
        canonical_bases(self.chart, self.small)
        res = []
        for p in self.small:
            C = canonical_curvature(self.chart, (2.0, 0.5), p)
            S = symmetrize(C)
            for _ in range(4):
                eta = self.rng.standard_normal(n) + 1j * self.rng.standard_normal(n)
                res.append(abs(hsc(C, eta) - hsc(S, eta)))
        return [dict(residuals=res, points=len(self.small))]

    def constancy(self) -> list:
        if not self.grid:
            return []
        cs, res = constancy_table(self.chart, self.grid, self.pts)
        return [dict(residuals=r, points=len(self.pts), params=(t, s),
                     value=float(np.mean(c)),
                     detail=f"c in [{min(c):.6g}, {max(c):.6g}]; "
                            f"circle_residual={circle_residual(t, s):.6g}")
                for (t, s), c, r in zip(self.grid, cs, res)]

    def kahler_families(self) -> list:
        chart = self.chart
        tors = max(float(np.max(np.abs(chern_torsion(chart, p)))) for p in self.small)
        if not tors < 1e-10:
            return []
        canonical_bases(chart, self.small)
        res = []
        for p in self.small:
            Rc = chern_curvature(chart, p).R
            res += [np.max(np.abs(R - Rc)) for R in self._gauduchon_family(p)]
        return [dict(residuals=res, points=len(self.small),
                     detail="all Gauduchon curvatures equal Chern")]

    def conformal_torsion(self) -> list:
        res = [pair.at(self.cpts).torsion_residuals() for pair in self.pairs]
        return [dict(residuals=np.concatenate(res), points=len(self.cpts))]

    def commutation(self) -> list:
        ats = [FactorAt(self.chart, f, self.cpts) for f in _conformal_factors(self.chart.n)]
        res = [at.commutation_residuals(t) for at in ats for t in (1.0, 3.0)]
        return [dict(residuals=np.concatenate(res), points=len(self.cpts))]

    def conformal_delta(self) -> list:
        cpts = self.pts[:3]
        res = [np.max(np.abs(at.delta_predicted(ts) - at.delta_direct(ts)), axis=(1, 2, 3, 4))
               for at in (pair.at(cpts) for pair in self.pairs[:2])
               for ts in [(1.0, 0.0), (3.0, 0.0), (-1.0, 2.0)]]
        return [dict(residuals=np.concatenate(res), points=len(cpts))]

    def selfdual_weyl(self) -> list:
        if self.chart.n != 2:
            return []
        limit = self.tol["selfdual_weyl"]
        res = []
        for p in self.small:
            sd = max(selfdual_residual(self.chart, p))
            w = float(np.linalg.norm(weyl_minus(self.chart, p), 2))
            res.append(0.0 if (sd < 1e-8) == (w < limit) else 1.0)
        return [dict(residuals=res, points=len(self.small), tolerance=0.0,
                     detail=f"disagreements between component self-duality residuals "
                            f"< 1e-8 and ||W_-|| < {limit:g}")]


# The suite's checks in report order: name -> (default tolerance, check).
CHECKS = {
    "wjet_oracle": (1e-5, _Suite.wjet_oracle),
    "metric_inverse": (1e-12, _Suite.metric_inverse),
    "frame_unitarity": (1e-12, _Suite.frame_unitarity),
    "torsion_antisymmetry": (0.0, _Suite.torsion_antisymmetry),
    "torsion_tensoriality": (1e-10, _Suite.torsion_tensoriality),
    "hermitian_symmetry": (1e-10, _Suite.hermitian_symmetry),
    "interpolation": (1e-10, _Suite.interpolation),
    "hsc_symmetrize": (1e-10, _Suite.hsc_symmetrize),
    "constancy": (1e-7, _Suite.constancy),
    "kahler_families": (1e-9, _Suite.kahler_families),
    "conformal_torsion": (1e-8, _Suite.conformal_torsion),
    "commutation": (1e-8, _Suite.commutation),
    "conformal_delta": (1e-7, _Suite.conformal_delta),
    "selfdual_weyl": (1e-6, _Suite.selfdual_weyl),
}


def run_suite(config: SuiteConfig) -> Report:
    """Run the selected checks in table order; failures are recorded, not
    raised.  Each check is timed once and its records share that time
    equally."""
    _check_sampling(config.sample_count, config.seed)
    try:
        chart = make_chart(config.chart)
    except GauduchonError as exc:
        raise ConfigError(str(exc)) from exc
    run = _Suite(config, chart)
    selected = config.checks
    if selected is None or set(selected) - {"wjet_oracle"}:
        # Every check but the jet oracle reads the points' metric data.
        _metric_points(chart, [_as_key(p) for p in run.pts])
    records: list[Record] = []
    for name, (_, check) in CHECKS.items():
        if selected is not None and name not in selected:
            continue
        t0 = time.perf_counter()
        rows = check(run)
        share = (time.perf_counter() - t0) / max(len(rows), 1)
        for row in rows:
            res = np.asarray(row.pop("residuals"), dtype=float)
            tolerance = row.pop("tolerance", run.tol[name])
            records.append(Record(name=name, chart=chart.label,
                                  residual_max=float(res.max()),
                                  residual_mean=float(res.mean()), tolerance=tolerance,
                                  passed=bool(res.max() <= tolerance), wall_time_s=share,
                                  **row))
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
    _check_finite("scan range ends", ta, tb, sa, sb)
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
    _check_finite("t and s", t, s)
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


def hsc_payload(chart_spec: dict, t: float, s: float, samples: int, seed: int) -> dict:
    chart = make_chart(chart_spec)
    _check_sampling(samples, seed)
    _check_finite("t and s", t, s)
    rng = np.random.default_rng(seed)
    pts = sample_points(chart, samples, rng)
    canonical_bases(chart, pts)
    per_point = []
    for p in pts:
        C = canonical_curvature(chart, (t, s), p)
        c, res = constancy_residual(C)
        hs = []
        for _ in range(HSC_DIRECTIONS):
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
        "directions": HSC_DIRECTIONS,
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
    p_hsc = sub.add_parser("hsc", help="sample holomorphic sectional curvature")
    for p in (p_curv, p_hsc):
        p.add_argument("--chart", required=True)
        p.add_argument("--t", type=float, required=True)
        p.add_argument("--s", type=float, default=0.0)
        p.add_argument("--out")
    p_curv.add_argument("--point", required=True, metavar="re,im;re,im")
    p_curv.add_argument("--format", choices=("json", "csv"), default="json")
    p_hsc.add_argument("--samples", type=int, default=20)
    p_hsc.add_argument("--seed", type=int, default=0)

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
            _write_out(report.to_json(), args.out)
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
