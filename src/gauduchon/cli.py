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
from functools import cache, cached_property

import numpy as np

from . import SCHEMA_VERSION, CONVENTIONS_VERSION
from .catalog import circle_residual, make_chart, sample_points
from .conformal import KAHLER_TOL, FactorAt
from .connection import (MetricChart, _MetricData, _basis_stack, _check_points,
                         _chern_stack, _component_jets, _fill, _frame_torsion, _rows,
                         _to_frame)
from .curvature import (canonical_curvature, canonical_weights, constancy_table, curv4_rows,
                        hsc, qline_weights, symmetrize, _constancy_fit, _curvature_oracle,
                        _qline_pair, _qline_points, _selfdual, _weyl_minus)
from .errors import ConfigError, GauduchonError, _as_float, _as_int
from .wjet import WJet2, abs2, fd_jets, z, zbar

HERMITIAN_T = (-1.0, 0.0, 1.0, 3.0)
# The (t, s) at which `interpolation` compares the record's bases with the
# connection's own curvature: fixed, so the check draws nothing from the
# suite's RNG.  Besides Levi-Civita (p = t - ts = 0) and the circle points
# (3, 0) and (-1, 2), they hold cells with p off 0 and 1, where an error in
# the torsion terms that cancels at Chern and at Levi-Civita shows.
ORACLE_PARAMS = ((-1.0, 0.0), (0.0, 1.0), (0.5, 0.5), (2.0, -1.0), (3.0, 0.0), (-1.0, 2.0))
HSC_DIRECTIONS = 8


def check_tolerance(name: str, value) -> float:
    """Validate one tolerance override: a known check name and a finite
    positive number.  Returns the value as a float."""
    if name not in CHECKS:
        raise ConfigError(f"unknown tolerance name {name!r}")
    v = _as_float(f"tolerance {name}", value)
    if not (np.isfinite(v) and v > 0):
        raise ConfigError(f"tolerance {name} must be finite and positive, got {value!r}")
    return v


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
            grid = [(_as_float("params_grid t", t), _as_float("params_grid s", s))
                    for t, s in grid]
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
            if not isinstance(checks, list) or not checks:
                raise ConfigError("checks must be a non-empty list of check names or null")
            bad = [c for c in checks if not isinstance(c, str) or c not in CHECKS]
            if bad:
                raise ConfigError(f"unknown checks: {bad}")
        return SuiteConfig(chart=raw["chart"], params_grid=grid,
                           sample_count=count, seed=_as_int("seed", raw.get("seed", 0)),
                           tolerances=tol, checks=checks)


def _json_text(payload: dict) -> str:
    """A report or payload as every command writes JSON: sorted, indent 2."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


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
        out = vars(self) | {"seed": seed, "conventions_version": CONVENTIONS_VERSION}
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
        return _json_text(self.as_dict())


def _conformal_factors(n: int):
    fs = [0.1 * (z(0) + zbar(0)), 0.05 * abs2(n)]
    if n >= 2:
        fs.append(0.05 * (z(0) * z(1) + zbar(0) * zbar(1)))
    return fs


def _jet_rel_err(je, jf) -> np.ndarray:
    """Relative difference, point by point, of the exact jets je of a field
    at P points from its finite-difference jets jf there (both batched)."""
    num, scale = 0.0, 1.0
    for a, b in zip(vars(je).values(), vars(jf).values()):
        a, b = a.reshape(len(a), -1), b.reshape(len(b), -1)
        num = np.maximum(num, np.max(np.abs(a - b), axis=1))
        scale = np.maximum(scale, np.max(np.abs(a), axis=1))
    return num / scale


class _Suite:
    """One suite run: the chart, its checked sample points `Z` (`small` and
    `cpts` are views of the first 10 and 5), the RNG the checks draw from
    in table order, the tolerances and the (t, s) grid.  A check returns one
    row per record: its residual array, `axes` naming each axis (("point",)
    if not given), plus `params`, `value`, `detail` or a record `tolerance`
    where those vary; none where the check does not apply.  `run_suite`
    ravels the array in C order for the residual statistics; `points` is
    its point axis's length.

    Every check is one pass over its stacked points: the points are checked
    once and their metric components walked once (`jets`); the data of all
    the points is one record filled from that walk (`data`, `small_data` its
    first 10 rows), their Chern curvature and torsion built once (`chern`);
    bases for the first 10 points only (`bases`), rescaled conformal rows
    only if a check reads them (`factors`)."""

    def __init__(self, config: SuiteConfig, chart: MetricChart):
        self.chart = chart
        self.grid = config.params_grid
        self.tol = {name: tol for name, (tol, _) in CHECKS.items()} | config.tolerances
        self.rng = np.random.default_rng(config.seed)
        self.Z = _check_points(chart, sample_points(chart, config.sample_count, self.rng))
        self.small, self.cpts = self.Z[:10], self.Z[:5]

    @cached_property
    def jets(self) -> tuple:
        """Jets of the metric components at every point from one walk, the
        packed parts (G, grad, hess) that `connection._component_jets`
        stacks and `data` keeps; the walk checks nothing of the metric."""
        return _component_jets(self.chart, self.Z)

    @cached_property
    def data(self) -> _MetricData:
        """Data of every point, one record with a leading point axis, filled
        from `jets` (see `connection._fill`)."""
        return _fill(self.chart.label, self.Z, *self.jets)

    @cached_property
    def small_data(self) -> _MetricData:
        """The first 10 points of `data`, as views."""
        return _rows(self.data, slice(len(self.small)))

    @cached_property
    def chern(self) -> tuple:
        """(R^C, T) of every point in its Cholesky frame."""
        return _chern_stack(self.data, self.data.E), _frame_torsion(self.data, self.data.E)

    @cached_property
    def bases(self) -> np.ndarray:
        """The first 10 points' `canonical_basis`, from their rows of `chern`."""
        return _basis_stack(*(a[:len(self.small)] for a in self.chern))

    @cached_property
    def gauduchon(self) -> np.ndarray:
        """Gauduchon curvatures R[p, m] of the first 10 points at the m-th t
        of HERMITIAN_T, from one weighted sum of their `bases`."""
        W = canonical_weights([(t, 0.0) for t in HERMITIAN_T])
        return np.tensordot(W, self.bases, (1, 1)).swapaxes(0, 1)

    @cached_property
    def factors(self) -> FactorAt:
        """The conformal factors on the first 5 rows of `data`, one stacked
        `FactorAt` whose rows run (factor, point), shared by the three
        conformal checks: one walk of the factors, no second point check, and
        the rescaled records from one fill when a check first reads them."""
        return FactorAt(self.chart, _conformal_factors(self.chart.n),
                        _rows(self.data, slice(len(self.cpts))))

    def wjet_oracle(self) -> list:
        # The catalog charts share trees between components: each distinct
        # tree gets one finite-difference walk over the points, and its exact
        # jets are the run's walk at its first component (i, j).
        g, k = self.chart.g, len(self.small)
        first = {}
        for i, j in np.ndindex(self.chart.n, self.chart.n):
            first.setdefault(id(g[i][j]), (i, j))
        err = {key: _jet_rel_err(WJet2(*(a[:k, ..., i, j] for a in self.jets)),
                                 fd_jets(g[i][j], self.small))
               for key, (i, j) in first.items()}
        return [dict(residuals=np.stack([err[id(f)] for row in g for f in row], axis=1),
                     axes=("point", "component"),
                     detail="eval_jet vs fd_jet on metric components, relative")]

    def metric_inverse(self) -> list:
        b = self.data
        res = np.max(np.abs(b.ginv @ b.G.swapaxes(1, 2) - np.eye(self.chart.n)), axis=(1, 2))
        return [dict(residuals=res)]

    def frame_unitarity(self) -> list:
        b = self.data
        res = np.max(np.abs(b.E.swapaxes(1, 2) @ b.G @ b.E.conj() - np.eye(self.chart.n)),
                     axis=(1, 2))
        return [dict(residuals=res)]

    def torsion_antisymmetry(self) -> list:
        T = self.chern[1]
        res = np.max(np.abs(T + T.transpose(0, 1, 3, 2)), axis=(1, 2, 3))
        return [dict(residuals=res)]

    def torsion_tensoriality(self) -> list:
        n, b = self.chart.n, self.small_data
        draws = self.rng.standard_normal((len(self.small), 2, n, n))
        Q, _ = np.linalg.qr(draws[:, 0] + 1j * draws[:, 1])
        Trot = _frame_torsion(b, b.E @ Q)
        pred = _to_frame(self.chern[1][:len(Q)], Q.conj(), Q, Q)
        return [dict(residuals=np.max(np.abs(Trot - pred), axis=(1, 2, 3)))]

    def hermitian_symmetry(self) -> list:
        R = self.gauduchon
        res = np.max(np.abs(R - np.conj(np.einsum("...lkji->...klij", R))), axis=(2, 3, 4, 5))
        return [dict(residuals=res, axes=("point", "cell"))]

    def interpolation(self) -> list:
        # Cell 0: Chern is t = 1 on the Gauduchon line; at each ORACLE_PARAMS
        # cell after it the basis combination meets the curvature of D^t_s
        # from its own Christoffel symbols.
        B = self.bases
        R = np.tensordot(canonical_weights(((1.0, 0.0),) + ORACLE_PARAMS), B, (1, 1))
        R[0] -= self.chern[0][:len(B)]
        R[1:] -= _curvature_oracle(ORACLE_PARAMS, self.small_data)
        return [dict(residuals=np.max(np.abs(R), axis=(2, 3, 4, 5)), axes=("cell", "point"))]

    def hsc_symmetrize(self) -> list:
        n = self.chart.n
        C = np.tensordot(canonical_weights((2.0, 0.5)), self.bases, (0, 1))[:, None]
        draws = self.rng.standard_normal((len(self.small), 4, 2, n))
        eta = draws[:, :, 0] + 1j * draws[:, :, 1]
        res = np.abs(hsc(C, eta) - hsc(symmetrize(C), eta))
        return [dict(residuals=res, axes=("point", "direction"))]

    def constancy(self) -> list:
        if not self.grid:
            return []
        cs, res = _constancy_fit(qline_weights(self.grid), _qline_pair(*self.chern))
        return [dict(residuals=r, params=(t, s), value=float(np.mean(c)),
                     detail=f"c in [{min(c):.6g}, {max(c):.6g}]; "
                            f"circle_residual={circle_residual(t, s):.6g}")
                for (t, s), c, r in zip(self.grid, cs, res)]

    def kahler_families(self) -> list:
        RC, T = (a[:len(self.small)] for a in self.chern)
        if not np.max(np.abs(T)) < KAHLER_TOL:
            return []
        res = np.max(np.abs(self.gauduchon - RC[:, None]), axis=(2, 3, 4, 5))
        return [dict(residuals=res, axes=("point", "cell"),
                     detail="all Gauduchon curvatures equal Chern")]

    def conformal_torsion(self) -> list:
        at = self.factors
        return [dict(residuals=at.torsion_residuals().reshape(len(at.fs), -1),
                     axes=("factor", "point"))]

    def commutation(self) -> list:
        at = self.factors
        res = at.commutation_residuals(np.array([1.0, 3.0]))      # [cell, (factor, point)]
        return [dict(residuals=res.reshape(len(res), len(at.fs), -1).transpose(1, 0, 2),
                     axes=("factor", "cell", "point"))]

    def conformal_delta(self) -> list:
        # The law is checked for the first 2 shared factors at the first 3
        # of their 5 points: only those rows' bases are built.
        k = len(self.Z[:3])
        at, cells = self.factors, [(1.0, 0.0), (3.0, 0.0), (-1.0, 2.0)]
        rows = np.arange(len(at.data.Z)).reshape(-1, len(self.cpts))[:2, :k].ravel()
        res = np.max(np.abs(at.delta_predicted(cells)[:, rows] - at.delta_direct(cells, rows)),
                     axis=(2, 3, 4, 5))
        return [dict(residuals=res.reshape(len(cells), 2, k).transpose(1, 0, 2),
                     axes=("factor", "cell", "point"))]

    def selfdual_weyl(self) -> list:
        if self.chart.n != 2:
            return []
        limit = self.tol["selfdual_weyl"]
        R = self.bases[:, 0]
        sd = np.max(_selfdual(R), axis=1)
        w = np.linalg.norm(_weyl_minus(R), 2, axis=(1, 2))
        res = np.where((sd < 1e-8) == (w < limit), 0.0, 1.0)
        return [dict(residuals=res, tolerance=0.0,
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
    run.jets            # every check reads the one walk: walked untimed
    if selected is None or set(selected) - {"wjet_oracle"}:
        run.data        # every check but the jet oracle reads it: filled untimed
    records: list[Record] = []
    for name, (_, check) in CHECKS.items():
        if selected is not None and name not in selected:
            continue
        t0 = time.perf_counter()
        rows = check(run)
        share = (time.perf_counter() - t0) / max(len(rows), 1)
        for row in rows:
            res = np.asarray(row.pop("residuals"), dtype=float)
            points = res.shape[row.pop("axes", ("point",)).index("point")]
            res = np.ravel(res)         # C order of the declared axes
            tolerance = row.pop("tolerance", run.tol[name])
            records.append(Record(name=name, chart=chart.label, points=points,
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
    # Python floats: the same doubles, with no numpy-scalar arithmetic per
    # cell.
    s_grid = np.linspace(sa, sb, sn).tolist()
    cells = [(t, s) for t in np.linspace(ta, tb, tn).tolist() for s in s_grid]
    _, res = constancy_table(chart, cells, pts)
    rows = [(t, s, worst, circle_residual(t, s))
            for (t, s), worst in zip(cells, res.max(axis=1).tolist())]
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
    Rh = _qline_points(chart, pts)      # sym R^D has the HSC of R^D
    W = qline_weights([(t, s)])
    cs, residuals = _constancy_fit(W, Rh)
    C = np.tensordot(W[0], Rh, (0, 1))
    draws = rng.standard_normal((len(pts), HSC_DIRECTIONS, 2, chart.n))
    eta = draws[:, :, 0] + 1j * draws[:, :, 1]
    eta /= np.linalg.norm(eta, axis=-1, keepdims=True)     # uniform on the unit sphere
    hs = hsc(C[:, None], eta)
    per_point = [{
        "point": [[v.real, v.imag] for v in p],
        "c": float(c),
        "residual": float(res),
        "hsc_min": float(h.min()),
        "hsc_max": float(h.max()),
    } for p, c, res, h in zip(pts, cs[0], residuals[0], hs)]
    return {
        "schema_version": SCHEMA_VERSION,
        "conventions_version": CONVENTIONS_VERSION,
        "chart": chart_spec,
        "params": [t, s],
        "seed": seed,
        "samples": samples,
        "directions": HSC_DIRECTIONS,
        "c_mean": float(np.mean(cs)),
        "c_spread": float(cs.max() - cs.min()),
        "residual_max": float(residuals.max()),
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


@cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and kept: each
    `parse_args` call returns a fresh namespace."""
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
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
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
            text = _json_text(payload) if args.format == "json" else curv_csv(payload)
            _write_out(text, args.out)
            return 0
        if args.command == "hsc":
            payload = hsc_payload(_load_json(args.chart), args.t, args.s,
                                  args.samples, args.seed)
            _write_out(_json_text(payload), args.out)
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
