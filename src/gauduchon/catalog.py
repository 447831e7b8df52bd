"""Constructors and reference formulas for the named metrics: Euclidean,
standard Hopf, admissible Hopf deformations, the product of the Bergman
metric on the disk with the Fubini-Study metric on P^1, Fubini-Study and
complex hyperbolic space, plus conformal rescalings and inline user charts.

Charts are local: Hopf-type metrics live on C^n minus the origin with the
fundamental annulus a < |z| < 1 as the safe sampling region; the deck
relation is checked as sigma^*-equivariance of xi_A rather than modeled as a
quotient.  Every constructor attaches a seeded-rng sampler that avoids
singular boundaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .connection import MetricChart
from .conformal import rescale
from .curvature import Curv4
from .errors import ConfigError, DomainError, InvalidSpec, ZeroPoint, _as_int
from .wjet import Const, Quadratic, abs2, parse_field, z, zbar

ISO_TOL = 1e-12


# ---------------------------------------------------------------------------
# Samplers (uniform radius over the safe interval, uniform sphere direction)


def _sphere_direction(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


def _ball_sampler(n: int, rmin: float = 0.1, rmax: float = 0.9):
    def sample(rng: np.random.Generator) -> np.ndarray:
        r = rng.uniform(rmin, rmax)
        return r * _sphere_direction(rng, n)
    return sample


def _annulus_sampler(n: int, a: float):
    if a + 0.05 >= 0.95:
        raise InvalidSpec(f"annulus a={a} leaves no safe sampling region")
    return _ball_sampler(n, a + 0.05, 0.95)


def _polydisk_sampler(n: int, rmax: float = 0.9):
    def sample(rng: np.random.Generator) -> np.ndarray:
        r = rng.uniform(0.05, rmax, size=n)
        phase = rng.uniform(0.0, 2 * math.pi, size=n)
        return r * np.exp(1j * phase)
    return sample


def sample_points(chart: MetricChart, count: int, seed=0) -> list[np.ndarray]:
    """Deterministic sample points from the chart's safe region."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    if chart.sampler is None:
        raise InvalidSpec(f"chart {chart.label} has no sampler attached")
    return [chart.sampler(rng) for _ in range(count)]


# ---------------------------------------------------------------------------
# HopfSpec


@dataclass(frozen=True, eq=False)
class HopfSpec:
    """Isosceles Hopf data: common modulus a, deck multipliers a_1..a_n with
    |a_i| = a, symmetric matrix A with A conj(A) < I/4 and
    D_sigma A D_sigma = a^2 A, and a positive scale c0."""

    n: int
    a: float
    multipliers: tuple
    A: tuple          # n x n nested tuple of complex
    c0: float = 1.0

    def matrix(self) -> np.ndarray:
        return np.array(self.A, dtype=complex).reshape(self.n, self.n)

    def mult_vector(self) -> np.ndarray:
        return np.array(self.multipliers, dtype=complex)


def hopf_spec(n: int, a: float = 0.5, multipliers=None, A=None, c0: float = 1.0) -> HopfSpec:
    """Convenience constructor; defaults to real multipliers a_i = a and A = 0."""
    if multipliers is None:
        multipliers = tuple(complex(a) for _ in range(n))
    if A is None:
        A = tuple(tuple(0j for _ in range(n)) for _ in range(n))
    else:
        A = tuple(tuple(complex(v) for v in row) for row in np.asarray(A, dtype=complex))
    return HopfSpec(n, float(a), tuple(complex(m) for m in multipliers), A, float(c0))


def validate_admissible(spec: HopfSpec) -> list[str]:
    """Violations of the admissibility invariants, each with its numeric
    margin; empty iff the spec is valid."""
    out = []
    if not (0.0 < spec.a < 1.0):
        out.append(f"modulus: a = {spec.a} not in (0, 1)")
    if spec.c0 <= 0:
        out.append(f"scale: c0 = {spec.c0} not positive")
    mult = spec.mult_vector()
    if len(mult) != spec.n:
        out.append(f"multipliers: expected {spec.n}, got {len(mult)}")
    else:
        dev = float(np.max(np.abs(np.abs(mult) - spec.a)))
        if dev > ISO_TOL:
            out.append(f"isosceles: max ||a_i| - a| = {dev:.3e}")
    A = spec.matrix()
    sym = float(np.max(np.abs(A - A.T)))
    if sym > ISO_TOL:
        out.append(f"symmetry: ||A - A^T|| = {sym:.3e}")
    # A conj(A) < I/4 for symmetric A is largest singular value < 1/2.
    smax = float(np.linalg.norm(A, 2))
    if smax >= 0.5:
        out.append(f"spectral bound: A conj(A) eigenvalue {smax**2:.4g} >= 0.25")
    D = np.diag(mult) if len(mult) == spec.n else np.eye(spec.n)
    equiv = float(np.max(np.abs(D @ A @ D - spec.a**2 * A)))
    if equiv > ISO_TOL:
        out.append(f"equivariance: ||D A D - a^2 A|| = {equiv:.3e}")
    return out


def xi_field(spec: HopfSpec) -> Quadratic:
    """xi_A = |z|^2 + tz A z + conj(tz A z) as one quadratic form over
    (z, zbar): its H has the blocks dd = A + A^T, ddbar = I and
    dbardbar = conj(A + A^T), so its jet is exact in closed form."""
    A = spec.matrix()
    S, eye = A + A.T, np.eye(spec.n)
    return Quadratic(np.block([[S, eye], [eye, S.conj()]]))


# ---------------------------------------------------------------------------
# Chart constructors


def _off_origin(Z: np.ndarray) -> np.ndarray:
    """The Hopf charts' domain, C^n minus the origin, on a stack of points."""
    return np.linalg.norm(Z, axis=-1) > 1e-8


def _diag_chart(n: int, comps, label, domain, sampler) -> MetricChart:
    zero = Const(0.0)
    g = tuple(tuple(comps[i] if i == j else zero for j in range(n)) for i in range(n))
    return MetricChart(n, g, label=label, domain=domain, sampler=sampler)


def euclidean_chart(n: int = 2) -> MetricChart:
    one = Const(1.0)
    return _diag_chart(n, [one] * n, f"euclidean({n})", None, _ball_sampler(n))


def hopf_chart(n: int = 2, a: float = 0.5) -> MetricChart:
    """Standard Hopf metric |z|^-2 (Euclidean) on C^n minus 0; sampling stays
    in the fundamental annulus a < |z| < 1, so the modulus a must lie in
    (0, 1)."""
    if not 0.0 < a < 1.0:
        raise InvalidSpec(f"modulus: a = {a} not in (0, 1)")
    comp = Const(1.0) / abs2(n)
    return _diag_chart(
        n, [comp] * n, f"hopf_standard({n})",
        _off_origin, _annulus_sampler(n, a))


def admissible_chart(spec: HopfSpec) -> MetricChart:
    """Admissible metric (c0 / xi_A) * Euclidean on the Hopf annulus."""
    bad = validate_admissible(spec)
    if bad:
        raise InvalidSpec("; ".join(bad))
    comp = Const(spec.c0) / xi_field(spec)
    return _diag_chart(
        spec.n, [comp] * spec.n, f"admissible(n={spec.n})",
        _off_origin, _annulus_sampler(spec.n, spec.a))


def fs_bergman_chart() -> MetricChart:
    """Product of the Bergman metric on the unit disk (z1) and the
    Fubini-Study metric on P^1 (z2): 2/(1-|z1|^2)^2 and 2/(1+|z2|^2)^2."""
    g11 = Const(2.0) / (Const(1.0) - z(0) * zbar(0)) ** 2
    g22 = Const(2.0) / (Const(1.0) + z(1) * zbar(1)) ** 2
    return _diag_chart(
        2, [g11, g22], "fs_bergman",
        lambda Z: np.abs(Z[..., 0]) < 1.0,
        _polydisk_sampler(2, 0.9))


def fubini_study_chart(n: int = 2) -> MetricChart:
    """Fubini-Study metric on the affine chart, potential log(1 + |z|^2);
    holomorphic sectional curvature +2 in this normalization."""
    w = Const(1.0) + abs2(n)
    g = tuple(tuple(
        (Const(1.0) / w if i == j else Const(0.0)) - zbar(i) * z(j) / w**2
        for j in range(n)) for i in range(n))
    return MetricChart(n, g, label=f"fubini_study({n})", sampler=_ball_sampler(n))


def complex_hyperbolic_chart(n: int = 2) -> MetricChart:
    """Complex hyperbolic metric on the unit ball, potential
    -log(1 - |z|^2); holomorphic sectional curvature -2."""
    w = Const(1.0) - abs2(n)
    g = tuple(tuple(
        (Const(1.0) / w if i == j else Const(0.0)) + zbar(i) * z(j) / w**2
        for j in range(n)) for i in range(n))
    return MetricChart(
        n, g, label=f"complex_hyperbolic({n})",
        domain=lambda Z: np.linalg.norm(Z, axis=-1) < 1.0,
        sampler=_ball_sampler(n))


def inline_chart(n: int, components, label: str = "inline") -> MetricChart:
    """Chart from an n x n array of expression strings or ScalarFields."""
    g = []
    for i in range(n):
        row = []
        for j in range(n):
            c = components[i][j]
            row.append(parse_field(c) if isinstance(c, str) else c)
        g.append(tuple(row))
    return MetricChart(n, tuple(g), label=label, sampler=_ball_sampler(n))


# ---------------------------------------------------------------------------
# ChartSpec JSON schema
#
# {"chart": "<tag>", "n": int, "a": real, "multipliers": [[re, im], ...],
#  "A": [[[re, im], ...], ...], "c0": real, "f": "<expression>",
#  "base": {...}, "g": [["<expression>", ...], ...], "label": str}
# with unused fields omitted.  Tags: euclidean, hopf_standard, admissible,
# fs_bergman, fubini_study, complex_hyperbolic, conformal, inline.


def _spec_n(spec: dict) -> int:
    """The spec's dimension n: a positive integer by the rule of `_as_int`."""
    try:
        n = _as_int("n", spec.get("n", 2))
    except ConfigError as exc:
        raise InvalidSpec(str(exc)) from None
    if n < 1:
        raise InvalidSpec(f"n must be a positive integer, got {n}")
    return n


def _real_of(what: str, v) -> float:
    """A finite real number of a spec; booleans are refused."""
    try:
        x = float(v)
    except (TypeError, ValueError):
        x = math.nan
    if isinstance(v, bool) or not math.isfinite(x):
        raise InvalidSpec(f"{what} must be a finite number, got {v!r}")
    return x


def _complex_of(what: str, v) -> complex:
    """A complex number of a spec: a real number or an [re, im] pair."""
    if isinstance(v, (list, tuple)) and len(v) == 2:
        return complex(_real_of(what, v[0]), _real_of(what, v[1]))
    if isinstance(v, complex) and np.isfinite(v):
        return v
    return complex(_real_of(what, v))


def _rows(what: str, v, n: int):
    """A list of exactly n entries of a spec."""
    if not isinstance(v, (list, tuple)) or len(v) != n:
        raise InvalidSpec(f"{what} must be a list of {n} entries, got {v!r}")
    return v


# The keys each chart tag reads besides "chart".  A conformal chart has its
# base's dimension; fs_bergman has n = 2 only.
SPEC_KEYS = {
    "euclidean": ("n",),
    "hopf_standard": ("n", "a"),
    "admissible": ("n", "a", "multipliers", "A", "c0"),
    "fs_bergman": ("n",),
    "fubini_study": ("n",),
    "complex_hyperbolic": ("n",),
    "conformal": ("base", "f"),
    "inline": ("n", "g", "label"),
}


def make_chart(spec: dict) -> MetricChart:
    """Build a catalog chart from its JSON-schema dict.  A malformed spec,
    or one with a key its tag does not read, raises InvalidSpec."""
    if not isinstance(spec, dict) or "chart" not in spec:
        raise InvalidSpec("chart spec must be a dict with a 'chart' tag")
    tag = spec["chart"]
    if not isinstance(tag, str) or tag not in SPEC_KEYS:
        raise InvalidSpec(f"unknown chart tag {tag!r}")
    extra = [k for k in spec if k != "chart" and k not in SPEC_KEYS[tag]]
    if extra:
        raise InvalidSpec(f"{tag} chart spec does not take {', '.join(map(repr, extra))}; "
                          f"its keys are {', '.join(map(repr, ('chart',) + SPEC_KEYS[tag]))}")
    n = _spec_n(spec)
    if tag == "euclidean":
        return euclidean_chart(n)
    if tag == "hopf_standard":
        return hopf_chart(n, _real_of("a", spec.get("a", 0.5)))
    if tag == "admissible":
        mult = spec.get("multipliers")
        if mult is not None:
            mult = tuple(_complex_of("multipliers", m) for m in _rows("multipliers", mult, n))
        A = spec.get("A")
        if A is not None:
            A = [[_complex_of("A", v) for v in _rows("a row of A", row, n)]
                 for row in _rows("A", A, n)]
        hs = hopf_spec(n, _real_of("a", spec.get("a", 0.5)), mult, A,
                       _real_of("c0", spec.get("c0", 1.0)))
        return admissible_chart(hs)
    if tag == "fs_bergman":
        if n != 2:
            raise InvalidSpec(f"fs_bergman has n = 2, got {n}")
        return fs_bergman_chart()
    if tag == "fubini_study":
        return fubini_study_chart(n)
    if tag == "complex_hyperbolic":
        return complex_hyperbolic_chart(n)
    if tag == "conformal":
        if "base" not in spec or "f" not in spec:
            raise InvalidSpec("conformal chart spec needs 'base' and 'f'")
        if not isinstance(spec["f"], str):
            raise InvalidSpec(f"conformal f must be an expression string, got {spec['f']!r}")
        base = make_chart(spec["base"])
        return rescale(base, parse_field(spec["f"])).rescaled
    # The tag is "inline".
    if "g" not in spec:
        raise InvalidSpec("inline chart spec needs 'g'")
    for row in _rows("g", spec["g"], n):
        if not all(isinstance(c, str) for c in _rows("a row of g", row, n)):
            raise InvalidSpec(f"g must hold expression strings, got {row!r}")
    label = spec.get("label", "inline")
    if not isinstance(label, str):
        raise InvalidSpec(f"inline label must be a string, got {label!r}")
    return inline_chart(n, spec["g"], label=label)


# ---------------------------------------------------------------------------
# Reference formulas


def admissible_hsc_reference(spec: HopfSpec, zpt) -> float:
    """Displayed holomorphic sectional curvature of an admissible metric at
    circle parameters: -(4 tz A Abar zbar + tz A z + conj(tz A z)) / (c0 xi_A).
    The c0 division restores the stated value for c0 = 1."""
    pt = np.asarray(zpt, dtype=complex)
    A = spec.matrix()
    quad = pt @ A @ pt
    xi = float(np.sum(np.abs(pt) ** 2) + 2.0 * quad.real)
    if xi <= 0:
        raise DomainError(f"xi_A = {xi} not positive (cannot occur under the "
                          "spectral bound)")
    az = A @ pt
    return -(4.0 * float(np.sum(np.abs(az) ** 2)) + 2.0 * quad.real) / (spec.c0 * xi)


def hopf_t3_reference(zpt) -> Curv4:
    """Curvature tensor of the standard Hopf metric for the Gauduchon
    parameter t = 3, in the frame e_i = |z| d/dz_i:

    R_{k lbar i jbar} = 3 (delta_kl delta_ij - delta_il delta_jk)
    + (zbar_k z_j delta_il + zbar_i z_l delta_jk + zbar_i z_j delta_kl
       - 3 zbar_k z_l delta_ij) / |z|^2.
    """
    pt = np.asarray(zpt, dtype=complex)
    n = len(pt)
    r2 = float(np.sum(np.abs(pt) ** 2))
    if r2 == 0.0:
        raise ZeroPoint("t = 3 Hopf reference is undefined at z = 0")
    eye = np.eye(n)
    zb = np.conj(pt)
    R = 3.0 * (np.einsum("kl,ij->klij", eye, eye) - np.einsum("il,jk->klij", eye, eye))
    R = R.astype(complex)
    R += (np.einsum("k,j,il->klij", zb, pt, eye)
          + np.einsum("i,l,jk->klij", zb, pt, eye)
          + np.einsum("i,j,kl->klij", zb, pt, eye)
          - 3.0 * np.einsum("k,l,ij->klij", zb, pt, eye)) / r2
    return Curv4(R, connection="gauduchon(t=3)", frame="|z| d/dz")


def circle_residual(t: float, s: float) -> float:
    """(1 - t + t s)^2 + s^2 - 4; zero exactly on the constancy circle."""
    return (1.0 - t + t * s) ** 2 + s**2 - 4.0
