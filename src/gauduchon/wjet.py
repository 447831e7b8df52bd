"""Scalar fields on chart domains of C^n with exact Wirtinger jets through order 2.

Fields are immutable expression trees over the primitives {constant, z_i,
zbar_i}, closed under +, -, *, /, integer powers, exp and log.  `eval_jet`
propagates the full second-order Wirtinger jet (value, d, dbar, dd, ddbar,
dbardbar) exactly through the tree; `eval_jets` does the same for several
trees at a batch of points in one walk, evaluating each shared node once.
`fd_jet` is an independent central finite-difference oracle in the 2n
underlying real coordinates.

Conventions: z_i = x_i + 1j*y_i, d_i = (d/dx_i - 1j d/dy_i)/2 and
dbar_i = (d/dx_i + 1j d/dy_i)/2.  z and zbar are independent variables, so
fields need not be holomorphic.  Coordinate indices are 0-based in code and
1-based in the serialized grammar (`z1`, `zbar1`, ...).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DimensionError, DomainError, NonFinite

# Arguments of log, 1/x and negative powers must stay this far from 0.
GUARD = 1e-14


def as_point(z) -> np.ndarray:
    """Coerce to a 1-D complex chart point and check finiteness."""
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    if z.ndim != 1 or z.size < 1:
        raise DimensionError(f"chart point must be a 1-D array, got shape {z.shape}")
    if not np.all(np.isfinite(z)):
        raise NonFinite("chart point has non-finite coordinates")
    return z


def _col(a) -> np.ndarray:
    """A value (scalar or batch (P,)) as a column that broadcasts over one
    trailing axis."""
    return np.asarray(a)[..., None]


def _outer(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Outer product over the last axis, rowwise over any batch axis."""
    return x[..., None] * y[..., None, :]


def _first_row(bad) -> int | None:
    """First batch row where the mask `bad` (batch axis first) holds; None
    for an unbatched mask."""
    bad = np.asarray(bad)
    if bad.ndim == 0:
        return None
    return int(np.argmax(bad.reshape(len(bad), -1).any(axis=1)))


def _refuse(err: Exception, row: int | None):
    """Raise err, tagged with the batch row it concerns so that the batch
    walk can name the offending point."""
    err.row = row
    raise err


def _guard(u, what: str):
    """Refuse arguments of log, 1/x and negative powers with |u| < GUARD."""
    small = np.abs(u) < GUARD
    if np.any(small):
        row = _first_row(small)
        bad = abs(u if row is None else u[row])
        _refuse(DomainError(f"{what} = {bad:.3e}"), row)


@dataclass(eq=False)
class WJet2:
    """Value of a scalar field plus all Wirtinger partials through order 2.

    d[i] = d_i f, dbar[i] = dbar_i f, dd[i,j] = d_i d_j f,
    ddbar[i,j] = d_i dbar_j f, dbardbar[i,j] = dbar_i dbar_j f.
    dd and dbardbar are exactly symmetric by construction.

    A jet may carry a leading batch axis of P points: value (P,), d and
    dbar (P, n), the second-order parts (P, n, n).  The arithmetic is
    rowwise and broadcasts, so batched and unbatched jets combine.
    """

    value: complex
    d: np.ndarray
    dbar: np.ndarray
    dd: np.ndarray
    ddbar: np.ndarray
    dbardbar: np.ndarray

    @property
    def n(self) -> int:
        return self.d.shape[-1]

    @staticmethod
    def constant(c: complex, n: int, batch: tuple = ()) -> "WJet2":
        value = np.full(batch, complex(c)) if batch else complex(c)
        return WJet2(value, np.zeros(batch + (n,), complex),
                     np.zeros(batch + (n,), complex),
                     np.zeros(batch + (n, n), complex),
                     np.zeros(batch + (n, n), complex),
                     np.zeros(batch + (n, n), complex))

    @staticmethod
    def coordinate(i: int, z: np.ndarray) -> "WJet2":
        """Jet of z_i at the point z, or rowwise at a batch z of shape (P, n)."""
        j = WJet2.constant(0.0, z.shape[-1], z.shape[:-1])
        j.value = z[..., i]
        j.d[..., i] = 1.0
        return j

    @staticmethod
    def conj_coordinate(i: int, z: np.ndarray) -> "WJet2":
        j = WJet2.constant(0.0, z.shape[-1], z.shape[:-1])
        j.value = np.conj(z[..., i])
        j.dbar[..., i] = 1.0
        return j

    def _lift(self, other) -> "WJet2":
        if isinstance(other, WJet2):
            return other
        return WJet2.constant(complex(other), self.n)

    def __add__(self, other):
        o = self._lift(other)
        return WJet2(self.value + o.value, self.d + o.d, self.dbar + o.dbar,
                     self.dd + o.dd, self.ddbar + o.ddbar,
                     self.dbardbar + o.dbardbar)

    __radd__ = __add__

    def __neg__(self):
        return WJet2(-self.value, -self.d, -self.dbar, -self.dd, -self.ddbar,
                     -self.dbardbar)

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __rsub__(self, other):
        return (-self) + self._lift(other)

    def __mul__(self, o):
        if not isinstance(o, WJet2):
            # A constant factor has no derivatives: scale every part.
            c = complex(o)
            return WJet2(c * self.value, c * self.d, c * self.dbar, c * self.dd,
                         c * self.ddbar, c * self.dbardbar)
        a, b = _col(self.value), _col(o.value)
        A, B = a[..., None], b[..., None]
        # dd/dbardbar stay exactly symmetric: cross terms are added as
        # X + X.T so the float sums commute entrywise.
        cross = _outer(self.d, o.d)
        crossb = _outer(self.dbar, o.dbar)
        return WJet2(
            self.value * o.value,
            self.d * b + a * o.d,
            self.dbar * b + a * o.dbar,
            (self.dd * B + A * o.dd) + (cross + cross.swapaxes(-1, -2)),
            self.ddbar * B + _outer(self.d, o.dbar) + _outer(o.d, self.dbar)
            + A * o.ddbar,
            (self.dbardbar * B + A * o.dbardbar) + (crossb + crossb.swapaxes(-1, -2)),
        )

    __rmul__ = __mul__

    def compose(self, h0: complex, h1: complex, h2: complex) -> "WJet2":
        """Chain rule for a scalar function h applied to this jet, given
        h(value), h'(value), h''(value) (rowwise in a batch)."""
        # Vectorized complex multiply is not bit-commutative, so outer(d, d)
        # needs explicit symmetrization to keep dd exactly symmetric.
        X = _outer(self.d, self.d)
        Xb = _outer(self.dbar, self.dbar)
        g1 = _col(h1)
        G1, G2 = g1[..., None], _col(h2)[..., None]
        return WJet2(
            h0,
            g1 * self.d,
            g1 * self.dbar,
            G2 * (0.5 * (X + X.swapaxes(-1, -2))) + G1 * self.dd,
            G2 * _outer(self.d, self.dbar) + G1 * self.ddbar,
            G2 * (0.5 * (Xb + Xb.swapaxes(-1, -2))) + G1 * self.dbardbar,
        )

    def reciprocal(self) -> "WJet2":
        u = self.value
        _guard(u, "division guard: |denominator|")
        return self.compose(1.0 / u, -1.0 / u**2, 2.0 / u**3)

    def __truediv__(self, other):
        return self * self._lift(other).reciprocal()

    def __rtruediv__(self, other):
        return self._lift(other) * self.reciprocal()

    def exp(self) -> "WJet2":
        e = np.exp(self.value)
        return self.compose(e, e, e)

    def log(self) -> "WJet2":
        u = self.value
        _guard(u, "log guard: |argument|")
        return self.compose(np.log(u), 1.0 / u, -1.0 / u**2)

    def __pow__(self, k: int) -> "WJet2":
        if not isinstance(k, (int, np.integer)):
            raise TypeError("jet powers must be integers")
        u = self.value
        if k < 0:
            _guard(u, "negative power guard: |base|")
        if k == 0:
            return WJet2.constant(1.0, self.n, np.shape(u))
        # k = 1 has h'' = 0; u**(k - 2) would divide by a zero base.
        h2 = k * (k - 1) * u ** (k - 2) if k != 1 else 0.0
        return self.compose(u**k, k * u ** (k - 1), h2)

    def check_finite(self) -> "WJet2":
        for block in (self.d, self.dbar, self.dd, self.ddbar, self.dbardbar):
            if not np.all(np.isfinite(block)):
                _refuse(NonFinite("jet component overflowed"),
                        _first_row(~np.isfinite(block)))
        if not np.all(np.isfinite(self.value)):
            _refuse(NonFinite("field value overflowed"),
                    _first_row(~np.isfinite(self.value)))
        return self

    def row(self, p: int) -> "WJet2":
        """The unbatched jet of batch row p (views)."""
        return WJet2(self.value[p], self.d[p], self.dbar[p], self.dd[p],
                     self.ddbar[p], self.dbardbar[p])


# ---------------------------------------------------------------------------
# Expression trees


class ScalarField:
    """Immutable expression tree; build with +, -, *, /, ** and exp/log.

    An optional `domain` predicate (point -> bool) can be attached to a root
    field; `eval_jet`/`fd_jet` refuse points outside it.
    """

    domain: Callable[[np.ndarray], bool] | None = None

    def __add__(self, other):
        return Add(self, as_field(other))

    def __radd__(self, other):
        return Add(as_field(other), self)

    def __sub__(self, other):
        return Sub(self, as_field(other))

    def __rsub__(self, other):
        return Sub(as_field(other), self)

    def __mul__(self, other):
        return Mul(self, as_field(other))

    def __rmul__(self, other):
        return Mul(as_field(other), self)

    def __truediv__(self, other):
        return Div(self, as_field(other))

    def __rtruediv__(self, other):
        return Div(as_field(other), self)

    def __pow__(self, k):
        return Pow(self, int(k))

    def __neg__(self):
        return Neg(self)

    def __call__(self, z) -> complex:
        """Value of the field at a point (no derivatives)."""
        return self._value(as_point(z))

    def _value(self, z: np.ndarray) -> complex:
        raise NotImplementedError

    def _jet(self, walk: "_BatchWalk") -> WJet2:
        """Batched jet of this node at walk.Z; children come from walk(...)."""
        raise NotImplementedError

    def serialize(self) -> str:
        """Prefix expression string; see `parse_field` for the grammar."""
        raise NotImplementedError

    def __repr__(self):
        return f"<field {self.serialize()}>"


def as_field(x) -> ScalarField:
    if isinstance(x, ScalarField):
        return x
    return Const(complex(x))


@dataclass(eq=False)
class Const(ScalarField):
    value: complex

    def _value(self, z):
        return self.value

    def _jet(self, walk):
        return WJet2.constant(self.value, walk.n, walk.batch)

    def serialize(self):
        return _num_str(self.value)


@dataclass(eq=False)
class Coord(ScalarField):
    i: int   # 0-based

    def _value(self, z):
        if self.i >= len(z):
            raise DimensionError(f"coordinate z{self.i + 1} on a point of dim {len(z)}")
        return z[self.i]

    def _jet(self, walk):
        if self.i >= walk.n:
            raise DimensionError(f"coordinate z{self.i + 1} on a point of dim {walk.n}")
        return WJet2.coordinate(self.i, walk.Z)

    def serialize(self):
        return f"z{self.i + 1}"


@dataclass(eq=False)
class CoordBar(ScalarField):
    i: int

    def _value(self, z):
        if self.i >= len(z):
            raise DimensionError(f"coordinate zbar{self.i + 1} on a point of dim {len(z)}")
        return np.conj(z[self.i])

    def _jet(self, walk):
        if self.i >= walk.n:
            raise DimensionError(f"coordinate zbar{self.i + 1} on a point of dim {walk.n}")
        return WJet2.conj_coordinate(self.i, walk.Z)

    def serialize(self):
        return f"zbar{self.i + 1}"


@dataclass(eq=False)
class Add(ScalarField):
    a: ScalarField
    b: ScalarField

    def _value(self, z):
        return self.a._value(z) + self.b._value(z)

    def _jet(self, walk):
        return walk(self.a) + walk(self.b)

    def serialize(self):
        return f"(add {self.a.serialize()} {self.b.serialize()})"


@dataclass(eq=False)
class Sub(ScalarField):
    a: ScalarField
    b: ScalarField

    def _value(self, z):
        return self.a._value(z) - self.b._value(z)

    def _jet(self, walk):
        return walk(self.a) - walk(self.b)

    def serialize(self):
        return f"(sub {self.a.serialize()} {self.b.serialize()})"


@dataclass(eq=False)
class Mul(ScalarField):
    a: ScalarField
    b: ScalarField

    def _value(self, z):
        return self.a._value(z) * self.b._value(z)

    def _jet(self, walk):
        if isinstance(self.a, Const):
            return walk(self.b) * self.a.value
        return walk(self.a) * walk(self.b)

    def serialize(self):
        return f"(mul {self.a.serialize()} {self.b.serialize()})"


@dataclass(eq=False)
class Div(ScalarField):
    a: ScalarField
    b: ScalarField

    def _value(self, z):
        d = self.b._value(z)
        if abs(d) < GUARD:
            raise DomainError(f"division guard: |denominator| = {abs(d):.3e}")
        return self.a._value(z) / d

    def _jet(self, walk):
        if isinstance(self.a, Const):
            return walk(self.b).reciprocal() * self.a.value
        return walk(self.a) / walk(self.b)

    def serialize(self):
        return f"(div {self.a.serialize()} {self.b.serialize()})"


@dataclass(eq=False)
class Neg(ScalarField):
    a: ScalarField

    def _value(self, z):
        return -self.a._value(z)

    def _jet(self, walk):
        return -walk(self.a)

    def serialize(self):
        return f"(neg {self.a.serialize()})"


@dataclass(eq=False)
class Pow(ScalarField):
    a: ScalarField
    k: int

    def _value(self, z):
        v = self.a._value(z)
        if self.k < 0 and abs(v) < GUARD:
            raise DomainError(f"negative power guard: |base| = {abs(v):.3e}")
        return v**self.k

    def _jet(self, walk):
        return walk(self.a) ** self.k

    def serialize(self):
        return f"(pow {self.a.serialize()} {self.k})"


@dataclass(eq=False)
class Exp(ScalarField):
    a: ScalarField

    def _value(self, z):
        return np.exp(self.a._value(z))

    def _jet(self, walk):
        return walk(self.a).exp()

    def serialize(self):
        return f"(exp {self.a.serialize()})"


@dataclass(eq=False)
class Log(ScalarField):
    a: ScalarField

    def _value(self, z):
        v = self.a._value(z)
        if abs(v) < GUARD:
            raise DomainError(f"log guard: |argument| = {abs(v):.3e}")
        return np.log(v)

    def _jet(self, walk):
        return walk(self.a).log()

    def serialize(self):
        return f"(log {self.a.serialize()})"


# Convenience constructors.

def z(i: int) -> ScalarField:
    """Coordinate z_i, 0-based."""
    return Coord(i)


def zbar(i: int) -> ScalarField:
    """Conjugate coordinate zbar_i, 0-based."""
    return CoordBar(i)


def const(c) -> ScalarField:
    return Const(complex(c))


def exp(f) -> ScalarField:
    return Exp(as_field(f))


def log(f) -> ScalarField:
    return Log(as_field(f))


def abs2(n: int) -> ScalarField:
    """|z|^2 = sum_i z_i zbar_i on C^n."""
    total: ScalarField = Mul(Coord(0), CoordBar(0))
    for i in range(1, n):
        total = Add(total, Mul(Coord(i), CoordBar(i)))
    return total


# ---------------------------------------------------------------------------
# Evaluation


class _BatchWalk:
    """One walk over expression trees at a batch of points Z (P, n).  Each
    distinct node, matched by identity, is evaluated once: the catalog
    charts share one tree across the diagonal and one Const(0) across the
    off-diagonal entries."""

    def __init__(self, Z: np.ndarray):
        self.Z = Z
        self.n = Z.shape[1]
        self.batch = Z.shape[:1]
        self._memo: dict[int, WJet2] = {}

    def __call__(self, node: ScalarField) -> WJet2:
        jet = self._memo.get(id(node))
        if jet is None:
            jet = self._memo[id(node)] = node._jet(self)
        return jet


def eval_jets(fields, points) -> list[WJet2]:
    """Exact jets of each field at each of P points, from one walk over the
    fields' trees.  Every returned jet carries the batch axis: value (P,),
    d (P, n), dd (P, n, n) and so on; a field listed twice gets the same
    jet object.  The domain, guard and finiteness checks hold per point;
    their errors name the offending point."""
    Z = np.asarray(points, dtype=complex)
    if Z.ndim != 2 or Z.shape[0] < 1 or Z.shape[1] < 1:
        raise DimensionError(f"points must be a (P, n) array, got shape {Z.shape}")
    if not np.all(np.isfinite(Z)):
        raise NonFinite(f"chart point {Z[_first_row(~np.isfinite(Z))]} has "
                        "non-finite coordinates")
    for field in fields:
        if field.domain is not None:
            for pt in Z:
                if not field.domain(pt):
                    raise DomainError(f"point {pt} outside field domain")
    walk = _BatchWalk(Z)
    try:
        jets = [walk(field) for field in fields]
        for jet in {id(j): j for j in jets}.values():
            jet.check_finite()
    except (DomainError, NonFinite) as exc:
        row = getattr(exc, "row", None)
        if row is None:
            raise
        raise type(exc)(f"{exc} at point {Z[row]}") from None
    return jets


def eval_jet(field: ScalarField, z) -> WJet2:
    """Exact second-order Wirtinger jet of `field` at the point z."""
    return eval_jets([field], as_point(z)[None])[0].row(0)


def fd_jet(field: ScalarField, z, h: float = 1e-4) -> WJet2:
    """Finite-difference jet oracle.

    Central differences in the 2n real coordinates (4th-order first and pure
    second derivatives on a 5-point stencil, 2nd-order cross stencil for mixed
    seconds), converted to Wirtinger form.  Independent of `eval_jet` other
    than sharing the field's value evaluation.
    """
    if h <= 0:
        raise ValueError("fd step must be positive")
    pt = as_point(z)
    n = len(pt)
    m = 2 * n
    x0 = np.concatenate([pt.real, pt.imag])

    def val(x: np.ndarray) -> complex:
        p = x[:n] + 1j * x[n:]
        if field.domain is not None and not field.domain(p):
            raise DomainError(f"finite-difference stencil point {p} exits domain")
        return field._value(p)

    f0 = val(x0)

    # Work with differences from the center value so constant fields give
    # exact zeros (the raw 5-point weights do not cancel in floating point).
    axis = np.zeros((m, 4), dtype=complex)
    for a in range(m):
        for col, off in enumerate((-2.0, -1.0, 1.0, 2.0)):
            xs = x0.copy()
            xs[a] += off * h
            axis[a, col] = val(xs) - f0

    first = np.zeros(m, dtype=complex)
    hess = np.zeros((m, m), dtype=complex)
    for a in range(m):
        dm2, dm1, dp1, dp2 = axis[a]
        first[a] = (-dp2 + 8 * dp1 - 8 * dm1 + dm2) / (12 * h)
        hess[a, a] = (-dp2 + 16 * dp1 + 16 * dm1 - dm2) / (12 * h * h)

    for a in range(m):
        for b in range(a + 1, m):
            vals = {}
            for sa in (1.0, -1.0):
                for sb in (1.0, -1.0):
                    xs = x0.copy()
                    xs[a] += sa * h
                    xs[b] += sb * h
                    vals[(sa, sb)] = val(xs) - f0
            mixed = (vals[(1, 1)] - vals[(1, -1)] - vals[(-1, 1)] + vals[(-1, -1)]) \
                / (4 * h * h)
            hess[a, b] = mixed
            hess[b, a] = mixed

    d = 0.5 * (first[:n] - 1j * first[n:])
    dbar = 0.5 * (first[:n] + 1j * first[n:])
    xx = hess[:n, :n]
    xy = hess[:n, n:]
    yx = hess[n:, :n]
    yy = hess[n:, n:]
    dd = 0.25 * (xx - 1j * xy - 1j * yx - yy)
    ddbar = 0.25 * (xx + 1j * xy - 1j * yx + yy)
    dbardbar = 0.25 * (xx + 1j * xy + 1j * yx - yy)
    return WJet2(f0, d, dbar, 0.5 * (dd + dd.T), ddbar,
                 0.5 * (dbardbar + dbardbar.T))


# ---------------------------------------------------------------------------
# Serialization
#
# Grammar (whitespace-separated prefix notation):
#   expr    := NUMBER | '[' RE ',' IM ']' | zK | zbarK | '(' op expr... ')'
#   op      := add | sub | mul | div | neg | exp | log | pow
# add and mul take >= 2 arguments (folded left-associatively), sub and div
# exactly 2, neg/exp/log exactly 1, pow takes an expression and an integer.
# Coordinate indices K are 1-based.  Complex literals are written [re, im].

_TOKEN = re.compile(r"\(|\)|\[|\]|,|[^\s()\[\],]+")
_COORD = re.compile(r"^z(\d+)$")
_COORD_BAR = re.compile(r"^zbar(\d+)$")


def _num_str(c: complex) -> str:
    if c.imag == 0:
        r = c.real
        return repr(int(r)) if r == int(r) and abs(r) < 1e15 else repr(r)
    return f"[{c.real!r}, {c.imag!r}]"


class _Parser:
    def __init__(self, text: str):
        self.tokens = _TOKEN.findall(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is None:
            raise ValueError("unexpected end of field expression")
        self.pos += 1
        return tok

    def expect(self, tok):
        got = self.next()
        if got != tok:
            raise ValueError(f"expected {tok!r}, got {got!r}")

    def parse(self) -> ScalarField:
        expr = self.expr()
        if self.peek() is not None:
            raise ValueError(f"trailing tokens after field expression: {self.peek()!r}")
        return expr

    def expr(self) -> ScalarField:
        tok = self.next()
        if tok == "(":
            return self.form()
        if tok == "[":
            re_part = float(self.next())
            self.expect(",")
            im_part = float(self.next())
            self.expect("]")
            return Const(complex(re_part, im_part))
        mo = _COORD_BAR.match(tok)
        if mo:
            if int(mo.group(1)) < 1:
                raise ValueError(f"coordinate indices are 1-based, got {tok!r}")
            return CoordBar(int(mo.group(1)) - 1)
        mo = _COORD.match(tok)
        if mo:
            if int(mo.group(1)) < 1:
                raise ValueError(f"coordinate indices are 1-based, got {tok!r}")
            return Coord(int(mo.group(1)) - 1)
        try:
            return Const(complex(float(tok)))
        except ValueError:
            raise ValueError(f"unrecognized token {tok!r} in field expression") from None

    def form(self) -> ScalarField:
        op = self.next()
        if op == "pow":
            base = self.expr()
            k = int(self.next())
            self.expect(")")
            return Pow(base, k)
        args = []
        while self.peek() != ")":
            if self.peek() is None:
                raise ValueError("unterminated field expression")
            args.append(self.expr())
        self.expect(")")
        if op in ("add", "mul"):
            if len(args) < 2:
                raise ValueError(f"{op} needs at least 2 arguments")
            node = args[0]
            cls = Add if op == "add" else Mul
            for arg in args[1:]:
                node = cls(node, arg)
            return node
        if op in ("sub", "div"):
            if len(args) != 2:
                raise ValueError(f"{op} needs exactly 2 arguments")
            return (Sub if op == "sub" else Div)(args[0], args[1])
        if op in ("neg", "exp", "log"):
            if len(args) != 1:
                raise ValueError(f"{op} needs exactly 1 argument")
            return {"neg": Neg, "exp": Exp, "log": Log}[op](args[0])
        raise ValueError(f"unknown operator {op!r} in field expression")


def parse_field(text: str) -> ScalarField:
    """Parse a prefix expression string into a ScalarField."""
    return _Parser(text).parse()
