"""Scalar fields on chart domains of C^n with exact Wirtinger jets through order 2.

Fields are immutable expression trees over the primitives {constant, z_i,
zbar_i, quadratic form}, closed under +, -, *, /, integer powers, exp and
log.  A quadratic form `Quadratic` is (1/2) w^T H w over w = (z, zbar), a
leaf whose jet is exact in closed form; `abs2` is one.  `eval_jet`
propagates the full second-order Wirtinger jet exactly through the tree;
`eval_jets` does the same for several trees at a batch of points in one
walk, evaluating each shared node once.  A jet `WJet2` is packed over the
2n variables (z, zbar): its value, its gradient (d, dbar) and one exactly
symmetric Hessian whose blocks are dd, ddbar, ddbar^T and dbardbar, so each
operation is one formula on three arrays.  Jet arithmetic happens only in
that walk, on jets of one batch.  `fd_jets` is an independent central
finite-difference oracle in the 2n underlying real coordinates, at a batch
of points in one walk; `fd_jet` is its one-point call.

Conventions: z_i = x_i + 1j*y_i, d_i = (d/dx_i - 1j d/dy_i)/2 and
dbar_i = (d/dx_i + 1j d/dy_i)/2.  z and zbar are independent variables, so
fields need not be holomorphic.  Coordinate indices are 0-based in code and
1-based in the serialized grammar (`z1`, `zbar1`, ...).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, fields
from functools import reduce

import numpy as np

from .errors import DimensionError, DomainError, InvalidSpec, NonFinite

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
        bad = np.min(np.abs(u if row is None else u[row]))
        _refuse(DomainError(f"{what} = {bad:.3e}"), row)


@dataclass(eq=False)
class WJet2:
    """Value of a scalar field plus all Wirtinger partials through order 2,
    packed over the 2n variables (z, zbar).

    grad = (d, dbar) and hess = [[dd, ddbar], [ddbar^T, dbardbar]], with
    d[i] = d_i f, dbar[i] = dbar_i f, dd[i,j] = d_i d_j f,
    ddbar[i,j] = d_i dbar_j f, dbardbar[i,j] = dbar_i dbar_j f.  The five
    block names are read-only properties, views of grad and hess.

    hess is exactly symmetric: each operation scales symmetric Hessians
    entrywise and adds its outer products as X + X^T, whose entries [i, j]
    and [j, i] are one float sum, as addition commutes.  So dd and dbardbar
    are exactly symmetric and the lower mixed block is ddbar transposed bit
    for bit.

    A jet may carry a leading batch axis of P points: value (P,), grad
    (P, 2n), hess (P, 2n, 2n).  The arithmetic is rowwise: it combines two
    jets of one walk, or scales a jet by a number.  Inside the walk a leaf
    keeps an unbatched gradient and a scalar 0 Hessian, which broadcast.
    """

    value: complex
    grad: np.ndarray
    hess: np.ndarray

    @property
    def n(self) -> int:
        return self.grad.shape[-1] // 2

    d = property(lambda self: self.grad[..., :self.n])
    dbar = property(lambda self: self.grad[..., self.n:])
    dd = property(lambda self: self.hess[..., :self.n, :self.n])
    ddbar = property(lambda self: self.hess[..., :self.n, self.n:])
    dbardbar = property(lambda self: self.hess[..., self.n:, self.n:])

    @staticmethod
    def constant(c: complex, n: int, batch: tuple = ()) -> "WJet2":
        value = np.full(batch, complex(c)) if batch else complex(c)
        return WJet2(value, np.zeros(batch + (2 * n,), complex),
                     np.zeros(batch + (2 * n, 2 * n), complex))

    def __add__(self, o):
        return WJet2(self.value + o.value, self.grad + o.grad, self.hess + o.hess)

    def __neg__(self):
        return WJet2(-self.value, -self.grad, -self.hess)

    def __sub__(self, o):
        return self + (-o)

    def __mul__(self, o):
        if not isinstance(o, WJet2):
            # A constant factor has no derivatives: scale every part.
            c = complex(o)
            return WJet2(c * self.value, c * self.grad, c * self.hess)
        a, b = _col(self.value), _col(o.value)
        X = self.grad[..., :, None] * o.grad[..., None, :]
        return WJet2(self.value * o.value, self.grad * b + a * o.grad,
                     (self.hess * b[..., None] + a[..., None] * o.hess)
                     + (X + X.swapaxes(-1, -2)))

    def compose(self, h0: complex, h1: complex, h2: complex) -> "WJet2":
        """Chain rule for a scalar function h applied to this jet, given
        h(value), h'(value), h''(value) (rowwise in a batch)."""
        # Vectorized complex multiply is not bit-commutative, so outer(g, g)
        # needs explicit symmetrization to keep hess exactly symmetric.
        X = self.grad[..., :, None] * self.grad[..., None, :]
        g1 = _col(h1)
        return WJet2(h0, g1 * self.grad,
                     _col(h2)[..., None] * (0.5 * (X + X.swapaxes(-1, -2)))
                     + g1[..., None] * self.hess)

    def reciprocal(self) -> "WJet2":
        u = self.value
        _guard(u, "division guard: |denominator|")
        return self.compose(1.0 / u, -1.0 / u**2, 2.0 / u**3)

    def __truediv__(self, o):
        return self * o.reciprocal()

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
        for block in (self.grad, self.hess):
            if not np.all(np.isfinite(block)):
                _refuse(NonFinite("jet component overflowed"),
                        _first_row(~np.isfinite(block)))
        if not np.all(np.isfinite(self.value)):
            _refuse(NonFinite("field value overflowed"),
                    _first_row(~np.isfinite(self.value)))
        return self

    def row(self, p: int) -> "WJet2":
        """The unbatched jet of batch row p (views)."""
        return WJet2(self.value[p], self.grad[p], self.hess[p])


# ---------------------------------------------------------------------------
# Expression trees


class ScalarField:
    """Immutable expression tree; build with +, -, *, /, ** and exp/log.

    An operator node names itself in the grammar as `op`; its arguments are
    its dataclass fields in order, or two or more folded left if `variadic`.
    `serialize` and `parse_field` read only these declarations.
    """

    op = ""
    variadic = False

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
        return complex(self._value(as_point(z)))

    def _value(self, z: np.ndarray) -> np.ndarray:
        """Values at the points z, rowwise over all but its last axis; a
        guard hit at any point raises DomainError."""
        raise NotImplementedError

    def _jet(self, walk: "_BatchWalk") -> WJet2:
        """Batched jet of this node at walk.Z; children come from walk(...)."""
        raise NotImplementedError

    def serialize(self) -> str:
        """Prefix expression string `(op arg ...)`; see `parse_field` for the
        grammar."""
        words = [self.op]
        for f in fields(self):
            arg = getattr(self, f.name)
            words.append(arg.serialize() if isinstance(arg, ScalarField) else str(arg))
        return f"({' '.join(words)})"

    def __repr__(self):
        return f"<field {self.serialize()}>"


def as_field(x) -> ScalarField:
    if isinstance(x, ScalarField):
        return x
    return Const(x)


@dataclass(eq=False)
class Const(ScalarField):
    value: complex

    def __post_init__(self):
        # Every constant is a Python complex: a numpy scalar would serialize
        # as "np.float64(...)", which `parse_field` rejects.
        self.value = complex(self.value)

    def _value(self, z):
        return np.full(z.shape[:-1], self.value)

    def _jet(self, walk):
        return WJet2(np.full(walk.batch, self.value), np.zeros(2 * walk.n, complex), 0j)

    def serialize(self):
        return _num_str(self.value)


@dataclass(eq=False)
class _Coordinate(ScalarField):
    """A coordinate leaf, written `stem` then its 1-based index."""

    i: int   # 0-based

    def _index(self, n: int) -> int:
        if self.i >= n:
            raise DimensionError(f"coordinate {self.serialize()} on a point of dim {n}")
        return self.i

    def serialize(self):
        return f"{self.stem}{self.i + 1}"


class Coord(_Coordinate):
    stem = "z"

    def _value(self, z):
        return z[..., self._index(z.shape[-1])]

    def _jet(self, walk):
        i = self._index(walk.n)
        return WJet2(walk.Z[:, i], walk.eye[i], 0j)


class CoordBar(_Coordinate):
    stem = "zbar"

    def _value(self, z):
        return np.conj(z[..., self._index(z.shape[-1])])

    def _jet(self, walk):
        i = self._index(walk.n)
        return WJet2(np.conj(walk.Z[:, i]), walk.eye[walk.n + i], 0j)


@dataclass(eq=False)
class Add(ScalarField):
    op, variadic = "add", True
    a: ScalarField
    b: ScalarField

    def _value(self, z):
        return self.a._value(z) + self.b._value(z)

    def _jet(self, walk):
        return walk(self.a) + walk(self.b)


@dataclass(eq=False)
class Sub(ScalarField):
    op = "sub"
    a: ScalarField
    b: ScalarField

    def _value(self, z):
        return self.a._value(z) - self.b._value(z)

    def _jet(self, walk):
        return walk(self.a) - walk(self.b)


@dataclass(eq=False)
class Mul(ScalarField):
    op, variadic = "mul", True
    a: ScalarField
    b: ScalarField

    def _value(self, z):
        return self.a._value(z) * self.b._value(z)

    def _jet(self, walk):
        if isinstance(self.a, Const):
            return walk(self.b) * self.a.value
        return walk(self.a) * walk(self.b)


@dataclass(eq=False)
class Div(ScalarField):
    op = "div"
    a: ScalarField
    b: ScalarField

    def _value(self, z):
        d = self.b._value(z)
        _guard(d, "division guard: |denominator|")
        return self.a._value(z) / d

    def _jet(self, walk):
        if isinstance(self.a, Const):
            return walk(self.b).reciprocal() * self.a.value
        return walk(self.a) / walk(self.b)


@dataclass(eq=False)
class Neg(ScalarField):
    op = "neg"
    a: ScalarField

    def _value(self, z):
        return -self.a._value(z)

    def _jet(self, walk):
        return -walk(self.a)


@dataclass(eq=False)
class Pow(ScalarField):
    op = "pow"
    a: ScalarField
    k: int

    def _value(self, z):
        v = self.a._value(z)
        if self.k < 0:
            _guard(v, "negative power guard: |base|")
        return v**self.k

    def _jet(self, walk):
        return walk(self.a) ** self.k


@dataclass(eq=False)
class Exp(ScalarField):
    op = "exp"
    a: ScalarField

    def _value(self, z):
        return np.exp(self.a._value(z))

    def _jet(self, walk):
        return walk(self.a).exp()


@dataclass(eq=False)
class Log(ScalarField):
    op = "log"
    a: ScalarField

    def _value(self, z):
        v = self.a._value(z)
        _guard(v, "log guard: |argument|")
        return np.log(v)

    def _jet(self, walk):
        return walk(self.a).log()


@dataclass(eq=False)
class Quadratic(ScalarField):
    """q(z) = (1/2) w^T H w over w = (z, zbar) in C^2n, H a read-only, exactly
    symmetric (2n, 2n) complex matrix: a leaf whose jet is exact in closed
    form, value (1/2) w^T H w, gradient H w and the constant Hessian H,
    unbatched like a leaf's.  The blocks of H are dd q, ddbar q and
    dbardbar q, so |z|^2 has mixed blocks I and the others 0.  Written
    `(quad h...)`, the upper triangle of H row by row."""

    op = "quad"
    H: np.ndarray

    def __post_init__(self):
        # Adding +0.0 turns every -0.0 into +0.0, which `serialize` writes
        # as 0: so the text reads back to H bit for bit.
        H = np.array(self.H, dtype=complex) + 0.0
        m = len(H)
        if H.shape != (m, m) or m % 2 or not m:
            raise DimensionError(f"quadratic form needs a (2n, 2n) matrix, got shape {H.shape}")
        if not np.isfinite(H).all():
            raise NonFinite("quadratic form has non-finite entries")
        if not (H == H.T).all():
            raise InvalidSpec("quadratic form needs an exactly symmetric matrix")
        H.setflags(write=False)
        self.H = H

    @classmethod
    def from_upper(cls, upper) -> "Quadratic":
        """The form whose H has the upper triangle `upper`, row by row; a
        count that is not m(m + 1)/2 for an even m raises InvalidSpec."""
        k = len(upper)
        m = (math.isqrt(8 * k + 1) - 1) // 2
        if m * (m + 1) // 2 != k or m % 2 or not m:
            raise InvalidSpec(f"{cls.op} takes the upper triangle of a (2n, 2n) matrix, "
                              f"m(m + 1)/2 numbers for an even m, got {k}")
        H = np.zeros((m, m), complex)
        H[np.triu_indices(m)] = upper
        H.T[np.triu_indices(m)] = upper
        return cls(H)

    def _value_and_grad(self, z):
        """(1/2) w^T H w and H w at the points z, rowwise: einsum sums each
        row alike at any stack size, where a matmul need not."""
        n = len(self.H) // 2
        if z.shape[-1] != n:
            raise DimensionError(f"quadratic form on C^{n} at a point of dim {z.shape[-1]}")
        w = np.concatenate([z, z.conj()], axis=-1)
        Hw = np.einsum("...a,ab->...b", w, self.H)
        return 0.5 * np.einsum("...a,...a->...", w, Hw), Hw

    def _value(self, z):
        return self._value_and_grad(z)[0]

    def _jet(self, walk):
        return WJet2(*self._value_and_grad(walk.Z), self.H)

    def serialize(self):
        upper = self.H[np.triu_indices(len(self.H))]
        return f"({self.op} {' '.join(_num_str(complex(h)) for h in upper)})"


# Convenience constructors.

def z(i: int) -> ScalarField:
    """Coordinate z_i, 0-based."""
    return Coord(i)


def zbar(i: int) -> ScalarField:
    """Conjugate coordinate zbar_i, 0-based."""
    return CoordBar(i)


def const(c) -> ScalarField:
    return Const(c)


def exp(f) -> ScalarField:
    return Exp(as_field(f))


def log(f) -> ScalarField:
    return Log(as_field(f))


def abs2(n: int) -> Quadratic:
    """|z|^2 = sum_i z_i zbar_i on C^n, the quadratic form whose mixed blocks
    are I: one leaf with a closed-form jet, not a tree of n products."""
    return Quadratic(np.eye(2 * n, k=n) + np.eye(2 * n, k=-n))


# ---------------------------------------------------------------------------
# Evaluation


def _as_points(points) -> np.ndarray:
    """Coerce to a (P, n) complex stack of chart points, P, n >= 1, and
    check finiteness, naming the first non-finite point."""
    Z = np.asarray(points, dtype=complex)
    if Z.ndim != 2 or Z.shape[0] < 1 or Z.shape[1] < 1:
        raise DimensionError(f"points must be a (P, n) array, got shape {Z.shape}")
    if not np.all(np.isfinite(Z)):
        raise NonFinite(f"chart point {Z[_first_row(~np.isfinite(Z))]} has "
                        "non-finite coordinates")
    return Z


class _BatchWalk:
    """One walk over expression trees at a batch of points Z (P, n).  Each
    distinct node, matched by identity, is evaluated once: the catalog
    charts share one tree across the diagonal and one Const(0) across the
    off-diagonal entries.  A leaf's jet is unbatched but for its value: its
    gradient a row of `eye` (or zeros), its Hessian a scalar 0."""

    def __init__(self, Z: np.ndarray):
        self.Z = Z
        self.n = Z.shape[1]
        self.batch = Z.shape[:1]
        self.eye = np.eye(2 * self.n, dtype=complex)
        self._memo: dict[int, WJet2] = {}

    def __call__(self, node: ScalarField) -> WJet2:
        jet = self._memo.get(id(node))
        if jet is None:
            jet = self._memo[id(node)] = node._jet(self)
        return jet


def _batched(jet: WJet2, P: int) -> WJet2:
    """jet with each part broadcast to the batch shape of P points; a part
    already of that shape is kept as it is."""
    m = 2 * jet.n
    shapes = ((P,), (P, m), (P, m, m))
    return WJet2(*(a if np.shape(a) == shape else np.broadcast_to(a, shape)
                   for a, shape in zip(vars(jet).values(), shapes)))


def eval_jets(fields, points) -> list[WJet2]:
    """Exact jets of each field at each of P points, from one walk over the
    fields' trees.  Every returned jet carries the batch axis: value (P,),
    grad (P, 2n), hess (P, 2n, 2n), so d (P, n), dd (P, n, n) and so on;
    a field listed twice gets the same jet object.  A part the walk kept
    unbatched (a leaf's) is a read-only broadcast view.  The guard and
    finiteness checks hold per point; their errors name the offending
    point.  A field has no domain of its own: the chart's is checked by
    the chart's readers."""
    Z = _as_points(points)
    walk = _BatchWalk(Z)
    try:
        jets = [walk(field) for field in fields]
        distinct = {id(j): j for j in jets}
        full = {key: _batched(j, len(Z)).check_finite() for key, j in distinct.items()}
    except (DomainError, NonFinite) as exc:
        row = getattr(exc, "row", None)
        if row is None:
            raise
        raise type(exc)(f"{exc} at point {Z[row]}") from None
    return [full[id(j)] for j in jets]


def eval_jet(field: ScalarField, z) -> WJet2:
    """Exact second-order Wirtinger jet of `field` at the point z."""
    return eval_jets([field], as_point(z)[None])[0].row(0)


# The finite-difference oracles' stencil: four offsets per axis, in units of
# the step h, and the 4th-order central first difference on them.
_OFFSETS = np.array([-2.0, -1.0, 1.0, 2.0])


def _axis_steps(m: int) -> np.ndarray:
    """Stencil steps around a point of R^m, in units of h: the point itself,
    then the four offsets along each axis in turn, shape (1 + 4m, m)."""
    eye = np.eye(m)
    return np.concatenate([np.zeros((1, m)), (eye[:, None] * _OFFSETS[:, None]).reshape(-1, m)])


def _first_difference(F: np.ndarray, h: float) -> np.ndarray:
    """4th-order central first derivatives D[a] along each axis a from the
    values F on the `_axis_steps` stencil, its points on F's leading axis.
    Differences from the centre value make a constant give exact zeros."""
    D = (F[1:] - F[0]).reshape((-1, 4) + F.shape[1:])
    fm2, fm1, fp1, fp2 = np.moveaxis(D, 1, 0)
    return (-fp2 + 8 * fp1 - 8 * fm1 + fm2) / (12 * h)


def fd_jets(field: ScalarField, points, h: float = 1e-4) -> WJet2:
    """Finite-difference jet oracle at each of P points, batched like
    `eval_jets`: value (P,), grad (P, 2n), hess (P, 2n, 2n).

    Central differences in the 2n real coordinates (4th-order first and pure
    second derivatives on a 5-point stencil, 2nd-order cross stencil for mixed
    seconds), converted to Wirtinger form.  The stencils of all the points
    are valued in one `_value` walk; it shares nothing with `eval_jets` and
    `WJet2` arithmetic.  It checks no domain: a stencil point where an
    expression guard fails (log or 1/x near zero) raises DomainError.
    """
    if h <= 0:
        raise ValueError("fd step must be positive")
    Z0 = _as_points(points)
    P, n = Z0.shape
    m = 2 * n
    x0 = np.concatenate([Z0.real, Z0.imag], axis=1)
    # The centre and axis steps, then the cross steps (++, +-, -+, --) of
    # each axis pair a < b.
    a, b = np.triu_indices(m, 1)
    eye = np.eye(m)
    cross = eye[a, None] * np.array([1.0, 1.0, -1.0, -1.0])[:, None] \
        + eye[b, None] * np.array([1.0, -1.0, 1.0, -1.0])[:, None]
    steps = np.concatenate([_axis_steps(m), cross.reshape(-1, m)])
    X = (x0[:, None] + h * steps).reshape(-1, m)        # point-major rows
    Z = X[:, :n] + 1j * X[:, n:]
    F = field._value(Z).reshape(P, -1).T                  # F[stencil step, point]

    # Work with differences from the center value so constant fields give
    # exact zeros (the raw 5-point weights do not cancel in floating point).
    f0 = F[0]
    first = _first_difference(F[:1 + 4 * m], h).T
    dm2, dm1, dp1, dp2 = np.moveaxis((F[1:1 + 4 * m] - f0).reshape(m, 4, P), 1, 0)
    pp, pm, mp, mm = np.moveaxis((F[1 + 4 * m:] - f0).reshape(-1, 4, P), 1, 0)
    hess = np.zeros((P, m, m), dtype=complex)
    hess[:, np.arange(m), np.arange(m)] = ((-dp2 + 16 * dp1 + 16 * dm1 - dm2) / (12 * h * h)).T
    hess[:, a, b] = hess[:, b, a] = ((pp - pm - mp + mm) / (4 * h * h)).T

    # Row i of w is d_i = (d/dx_i - 1j d/dy_i)/2 on the real coordinates,
    # its conjugate dbar_i: M = [w; conj(w)] maps them to (z, zbar).
    w = 0.5 * np.concatenate([np.eye(n), -1j * np.eye(n)], axis=1)
    M = np.concatenate([w, w.conj()])
    H = M @ hess @ M.T
    return WJet2(f0, first @ M.T, 0.5 * (H + H.swapaxes(1, 2)))


def fd_jet(field: ScalarField, z, h: float = 1e-4) -> WJet2:
    """Finite-difference jet oracle at the point z: the one-point call of
    `fd_jets`."""
    return fd_jets(field, as_point(z)[None], h).row(0)


# ---------------------------------------------------------------------------
# Serialization
#
# Grammar (whitespace-separated prefix notation):
#   expr    := NUMBER | '[' RE ',' IM ']' | zK | zbarK | '(' op expr... ')'
#   op      := add | sub | mul | div | neg | exp | log | pow | quad
# add and mul take >= 2 arguments (folded left-associatively), sub and div
# exactly 2, neg/exp/log exactly 1, pow takes an expression and an integer.
# quad takes m(m + 1)/2 numbers for an even m = 2n: the upper triangle, row
# by row, of the symmetric H of (1/2) w^T H w over w = (z1..zn, zbar1..zbarn).
# Coordinate indices K are 1-based.  Complex literals are written [re, im].
# Every number must be finite: inf, nan and 1e999 are refused.
# Each operator is its node class's `op`; its arity is its number of fields.
# A malformed expression raises InvalidSpec.

_TOKEN = re.compile(r"\(|\)|\[|\]|,|[^\s()\[\],]+")
_COORD = re.compile(r"^z(bar)?(\d+)$")
_OPERATORS = {cls.op: cls for cls in (Add, Sub, Mul, Div, Neg, Pow, Exp, Log, Quadratic)}


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
            raise InvalidSpec("unexpected end of field expression")
        self.pos += 1
        return tok

    def expect(self, tok):
        got = self.next()
        if got != tok:
            raise InvalidSpec(f"expected {tok!r}, got {got!r}")

    def literal(self, kind, what: str, tok: str | None = None):
        """The token tok (the next by default) read as a finite number of type
        `kind`; `what % repr(tok)` is the error for a token that is not one."""
        tok = self.next() if tok is None else tok
        try:
            value = kind(tok)
        except ValueError:
            raise InvalidSpec(what % repr(tok)) from None
        if not abs(value) < np.inf:         # inf, nan, 1e999
            raise InvalidSpec(f"number {tok!r} in field expression is not finite")
        return value

    def parse(self) -> ScalarField:
        expr = self.expr()
        if self.peek() is not None:
            raise InvalidSpec(f"trailing tokens after field expression: {self.peek()!r}")
        return expr

    def expr(self) -> ScalarField:
        tok = self.next()
        if tok == "(":
            return self.form()
        if tok == "[":
            re_part = self.literal(float, "complex literal parts must be numbers, got %s")
            self.expect(",")
            im_part = self.literal(float, "complex literal parts must be numbers, got %s")
            self.expect("]")
            return Const(complex(re_part, im_part))
        mo = _COORD.match(tok)
        if mo:
            if int(mo.group(2)) < 1:
                raise InvalidSpec(f"coordinate indices are 1-based, got {tok!r}")
            return (CoordBar if mo.group(1) else Coord)(int(mo.group(2)) - 1)
        return Const(self.literal(float, "unrecognized token %s in field expression", tok))

    def form(self) -> ScalarField:
        op = self.next()
        if op == Pow.op:
            base = self.expr()
            k = self.literal(int, "pow exponent must be an integer, got %s")
            self.expect(")")
            return Pow(base, k)
        args = []
        while self.peek() != ")":
            if self.peek() is None:
                raise InvalidSpec("unterminated field expression")
            args.append(self.expr())
        self.expect(")")
        cls = _OPERATORS.get(op)
        if cls is None:
            raise InvalidSpec(f"unknown operator {op!r} in field expression")
        if cls is Quadratic:
            words = [a.serialize() for a in args if not isinstance(a, Const)]
            if words:
                raise InvalidSpec(f"{op} arguments must be numbers, got {words[0]}")
            return Quadratic.from_upper([a.value for a in args])
        arity = len(fields(cls))
        if cls.variadic:
            if len(args) < arity:
                raise InvalidSpec(f"{op} needs at least {arity} arguments")
            return reduce(cls, args)
        if len(args) != arity:
            raise InvalidSpec(f"{op} needs exactly {arity} argument{'s' * (arity > 1)}")
        return cls(*args)


def parse_field(text: str) -> ScalarField:
    """Parse a prefix expression string into a ScalarField; a malformed one
    raises InvalidSpec."""
    return _Parser(text).parse()
