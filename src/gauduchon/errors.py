"""Exception types shared across the package, and the integer and number
rules of its config and chart-spec values."""


class GauduchonError(Exception):
    """Base class for all package errors."""


class DomainError(GauduchonError):
    """A point lies outside a chart's declared domain, or an expression
    guard failed (log or division near zero)."""


class NonFinite(GauduchonError):
    """A jet component overflowed to inf or nan."""


class DimensionError(GauduchonError):
    """An operation received data of the wrong complex dimension."""


class NotPositiveDefinite(GauduchonError):
    """The metric value matrix failed the Hermitian positive-definite check."""


class NotHermitian(GauduchonError):
    """A tensor lacks the Hermitian symmetry that makes a contraction real."""


class ZeroVector(GauduchonError):
    """A direction vector required to be nonzero was (numerically) zero."""


class ZeroPoint(GauduchonError):
    """A chart point required to be nonzero was zero."""


class BaseNotKahler(GauduchonError):
    """An operation requiring a Kahler base chart received a chart with
    nonvanishing Chern torsion."""


class NonRealConformalFactor(GauduchonError):
    """A conformal factor took non-real values on the sampled domain."""


class InvalidSpec(GauduchonError):
    """A chart or Hopf specification violates its invariants, or a field
    expression in one is malformed."""


class ConfigError(GauduchonError):
    """A CLI/suite configuration failed to parse or validate."""


def _as_int(what: str, value) -> int:
    """An integer config value: an int, an integral float such as 3.0 or a
    string of digits.  Booleans and fractions are refused, not truncated."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    try:
        return int(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{what} must be an integer, got {value!r}") from None


def _as_float(what: str, value) -> float:
    """A real config value: a number or a numeric string.  Booleans are
    refused, not read as 1.0 and 0.0."""
    if isinstance(value, bool):
        raise ConfigError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{what} must be a number, got {value!r}") from None
