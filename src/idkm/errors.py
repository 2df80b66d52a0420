"""Exception types raised across the package."""


class IdkmError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(IdkmError):
    """Operands have incompatible shapes."""


class ParamError(IdkmError):
    """A parameter is outside its valid range."""


def require_positive_finite(name: str, value: float | None) -> None:
    """The rule for every temperature, tolerance and learning rate."""
    if value is None or not 0 < value < float("inf"):
        raise ParamError(f"{name} must be positive and finite, got {value}")


class NumericsError(IdkmError):
    """A computation produced non-finite values, or a solve could not be
    trusted or did not converge."""


class AdjointSingular(NumericsError):
    """I - dF/dC* at a layer's fixed point is singular, or its condition
    number is past gradients.COND_LIMIT, so the implicit adjoint solve
    cannot be trusted."""


class FormatError(IdkmError):
    """A file does not match its expected on-disk format."""


class ConfigError(IdkmError):
    """A run configuration is invalid or contains unknown keys."""
