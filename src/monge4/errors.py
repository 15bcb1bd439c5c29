"""Exception and warning types shared across the package."""


class Monge4Error(Exception):
    """Base class for all errors raised by this package."""


class ExpressionSyntaxError(Monge4Error):
    """Raised by the expression parser; carries the byte offset of the failure."""

    def __init__(self, message, offset, expected=None):
        self.offset = offset
        self.expected = expected
        detail = f"syntax error at offset {offset}: {message}"
        if expected:
            detail += f" (expected {expected})"
        super().__init__(detail)


class UnknownIdentifierError(ExpressionSyntaxError):
    def __init__(self, name, offset):
        self.name = name
        Monge4Error.__init__(self, f"unknown identifier {name!r} at offset {offset}")
        self.offset = offset
        self.expected = None


class EvaluationError(Monge4Error):
    """Numerical failure while evaluating an expression (domain error, division
    by zero, non-finite result).  ``point`` is the offending (x, y) when known."""

    def __init__(self, message, point=None):
        self.point = point
        if point is not None:
            message = f"{message} at point ({point[0]!r}, {point[1]!r})"
        super().__init__(message)


class CrossCheckError(Monge4Error):
    """Redundant formula paths disagreed beyond tolerance."""


class DegenerateIndicatrixError(Monge4Error):
    """The curvature ellipse is a segment; no full-rank conic exists."""


class UmbilicPointError(Monge4Error):
    """Canonical frame is undefined at an umbilic point."""


class SingularSystemError(Monge4Error):
    """The 2x2 tangency system for the characteristic-curve point is singular
    (a tangent to the indicatrix passes through the origin)."""


class ConicRankError(Monge4Error):
    """Operation requires a full-rank conic matrix."""


class PoleAtInfinityError(Monge4Error):
    """The pole of the given line lies at infinity."""


class InflectionPointError(Monge4Error):
    """Directional quadratic vanished identically: the point is an inflection,
    every direction is asymptotic / every normal degenerate."""


class SurfaceFileError(Monge4Error):
    """Malformed surface description file; carries a line number when known."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class SeedCapWarning(UserWarning):
    """The inflection search kept only the MAX_SEEDS seeds with the smallest
    residuals, so inflections in the basins of the others may be missing.
    The CLI prints it as one line on stderr."""
