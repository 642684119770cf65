"""Exception hierarchy shared by all ratdyn modules.

Every error carries a short machine-readable ``code``, used by the CLI when
mapping failures to exit statuses and JSON diagnostics, and a message that
states any number behind it; ``MapParseError`` also keeps the ``position``
that the CLI prints.
"""

from __future__ import annotations


class RatdynError(Exception):
    """Base class; ``code`` is a stable machine-readable identifier."""

    code = "error"


class MapParseError(RatdynError):
    code = "map-parse"

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position


class DegenerateMap(RatdynError):
    code = "degenerate-map"


class DegreeTooLow(RatdynError):
    code = "degree-too-low"


class DegreeCapExceeded(RatdynError):
    code = "degree-cap"


class RootFindingFailed(RatdynError):
    code = "root-finding"


class InexactDivision(RatdynError):
    """Exact polynomial division left a remainder.

    On the dynatomic path this signals a parabolic degeneracy (or a bug);
    it is reported, never swallowed.
    """

    code = "inexact-division"


class OrbitMismatch(RatdynError):
    code = "orbit-mismatch"


class NotACycle(RatdynError):
    code = "not-a-cycle"


class SingularCurve(RatdynError):
    code = "singular-curve"


class NotRepelling(RatdynError):
    code = "not-repelling"


class InPostcriticalSet(RatdynError):
    code = "in-postcritical-set"


class NoReturnFound(RatdynError):
    code = "no-return"


class NewtonDiverged(RatdynError):
    code = "newton-diverged"


class PeriodCollision(RatdynError):
    """A refined point collapsed onto a proper-divisor period; the seed is bad."""

    code = "period-collision"


class SpectrumNotRational(RatdynError):
    """Exact spectra are computed over the rationals; the map has Gaussian
    coefficients with nonzero imaginary part somewhere it matters."""

    code = "spectrum-not-rational"
