"""Exception types shared across the calibration library."""


class CalibrationError(Exception):
    """Base class for every error raised by this package."""


class DegenerateLine(CalibrationError):
    """A 3D line could not be formed (e.g. coincident endpoints)."""


class NearSingularRotation(CalibrationError):
    """Rotation too close to 180 degrees for the CGR parameterization."""


class RankDeficient(CalibrationError):
    """SO(3) projection is not unique for this matrix."""


class WrongKind(CalibrationError):
    """Operation applied to a correspondence of the wrong kind."""


class EmptyInput(CalibrationError):
    """A non-empty collection was required."""


class DegenerateTranslation(CalibrationError):
    """Translation coefficient block is rank deficient (e.g. all lines parallel)."""


class NoRealSolution(CalibrationError):
    """No real root of the quadratic system passed the residual sanity check."""


class ParallelPlanes(CalibrationError):
    """Back-projected endpoint planes do not intersect in a line."""


class InsufficientLines(CalibrationError):
    """Too few usable candidate lines for convergence voting."""


class TooFewSamples(CalibrationError):
    """Not enough 3D samples to fit a line."""


class InfeasibleSpec(CalibrationError):
    """Synthetic rig rejection sampling exceeded its retry budget."""


class IllConditionedPlane(CalibrationError):
    """Point set is too degenerate for a stable plane fit."""


class SchemaError(CalibrationError):
    """An input file does not match the documented schema."""
