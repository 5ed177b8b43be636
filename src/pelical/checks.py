"""Value checks shared by the records that validate themselves."""

from __future__ import annotations

import math
import numbers

#: Largest magnitude accepted for a point coordinate or translation (m), an
#: image endpoint or intrinsic (px), a rotation entry, or a rig spec's noise
#: and ranges: far beyond any real rig, and far enough below float64's
#: range that the products computed from them cannot overflow.
MAX_MAGNITUDE = 1e6

#: Most 3D samples in one camera's view of one line: the simulator's
#: ``samples_per_line`` cap and the bound on a ``LineObservation``.  The
#: line fit's memory grows with the sample count.
MAX_SAMPLES = 10_000


def _real(value, name: str, integer: bool = False):
    """``value`` of field ``name``, checked to be a finite real number (an
    integer if asked) and not a bool; raises TypeError or ValueError naming
    the field otherwise."""
    kind = numbers.Integral if integer else numbers.Real
    if isinstance(value, bool) or not isinstance(value, kind):
        noun = "an integer" if integer else "a number"
        raise TypeError(f"{name} must be {noun}, got {value!r}")
    try:
        finite = integer or math.isfinite(value)
    except OverflowError:  # an integer too large for a float
        finite = False
    if not finite:
        raise ValueError(f"{name} must be finite")
    return value
