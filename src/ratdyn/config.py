"""Runtime defaults: degree caps and tolerances."""

from __future__ import annotations

# Chordal deduplication tolerance (the chordal metric treats Infinity as an
# ordinary point, so one tolerance covers the whole sphere).
DEDUP_TOL = 1e-9

NUMERIC_DEGREE_CAP = 4096
EXACT_DEGREE_CAP = 256

SOLVER_TOL = 1e-12

# Floor for log ||f'|| when a cloud contains (near-)critical points.
LOG_NORM_FLOOR = -600.0
