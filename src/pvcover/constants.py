"""Shared numeric tolerances and the rounding threshold coupling."""

# Absolute slack accepted when checking any single constraint row.
EPS_FEAS = 1e-7

# Accepted deviation from a true optimal objective value.
EPS_OPT = 1e-6

# Vertices whose fractional value reaches the threshold are taken outright by
# the rounding stage and form the suppressed set of the separated cover
# inequality.  The two uses must agree, and the random pick probability is
# scale * x, so scale is the inverse of the threshold (exactly 6.0 in doubles).
ROUNDING_THRESHOLD = 1.0 / 6.0
ROUNDING_SCALE = 1.0 / ROUNDING_THRESHOLD
