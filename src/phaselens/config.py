"""Shared numeric defaults."""

# A singular/eigen value counts as zero when <= RANK_RTOL * largest value.
RANK_RTOL = 1e-10

# Least-squares residual threshold (relative) for accepting a sign-pattern
# reconstruction as an exact realizer.
REALIZE_RTOL = 1e-8

# Class-distance threshold (relative) separating y in {x, -x} from a genuine
# collision; well above least-squares noise at the residual threshold.
COLLISION_CLASS_RTOL = 1e-6

# Magnitude residual threshold (relative to the larger norm) above which a
# functional separates two classes.
SEPARATION_RTOL = 1e-9

# Enumeration caps: complement-property subset pairs and sign patterns.
DEFAULT_SUBSET_CAP = 24
DEFAULT_SIGN_CAP = 20

# Convergence diagnostics defaults.
DEFAULT_TOL = 1e-6
DEFAULT_PREFIX = 200
DEFAULT_TRUNCATION = 50

SCHEMA_VERSION = "1"

