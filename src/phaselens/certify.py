"""Phase-retrieval certification: spark, complement property, falsifier.

Two independent routes decide the real case:

* ``complement_property`` enumerates index subsets and rank-checks each side;
* ``falsify_by_sign_enumeration`` builds a colliding pair from the null spaces
  of the two sides of a sign split and verifies it directly through the
  magnitude map.  It draws no random numbers.

A complex frame is refuted only by a failing subset; when the complement
property holds, the verdict is inconclusive.

A certificate always carries a machine-checkable witness for a negative
verdict: either a failing subset (both spans deficient) or a colliding pair
(equal magnitude patterns, distinct classes).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Tuple, Union

import numpy as np

from . import config, io
from .errors import (
    EnumerationCapExceeded,
    FieldError,
    IncompatibleVector,
    SingularTransformError,
)
from .frames import (
    COMPLEX,
    REAL,
    ExplicitFrame,
    _numerical_rank,
    _unit_rows,
    analysis_magnitudes,
)
from .metrics import bures_distance_arrays, sign_patterns
from .vectors import DenseVector, VectorRep


class Verdict(str, Enum):
    PHASE_RETRIEVAL = "phase_retrieval"
    NOT_PHASE_RETRIEVAL = "not_phase_retrieval"
    INCONCLUSIVE = "inconclusive"


class Method(str, Enum):
    COMPLEMENT_PROPERTY = "complement_property"
    NECESSARY_CONDITION_ONLY = "necessary_condition_only"


@dataclass(frozen=True)
class FailingSubset:
    """Index set sigma (1-based) with rank(sigma) < n and rank(sigma^c) < n."""

    indices: Tuple[int, ...]


@dataclass(frozen=True)
class CollidingPair:
    """Vectors with entrywise-equal magnitude patterns but distinct classes."""

    x: VectorRep
    y: VectorRep


Witness = Union[FailingSubset, CollidingPair]


@dataclass(frozen=True)
class Certificate:
    verdict: Verdict
    method: Method
    frame_fingerprint: str
    witness: Optional[Witness] = None
    parameters: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        if isinstance(self.witness, FailingSubset):
            wit = {"type": "failing_subset", "indices": list(self.witness.indices)}
        elif isinstance(self.witness, CollidingPair):
            wit = {
                "type": "colliding_pair",
                "x": io.vector_to_json(self.witness.x),
                "y": io.vector_to_json(self.witness.y),
            }
        else:
            wit = None
        return {
            "schema_version": config.SCHEMA_VERSION,
            "verdict": self.verdict.value,
            "method": self.method.value,
            "witness": wit,
            "frame_fingerprint": self.frame_fingerprint,
            "parameters": dict(self.parameters),
        }


@dataclass(frozen=True)
class SparkResult:
    """Smallest dependent-subset size, or None when all columns are independent
    (only possible for m <= n).  The witness, when present, is the
    lexicographically smallest minimal dependent subset (1-based)."""

    spark: Optional[int]
    witness: Optional[Tuple[int, ...]]

    @property
    def all_independent(self) -> bool:
        return self.spark is None


def _subset_rank(unit: np.ndarray, indices) -> int:
    """Rank of the rows of ``unit`` at the 1-based ``indices``."""
    if len(indices) == 0:
        return 0
    sv = np.linalg.svd(unit[[i - 1 for i in indices], :], compute_uv=False)
    return _numerical_rank(sv)


def _first_dependent(frame: ExplicitFrame, sizes) -> Optional[Tuple[int, ...]]:
    """First linearly dependent column subset, by size in the order given and
    lexicographically within a size; None when all are independent."""
    unit = _unit_rows(frame.matrix)
    for k in sizes:
        for combo in itertools.combinations(range(1, frame.m + 1), k):
            if _subset_rank(unit, combo) < k:
                return combo
    return None


def spark(frame: ExplicitFrame) -> SparkResult:
    """Size of the smallest linearly dependent column subset.

    Subsets are scanned by increasing size, lexicographically within a size,
    so the witness is deterministic.  Full spark surfaces as spark = n + 1
    (possible only when m >= n + 1); for m <= n with full rank the result is
    the all-independent marker.
    """
    m, n = frame.m, frame.dim
    combo = _first_dependent(frame, range(1, min(m, n) + 1))
    if combo is not None:
        return SparkResult(spark=len(combo), witness=combo)
    if m <= n:
        return SparkResult(spark=None, witness=None)
    # every subset of size <= n is independent, so any n+1 columns form a
    # minimal dependent set; {1, ..., n+1} is the lexicographically smallest
    return SparkResult(spark=n + 1, witness=tuple(range(1, n + 2)))


def is_full_spark(frame: ExplicitFrame) -> bool:
    """True iff every n columns are linearly independent (requires m >= n)."""
    m, n = frame.m, frame.dim
    if m < n:
        raise IncompatibleVector(f"full spark needs m >= n, got m={m}, n={n}")
    return _first_dependent(frame, (n,)) is None


def _complement_pairs(m: int):
    """Each unordered pair {sigma, sigma^c} exactly once: sigma contains index
    1, visited by increasing size then lexicographic order."""
    rest = range(2, m + 1)
    for size in range(1, m + 1):
        for tail in itertools.combinations(rest, size - 1):
            yield (1,) + tail


def _failing_subset(frame: ExplicitFrame, subset_cap: int) -> Optional[FailingSubset]:
    """First sigma in ``_complement_pairs`` order such that neither sigma nor
    its complement spans, or None when the complement property holds."""
    m, n = frame.m, frame.dim
    if m > subset_cap:
        raise EnumerationCapExceeded(f"m={m} exceeds subset cap {subset_cap}")
    unit = _unit_rows(frame.matrix)
    for sigma in _complement_pairs(m):
        if _subset_rank(unit, sigma) < n:
            comp = tuple(i for i in range(1, m + 1) if i not in sigma)
            if _subset_rank(unit, comp) < n:
                return FailingSubset(sigma)
    return None


def complement_property(
    frame: ExplicitFrame, subset_cap: int = config.DEFAULT_SUBSET_CAP
) -> Certificate:
    """Check that every index subset or its complement spans.

    Real field: the check is exact, verdict PhaseRetrieval / NotPhaseRetrieval.
    Complex field: the property is only necessary, so a holding check yields
    Inconclusive; a failing subset still refutes phase retrieval.
    """
    failing = _failing_subset(frame, subset_cap)
    if failing is not None:
        verdict, method = Verdict.NOT_PHASE_RETRIEVAL, Method.COMPLEMENT_PROPERTY
    elif frame.field == COMPLEX:
        verdict, method = Verdict.INCONCLUSIVE, Method.NECESSARY_CONDITION_ONLY
    else:
        verdict, method = Verdict.PHASE_RETRIEVAL, Method.COMPLEMENT_PROPERTY
    params = {"tolerance": config.RANK_RTOL, "subset_cap": subset_cap}
    return Certificate(verdict, method, io.frame_fingerprint(frame), failing, params)


def _is_collision(frame, x, y) -> bool:
    ax = analysis_magnitudes(frame, x)
    ay = analysis_magnitudes(frame, y)
    scale = float(np.linalg.norm(ax))
    if scale == 0.0:
        return False
    if float(np.max(np.abs(ax - ay))) > config.REALIZE_RTOL * scale:
        return False
    xd, yd = frame.coerce(x), frame.coerce(y)
    return bures_distance_arrays(xd, yd) > config.COLLISION_CLASS_RTOL * np.linalg.norm(xd)


def _sign_collision_search(frame: ExplicitFrame, sign_cap: int) -> Optional[CollidingPair]:
    """First colliding pair built from a sign split, or None.

    Each sign pattern splits the index set; when neither side spans, x = u + w
    and y = u - w, with u orthogonal to the minus side and w to the plus side,
    have equal magnitude patterns.  Patterns run in ``sign_patterns`` order,
    so the pair is deterministic, and each pair is checked through the
    magnitude map before it is returned.
    """
    m = frame.m
    if m > sign_cap:
        raise EnumerationCapExceeded(f"m={m} exceeds sign cap {sign_cap}")
    unit = _unit_rows(frame.matrix)
    for row in sign_patterns(m)[1:]:  # row 0 is all +1; every other row has both signs
        u = _null_vector(unit[row < 0])
        if u is None:
            continue
        w = _null_vector(unit[row > 0])
        if w is None:
            continue
        xv, yv = DenseVector(u + w), DenseVector(u - w)
        if _is_collision(frame, xv, yv):
            return CollidingPair(xv, yv)
    return None


def _null_vector(rows: np.ndarray):
    """A unit vector orthogonal to all given rows, or None if they span."""
    _, sv, vh = np.linalg.svd(rows, full_matrices=True)
    rank = _numerical_rank(sv)
    if rank >= rows.shape[1]:
        return None
    return vh[rank].conj()


def falsify_by_sign_enumeration(
    frame: ExplicitFrame, sign_cap: int = config.DEFAULT_SIGN_CAP
) -> Optional[CollidingPair]:
    """Construct a colliding pair of a real frame, or return None.

    For each split of the index set into two sides (one per sign pattern
    with the first sign +1), a vector orthogonal to each side gives the pair
    x = u + w, y = u - w whenever neither side spans.  A real frame fails the
    complement property exactly when some split has two such sides, so for a
    spanning frame None means phase retrieval.  Deterministic: no sampling.
    """
    if frame.field != REAL:
        raise FieldError("sign-enumeration falsifier requires a real frame")
    return _sign_collision_search(frame, sign_cap)


def certify_phase_retrieval(
    frame: ExplicitFrame,
    subset_cap: int = config.DEFAULT_SUBSET_CAP,
    sign_cap: int = config.DEFAULT_SIGN_CAP,
    seed: int = 0,
) -> Certificate:
    """Full certification pipeline.

    Real field: the count bound m >= 2n-1 is checked first (violations are
    refuted with a constructed colliding pair, or else a failing subset); the
    complement property is the exact decision otherwise.  Complex field: the
    complement property is necessary only, so a failing subset refutes and
    anything else is Inconclusive.  Certification draws no random numbers;
    ``seed`` is only recorded in the certificate's parameters.
    """
    params = {
        "tolerance": config.RANK_RTOL,
        "subset_cap": subset_cap,
        "sign_cap": sign_cap,
        "seed": seed,
    }
    fp = io.frame_fingerprint(frame)

    def done(verdict, method, witness=None):
        return Certificate(verdict, method, fp, witness, params)

    if frame.field == REAL and frame.m < 2 * frame.dim - 1:
        pair = _sign_collision_search(frame, sign_cap)
        if pair is not None:
            return done(Verdict.NOT_PHASE_RETRIEVAL, Method.NECESSARY_CONDITION_ONLY, pair)
        # fall through: complement property must also fail and provides a
        # failing-subset witness
    failing = _failing_subset(frame, subset_cap)
    if failing is not None:
        return done(Verdict.NOT_PHASE_RETRIEVAL, Method.COMPLEMENT_PROPERTY, failing)
    if frame.field == REAL:
        return done(Verdict.PHASE_RETRIEVAL, Method.COMPLEMENT_PROPERTY)
    return done(Verdict.INCONCLUSIVE, Method.NECESSARY_CONDITION_ONLY)


def transform_frame(frame: ExplicitFrame, u) -> ExplicitFrame:
    """{U phi_j} for an invertible operator U; preserves the PR verdict."""
    u = np.asarray(u)
    if u.shape != (frame.dim, frame.dim):
        raise IncompatibleVector(f"operator shape {u.shape} vs dim {frame.dim}")
    if _numerical_rank(np.linalg.svd(u, compute_uv=False)) < frame.dim:
        raise SingularTransformError("operator is singular under the rank tolerance")
    new = frame.matrix @ u.T
    field_tag = frame.field
    if np.iscomplexobj(u):
        field_tag = COMPLEX
    return ExplicitFrame([DenseVector(row) for row in new], field=field_tag)
