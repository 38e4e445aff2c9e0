"""Phase-retrieval certification: spark, complement property, falsifier.

A real frame does phase retrieval iff, for every split of the index set, one
side spans (the complement property).  Two independent routes decide it:

* ``complement_property`` rank-checks the sides of the splits, a block of
  them per stacked SVD of the gathered rows (``_subset_rank``, shared with
  spark); a side of fewer than n vectors is deficient by counting and is not
  ranked, and a screen of the n-subsets (below) rules out most of the rest;
* ``falsify_by_sign_enumeration`` tries every sign split and builds a
  colliding pair from the null spaces of its two sides (``_split_pair``),
  verified directly through the magnitude map.  It draws no random numbers.

The screen (``_weak_subsets``) makes one blocked pass over the n-subsets T of
the unit rows and calls T weak iff sigma_n(Phi_T) <= 2 RANK_RTOL sqrt(m).  It
takes |det Phi_T| and confirms by SVD only the T whose det is small:

* sigma_n(Phi_T) >= |det Phi_T| / n^((n-1)/2), because sigma_1(Phi_T) <= sqrt(n);
* a side S holding T has sigma_n(Phi_S) >= sigma_n(Phi_T) and
  sigma_1(Phi_S) <= sqrt(m), so a T that is not weak makes every side holding
  it span under ``_numerical_rank``, with a 2x margin for rounding;
* so, with U the union of the weak n-subsets, a side of n or more rows with
  an index outside U spans, and only sides inside U are ranked;
* with m >= 2n-1 one side of a failing split has n or more rows and lies
  inside U, while the other holds every index outside U in fewer than n
  rows; so if n or more indices lie outside U (U empty, say) the property
  holds and no split is walked.

``is_full_spark`` takes the same screen: the frame has full spark iff every
weak n-subset ranks n.  So does ``spark`` when m >= n: a k-subset S (k <= n)
with an index i outside U lies in an n-subset T that holds i, and T is not
weak; by interlacing sigma_k(Phi_S) >= sigma_n(Phi_T) > 2 RANK_RTOL sqrt(m),
which is at least 2 RANK_RTOL sigma_1(Phi_S), so S ranks k.  Only subsets
inside U are ranked, in lexicographic order, so the witness is the same.

``certify_phase_retrieval`` refutes a real frame with m < 2n-1 by counting:
the split {1..k}, k = max(1, min(n, m) - 1), leaves fewer than n vectors on
each side.  ``_split_pair`` alone builds colliding pairs; the coincidence
suite takes its pair from the certificate.  A complex frame is refuted only
by a failing subset, and is inconclusive otherwise.  A negative verdict
always carries a machine-checkable witness: a failing subset (both spans
deficient) or a colliding pair (equal magnitude patterns, distinct classes).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
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
    coefficient_rows,
)
from .metrics import bures_distance_arrays, sign_patterns
from .vectors import _BLOCK_ENTRIES, DenseVector, VectorRep


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


def _subset_rank(unit: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Ranks of the rows of ``unit`` picked by each row of a (B, k) index
    block, by one stacked SVD of the gathered (B, k, n) rows."""
    return _numerical_rank(np.linalg.svd(unit[idx], compute_uv=False))


def _subset_blocks(m: int, n: int, k: int, free=None, fixed=()):
    """The size-k subsets of range(m) that hold every index in ``fixed`` and
    draw the rest from the ascending ``free`` (default: all of range(m)),
    in lexicographic order, as (B, k) blocks of ascending indices with
    B * m * n capped by ``_BLOCK_ENTRIES``, so that a stack of B frames stays
    small.  Sets sharing ``fixed`` compare as their parts drawn from ``free``,
    so combining the two keeps the order."""
    r = k - len(fixed)
    combos = itertools.combinations(range(m) if free is None else free, r)
    while chunk := list(itertools.islice(combos, max(1, _BLOCK_ENTRIES // (m * n)))):
        idx = np.fromiter(itertools.chain.from_iterable(chunk), np.intp, len(chunk) * r)
        idx = idx.reshape(len(chunk), r)
        if len(fixed):
            idx = np.sort(np.hstack([np.tile(fixed, (len(chunk), 1)), idx]), axis=1)
        yield idx


def _weak_subsets(unit: np.ndarray):
    """The weak n-subsets T of the m unit rows, sigma_n(Phi_T) <= 2 RANK_RTOL
    sqrt(m), in lexicographic order, as (index block, singular values) pairs.

    One pass over the n-subsets takes |det Phi_T| a block at a time; since
    sigma_1(Phi_T) <= sqrt(n), sigma_n(Phi_T) >= |det Phi_T| / n^((n-1)/2), so
    only a T whose det is that small can be weak, and an SVD confirms those."""
    m, n = unit.shape
    bound = 2 * config.RANK_RTOL * math.sqrt(m)
    for idx in _subset_blocks(m, n, n):
        stack = unit[idx]
        small = np.abs(np.linalg.det(stack)) <= bound * n ** ((n - 1) / 2)
        if small.any():
            sv = np.linalg.svd(stack[small], compute_uv=False)
            weak = sv[:, -1] <= bound
            yield idx[small][weak], sv[weak]


def _weak_union(unit: np.ndarray) -> np.ndarray:
    """U, the union of the weak n-subsets, as a boolean mask over the rows."""
    inside = np.zeros(unit.shape[0], dtype=bool)
    for idx, _ in _weak_subsets(unit):
        inside[idx] = True
    return inside


def _first_dependent(unit: np.ndarray, top: int, free=None) -> Optional[Tuple[int, ...]]:
    """First linearly dependent row subset of size at most ``top`` drawn
    from ``free`` (default: every row), by size and lexicographically within
    a size; None when all are independent."""
    m, n = unit.shape
    for k in range(1, top + 1):
        for idx in _subset_blocks(m, n, k, free):
            hits = idx[_subset_rank(unit, idx) < k]
            if len(hits):
                return tuple((hits[0] + 1).tolist())
    return None


def spark(frame: ExplicitFrame) -> SparkResult:
    """Size of the smallest linearly dependent column subset.

    Subsets are scanned by increasing size, lexicographically within a size,
    so the witness is deterministic; with m >= n only subsets inside U are
    ranked (see the module docstring).  Full spark surfaces as spark = n + 1
    (possible only when m >= n + 1); for m <= n with full rank the result is
    the all-independent marker.
    """
    m, n = frame.m, frame.dim
    unit = _unit_rows(frame.matrix)
    free = np.flatnonzero(_weak_union(unit)) if m >= n else None
    combo = _first_dependent(unit, min(m, n), free)
    if combo is not None:
        return SparkResult(spark=len(combo), witness=combo)
    if m <= n:
        return SparkResult(spark=None, witness=None)
    # every subset of size <= n is independent, so any n+1 columns form a
    # minimal dependent set; {1, ..., n+1} is the lexicographically smallest
    return SparkResult(spark=n + 1, witness=tuple(range(1, n + 2)))


def is_full_spark(frame: ExplicitFrame) -> bool:
    """True iff every n columns are linearly independent (requires m >= n).

    A T that is not weak has rank n, so only the weak n-subsets are ranked."""
    m, n = frame.m, frame.dim
    if m < n:
        raise IncompatibleVector(f"full spark needs m >= n, got m={m}, n={n}")
    weak = _weak_subsets(_unit_rows(frame.matrix))
    return all((_numerical_rank(sv) == n).all() for _, sv in weak)


def _failing_subset(frame: ExplicitFrame, subset_cap: int) -> Optional[FailingSubset]:
    """First sigma holding index 1, by size then lexicographically, such that
    neither sigma nor its complement spans; None if the property holds.

    Only candidates are built: a deficient side of n or more rows lies
    inside U, the union of the weak n-subsets (see the module docstring), so
    such a sigma draws from U, and such a complement leaves sigma every
    index outside U."""
    m, n = frame.m, frame.dim
    if m > subset_cap:
        raise EnumerationCapExceeded(f"m={m} exceeds subset cap {subset_cap}")
    unit = _unit_rows(frame.matrix)
    inside = _weak_union(unit)
    if m >= 2 * n - 1 and m - np.count_nonzero(inside) >= n:
        return None
    for k in range(1, m + 1):
        fixed = ~inside if m - k >= n else np.zeros(m, dtype=bool)
        fixed[0] = True
        pool = inside if k >= n else np.ones(m, dtype=bool)
        if (fixed & ~pool).any() or np.count_nonzero(fixed) > k:
            continue  # no size-k sigma holds ``fixed`` and stays in ``pool``
        for sigma in _subset_blocks(m, n, k, np.flatnonzero(pool & ~fixed), np.flatnonzero(fixed)):
            # fewer than n rows are deficient by counting; rank only the rest
            if k >= n:
                sigma = sigma[_subset_rank(unit, sigma) < n]
            if m - k >= n and len(sigma):
                rest = np.ones((len(sigma), m), dtype=bool)
                rest[np.arange(len(sigma))[:, None], sigma] = False
                sigma = sigma[_subset_rank(unit, np.nonzero(rest)[1].reshape(len(sigma), -1)) < n]
            if len(sigma):
                return FailingSubset(tuple((sigma[0] + 1).tolist()))
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
    ax, ay = np.abs(coefficient_rows(frame, [x, y]))
    scale = float(np.linalg.norm(ax))
    if scale == 0.0:
        return False
    if float(np.max(np.abs(ax - ay))) > config.REALIZE_RTOL * scale:
        return False
    xd, yd = frame.coerce(x), frame.coerce(y)
    return bures_distance_arrays(xd, yd) > config.COLLISION_CLASS_RTOL * np.linalg.norm(xd)


def _null_vector(rows: np.ndarray):
    """A unit vector orthogonal to all given rows, or None if they span."""
    _, sv, vh = np.linalg.svd(rows, full_matrices=True)
    rank = _numerical_rank(sv)
    if rank >= rows.shape[1]:
        return None
    return vh[rank].conj()


def _split_pair(frame: ExplicitFrame, plus: np.ndarray) -> Optional[CollidingPair]:
    """Colliding pair of the split of the frame vectors by the boolean mask
    ``plus``, or None when a side spans or the pair fails the check.

    x = u + w and y = u - w, with u orthogonal to the rows outside the mask
    and w to the rows inside, have equal magnitude patterns; the pair is
    checked through the magnitude map before it is returned.  On a spanning
    frame a split with two deficient sides always gives a pair.
    """
    unit = _unit_rows(frame.matrix)
    u = _null_vector(unit[~plus])
    if u is None:
        return None
    w = _null_vector(unit[plus])
    if w is None:
        return None
    xv, yv = DenseVector(u + w), DenseVector(u - w)
    return CollidingPair(xv, yv) if _is_collision(frame, xv, yv) else None


def falsify_by_sign_enumeration(frame: ExplicitFrame) -> Optional[CollidingPair]:
    """Construct a colliding pair of a real frame, or return None.

    Each sign pattern with the first sign +1 splits the index set, and
    ``_split_pair`` is tried on the splits in ``sign_patterns`` order.  A real
    frame fails the complement property exactly when some split has two
    deficient sides, so for a spanning frame None means phase retrieval.
    Deterministic: no sampling.
    """
    if frame.field != REAL:
        raise FieldError("sign-enumeration falsifier requires a real frame")
    if frame.m > config.DEFAULT_SIGN_CAP:
        raise EnumerationCapExceeded(f"m={frame.m} exceeds sign cap {config.DEFAULT_SIGN_CAP}")
    for row in sign_patterns(frame.m)[1:]:  # row 0 is all +1; every other row has both signs
        pair = _split_pair(frame, row > 0)
        if pair is not None:
            return pair
    return None


def certify_phase_retrieval(
    frame: ExplicitFrame,
    subset_cap: int = config.DEFAULT_SUBSET_CAP,
    seed: int = 0,
) -> Certificate:
    """Full certification pipeline.

    Real field with m < 2n-1: no search runs.  The split sigma = {1..k},
    k = max(1, min(n, m) - 1), has two deficient sides by counting; the
    witness is its ``_split_pair``, or sigma itself on a frame that does not
    span and gives no pair.  Every other frame is decided by
    ``complement_property`` (Inconclusive on a complex frame that passes).
    Certification draws no random numbers; ``seed`` is only recorded in the
    certificate's parameters.
    """
    params = {"tolerance": config.RANK_RTOL, "subset_cap": subset_cap, "seed": seed}
    m, n = frame.m, frame.dim
    if frame.field != REAL or m >= 2 * n - 1:
        return replace(complement_property(frame, subset_cap), parameters=params)
    k = max(1, min(n, m) - 1)
    # a single vector leaves no second side to split off
    pair = _split_pair(frame, np.arange(m) < k) if m > 1 else None
    if pair is not None:
        method, witness = Method.NECESSARY_CONDITION_ONLY, pair
    else:
        method, witness = Method.COMPLEMENT_PROPERTY, FailingSubset(tuple(range(1, k + 1)))
    fp = io.frame_fingerprint(frame)
    return Certificate(Verdict.NOT_PHASE_RETRIEVAL, method, fp, witness, params)


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
