"""Empirical convergence diagnostics on the quotient space.

Three notions of convergence are probed over a finite prefix of a sequence:

* initial-topology convergence: every magnitude functional of the frame
  converges;
* weak-type convergence: |<x_k, y>| converges for every test vector y in a
  witness set;
* metric convergence: the sup-min metric trace d(x_k^, limit^) tends to zero.

Verdicts are evidence about the examined prefix, never limit proofs: a
divergence verdict requires a witness whose residual gap persists across the
tail of the prefix, and an unbounded verdict requires strict growth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from . import config
from .certify import FailingSubset, Verdict, _split_pair, certify_phase_retrieval
from .errors import IncompatibleVector
from .frames import (
    ExplicitFrame,
    Frame,
    PairwiseSumFrame,
    _require_spanning,
    coefficient_rows,
)
from .io import vector_to_json
from .metrics import _realize
from .vectors import (
    DenseVector,
    FiniteSupportVector,
    ReciprocalVector,
    VectorRep,
    _BLOCK_ENTRIES,
    _dense_dtype,
    _is_block,
    as_rep,
    pairings,
)


class ConvergenceVerdict(str, Enum):
    CONSISTENT = "consistent_with_convergence"
    DIVERGENCE = "divergence_witnessed"
    UNBOUNDED = "unbounded"


# ---------------------------------------------------------------------------
# sequence specifications
#
# A sequence has a length and a 1-based point(k).  One whose points are dense
# also has head(p): its first p points as one (p, n) block, row k - 1 bitwise
# equal to point(k).
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ExplicitList:
    """The given points: a tuple of vectors, or a (P, n) array of P dense
    vectors, one per row.  Two lists are equal only when they are the same
    object, as vectors compare by identity."""

    points: Union[Tuple[VectorRep, ...], np.ndarray]

    def __post_init__(self):
        if isinstance(self.points, np.ndarray):
            if not _is_block(self.points) or self.points.shape[1] == 0:
                raise IncompatibleVector("a point block must be a (P, n) array with n >= 1")
            object.__setattr__(self, "points", self.points.astype(_dense_dtype(self.points), copy=False))
        if len(self.points) < 2:
            raise IncompatibleVector("sequence needs at least 2 points")

    @property
    def length(self) -> int:
        return len(self.points)

    def point(self, k: int) -> VectorRep:
        if isinstance(self.points, np.ndarray):
            return DenseVector(self.points[k - 1])
        return self.points[k - 1]

    def head(self, p: int):
        if isinstance(self.points, np.ndarray):
            return self.points[:p]
        return [as_rep(x) for x in self.points[:p]]


@dataclass(frozen=True)
class ScaledBasis:
    """x_k = k^power e_k in the sequence space; power=1 gives k e_k, power=0
    the unit basis sequence."""

    length: int
    power: float = 1.0

    def __post_init__(self):
        if self.length < 2:
            raise IncompatibleVector("sequence range must be >= 2")
        with np.errstate(over="ignore"):  # the largest entry, at k = length for a positive power
            top = np.float64(self.length) ** self.power
        if not np.isfinite(top):
            raise IncompatibleVector(f"length ** power = {self.length} ** {self.power} is not finite")

    def point(self, k: int) -> VectorRep:
        return FiniteSupportVector([(k, float(k) ** self.power)])


@dataclass(frozen=True)
class AlternatingSign:
    """x_k = ((-1)^k, (-1)^{k+1}) in R^2; all points are class-equal."""

    length: int

    def __post_init__(self):
        if self.length < 2:
            raise IncompatibleVector("sequence range must be >= 2")

    def point(self, k: int) -> VectorRep:
        s = -1.0 if k % 2 else 1.0
        return DenseVector([s, -s])

    def head(self, p: int) -> np.ndarray:
        s = np.where(np.arange(1, p + 1) % 2, -1.0, 1.0)
        return np.stack([s, -s], axis=1)


@dataclass(frozen=True)
class PerturbedLimit:
    """x_k = limit + k^(-rate) * direction, for a dense limit and direction of
    one dimension."""

    limit: VectorRep
    direction: VectorRep
    length: int
    rate: float = 1.0

    def __post_init__(self):
        if self.length < 2:
            raise IncompatibleVector("sequence range must be >= 2")
        if self.rate <= 0:
            raise IncompatibleVector("decay rate must be positive")
        lim, d = as_rep(self.limit), as_rep(self.direction)
        if not isinstance(lim, DenseVector) or not isinstance(d, DenseVector):
            raise IncompatibleVector("perturbed-limit sequences need dense vectors")
        if lim.dim != d.dim:
            raise IncompatibleVector(f"limit dim {lim.dim} vs direction dim {d.dim}")

    def point(self, k: int) -> VectorRep:
        lim, d = as_rep(self.limit), as_rep(self.direction)
        return DenseVector(lim.coords + float(k) ** (-self.rate) * d.coords)

    def head(self, p: int) -> np.ndarray:
        # each row takes the same scalar k^(-rate) as point(k)
        weights = np.array([float(k) ** (-self.rate) for k in range(1, p + 1)])
        return as_rep(self.limit).coords + weights[:, None] * as_rep(self.direction).coords


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConvergenceReport:
    topology: str
    verdict: ConvergenceVerdict
    residual_traces: np.ndarray  # (witness count, prefix length)
    witness: Optional[object] = None  # functional index / test vector / None
    witness_gap: Optional[float] = None
    truncation: Optional[int] = None
    parameters: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        traces = np.asarray(self.residual_traces, dtype=float)
        step = max(1, -(-traces.shape[1] // 512))  # at most 512 points per trace
        if isinstance(self.witness, (DenseVector, FiniteSupportVector, ReciprocalVector)):
            wit = vector_to_json(self.witness)
        else:
            wit = self.witness
        return {
            "schema_version": config.SCHEMA_VERSION,
            "topology": self.topology,
            "verdict": self.verdict.value,
            "claim_scope": "finite_prefix_only",
            "witness": wit,
            "witness_gap": self.witness_gap,
            "residual_trace": traces[:, ::step].tolist() if traces.size else [],
            "truncation": self.truncation,
            "parameters": dict(self.parameters),
        }


def _tail(values: np.ndarray) -> np.ndarray:
    """Last quartile of a trace."""
    k = values.shape[-1]
    return values[..., (3 * k) // 4:]


def _first_gap(traces: np.ndarray, tol: float) -> Optional[Tuple[int, float]]:
    """(row, gap) of the first row whose gap holds at every tail index, or None.

    A residual that merely spikes (tail minimum below tol) or decays (tail
    stuck far below the overall peak) is consistent with convergence over the
    examined prefix.  A NaN row counts as a gap.
    """
    gaps = np.min(_tail(traces), axis=1)
    peaks = np.max(traces, axis=1)
    hits = np.flatnonzero(~(gaps < tol) & ~(gaps < 0.5 * peaks))
    return (int(hits[0]), float(gaps[hits[0]])) if hits.size else None


def _residuals(values: np.ndarray, limit: np.ndarray) -> np.ndarray:
    """(functionals, P) residuals | |v_k| - |l| | of rows v_1..v_P against
    the limit's row l: the residual rule of every trace."""
    mags = np.abs(values)
    mags -= np.abs(limit)
    return np.abs(mags, out=mags).T


def _expand(seq, prefix: int, limit):
    """The limit, then the first prefix points of seq: one (prefix + 1, n)
    block when the limit and the points are dense of one dimension, a list of
    vectors otherwise."""
    if prefix < 2 or prefix > seq.length:
        raise IncompatibleVector(f"prefix {prefix} out of range 2..{seq.length}")
    limit = as_rep(limit)
    if not hasattr(seq, "head"):
        return [limit] + [as_rep(seq.point(k)) for k in range(1, prefix + 1)]
    points = seq.head(prefix)
    if not _is_block(points):
        return [limit, *points]
    if isinstance(limit, DenseVector) and limit.dim == points.shape[1]:
        return np.vstack([limit.coords, points])
    return [limit, *(DenseVector(p) for p in points)]


def converge_tau_phi(
    frame: Frame,
    seq,
    limit,
    prefix: int = config.DEFAULT_PREFIX,
    tol: float = config.DEFAULT_TOL,
) -> ConvergenceReport:
    """Per-functional residuals | |<x_k,phi_i>| - |<limit,phi_i>| |.

    Divergence requires a functional whose residual gap persists across the
    whole tail quartile; the smallest such index is reported.
    """
    prefix = min(prefix, seq.length)
    rows = coefficient_rows(frame, _expand(seq, prefix, limit))
    traces = _residuals(rows[1:], rows[0])
    verdict, witness, gap = ConvergenceVerdict.CONSISTENT, None, None
    hit = _first_gap(traces, tol)
    if hit is not None:
        verdict, witness, gap = ConvergenceVerdict.DIVERGENCE, hit[0] + 1, hit[1]
    return ConvergenceReport(
        topology="tau_phi",
        verdict=verdict,
        residual_traces=traces,
        witness=witness,
        witness_gap=gap,
        truncation=frame.truncation if isinstance(frame, PairwiseSumFrame) else None,
        parameters={"prefix": prefix, "tol": tol},
    )


def _dense_witnesses(dim: int, seed: int, count_random: int) -> np.ndarray:
    """The dense witnesses of ``default_tau_w_witnesses`` as one (W, dim)
    block: the basis, then random unit vectors, each normalized with its own
    1-D norm (a row-wise norm of the block rounds differently)."""
    rng = np.random.default_rng(seed)
    rand = rng.standard_normal((count_random, dim))
    for v in rand:
        v /= np.linalg.norm(v)
    return np.vstack([np.eye(dim), rand])


def default_tau_w_witnesses(
    dim: Optional[int] = None,
    truncation: Optional[int] = None,
    seed: int = 0,
    count_random: int = 32,
) -> List[VectorRep]:
    """Standard test-vector set: basis prefix, random unit vectors, and the
    reciprocal sequence when the ambient space is the sequence space."""
    if dim is not None:
        return [DenseVector(row) for row in _dense_witnesses(dim, seed, count_random)]
    rng = np.random.default_rng(seed)
    witnesses: List[VectorRep] = []
    n = truncation or config.DEFAULT_TRUNCATION
    for k in range(1, min(n, 16) + 1):
        witnesses.append(FiniteSupportVector([(k, 1.0)]))
    for _ in range(count_random):
        support = rng.choice(n, size=min(4, n), replace=False) + 1
        vals = rng.standard_normal(support.size)
        vals /= np.linalg.norm(vals)
        witnesses.append(FiniteSupportVector(list(zip(support.tolist(), vals))))
    witnesses.append(ReciprocalVector())
    return witnesses


def converge_tau_w(
    seq,
    limit,
    witnesses: Union[Sequence[VectorRep], np.ndarray],
    prefix: int = config.DEFAULT_PREFIX,
    tol: float = config.DEFAULT_TOL,
) -> ConvergenceReport:
    """Residuals | |<x_k,y>| - |<limit,y>| | over the witness vectors.

    The first witness (in list order) holding a persistent tail gap is
    reported, so user-supplied witnesses should come first.  The witnesses
    are vectors, or a (W, n) array of W dense ones, one per row.  All
    pairings come from one ``pairings`` product, for every vector type; a
    pairing is exact when the pair shares at most one nonzero index.
    """
    if not len(witnesses):
        raise IncompatibleVector("witness list must be nonempty")
    prefix = min(prefix, seq.length)
    if not _is_block(witnesses):
        witnesses = [as_rep(w) for w in witnesses]
    # the limit rides in the same product as the points so that its overlaps
    # round exactly like theirs
    rows = pairings(_expand(seq, prefix, limit), witnesses)
    traces = _residuals(rows[1:], rows[0])
    verdict, witness, gap = ConvergenceVerdict.CONSISTENT, None, None
    hit = _first_gap(traces, tol)
    if hit is not None:
        witness = witnesses[hit[0]]
        witness = DenseVector(witness) if _is_block(witnesses) else witness
        verdict, gap = ConvergenceVerdict.DIVERGENCE, hit[1]
    return ConvergenceReport(
        topology="tau_w",
        verdict=verdict,
        residual_traces=traces,
        witness=witness,
        witness_gap=gap,
        parameters={"prefix": prefix, "tol": tol, "witness_count": len(witnesses)},
    )


def converge_d_phi(
    frame: Frame,
    seq,
    limit,
    prefix: int = config.DEFAULT_PREFIX,
    tol: float = config.DEFAULT_TOL,
) -> ConvergenceReport:
    """Trace of d(x_k^, limit^) under the frame's sup-min metric.

    Unbounded: the tail quartile is strictly increasing and exceeds 1e6*tol.
    Otherwise a persistent tail gap witnesses divergence.
    """
    prefix = min(prefix, seq.length)
    points = _expand(seq, prefix, limit)
    # a coefficient row does not depend on the rows beside it, so the column
    # max runs in blocks of points and no second (m, P) array is held
    limit_row = coefficient_rows(frame, points[:1])[0]
    step = max(1, _BLOCK_ENTRIES // frame.m)
    trace = np.concatenate([
        np.max(_residuals(coefficient_rows(frame, points[s:s + step]), limit_row), axis=0)
        for s in range(1, len(points), step)
    ])
    tail = _tail(trace)
    verdict, gap = ConvergenceVerdict.CONSISTENT, None
    if tail.size >= 2 and np.all(np.diff(tail) > 0) and float(tail[-1]) > 1e6 * tol:
        verdict = ConvergenceVerdict.UNBOUNDED
        gap = float(tail[-1])
    else:
        hit = _first_gap(trace[None, :], tol)
        if hit is not None:
            verdict, gap = ConvergenceVerdict.DIVERGENCE, hit[1]
    return ConvergenceReport(
        topology="d_phi",
        verdict=verdict,
        residual_traces=trace[None, :],
        witness="metric_trace" if verdict != ConvergenceVerdict.CONSISTENT else None,
        witness_gap=gap,
        truncation=frame.truncation if isinstance(frame, PairwiseSumFrame) else None,
        parameters={"prefix": prefix, "tol": tol},
    )


def separation_witness(frame: Frame, x, y) -> Optional[int]:
    """Smallest functional index whose magnitudes separate x^ from y^.

    None means the frame cannot tell the classes apart; for a certified
    phase-retrieval frame that implies class equality.
    """
    x, y = as_rep(x), as_rep(y)
    ax, ay = np.abs(coefficient_rows(frame, [x, y]))
    res = np.abs(ax - ay)
    threshold = config.SEPARATION_RTOL * max(x.norm(), y.norm())
    hits = np.flatnonzero(res > threshold)
    return int(hits[0]) + 1 if hits.size else None


@dataclass(frozen=True)
class CoincidenceReport:
    """Outcome of the initial-vs-weak topology agreement suite."""

    pr_certified: bool
    trials: int
    mismatches: int
    exemplars: Tuple[dict, ...]
    parameters: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "schema_version": config.SCHEMA_VERSION,
            "pr_certified": self.pr_certified,
            "trials": self.trials,
            "mismatches": self.mismatches,
            "claim_scope": "finite_prefix_only",
            "exemplars": list(self.exemplars),
            "parameters": dict(self.parameters),
        }


def finite_dim_coincidence_suite(
    frame: ExplicitFrame,
    trials: int = 100,
    prefix: int = config.DEFAULT_PREFIX,
    tol: float = config.DEFAULT_TOL,
    seed: int = 0,
) -> CoincidenceReport:
    """Probe whether initial-topology and weak-type verdicts agree.

    For a certified phase-retrieval real frame, random magnitude-realized
    sequences must agree on every trial.  For a non-PR frame a mismatch
    exemplar is constructed from the certificate's colliding pair, or from the
    pair of its failing split: the sequence of sign-flipped representatives
    of one class converges to the other class in the initial topology but
    visibly not in the weak sense.
    """
    if frame.field != "real":
        raise IncompatibleVector("coincidence suite requires a real frame")
    _require_spanning(frame)
    cert = certify_phase_retrieval(frame, seed=seed)
    rng = np.random.default_rng(seed)
    n = frame.dim
    mismatches = 0
    exemplars: List[dict] = []

    if cert.verdict == Verdict.PHASE_RETRIEVAL:
        # every trial's draws first, so that one realizer call takes every
        # target of the suite; the realizer draws nothing, so the stream is kept
        xs, ds = np.empty((trials, n)), np.empty((trials, n))
        for x, d in zip(xs, ds):
            x[:] = rng.standard_normal(n)
            x /= np.linalg.norm(x)
            d[:] = rng.standard_normal(n)
            d *= 0.5 / np.linalg.norm(d)
        steps = np.arange(1, prefix + 1)[:, None]
        patterns = np.abs((xs[:, None] + ds[:, None] / steps) @ frame.matrix.T)
        points, found = _realize(frame, patterns.reshape(-1, frame.m))
        if not found.all():
            raise IncompatibleVector("a magnitude pattern of the suite has no realizer")
        for t, x in enumerate(xs):
            seq = ExplicitList(points[t * prefix:(t + 1) * prefix])
            rp = converge_tau_phi(frame, seq, x, prefix, tol)
            witnesses = np.vstack([x, seq.points[0], _dense_witnesses(n, seed + t, 8)])
            rw = converge_tau_w(seq, x, witnesses, prefix, tol)
            if rp.verdict != rw.verdict:
                mismatches += 1
                exemplars.append(
                    {"trial": t, "tau_phi": rp.verdict.value, "tau_w": rw.verdict.value}
                )
    else:
        pair = cert.witness
        if isinstance(pair, FailingSubset):
            pair = _split_pair(frame, np.isin(np.arange(1, frame.m + 1), pair.indices))
        if pair is not None:
            u, v = as_rep(pair.x).coords, as_rep(pair.y).coords
            signs = np.where(np.arange(1, prefix + 1) % 2, -1.0, 1.0)  # (-1)^k
            seq = ExplicitList(signs[:, None] * u)
            rp = converge_tau_phi(frame, seq, v, prefix, tol)
            witnesses = np.vstack([u, v, _dense_witnesses(n, seed, 8)])
            rw = converge_tau_w(seq, v, witnesses, prefix, tol)
            if rp.verdict != rw.verdict:
                mismatches += 1
                exemplars.append(
                    {
                        "trial": "colliding_pair",
                        "tau_phi": rp.verdict.value,
                        "tau_w": rw.verdict.value,
                    }
                )

    return CoincidenceReport(
        pr_certified=cert.verdict == Verdict.PHASE_RETRIEVAL,
        trials=trials,
        mismatches=mismatches,
        exemplars=tuple(exemplars),
        parameters={"prefix": prefix, "tol": tol, "seed": seed},
    )
