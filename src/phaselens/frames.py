"""Frames, the frame operator, frame bounds, duals, and the magnitude map.

An ``ExplicitFrame`` stores m vectors of an n-dimensional space as the rows of
its synthesis matrix (transposed convention: ``matrix[i]`` is phi_i).  A
``PairwiseSumFrame`` is the structured family {e_i + e_j}_{i<j} on the sequence
space, truncated at a stated index N; truncation is exact for vectors that
are zero from index N on, because every functional e_i + e_j with j > N then
repeats |x_i| = |<x, e_i + e_N>|.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Tuple, Union

import numpy as np

from . import config
from .errors import DimensionMismatch, FieldError, IncompatibleVector, NotAFrameError
from .vectors import (
    DenseVector,
    FiniteSupportVector,
    ReciprocalVector,
    VectorRep,
    _dense_dtype,
    _is_block,
    _rows,
    as_rep,
)

REAL = "real"
COMPLEX = "complex"


class ExplicitFrame:
    """A finite family of dense vectors sharing a field and dimension."""

    def __init__(self, vectors, field: str = None):
        rows = []
        for v in vectors:
            v = as_rep(v)
            if isinstance(v, FiniteSupportVector):
                raise IncompatibleVector("explicit frame vectors must be dense")
            rows.append(np.asarray(v.coords))
        if not rows:
            raise IncompatibleVector("a frame needs at least one vector")
        dims = {r.shape[0] for r in rows}
        if len(dims) != 1:
            raise DimensionMismatch(f"frame vectors with mixed dimensions: {sorted(dims)}")
        mat = np.vstack(rows)
        any_complex = np.iscomplexobj(mat)
        if field is None:
            field = COMPLEX if any_complex else REAL
        if field not in (REAL, COMPLEX):
            raise FieldError(f"unknown field {field!r}")
        if field == REAL:
            if any_complex and np.max(np.abs(mat.imag)) != 0.0:
                raise FieldError("real frame with nonzero imaginary parts")
            self.matrix = np.real(mat).astype(np.float64)
        else:
            self.matrix = mat.astype(np.complex128)
        self.field = field

    @property
    def m(self) -> int:
        return self.matrix.shape[0]

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def vector(self, j: int) -> DenseVector:
        """1-based access to phi_j."""
        return DenseVector(self.matrix[j - 1])

    def coerce(self, x) -> np.ndarray:
        """Coordinates of x in this frame's space; real on a real frame.  A
        (P, n) block of P dense vectors gives their P rows."""
        if _is_block(x):
            extent, coords = x.shape[1], x.astype(_dense_dtype(x), copy=False)
        elif isinstance(x := as_rep(x), ReciprocalVector):
            raise IncompatibleVector("reciprocal vector does not live in a finite-dimensional space")
        elif isinstance(x, DenseVector):
            extent, coords = x.dim, x.coords
        else:
            extent = max(x.max_support, self.dim)
            coords = _rows([x], np.arange(1, self.dim + 1))[0]
        if extent != self.dim:
            raise DimensionMismatch(f"vector extent {extent} vs frame dim {self.dim}")
        if self.field == REAL and np.iscomplexobj(coords):
            if np.any(coords.imag):
                raise FieldError("complex vector against a real frame")
            coords = coords.real
        return coords

    def __repr__(self):
        return f"ExplicitFrame(m={self.m}, dim={self.dim}, field={self.field!r})"


class PairwiseSumFrame:
    """{e_i + e_j}_{i<j<=N} on the sequence space, lexicographic (i, j) order."""

    def __init__(self, truncation: int):
        if truncation < 2:
            raise IncompatibleVector("pairwise-sum truncation must be >= 2")
        self.truncation = int(truncation)
        self.field = REAL
        # 0-based (i, j) of every functional, in index order
        self._i, self._j = np.triu_indices(self.truncation, k=1)

    @property
    def m(self) -> int:
        return self._i.size

    def pairs(self) -> Iterator[Tuple[int, int]]:
        return zip((self._i + 1).tolist(), (self._j + 1).tolist())

    def pair(self, idx: int) -> Tuple[int, int]:
        """1-based functional index -> its (i, j) pair."""
        if not 1 <= idx <= self.m:  # a bare array index would wrap idx <= 0
            raise IndexError(idx)
        return int(self._i[idx - 1]) + 1, int(self._j[idx - 1]) + 1

    def check_exact(self, x: VectorRep) -> bool:
        """True when x is zero from index N on, so the truncation is exact."""
        x = as_rep(x)
        if isinstance(x, FiniteSupportVector):
            return x.max_support < self.truncation
        if isinstance(x, DenseVector):
            return not np.any(x.coords[self.truncation - 1:])
        return False  # reciprocal has an infinite tail

    def __repr__(self):
        return f"PairwiseSumFrame(truncation={self.truncation})"


Frame = Union[ExplicitFrame, PairwiseSumFrame]


@dataclass(frozen=True)
class FrameBounds:
    """Extreme frame-operator eigenvalues: 0 < lower <= upper."""

    lower: float
    upper: float


def coefficient_rows(frame: Frame, xs) -> np.ndarray:
    """Frame coefficients <x, phi_j> of every x in xs, one row per x, indexed
    like the frame.  On an explicit frame the stacked product runs one gemv
    per row, so a row is bitwise the single-vector product.  A (P, n) block
    of dense vectors is taken as it is."""
    if isinstance(frame, ExplicitFrame):
        block = frame.coerce(xs) if _is_block(xs) else np.stack([frame.coerce(x) for x in xs])
        block = np.ascontiguousarray(block)  # the layout np.stack gives, so the same gemv runs
        return np.matmul(frame.matrix.conj()[None], block[:, :, None])[:, :, 0]
    ent = _rows(xs if _is_block(xs) else [as_rep(x) for x in xs], np.arange(1, frame.truncation + 1))
    out = ent[:, frame._i]
    out += ent[:, frame._j]
    return out


def analysis_magnitudes(frame: Frame, x) -> np.ndarray:
    """The magnitude pattern {|<x, phi_i>|}, indexed like the frame."""
    return np.abs(coefficient_rows(frame, [x])[0])


def frame_operator(frame: ExplicitFrame) -> np.ndarray:
    """S = sum_j phi_j phi_j*; Hermitian positive semidefinite."""
    _require_explicit(frame)
    v = frame.matrix
    s = v.T @ v.conj()
    return (s + s.conj().T) / 2.0  # symmetrize away rounding


def frame_bounds(frame: ExplicitFrame) -> FrameBounds:
    """Optimal bounds A = lambda_min(S), B = lambda_max(S).

    Raises NotAFrameError when A is numerically zero against B.
    """
    s = frame_operator(frame)
    eigs = np.linalg.eigvalsh(s)
    lo, hi = float(eigs[0]), float(eigs[-1])
    if hi <= 0.0 or lo <= config.RANK_RTOL * hi:
        raise NotAFrameError(
            f"smallest frame-operator eigenvalue {lo:.3e} is numerically zero"
        )
    return FrameBounds(lower=lo, upper=hi)


def canonical_dual(frame: ExplicitFrame) -> ExplicitFrame:
    """The dual family {S^{-1} phi_j}; reconstruction x = sum <x,phi_j> S^{-1}phi_j."""
    frame_bounds(frame)  # spanning check
    s = frame_operator(frame)
    dual = np.linalg.solve(s, frame.matrix.T).T
    return ExplicitFrame([DenseVector(row) for row in dual], field=frame.field)


def _numerical_rank(sv: np.ndarray):
    """Count of descending singular values above RANK_RTOL times the largest,
    along the last axis: one rank for one matrix, an array for a stack."""
    return np.count_nonzero(sv > config.RANK_RTOL * sv[..., :1], axis=-1)


def _row_scale(matrix: np.ndarray) -> np.ndarray:
    """Row norms, with 1 standing in for a zero row."""
    norms = np.linalg.norm(matrix, axis=1)
    return np.where(norms > 0.0, norms, 1.0)


def _unit_rows(matrix: np.ndarray) -> np.ndarray:
    """Rows scaled to unit norm, zero rows kept zero.  Rank decisions run on
    these, so rescaling a frame vector cannot change a verdict."""
    return matrix / _row_scale(matrix)[:, None]


def _require_spanning(frame: ExplicitFrame) -> None:
    """Raise NotAFrameError unless the frame vectors span, by the rank rule on
    unit rows, so that rescaling a vector cannot change the answer."""
    rank = _numerical_rank(np.linalg.svd(_unit_rows(frame.matrix), compute_uv=False))
    if rank < frame.dim:
        raise NotAFrameError(f"frame vectors span rank {rank} of dimension {frame.dim}")


def _require_explicit(frame):
    if not isinstance(frame, ExplicitFrame):
        raise IncompatibleVector("operation requires an explicit finite frame")
