"""Vector representations on H and the quotient-space point wrapper.

Three representations are supported:

* ``DenseVector`` -- an explicit coordinate vector in an n-dimensional space.
* ``FiniteSupportVector`` -- a finitely supported sequence-space element,
  stored as (1-based index, value) pairs.
* ``ReciprocalVector`` -- the fixed sequence whose k-th entry is 1/k; it is
  square-summable with squared norm pi^2/6.

A 2-D array of shape (P, n) is accepted wherever a list of vectors is: it
stands for P dense vectors, one per row, and passes through as one block.

Inner products are linear in the first argument and conjugate-linear in the
second.  Every pairing is one product over the indices at which its inputs
can be nonzero (``pairings``); only reciprocal x reciprocal, with its
infinite overlap, is taken in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import DimensionMismatch, IncompatibleVector

BASEL_SUM = math.pi ** 2 / 6.0  # sum of 1/k^2 over k >= 1


def _dense_dtype(arr: np.ndarray):
    """complex128 for complex coordinates, float64 for every other kind."""
    return np.complex128 if np.iscomplexobj(arr) else np.float64


class DenseVector:
    """Coordinate vector in an n-dimensional real or complex space.

    Coordinates are kept verbatim; no normalization on construction.
    """

    __slots__ = ("coords",)

    def __init__(self, coords):
        arr = np.asarray(coords)
        if arr.ndim != 1 or arr.size == 0:
            raise IncompatibleVector("dense vector must be a nonempty 1-d array")
        self.coords = arr.astype(_dense_dtype(arr))

    @property
    def dim(self) -> int:
        return self.coords.shape[0]

    def entry(self, k: int):
        """1-based sequence-space entry; zero beyond the stored dimension."""
        if 1 <= k <= self.dim:
            return self.coords[k - 1]
        return 0.0

    def norm(self) -> float:
        return float(np.linalg.norm(self.coords))

    def __repr__(self):
        return f"DenseVector({self.coords.tolist()!r})"


class FiniteSupportVector:
    """Finitely supported sequence-space element.

    Pairs are normalized on construction: indices sorted strictly increasing,
    exact zeros dropped.
    """

    __slots__ = ("indices", "values")

    def __init__(self, pairs):
        cleaned = {}
        for idx, val in pairs:
            idx = int(idx)
            if idx < 1:
                raise IncompatibleVector("finite-support indices are 1-based positive")
            if val == 0:
                continue
            if idx in cleaned:
                raise IncompatibleVector(f"duplicate index {idx}")
            cleaned[idx] = val
        order = sorted(cleaned)
        self.indices = np.array(order, dtype=np.int64)
        vals = [cleaned[i] for i in order]
        if any(isinstance(v, complex) or np.iscomplexobj(v) for v in vals):
            self.values = np.array(vals, dtype=np.complex128)
        else:
            self.values = np.array(vals, dtype=np.float64)

    @property
    def max_support(self) -> int:
        return int(self.indices[-1]) if self.indices.size else 0

    def entry(self, k: int):
        pos = np.searchsorted(self.indices, k)
        if pos < self.indices.size and self.indices[pos] == k:
            return self.values[pos]
        return 0.0

    def norm(self) -> float:
        return float(np.linalg.norm(self.values))

    def __repr__(self):
        pairs = list(zip(self.indices.tolist(), self.values.tolist()))
        return f"FiniteSupportVector({pairs!r})"


class ReciprocalVector:
    """The sequence {1/k}_{k>=1}; square-summable by construction."""

    __slots__ = ()

    def entry(self, k: int) -> float:
        return 1.0 / k

    def norm(self) -> float:
        return math.sqrt(BASEL_SUM)

    def __repr__(self):
        return "ReciprocalVector()"


VectorRep = Union[DenseVector, FiniteSupportVector, ReciprocalVector]


def zero_vector(dim: int) -> DenseVector:
    return DenseVector(np.zeros(dim))


def basis_vector(k: int, dim: int | None = None, scale=1.0) -> VectorRep:
    """scale * e_k, dense when dim is given, finite-support otherwise."""
    if dim is None:
        return FiniteSupportVector([(k, scale)])
    out = np.zeros(dim, dtype=np.complex128 if np.iscomplexobj(np.asarray(scale)) else np.float64)
    out[k - 1] = scale
    return DenseVector(out)


_BLOCK_ENTRIES = 1 << 20  # per row block of a ``pairings`` product: 8 MB real


def _is_block(vs) -> bool:
    """True when vs is a (P, n) array of dense coordinates."""
    return isinstance(vs, np.ndarray) and vs.ndim == 2


def _objects(vs):
    """The vector objects of an input; a (P, n) block holds none."""
    return () if _is_block(vs) else vs


def _dense_dims(vs) -> set:
    """The dimensions of the dense vectors of an input."""
    if _is_block(vs):
        return {vs.shape[1]}
    return {v.dim for v in vs if isinstance(v, DenseVector)}


def _rows(vs, cols: np.ndarray) -> np.ndarray:
    """Entries of each v at the sorted 1-based indices cols, which must hold
    every index up to cols[-1] at which some v can be nonzero; later entries
    are dropped.  Real unless a complex entry lands."""
    if _is_block(vs):  # positions 0..n-1 hold indices 1..n
        out = np.zeros((vs.shape[0], cols.size), dtype=_dense_dtype(vs))
        out[:, : vs.shape[1]] = vs[:, : cols.size]
        return out
    out = np.zeros((len(vs), cols.size))
    for i, v in enumerate(vs):
        if isinstance(v, DenseVector):  # positions 0..k-1 hold indices 1..k
            at, vals = slice(0, v.dim), v.coords[: cols.size]
        elif isinstance(v, FiniteSupportVector):
            at = np.searchsorted(cols, v.indices)
            kept = at < cols.size
            at, vals = at[kept], v.values[kept]
        elif isinstance(v, ReciprocalVector):
            at, vals = slice(None), 1.0 / cols
        else:
            raise IncompatibleVector(f"not a vector representation: {type(v).__name__}")
        if not vals.size:
            continue
        if np.iscomplexobj(vals) and not np.iscomplexobj(out):
            out = out.astype(np.complex128)
        out[i, at] = vals
    return out


def pairings(xs, ys) -> np.ndarray:
    """The matrix of <x_i, y_j>, conjugate-linear in the second argument.

    One product, in row blocks, over the indices where an input other than
    the reciprocal vector can be nonzero (1..largest dense dim, every
    finite-support index), so memory follows the supports.  Reciprocal x
    reciprocal is pi^2/6; dense x dense needs one dim.  A pair sharing at most
    one nonzero index is exact; otherwise the summation order rounds.
    """
    xdims, ydims = _dense_dims(xs), _dense_dims(ys)
    if xdims and ydims and len(xdims | ydims) > 1:
        raise DimensionMismatch(f"dense dims differ: {sorted(xdims | ydims)}")
    support = [v.indices for v in (*_objects(xs), *_objects(ys)) if isinstance(v, FiniteSupportVector)]
    cols = np.unique(np.concatenate([np.arange(1, max(xdims | ydims, default=0) + 1), *support]))
    right = _rows(ys, cols).conj().T
    step = max(1, _BLOCK_ENTRIES // max(cols.size, 1))
    out = np.concatenate([_rows(xs[s : s + step], cols) @ right for s in range(0, len(xs), step)])
    rx = [isinstance(v, ReciprocalVector) for v in _objects(xs)]
    ry = [isinstance(v, ReciprocalVector) for v in _objects(ys)]
    out[np.ix_(rx, ry)] = BASEL_SUM
    return out


def inner_product(x: VectorRep, y: VectorRep):
    """<x, y>, the one-pair case of ``pairings``; two dense vectors take one
    ``np.vdot``, which rounds as the pairing product does."""
    if isinstance(x, DenseVector) and isinstance(y, DenseVector):
        if x.dim != y.dim:
            raise DimensionMismatch(f"dense dims differ: {sorted({x.dim, y.dim})}")
        return np.vdot(y.coords, x.coords).item()
    return pairings([x], [y])[0, 0].item()


@dataclass(frozen=True)
class QuotientPoint:
    """A representative vector standing for its class under unimodular scaling.

    Two points are class-equal iff their reps differ by a scalar of modulus 1
    (sign flips in the real case); every metric in this package respects that.
    """

    rep: VectorRep

    def norm(self) -> float:
        return self.rep.norm()


def as_rep(x) -> VectorRep:
    """Unwrap a QuotientPoint, pass a VectorRep through, lift raw arrays."""
    if isinstance(x, QuotientPoint):
        return x.rep
    if isinstance(x, (DenseVector, FiniteSupportVector, ReciprocalVector)):
        return x
    return DenseVector(np.asarray(x))
