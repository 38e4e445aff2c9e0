"""Vector representations on H and the quotient-space point wrapper.

Three representations are supported:

* ``DenseVector`` -- an explicit coordinate vector in an n-dimensional space.
* ``FiniteSupportVector`` -- a finitely supported sequence-space element,
  stored as (1-based index, value) pairs.
* ``ReciprocalVector`` -- the fixed sequence whose k-th entry is 1/k; it is
  square-summable with squared norm pi^2/6.

Inner products are linear in the first argument and conjugate-linear in the
second.  Structured pairings (finite support x reciprocal, etc.) are evaluated
in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import DimensionMismatch, IncompatibleVector

BASEL_SUM = math.pi ** 2 / 6.0  # sum of 1/k^2 over k >= 1


class DenseVector:
    """Coordinate vector in an n-dimensional real or complex space.

    Coordinates are kept verbatim; no normalization on construction.
    """

    __slots__ = ("coords",)

    def __init__(self, coords):
        arr = np.asarray(coords)
        if arr.ndim != 1 or arr.size == 0:
            raise IncompatibleVector("dense vector must be a nonempty 1-d array")
        if np.iscomplexobj(arr):
            self.coords = arr.astype(np.complex128)
        else:
            self.coords = arr.astype(np.float64)

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

    def to_dense(self, dim: int) -> DenseVector:
        if self.max_support > dim:
            raise DimensionMismatch(
                f"support index {self.max_support} exceeds ambient dimension {dim}"
            )
        out = np.zeros(dim, dtype=self.values.dtype if self.values.size else np.float64)
        out[self.indices - 1] = self.values
        return DenseVector(out)

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


def inner_product(x: VectorRep, y: VectorRep):
    """<x, y>, conjugate-linear in the second argument.

    Dense x dense requires matching dimensions.  Structured pairs are evaluated
    exactly: reciprocal x reciprocal is the Basel sum pi^2/6.
    """
    if isinstance(x, DenseVector) and isinstance(y, DenseVector):
        if x.dim != y.dim:
            raise DimensionMismatch(f"dense dims differ: {x.dim} vs {y.dim}")
        # np.vdot conjugates its first argument.
        val = np.vdot(y.coords, x.coords)
        return _simplify(val, x, y)
    if isinstance(x, ReciprocalVector) and isinstance(y, ReciprocalVector):
        return BASEL_SUM
    # One side finitely supported (dense counts: zero tail in sequence space).
    if isinstance(x, (DenseVector, FiniteSupportVector)):
        val = sum(
            v * np.conj(y.entry(int(k))) for k, v in _support_pairs(x)
        )
        return _simplify(val, x, y)
    if isinstance(y, (DenseVector, FiniteSupportVector)):
        return inner_product(y, x).conjugate()
    raise IncompatibleVector(f"cannot pair {type(x).__name__} with {type(y).__name__}")


def _support_pairs(v):
    if isinstance(v, DenseVector):
        return [(k + 1, v.coords[k]) for k in range(v.dim)]
    return list(zip(v.indices.tolist(), v.values))


def _simplify(val, x, y):
    return complex(val) if _is_complex(x) or _is_complex(y) else complex(val).real


def _is_complex(v) -> bool:
    if isinstance(v, (DenseVector, FiniteSupportVector)):
        return np.iscomplexobj(v.values if isinstance(v, FiniteSupportVector) else v.coords)
    return False


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
