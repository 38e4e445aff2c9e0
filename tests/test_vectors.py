"""Vector representations and the inner product on the sequence space."""

import math

import numpy as np
import pytest

from phaselens import (
    DenseVector,
    DimensionMismatch,
    FiniteSupportVector,
    IncompatibleVector,
    QuotientPoint,
    ReciprocalVector,
    basis_vector,
    bures_distance,
    inner_product,
    zero_vector,
)
from phaselens import vectors
from phaselens.vectors import BASEL_SUM, as_rep, pairings


class TestDenseVector:
    def test_basic_properties(self):
        v = DenseVector([3.0, 4.0])
        assert v.dim == 2
        assert v.norm() == 5.0
        assert v.entry(1) == 3.0
        assert v.entry(2) == 4.0

    def test_entries_beyond_dimension_are_zero(self):
        v = DenseVector([1.0, 2.0])
        assert v.entry(3) == 0.0
        assert v.entry(100) == 0.0

    def test_complex_coordinates_preserved(self):
        v = DenseVector([1.0 + 2j, 0.0])
        assert np.iscomplexobj(v.coords)
        assert v.norm() == pytest.approx(math.sqrt(5.0))

    def test_rejects_empty_and_multidimensional(self):
        with pytest.raises(IncompatibleVector):
            DenseVector([])
        with pytest.raises(IncompatibleVector):
            DenseVector([[1.0, 2.0]])


class TestFiniteSupportVector:
    def test_normalization_sorts_and_drops_zeros(self):
        v = FiniteSupportVector([(5, 2.0), (2, 3.0), (9, 0.0)])
        assert v.indices.tolist() == [2, 5]
        assert v.values.tolist() == [3.0, 2.0]
        assert v.max_support == 5

    def test_entry_lookup(self):
        v = FiniteSupportVector([(3, -1.5)])
        assert v.entry(3) == -1.5
        assert v.entry(2) == 0.0
        assert v.entry(4) == 0.0

    def test_duplicate_index_rejected(self):
        with pytest.raises(IncompatibleVector):
            FiniteSupportVector([(2, 1.0), (2, 3.0)])

    def test_nonpositive_index_rejected(self):
        with pytest.raises(IncompatibleVector):
            FiniteSupportVector([(0, 1.0)])

    def test_to_dense(self):
        v = FiniteSupportVector([(1, 2.0), (3, -1.0)])
        dense = v.to_dense(4)
        assert dense.coords.tolist() == [2.0, 0.0, -1.0, 0.0]
        with pytest.raises(DimensionMismatch):
            v.to_dense(2)

    def test_empty_support_is_the_zero_sequence(self):
        v = FiniteSupportVector([])
        assert v.max_support == 0
        assert v.norm() == 0.0


class TestReciprocalVector:
    def test_entries(self):
        v = ReciprocalVector()
        assert v.entry(1) == 1.0
        assert v.entry(4) == 0.25

    def test_norm_is_sqrt_basel_sum(self):
        assert ReciprocalVector().norm() == pytest.approx(math.sqrt(math.pi**2 / 6.0))


class TestInnerProduct:
    def test_dense_dense_real(self):
        x = DenseVector([1.0, 2.0])
        y = DenseVector([3.0, -1.0])
        assert inner_product(x, y) == 1.0

    def test_conjugate_linear_in_second_argument(self):
        x = DenseVector([1.0 + 0j, 1j])
        y = DenseVector([1j, 1.0 + 0j])
        # <x, y> = x1*conj(y1) + x2*conj(y2) = -i + i = 0
        assert inner_product(x, y) == 0.0
        # <x, x> = |x|^2 is real
        assert inner_product(x, x) == pytest.approx(2.0)

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(3)
        x = DenseVector(rng.standard_normal(4) + 1j * rng.standard_normal(4))
        y = DenseVector(rng.standard_normal(4) + 1j * rng.standard_normal(4))
        assert inner_product(x, y) == pytest.approx(np.conj(inner_product(y, x)))

    def test_dense_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            inner_product(DenseVector([1.0]), DenseVector([1.0, 2.0]))

    def test_finite_support_against_dense(self):
        x = FiniteSupportVector([(2, 5.0)])
        y = DenseVector([1.0, 3.0, 7.0])
        assert inner_product(x, y) == 15.0
        assert inner_product(y, x) == 15.0

    def test_reciprocal_squared_norm_is_basel_sum(self):
        assert inner_product(ReciprocalVector(), ReciprocalVector()) == BASEL_SUM

    def test_scaled_basis_against_reciprocal(self):
        # <k e_k, {1/j}> = k * (1/k) = 1 for every k
        for k in (1, 7, 45):
            x = FiniteSupportVector([(k, float(k))])
            assert inner_product(x, ReciprocalVector()) == pytest.approx(1.0)

    def test_unknown_type_rejected(self):
        for other in (DenseVector([1.0]), ReciprocalVector()):
            with pytest.raises(IncompatibleVector):
                inner_product(object(), other)
            with pytest.raises(IncompatibleVector):
                inner_product(other, "1,0")

    def test_dense_against_reciprocal(self):
        x = DenseVector([2.0, 4.0])
        assert inner_product(x, ReciprocalVector()) == pytest.approx(2.0 + 2.0)
        assert inner_product(ReciprocalVector(), x) == pytest.approx(4.0)

    def test_far_index_costs_its_support_not_its_index(self):
        # a product over the first 10^9 entries would need 8 GB per vector
        far = basis_vector(10**9)
        assert inner_product(far, ReciprocalVector()) == 1e-9
        assert inner_product(ReciprocalVector(), far) == 1e-9
        assert inner_product(far, far) == 1.0
        assert inner_product(far, DenseVector([1.0, 2.0])) == 0.0
        assert bures_distance(far, basis_vector(10**9, scale=2.0)) == 1.0


class TestPairings:
    # supports with gaps and one far index, so the product skips most columns
    INDICES = [k * k for k in range(1, 13)] + [10**6]

    def _inputs(self, rng):
        xs = [ReciprocalVector(), FiniteSupportVector([])] + [
            FiniteSupportVector([(k, rng.standard_normal())]) for k in self.INDICES
        ]
        ys = [
            ReciprocalVector(),
            basis_vector(2),
            FiniteSupportVector([(7, 1.5 - 2j)]),
            FiniteSupportVector(list(zip((3, 16, 81, 10**6), rng.standard_normal(4)))),
            DenseVector(rng.standard_normal(5)),
        ]
        return xs, ys

    @pytest.mark.parametrize("block", [1, 50])
    def test_row_blocks_equal_one_product(self, monkeypatch, block):
        xs, ys = self._inputs(np.random.default_rng(5))
        whole = pairings(xs, ys)
        monkeypatch.setattr(vectors, "_BLOCK_ENTRIES", block)
        blocked = pairings(xs, ys)
        assert blocked.dtype == whole.dtype == np.complex128
        # every finite-support row meets each column at most once, so both
        # are exact; the reciprocal row sums several terms and may round
        assert blocked[1:].tobytes() == whole[1:].tobytes()
        assert np.allclose(blocked[0], whole[0], rtol=1e-15, atol=0.0)

    def test_equals_entry_sums(self):
        xs, ys = self._inputs(np.random.default_rng(6))
        got = pairings(xs, ys)
        nonzero = sorted(set(range(1, 8)) | set(self.INDICES))
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                if isinstance(x, ReciprocalVector) and isinstance(y, ReciprocalVector):
                    assert got[i, j] == BASEL_SUM
                    continue
                expected = sum(x.entry(k) * np.conj(y.entry(k)) for k in nonzero)
                assert got[i, j] == pytest.approx(expected, rel=1e-15, abs=1e-300)


class TestHelpers:
    def test_zero_vector(self):
        assert zero_vector(3).norm() == 0.0

    def test_basis_vector_dense_and_sequence(self):
        e = basis_vector(2, dim=3)
        assert e.coords.tolist() == [0.0, 1.0, 0.0]
        s = basis_vector(4, scale=2.5)
        assert isinstance(s, FiniteSupportVector)
        assert s.entry(4) == 2.5

    def test_quotient_point_unwrap(self):
        v = DenseVector([1.0, 2.0])
        p = QuotientPoint(v)
        assert as_rep(p) is v
        assert p.norm() == v.norm()

    def test_as_rep_lifts_raw_arrays(self):
        rep = as_rep([1.0, 2.0])
        assert isinstance(rep, DenseVector)
        assert rep.dim == 2
