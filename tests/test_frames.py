"""Frames, the frame operator, optimal bounds, duals, and the magnitude map."""

import math

import numpy as np
import pytest

from phaselens import (
    DenseVector,
    DimensionMismatch,
    ExplicitFrame,
    FieldError,
    FiniteSupportVector,
    IncompatibleVector,
    NotAFrameError,
    PairwiseSumFrame,
    ReciprocalVector,
    analysis_magnitudes,
    canonical_dual,
    frame_bounds,
    frame_operator,
)
from conftest import random_real_frame


class TestExplicitFrame:
    def test_field_inference(self):
        real = ExplicitFrame([DenseVector([1.0, 0.0]), DenseVector([0.0, 1.0])])
        assert real.field == "real"
        cplx = ExplicitFrame([DenseVector([1j, 0.0]), DenseVector([0.0, 1.0 + 0j])])
        assert cplx.field == "complex"

    def test_real_tag_with_nonzero_imaginary_part_rejected(self):
        with pytest.raises(FieldError):
            ExplicitFrame([DenseVector([1j, 0.0])], field="real")

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(DimensionMismatch):
            ExplicitFrame([DenseVector([1.0]), DenseVector([1.0, 2.0])])

    def test_vector_access_is_one_based(self, r2_frame):
        assert r2_frame.vector(3).coords.tolist() == [1.0, 1.0]

    def test_coerce_lifts_finite_support(self, r2_frame):
        x = FiniteSupportVector([(2, 4.0)])
        assert r2_frame.coerce(x).tolist() == [0.0, 4.0]

    def test_coerce_rejects_wrong_dimension_and_field(self, r2_frame):
        with pytest.raises(DimensionMismatch):
            r2_frame.coerce(DenseVector([1.0, 2.0, 3.0]))
        with pytest.raises(FieldError):
            r2_frame.coerce(DenseVector([1j, 0.0]))
        with pytest.raises(IncompatibleVector):
            r2_frame.coerce(ReciprocalVector())


class TestFrameOperator:
    def test_c2_fixture_operator_matches_hand_expansion(self, c2_frame):
        expected = np.array([[3.0, 1.0 - 1j], [1.0 + 1j, 3.0]])
        assert np.allclose(frame_operator(c2_frame), expected, atol=1e-14)

    def test_operator_is_hermitian_psd(self):
        rng = np.random.default_rng(11)
        f = random_real_frame(rng, 6, 3)
        s = frame_operator(f)
        assert np.allclose(s, s.conj().T)
        assert np.all(np.linalg.eigvalsh(s) >= -1e-12)


class TestFrameBounds:
    def test_c2_fixture_bounds_closed_form(self, c2_frame):
        # eigenvalues of [[3, 1-i], [1+i, 3]] are 3 +/- sqrt(2)
        b = frame_bounds(c2_frame)
        assert b.lower == pytest.approx(3.0 - math.sqrt(2.0), abs=1e-10)
        assert b.upper == pytest.approx(3.0 + math.sqrt(2.0), abs=1e-10)

    def test_orthonormal_basis_is_tight(self, onb_frame):
        b = frame_bounds(onb_frame)
        assert b.lower == pytest.approx(1.0, abs=1e-14)
        assert b.upper == pytest.approx(1.0, abs=1e-14)

    def test_non_spanning_family_rejected(self):
        f = ExplicitFrame([DenseVector([1.0, 0.0]), DenseVector([2.0, 0.0])])
        with pytest.raises(NotAFrameError):
            frame_bounds(f)

    def test_coefficient_norm_sandwich(self):
        rng = np.random.default_rng(5)
        f = random_real_frame(rng, 7, 3)
        b = frame_bounds(f)
        for _ in range(50):
            x = DenseVector(rng.standard_normal(3))
            energy = float(np.sum(analysis_magnitudes(f, x) ** 2))
            assert b.lower * x.norm() ** 2 <= energy + 1e-9
            assert energy <= b.upper * x.norm() ** 2 + 1e-9


class TestCanonicalDual:
    def test_reconstruction_identity(self):
        rng = np.random.default_rng(17)
        f = random_real_frame(rng, 6, 3)
        dual = canonical_dual(f)
        for _ in range(20):
            x = rng.standard_normal(3)
            coeffs = f.matrix @ x
            rebuilt = coeffs @ dual.matrix
            assert np.allclose(rebuilt, x, atol=1e-10)

    def test_dual_of_orthonormal_basis_is_itself(self, onb_frame):
        dual = canonical_dual(onb_frame)
        assert np.allclose(dual.matrix, onb_frame.matrix)

    def test_dual_of_dual_returns_the_frame(self):
        rng = np.random.default_rng(23)
        f = random_real_frame(rng, 5, 2)
        again = canonical_dual(canonical_dual(f))
        assert np.allclose(again.matrix, f.matrix, atol=1e-10)


class TestAnalysisMagnitudes:
    def test_c2_fixture_coefficients(self, c2_frame):
        # x = (3, 0): |<x, phi>| = (3, 0, 3, 3); y = (0, 4): (0, 4, 4, 4)
        assert analysis_magnitudes(c2_frame, DenseVector([3.0 + 0j, 0j])).tolist() == [
            3.0,
            0.0,
            3.0,
            3.0,
        ]
        assert analysis_magnitudes(c2_frame, DenseVector([0j, 4.0 + 0j])).tolist() == [
            0.0,
            4.0,
            4.0,
            4.0,
        ]

    def test_sign_invariance(self, r2_frame):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(2)
        a = analysis_magnitudes(r2_frame, DenseVector(x))
        b = analysis_magnitudes(r2_frame, DenseVector(-x))
        assert np.array_equal(a, b)


class TestPairwiseSumFrame:
    def test_size_and_pair_order(self):
        f = PairwiseSumFrame(4)
        assert f.m == 6
        assert list(f.pairs()) == [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
        assert f.pair(2) == (1, 3)
        assert f.pair(f.m) == (3, 4)
        for idx in (0, -1, f.m + 1):
            with pytest.raises(IndexError):
                f.pair(idx)

    @pytest.mark.parametrize(
        "x",
        [FiniteSupportVector([(2, -1.5), (5, 2.0), (9, 0.25)]), ReciprocalVector()],
        ids=["finite_support", "reciprocal"],
    )
    def test_magnitudes_match_pairwise_loop(self, x):
        f = PairwiseSumFrame(7)
        expected = [
            abs(x.entry(i) + x.entry(j)) for i in range(1, 8) for j in range(i + 1, 8)
        ]
        assert analysis_magnitudes(f, x).tolist() == expected

    def test_truncation_must_be_at_least_two(self):
        with pytest.raises(IncompatibleVector):
            PairwiseSumFrame(1)

    def test_magnitudes_of_scaled_basis_point(self):
        # |<k e_k, e_i + e_j>| is k when k is in {i, j} and 0 otherwise
        f = PairwiseSumFrame(4)
        mags = analysis_magnitudes(f, FiniteSupportVector([(3, 3.0)]))
        expected = [0.0, 3.0, 0.0, 3.0, 0.0, 3.0]
        assert mags.tolist() == expected

    def test_check_exact(self):
        f = PairwiseSumFrame(5)
        assert f.check_exact(FiniteSupportVector([(5, 1.0)]))
        assert not f.check_exact(FiniteSupportVector([(6, 1.0)]))
        assert not f.check_exact(ReciprocalVector())

    @pytest.mark.parametrize(
        "x",
        [
            ReciprocalVector(),
            DenseVector([1.0, -2.0, 0.5]),
            DenseVector(np.arange(1.0, 12.0)),
            DenseVector([1.0 + 2.0j, -0.5j]),
            FiniteSupportVector([]),
            FiniteSupportVector([(2, -1.5), (5, 2.0), (9, 0.25)]),
            FiniteSupportVector([(3, 1j), (4, 2.0)]),
            FiniteSupportVector([(9, 1j), (12, 2.0)]),
        ],
        ids=[
            "reciprocal",
            "dense_short",
            "dense_long",
            "dense_complex",
            "empty_support",
            "support_past_n",
            "complex_support",
            "complex_support_all_past_n",
        ],
    )
    def test_entries_equal_entry_loop(self, x):
        f = PairwiseSumFrame(7)
        expected = np.array([x.entry(k) for k in range(1, 8)])
        got = f.entries(x)
        assert got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes()

    def test_entries_of_reciprocal(self):
        f = PairwiseSumFrame(3)
        assert f.entries(ReciprocalVector()).tolist() == [1.0, 0.5, 1.0 / 3.0]
