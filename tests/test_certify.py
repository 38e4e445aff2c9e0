"""Certification: spark, complement property, falsifiers, full pipeline.

Negative verdicts must always carry a witness that re-verifies outside the
code path that produced it: failing subsets are rank-checked directly with
numpy, colliding pairs are pushed through the magnitude map.
"""

import numpy as np
import pytest

from phaselens import (
    CollidingPair,
    DenseVector,
    EnumerationCapExceeded,
    ExplicitFrame,
    FailingSubset,
    FieldError,
    IncompatibleVector,
    Method,
    SingularTransformError,
    Verdict,
    analysis_magnitudes,
    bures_distance,
    certify_phase_retrieval,
    complement_property,
    falsify_by_sign_enumeration,
    is_full_spark,
    spark,
    transform_frame,
)
from conftest import random_real_frame


def verify_failing_subset(frame, witness):
    """Both the subset and its complement must have deficient rank."""
    idx = set(witness.indices)
    sub = frame.matrix[[i - 1 for i in sorted(idx)], :]
    comp = frame.matrix[[i - 1 for i in range(1, frame.m + 1) if i not in idx], :]
    full = frame.dim
    rank = lambda a: 0 if a.size == 0 else np.linalg.matrix_rank(a, tol=1e-8)
    return rank(sub) < full and rank(comp) < full


def verify_collision(frame, witness):
    """Equal magnitude patterns, distinct quotient classes."""
    ax = analysis_magnitudes(frame, witness.x)
    ay = analysis_magnitudes(frame, witness.y)
    same_pattern = np.max(np.abs(ax - ay)) <= 1e-7 * np.linalg.norm(ax)
    distinct = bures_distance(witness.x, witness.y) > 1e-7 * witness.x.norm()
    return same_pattern and distinct


class TestSpark:
    def test_full_spark_fixture(self, r2_frame):
        result = spark(r2_frame)
        assert result.spark == 3
        assert result.witness == (1, 2, 3)
        assert is_full_spark(r2_frame)

    def test_zero_vector_gives_spark_one(self):
        f = ExplicitFrame([DenseVector([0.0, 0.0]), DenseVector([1.0, 0.0])])
        result = spark(f)
        assert result.spark == 1
        assert result.witness == (1,)

    def test_parallel_pair_gives_spark_two(self):
        f = ExplicitFrame(
            [DenseVector([1.0, 0.0]), DenseVector([2.0, 0.0]), DenseVector([0.0, 1.0])]
        )
        result = spark(f)
        assert result.spark == 2
        assert result.witness == (1, 2)

    def test_square_independent_family_has_no_dependent_subset(self, onb_frame):
        result = spark(onb_frame)
        assert result.all_independent
        assert result.witness is None

    def test_witness_subset_is_actually_dependent(self):
        rng = np.random.default_rng(31)
        base = rng.standard_normal((4, 3))
        base[3] = base[0] + base[1]  # plant a dependency of size 3
        f = ExplicitFrame([DenseVector(r) for r in base])
        result = spark(f)
        assert result.spark == 3
        sub = f.matrix[[i - 1 for i in result.witness], :]
        assert np.linalg.matrix_rank(sub, tol=1e-8) < len(result.witness)

    def test_full_spark_needs_enough_vectors(self):
        f = ExplicitFrame([DenseVector([1.0, 0.0, 0.0])])
        with pytest.raises(IncompatibleVector):
            is_full_spark(f)


class TestRescaledVectors:
    """Rescaling a frame vector by a nonzero factor preserves every verdict."""

    @pytest.mark.parametrize("s", [1.0, 1e-9, 1e-11, 1e-14])
    def test_scaled_full_spark_frame_still_certifies(self, s):
        f = ExplicitFrame(
            [DenseVector([s, 0.0]), DenseVector([0.0, 1.0]), DenseVector([1.0, 1.0])]
        )
        cert = certify_phase_retrieval(f)
        assert cert.verdict == Verdict.PHASE_RETRIEVAL
        assert cert.witness is None
        assert complement_property(f).verdict == Verdict.PHASE_RETRIEVAL
        assert is_full_spark(f)
        assert spark(f).spark == 3

    def test_zero_vector_still_gives_spark_one(self):
        f = ExplicitFrame(
            [DenseVector([1e-14, 0.0]), DenseVector([0.0, 0.0]), DenseVector([1.0, 1.0])]
        )
        assert spark(f).spark == 1
        assert not is_full_spark(f)
        assert certify_phase_retrieval(f).verdict == Verdict.NOT_PHASE_RETRIEVAL


class TestComplementProperty:
    def test_fixture_is_phase_retrieval(self, r2_frame):
        cert = complement_property(r2_frame)
        assert cert.verdict == Verdict.PHASE_RETRIEVAL
        assert cert.method == Method.COMPLEMENT_PROPERTY

    def test_orthonormal_basis_fails_with_verified_witness(self, onb_frame):
        cert = complement_property(onb_frame)
        assert cert.verdict == Verdict.NOT_PHASE_RETRIEVAL
        assert isinstance(cert.witness, FailingSubset)
        assert cert.witness.indices == (1,)
        assert verify_failing_subset(onb_frame, cert.witness)

    def test_complex_field_can_only_be_inconclusive_or_refuted(self, c2_frame):
        cert = complement_property(c2_frame)
        assert cert.verdict == Verdict.INCONCLUSIVE
        assert cert.method == Method.NECESSARY_CONDITION_ONLY

    def test_planted_failure_found(self):
        # {e1, e2, e3, e1+e2, e1-e2}: sigma = {1,2,4,5} misses e3 and its
        # complement {3} cannot span either
        f = ExplicitFrame(
            [
                DenseVector([1.0, 0.0, 0.0]),
                DenseVector([0.0, 1.0, 0.0]),
                DenseVector([0.0, 0.0, 1.0]),
                DenseVector([1.0, 1.0, 0.0]),
                DenseVector([1.0, -1.0, 0.0]),
            ]
        )
        cert = complement_property(f)
        assert cert.verdict == Verdict.NOT_PHASE_RETRIEVAL
        assert verify_failing_subset(f, cert.witness)

    def test_subset_cap(self, r2_frame):
        with pytest.raises(EnumerationCapExceeded):
            complement_property(r2_frame, subset_cap=2)


class TestFalsifier:
    def test_orthonormal_basis_collision(self, onb_frame):
        pair = falsify_by_sign_enumeration(onb_frame)
        assert pair is not None
        assert verify_collision(onb_frame, pair)

    def test_structured_search_handles_measure_zero_collision_sets(self):
        # at m = 2n - 2 the colliding pairs form a null set, so only the
        # null-space construction can exhibit one
        rng = np.random.default_rng(9)
        for _ in range(5):
            f = random_real_frame(rng, 4, 3)
            pair = falsify_by_sign_enumeration(f, trials=10, seed=0)
            assert pair is not None
            assert verify_collision(f, pair)

    def test_no_collision_for_certified_frame(self, r2_frame):
        assert falsify_by_sign_enumeration(r2_frame, trials=20) is None

    def test_real_only(self, c2_frame):
        with pytest.raises(FieldError):
            falsify_by_sign_enumeration(c2_frame)

    def test_sign_cap(self, r2_frame):
        with pytest.raises(EnumerationCapExceeded):
            falsify_by_sign_enumeration(r2_frame, sign_cap=2)


class TestCertifyPipeline:
    def test_fixture_certified(self, r2_frame):
        cert = certify_phase_retrieval(r2_frame)
        assert cert.verdict == Verdict.PHASE_RETRIEVAL

    def test_count_violation_refuted_with_colliding_pair(self, onb_frame):
        cert = certify_phase_retrieval(onb_frame)
        assert cert.verdict == Verdict.NOT_PHASE_RETRIEVAL
        assert isinstance(cert.witness, CollidingPair)
        assert verify_collision(onb_frame, cert.witness)

    def test_complex_fixture_inconclusive(self, c2_frame):
        cert = certify_phase_retrieval(c2_frame)
        assert cert.verdict == Verdict.INCONCLUSIVE
        assert cert.method == Method.NECESSARY_CONDITION_ONLY

    def test_minimal_count_equivalence_with_full_spark(self):
        # at m = 2n - 1 the verdict must coincide with the full-spark test
        rng = np.random.default_rng(41)
        seen = {True: 0, False: 0}
        not_full_spark = ExplicitFrame(
            [
                DenseVector([1.0, 0.0, 0.0]),
                DenseVector([0.0, 1.0, 0.0]),
                DenseVector([0.0, 0.0, 1.0]),
                DenseVector([1.0, 1.0, 0.0]),
                DenseVector([1.0, -1.0, 0.0]),
            ]
        )
        frames = [random_real_frame(rng, 5, 3) for _ in range(6)] + [not_full_spark]
        for f in frames:
            fs = is_full_spark(f)
            cert = certify_phase_retrieval(f)
            assert (cert.verdict == Verdict.PHASE_RETRIEVAL) == fs
            seen[fs] += 1
        assert seen[True] > 0 and seen[False] > 0

    def test_determinism(self, onb_frame):
        a = certify_phase_retrieval(onb_frame, seed=4).to_dict()
        b = certify_phase_retrieval(onb_frame, seed=4).to_dict()
        assert a == b

    def test_certificate_document_shape(self, r2_frame):
        doc = certify_phase_retrieval(r2_frame).to_dict()
        assert doc["schema_version"] == "1"
        assert doc["verdict"] == "phase_retrieval"
        assert len(doc["frame_fingerprint"]) == 64
        assert doc["witness"] is None


class TestTransformInvariance:
    def test_invertible_transform_preserves_verdicts(self, r2_frame, onb_frame):
        rng = np.random.default_rng(13)
        for frame in (r2_frame, onb_frame):
            before = certify_phase_retrieval(frame).verdict
            u = rng.standard_normal((2, 2)) + 0.5 * np.eye(2)
            after = certify_phase_retrieval(transform_frame(frame, u)).verdict
            assert before == after

    def test_singular_transform_rejected(self, r2_frame):
        with pytest.raises(SingularTransformError):
            transform_frame(r2_frame, np.array([[1.0, 1.0], [1.0, 1.0]]))

    def test_shape_mismatch_rejected(self, r2_frame):
        with pytest.raises(IncompatibleVector):
            transform_frame(r2_frame, np.eye(3))
