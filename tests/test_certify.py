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
    certify_phase_retrieval,
    complement_property,
    config,
    falsify_by_sign_enumeration,
    is_full_spark,
    spark,
    transform_frame,
)
from conftest import (
    assert_engine_matches_oracle,
    first_dependent_oracle,
    random_real_frame,
    verify_collision,
    verify_failing_subset,
    weak_subsets_oracle,
)


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

    def test_witness_check_ranks_unit_rows(self):
        # {1e-9 e1, e2, e1+e2} does phase retrieval; an absolute rank
        # tolerance would take the first row for zero and accept {1, 2}
        f = ExplicitFrame(
            [DenseVector([1e-9, 0.0]), DenseVector([0.0, 1.0]), DenseVector([1.0, 1.0])]
        )
        assert certify_phase_retrieval(f).verdict == Verdict.PHASE_RETRIEVAL
        assert not verify_failing_subset(f, FailingSubset((1, 2)))

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


def assert_repeatable_collision(frame):
    pair = falsify_by_sign_enumeration(frame)
    assert pair is not None
    assert verify_collision(frame, pair)
    again = falsify_by_sign_enumeration(frame)
    assert np.array_equal(pair.x.coords, again.x.coords)
    assert np.array_equal(pair.y.coords, again.y.coords)


class TestStackedEngine:
    """Blocks of subsets ranked at once give the per-subset loops' witnesses,
    and the determinant screen finds the weak n-subsets that one SVD per
    subset finds."""

    @staticmethod
    def frames():
        rng = np.random.default_rng(16)
        planted = rng.standard_normal((9, 3))
        planted[[0, 2, 3, 4, 5, 7, 8], 2] = 0.0  # seven vectors in one plane
        degenerate = rng.integers(-1, 2, size=(8, 3)).astype(float)
        degenerate[3] = 0.0
        scaled = rng.standard_normal((8, 4)) * 10.0 ** rng.uniform(-12, 0, size=(8, 1))
        return [ExplicitFrame([DenseVector(r) for r in a]) for a in (planted, degenerate, scaled)]

    @pytest.mark.parametrize("entries", [1, 64, 150, 1 << 20])
    def test_blocks_split_mid_size(self, monkeypatch, entries):
        # a block holds entries // (m * n) subsets, at least one: here 1, 2
        # and 4 to 6, so most sizes end in a partial block; 1 << 20, the
        # default, holds every size in one block.  The determinant screen
        # walks the n-subsets in the same blocks.
        from phaselens import certify

        monkeypatch.setattr(certify, "_BLOCK_ENTRIES", entries)
        for frame in self.frames():
            assert_engine_matches_oracle(frame)

    def test_gaussian_frame_at_the_cap_ranks_no_side(self, monkeypatch):
        # no n-subset of a Gaussian frame is weak, so the screen alone
        # certifies it: none of the 2^23 splits of 24 vectors is walked
        from phaselens import certify

        def no_ranking(*args):
            raise AssertionError("_subset_rank called")

        monkeypatch.setattr(certify, "_subset_rank", no_ranking)
        frame = random_real_frame(np.random.default_rng(17), config.DEFAULT_SUBSET_CAP, 3)
        cert = certify_phase_retrieval(frame)
        assert cert.verdict == Verdict.PHASE_RETRIEVAL
        assert cert.method == Method.COMPLEMENT_PROPERTY
        assert is_full_spark(frame)

    def test_spark_ranks_only_subsets_inside_the_weak_union(self, monkeypatch):
        # a dependent subset of at most n vectors lies inside U, the union of
        # the weak n-subsets, so spark walks only those and keeps the witness
        from phaselens import certify

        ranked = []
        rank = certify._subset_rank

        def recording(unit, idx):
            ranked.extend(idx.tolist())
            return rank(unit, idx)

        monkeypatch.setattr(certify, "_subset_rank", recording)
        for frame in self.frames():
            ranked.clear()
            result = spark(frame)
            inside = {i - 1 for t in weak_subsets_oracle(frame) for i in t}
            assert bool(ranked) == bool(inside)
            assert all(set(idx) <= inside for idx in ranked)
            dependent = first_dependent_oracle(frame, range(1, frame.dim + 1))
            assert result.witness == (dependent or tuple(range(1, frame.dim + 2)))
        # a Gaussian 14 x 7 frame has no weak 7-subset, so nothing is ranked
        ranked.clear()
        result = spark(random_real_frame(np.random.default_rng(49), 14, 7))
        assert ranked == []
        assert (result.spark, result.witness) == (8, tuple(range(1, 9)))


class TestFalsifier:
    def test_orthonormal_basis_collision(self, onb_frame):
        assert_repeatable_collision(onb_frame)

    def test_frame_where_every_vector_collides(self):
        # {e1, e2, e3, e1+e2}: every x with x3 != 0 collides with (x1, x2, -x3)
        rows = ([1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 1.0, 0.0])
        assert_repeatable_collision(ExplicitFrame([DenseVector(r) for r in rows]))

    def test_structured_search_handles_measure_zero_collision_sets(self):
        # at m = 2n - 2 the colliding pairs form a null set, so only the
        # null-space construction can exhibit one
        rng = np.random.default_rng(9)
        for _ in range(5):
            f = random_real_frame(rng, 4, 3)
            pair = falsify_by_sign_enumeration(f)
            assert pair is not None
            assert verify_collision(f, pair)

    def test_no_collision_for_certified_frame(self, r2_frame):
        assert falsify_by_sign_enumeration(r2_frame) is None

    def test_real_only(self, c2_frame):
        with pytest.raises(FieldError):
            falsify_by_sign_enumeration(c2_frame)

    def test_sign_cap(self):
        # 21 vectors spanning R^2, one more than config.DEFAULT_SIGN_CAP
        f = ExplicitFrame([DenseVector([1.0, float(j)]) for j in range(21)])
        with pytest.raises(EnumerationCapExceeded):
            falsify_by_sign_enumeration(f)


class TestCertifyPipeline:
    def test_fixture_certified(self, r2_frame):
        cert = certify_phase_retrieval(r2_frame)
        assert cert.verdict == Verdict.PHASE_RETRIEVAL

    def test_count_violation_refuted_with_colliding_pair(self, onb_frame):
        cert = certify_phase_retrieval(onb_frame)
        assert cert.verdict == Verdict.NOT_PHASE_RETRIEVAL
        assert isinstance(cert.witness, CollidingPair)
        assert verify_collision(onb_frame, cert.witness)

    def test_count_route_pair_is_the_first_falsifier_pair(self):
        # below m = 2n - 1 certify splits off {1..k} without a search; on
        # generic frames that is the first split the falsifier's loop refutes
        for seed in (0, 1, 2):
            rng = np.random.default_rng(seed)
            for n in range(2, 8):
                for m in range(2, 2 * n - 1):
                    frame = random_real_frame(rng, m, n)
                    cert = certify_phase_retrieval(frame)
                    pair = falsify_by_sign_enumeration(frame)
                    assert cert.method == Method.NECESSARY_CONDITION_ONLY
                    assert np.array_equal(cert.witness.x.coords, pair.x.coords)
                    assert np.array_equal(cert.witness.y.coords, pair.y.coords)

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
