"""Convergence diagnostics: sequence specs, verdicts, witnesses, the suite."""

import numpy as np
import pytest

from phaselens import (
    AlternatingSign,
    ConvergenceVerdict,
    DenseVector,
    DimensionMismatch,
    ExplicitFrame,
    ExplicitList,
    FiniteSupportVector,
    IncompatibleVector,
    NotAFrameError,
    PairwiseSumFrame,
    PerturbedLimit,
    ReciprocalVector,
    ScaledBasis,
    basis_vector,
    bures_distance,
    converge_d_phi,
    converge_tau_phi,
    converge_tau_w,
    d_phi,
    default_tau_w_witnesses,
    finite_dim_coincidence_suite,
    inner_product,
    separation_witness,
)
from phaselens.vectors import BASEL_SUM
from conftest import random_real_frame


class TestSequenceSpecs:
    def test_scaled_basis_points(self):
        seq = ScaledBasis(length=10)
        p = seq.point(7)
        assert isinstance(p, FiniteSupportVector)
        assert p.entry(7) == 7.0
        flat = ScaledBasis(length=10, power=0.0)
        assert flat.point(7).entry(7) == 1.0

    def test_alternating_sign_is_class_constant(self):
        seq = AlternatingSign(length=6)
        for k in range(1, 6):
            assert bures_distance(seq.point(k), seq.point(k + 1)) == 0.0

    def test_perturbed_limit_decay(self):
        seq = PerturbedLimit(
            limit=DenseVector([1.0, 0.0]),
            direction=DenseVector([0.0, 1.0]),
            length=100,
            rate=2.0,
        )
        assert seq.point(10).coords.tolist() == [1.0, 0.01]

    def test_validation(self):
        with pytest.raises(IncompatibleVector):
            ScaledBasis(length=1)
        with pytest.raises(IncompatibleVector):
            ExplicitList((DenseVector([1.0]),))
        with pytest.raises(IncompatibleVector):
            PerturbedLimit(
                limit=DenseVector([1.0]), direction=DenseVector([1.0]), length=5, rate=0.0
            )


class TestInitialTopology:
    def test_perturbed_sequence_is_consistent(self, r2_frame):
        seq = PerturbedLimit(
            limit=DenseVector([1.0, 1.0]), direction=DenseVector([1.0, -2.0]), length=100
        )
        rep = converge_tau_phi(r2_frame, seq, DenseVector([1.0, 1.0]), prefix=100)
        assert rep.verdict == ConvergenceVerdict.CONSISTENT
        assert rep.witness is None

    def test_wrong_limit_reports_smallest_functional(self, r2_frame):
        seq = PerturbedLimit(
            limit=DenseVector([1.0, 1.0]), direction=DenseVector([0.1, 0.1]), length=60
        )
        rep = converge_tau_phi(r2_frame, seq, DenseVector([0.0, 1.0]), prefix=60)
        assert rep.verdict == ConvergenceVerdict.DIVERGENCE
        assert rep.witness == 1  # |<., e1>| separates first
        assert rep.witness_gap == pytest.approx(1.0, abs=0.05)

    def test_spike_inside_tail_does_not_fake_divergence(self, r2_frame):
        limit = DenseVector([1.0, 0.0])
        points = [DenseVector([1.0 + 0.01 / k, 0.0]) for k in range(1, 41)]
        points[37] = DenseVector([5.0, 5.0])  # isolated outlier in the tail quartile
        rep = converge_tau_phi(r2_frame, ExplicitList(tuple(points)), limit, prefix=40)
        assert rep.verdict == ConvergenceVerdict.CONSISTENT

    def test_prefix_validation(self, r2_frame):
        seq = AlternatingSign(length=10)
        with pytest.raises(IncompatibleVector):
            converge_tau_phi(r2_frame, seq, DenseVector([1.0, 1.0]), prefix=1)


def _pairing_loop(points, limit, witnesses):
    """| |<x_k, y>| - |<limit, y>| | by one inner_product per pair."""
    traces = np.empty((len(witnesses), len(points)))
    for i, w in enumerate(witnesses):
        target = abs(inner_product(limit, w))
        for k, p in enumerate(points):
            traces[i, k] = abs(abs(inner_product(p, w)) - target)
    return traces


def _entry_pairing(x, y):
    """<x, y> summed entry by entry over the finite side's extent."""
    if isinstance(x, ReciprocalVector) and isinstance(y, ReciprocalVector):
        return BASEL_SUM
    finite = y if isinstance(x, ReciprocalVector) else x
    extent = finite.dim if isinstance(finite, DenseVector) else finite.max_support
    return sum(x.entry(k) * np.conj(y.entry(k)) for k in range(1, extent + 1))


def _entry_loop(points, limit, witnesses):
    """| |<x_k, y>| - |<limit, y>| | by one entry() sum per pair."""
    traces = np.empty((len(witnesses), len(points)))
    for i, w in enumerate(witnesses):
        target = abs(_entry_pairing(limit, w))
        for k, p in enumerate(points):
            traces[i, k] = abs(abs(_entry_pairing(p, w)) - target)
    return traces


class TestWeakTopology:
    # the dimensions of the suite's frames and of the R^2 examples
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_dense_traces_equal_pairing_loop(self, n):
        rng = np.random.default_rng(n)
        points = tuple(DenseVector(rng.standard_normal(n)) for _ in range(30))
        limit = DenseVector(rng.standard_normal(n))
        witnesses = [limit, points[0]] + default_tau_w_witnesses(dim=n, seed=n, count_random=8)
        rep = converge_tau_w(ExplicitList(points), limit, witnesses, prefix=30)
        expected = _pairing_loop(points, limit, witnesses)
        assert rep.residual_traces.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n", [16, 64])
    def test_dense_traces_in_higher_dimensions(self, n):
        # one product may sum each pairing in another order than a dot
        # product; a trace is a difference of two pairings, each within
        # n * eps/2 * |w|_2 |x|_2 of exact (unit witnesses, |x|_2 <= sqrt(n) max|x_i|)
        rng = np.random.default_rng(n)
        points = tuple(DenseVector(rng.standard_normal(n)) for _ in range(30))
        limit = DenseVector(rng.standard_normal(n))
        witnesses = default_tau_w_witnesses(dim=n, seed=n, count_random=8)
        rep = converge_tau_w(ExplicitList(points), limit, witnesses, prefix=30)
        expected = _pairing_loop(points, limit, witnesses)
        largest = max(np.max(np.abs(v.coords)) for v in (limit,) + points)
        atol = 4 * n ** 1.5 * np.finfo(np.float64).eps * largest
        assert np.allclose(rep.residual_traces, expected, rtol=0.0, atol=atol)

    def test_complex_dense_traces_within_forward_error(self):
        # complex moduli of a whole array and of one scalar may round apart;
        # each pairing is within a few n * eps * |x|_2 |w|_2 of exact
        rng = np.random.default_rng(5)
        points = tuple(
            DenseVector(rng.standard_normal(3) + 1j * rng.standard_normal(3)) for _ in range(20)
        )
        limit = DenseVector(rng.standard_normal(3) + 0j)
        witnesses = [points[1]] + default_tau_w_witnesses(dim=3, count_random=4)
        rep = converge_tau_w(ExplicitList(points), limit, witnesses, prefix=20)
        expected = _pairing_loop(points, limit, witnesses)
        largest = max(v.norm() for v in (limit,) + points) * max(w.norm() for w in witnesses)
        atol = 4 * 3 * np.finfo(np.float64).eps * largest
        assert np.allclose(rep.residual_traces, expected, rtol=0.0, atol=atol)

    def test_mixed_dimensions_raise(self):
        seq = AlternatingSign(length=10)
        with pytest.raises(DimensionMismatch):
            converge_tau_w(seq, DenseVector([1.0, 1.0]), [DenseVector([1.0, 0.0, 0.0])], prefix=10)
        with pytest.raises(DimensionMismatch):
            converge_tau_w(seq, DenseVector([1.0, 1.0, 0.0]), default_tau_w_witnesses(dim=2), prefix=10)
        mixed = ExplicitList((DenseVector([1.0, 0.0]), DenseVector([1.0, 0.0, 0.0])))
        with pytest.raises(DimensionMismatch):
            converge_tau_w(mixed, DenseVector([1.0, 0.0]), default_tau_w_witnesses(dim=2), prefix=2)

    def test_dense_points_against_longer_finite_supports(self):
        seq = AlternatingSign(length=10)
        witnesses = [FiniteSupportVector([(1, 1.0), (9, 2.0)]), FiniteSupportVector([(7, 1.0)])]
        rep = converge_tau_w(seq, DenseVector([1.0, 1.0]), witnesses, prefix=10)
        assert rep.residual_traces.tolist() == [[0.0] * 10, [0.0] * 10]

    def test_user_witness_takes_priority(self):
        seq = AlternatingSign(length=50)
        limit = DenseVector([1.0, 1.0])
        mine = DenseVector([1.0, 1.0])
        rep = converge_tau_w(seq, limit, [mine] + default_tau_w_witnesses(dim=2), prefix=50)
        assert rep.verdict == ConvergenceVerdict.DIVERGENCE
        assert rep.witness is mine
        assert rep.witness_gap == 2.0

    def test_empty_witness_list_rejected(self):
        with pytest.raises(IncompatibleVector):
            converge_tau_w(AlternatingSign(length=5), DenseVector([1.0, 1.0]), [], prefix=5)

    def test_scaled_basis_diverges_against_reciprocal_only(self):
        seq = ScaledBasis(length=40)
        limit = FiniteSupportVector([])
        witnesses = default_tau_w_witnesses(truncation=50, seed=0)
        rep = converge_tau_w(seq, limit, witnesses, prefix=40)
        assert rep.verdict == ConvergenceVerdict.DIVERGENCE
        assert isinstance(rep.witness, ReciprocalVector)
        assert rep.witness_gap == 1.0

    def test_sequence_space_traces_equal_entry_loop(self):
        # every pair shares at most one nonzero index, so each pairing is exact
        seq = ScaledBasis(length=40, power=0.5)
        witnesses = default_tau_w_witnesses(truncation=50, seed=3)
        limit = FiniteSupportVector([])
        rep = converge_tau_w(seq, limit, witnesses, prefix=40)
        points = [seq.point(k) for k in range(1, 41)]
        expected = _entry_loop(points, limit, witnesses)
        assert rep.residual_traces.tobytes() == expected.tobytes()

    def test_multi_overlap_traces_within_forward_error(self):
        rng = np.random.default_rng(8)
        points = (ReciprocalVector(),) + tuple(
            FiniteSupportVector(list(zip(rng.choice(50, 4, replace=False) + 1, rng.standard_normal(4))))
            for _ in range(19)
        )
        limit = DenseVector(rng.standard_normal(50))
        witnesses = default_tau_w_witnesses(truncation=50, seed=4, count_random=8)
        rep = converge_tau_w(ExplicitList(points), limit, witnesses, prefix=20)
        expected = _entry_loop(points, limit, witnesses)
        largest = max(v.norm() for v in (limit,) + points) * max(w.norm() for w in witnesses)
        atol = 4 * 50 * np.finfo(np.float64).eps * largest
        assert np.allclose(rep.residual_traces, expected, rtol=0.0, atol=atol)
        # the reciprocal point pairs with the reciprocal witness to the Basel sum
        basel = abs(BASEL_SUM - abs(_entry_pairing(limit, ReciprocalVector())))
        assert rep.residual_traces[-1, 0] == pytest.approx(basel, rel=0.0, abs=atol)

    def test_default_witness_composition(self):
        fin = default_tau_w_witnesses(dim=3, count_random=4)
        assert len(fin) == 7 and not any(isinstance(w, ReciprocalVector) for w in fin)
        seq_space = default_tau_w_witnesses(truncation=50, count_random=4)
        assert isinstance(seq_space[-1], ReciprocalVector)


class TestMetricConvergence:
    def test_unbounded_scaled_basis(self):
        frame = PairwiseSumFrame(50)
        rep = converge_d_phi(frame, ScaledBasis(length=45), FiniteSupportVector([]), prefix=45)
        assert rep.verdict == ConvergenceVerdict.UNBOUNDED
        assert np.array_equal(rep.residual_traces[0], np.arange(1.0, 46.0))

    def test_unit_basis_trace_pinned_at_one(self):
        frame = PairwiseSumFrame(50)
        rep = converge_d_phi(
            frame, ScaledBasis(length=45, power=0.0), FiniteSupportVector([]), prefix=45
        )
        assert rep.verdict == ConvergenceVerdict.DIVERGENCE
        assert np.all(rep.residual_traces[0] == 1.0)

    @pytest.mark.parametrize("case", ["pairwise_sum", "r2"])
    def test_trace_equals_per_point_d_phi(self, case, r2_frame):
        if case == "pairwise_sum":
            frame, seq, limit = PairwiseSumFrame(50), ScaledBasis(length=45, power=0.5), basis_vector(3)
        else:
            frame, limit = r2_frame, DenseVector([1.0, -1.0])
            seq = PerturbedLimit(limit=limit, direction=DenseVector([0.3, 0.7]), length=60)
        rep = converge_d_phi(frame, seq, limit, prefix=45)
        expected = np.array([d_phi(frame, seq.point(k), limit) for k in range(1, 46)])
        assert rep.residual_traces[0].tobytes() == expected.tobytes()

    def test_consistent_perturbed_sequence(self, r2_frame):
        seq = PerturbedLimit(
            limit=DenseVector([1.0, -1.0]), direction=DenseVector([2.0, 1.0]), length=80
        )
        rep = converge_d_phi(r2_frame, seq, DenseVector([1.0, -1.0]), prefix=80)
        assert rep.verdict == ConvergenceVerdict.CONSISTENT

    def test_report_document_shape(self, r2_frame):
        seq = AlternatingSign(length=30)
        rep = converge_d_phi(r2_frame, seq, DenseVector([1.0, 1.0]), prefix=30)
        doc = rep.to_dict()
        assert doc["claim_scope"] == "finite_prefix_only"
        assert doc["topology"] == "d_phi"
        assert len(doc["residual_trace"][0]) <= 512


class TestSeparationWitness:
    def test_smallest_separating_index(self, r2_frame):
        idx = separation_witness(r2_frame, DenseVector([1.0, 0.0]), DenseVector([0.0, 1.0]))
        assert idx == 1

    def test_class_equal_pair_is_inseparable(self, r2_frame):
        x = DenseVector([0.3, -0.7])
        assert separation_witness(r2_frame, x, DenseVector(-x.coords)) is None

    def test_onb_cannot_separate_sign_flips(self, onb_frame):
        x = DenseVector([1.0, 1.0])
        y = DenseVector([1.0, -1.0])
        assert separation_witness(onb_frame, x, y) is None
        assert bures_distance(x, y) == 2.0


class TestCoincidenceSuite:
    def test_certified_frame_has_no_mismatches(self, r2_frame):
        rep = finite_dim_coincidence_suite(r2_frame, trials=10, seed=0)
        assert rep.pr_certified
        assert rep.mismatches == 0

    def test_failing_frame_yields_an_exemplar(self, onb_frame):
        rep = finite_dim_coincidence_suite(onb_frame, trials=10, seed=0)
        assert not rep.pr_certified
        assert rep.mismatches >= 1
        exemplar = rep.exemplars[0]
        assert exemplar["tau_phi"] != exemplar["tau_w"]

    def test_requires_real_spanning_frame(self, c2_frame):
        with pytest.raises(IncompatibleVector):
            finite_dim_coincidence_suite(c2_frame, trials=2)
        degenerate = ExplicitFrame([DenseVector([1.0, 0.0]), DenseVector([2.0, 0.0])])
        with pytest.raises(NotAFrameError):
            finite_dim_coincidence_suite(degenerate, trials=2)

    def test_spanning_check_ignores_vector_scale(self):
        # certifies as phase retrieval, though the smallest eigenvalue of its
        # frame operator is 6.25e-13 times the largest
        s = 1e-6
        rows = ([s, 0, 0], [0, 1, 0], [0, 0, 1], [s, 1, 0], [s, 0, 1], [0, 1, 1])
        frame = ExplicitFrame([DenseVector(r) for r in rows])
        rep = finite_dim_coincidence_suite(frame, trials=2, seed=0)
        assert rep.pr_certified
        assert rep.mismatches == 0

    def test_rescaled_rows_have_no_mismatches(self):
        # R^4, m=7 Gaussian rows scaled by 1e-12 .. 1: every frame certifies,
        # and a realizer that let a tiny row's sign float reported mismatches
        rng = np.random.default_rng(0)
        for _ in range(6):
            exponents = rng.permutation(7) * 2.0 - 12.0
            frame = ExplicitFrame(rng.standard_normal((7, 4)) * 10.0 ** exponents[:, None])
            rep = finite_dim_coincidence_suite(frame, trials=1, prefix=50)
            assert rep.pr_certified
            assert rep.mismatches == 0

    def test_random_certified_r3_frame(self):
        rng = np.random.default_rng(71)
        frame = random_real_frame(rng, 5, 3)
        rep = finite_dim_coincidence_suite(frame, trials=5, seed=1)
        if rep.pr_certified:
            assert rep.mismatches == 0

    def test_report_document(self, r2_frame):
        doc = finite_dim_coincidence_suite(r2_frame, trials=3, seed=0).to_dict()
        assert doc["claim_scope"] == "finite_prefix_only"
        assert doc["pr_certified"] is True
