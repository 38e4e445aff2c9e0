"""Convergence diagnostics: sequence specs, verdicts, witnesses, the suite."""

import numpy as np
import pytest

from phaselens import (
    AlternatingSign,
    ConvergenceVerdict,
    DenseVector,
    DimensionMismatch,
    ExplicitFrame,
    FieldError,
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
from phaselens import topology
from phaselens.frames import analysis_magnitudes
from phaselens.vectors import BASEL_SUM
from conftest import coincidence_suite_oracle, random_real_frame


def _magnitude_loop(frame, points, limit):
    """| |<x_k, phi_i>| - |<limit, phi_i>| | by one analysis_magnitudes call per point."""
    target = analysis_magnitudes(frame, limit)
    return np.array([np.abs(analysis_magnitudes(frame, p) - target) for p in points]).T


def _trace_case(name, frames):
    """(frame, seq, limit) of one named trace test case."""
    if name == "pairwise_sum":
        return PairwiseSumFrame(50), ScaledBasis(length=45, power=0.5), basis_vector(3)
    if name == "c2":
        limit = DenseVector([1.0 + 0.5j, -0.25j])
        seq = PerturbedLimit(limit=limit, direction=DenseVector([0.3j, 0.7]), length=60)
        return frames["c2"], seq, limit
    limit = DenseVector([1.0, -1.0])
    seq = PerturbedLimit(limit=limit, direction=DenseVector([0.3, 0.7]), length=60)
    return frames["r2"], seq, limit


TRACE_CASES = ["pairwise_sum", "r2", "c2"]


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

    @pytest.mark.parametrize(
        "make",
        [
            lambda: PerturbedLimit(DenseVector([1.0, 0.0, 0.0]), DenseVector([0.0, 1.0]), 20),
            lambda: PerturbedLimit(FiniteSupportVector([(1, 1.0)]), DenseVector([0.0, 1.0]), 20),
            lambda: PerturbedLimit(DenseVector([1.0, 0.0]), ReciprocalVector(), 20),
            lambda: ScaledBasis(length=45, power=1000.0),
            lambda: ScaledBasis(length=45, power=float("inf")),
            lambda: ScaledBasis(length=45, power=float("nan")),
        ],
        ids=["dims_differ", "finite_support_limit", "reciprocal_direction",
             "overflowing_power", "infinite_power", "nan_power"],
    )
    def test_points_outside_the_domain_are_refused_at_construction(self, make):
        with pytest.raises(IncompatibleVector):
            make()

    def test_largest_finite_power_is_accepted(self):
        assert ScaledBasis(length=45, power=100.0).point(45).entry(45) == 45.0 ** 100

    @pytest.mark.parametrize(
        "seq",
        [
            AlternatingSign(length=41),
            PerturbedLimit(DenseVector([1.0, -2.0, 0.5]), DenseVector([0.3, 0.7, -1.1]), 300),
            PerturbedLimit(DenseVector([1.0 + 0.5j, -0.25j]), DenseVector([0.3j, 0.7]), 300, rate=0.37),
            PerturbedLimit(DenseVector([1.0, -1.0]), DenseVector([0.3 - 1j, 0.7]), 300, rate=2.9),
            PerturbedLimit(DenseVector([1.0 + 1j, -1.0]), DenseVector([0.1, 0.7]), 300, rate=1.3),
        ],
        ids=["alternating", "real", "complex", "complex_direction", "complex_limit"],
    )
    def test_block_rows_are_the_points(self, seq):
        block = seq.head(seq.length)
        assert block.shape[0] == seq.length
        for k in range(1, seq.length + 1):
            assert block[k - 1].tobytes() == seq.point(k).coords.tobytes()
            assert block.dtype == seq.point(k).coords.dtype

    def test_explicit_list_of_a_block(self):
        seq = ExplicitList(np.arange(6).reshape(3, 2))
        assert seq.length == 3
        assert seq.points.dtype == np.float64
        assert isinstance(seq.point(2), DenseVector)
        assert seq.point(2).coords.tolist() == [2.0, 3.0]
        assert seq.head(2).tolist() == [[0.0, 1.0], [2.0, 3.0]]
        assert ExplicitList(np.ones((2, 2), dtype=np.complex64)).points.dtype == np.complex128
        for bad in (np.zeros(3), np.zeros((1, 2)), np.zeros((3, 0)), np.zeros((2, 2, 2))):
            with pytest.raises(IncompatibleVector):
                ExplicitList(bad)

    def test_explicit_lists_compare_by_identity(self):
        # a block has no truth value, so field-wise equality raised
        block = np.arange(6.0).reshape(3, 2)
        seq = ExplicitList(block)
        assert (seq == ExplicitList(block.copy())) is False
        assert seq == seq
        assert len({seq, ExplicitList(block), ExplicitList((DenseVector([1.0]), DenseVector([2.0])))}) == 3


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

    @pytest.mark.parametrize("case", TRACE_CASES)
    def test_traces_equal_magnitude_loop(self, case, r2_frame, c2_frame):
        frame, seq, limit = _trace_case(case, {"r2": r2_frame, "c2": c2_frame})
        rep = converge_tau_phi(frame, seq, limit, prefix=45)
        expected = _magnitude_loop(frame, [seq.point(k) for k in range(1, 46)], limit)
        assert rep.residual_traces.shape == expected.shape
        assert rep.residual_traces.tobytes(order="C") == expected.tobytes(order="C")

    def test_prefix_validation(self, r2_frame):
        seq = AlternatingSign(length=10)
        with pytest.raises(IncompatibleVector):
            converge_tau_phi(r2_frame, seq, DenseVector([1.0, 1.0]), prefix=1)

    def test_point_block_keeps_the_coercion_rules(self, r2_frame, c2_frame):
        limit = DenseVector([1.0, 0.0])
        with pytest.raises(FieldError):
            converge_tau_phi(r2_frame, ExplicitList(np.array([[1.0, 1j], [1.0, 0.0]])), limit)
        with pytest.raises(DimensionMismatch):
            converge_tau_phi(r2_frame, ExplicitList(np.ones((4, 3))), DenseVector([1.0, 0.0, 0.0]))
        with pytest.raises(DimensionMismatch):  # limit and points of different dims
            converge_tau_phi(r2_frame, ExplicitList(np.ones((4, 3))), limit)
        # a complex block with zero imaginary parts is real on a real frame
        points = np.random.default_rng(2).standard_normal((30, 2))
        real = converge_tau_phi(r2_frame, ExplicitList(points), limit)
        typed = converge_tau_phi(r2_frame, ExplicitList(points + 0j), limit)
        assert real.residual_traces.tobytes() == typed.residual_traces.tobytes()
        complex_limit = DenseVector([1.0 + 0j, 0.0])
        mixed = converge_tau_phi(c2_frame, ExplicitList(points), complex_limit)
        objects = ExplicitList(tuple(DenseVector(p) for p in points))
        assert mixed.residual_traces.tobytes() == converge_tau_phi(c2_frame, objects, complex_limit).residual_traces.tobytes()


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

    @pytest.mark.parametrize("case", TRACE_CASES)
    def test_trace_equals_per_point_d_phi(self, case, r2_frame, c2_frame):
        frame, seq, limit = _trace_case(case, {"r2": r2_frame, "c2": c2_frame})
        rep = converge_d_phi(frame, seq, limit, prefix=45)
        expected = np.array([d_phi(frame, seq.point(k), limit) for k in range(1, 46)])
        assert rep.residual_traces[0].tobytes() == expected.tobytes()
        loop = _magnitude_loop(frame, [seq.point(k) for k in range(1, 46)], limit)
        assert rep.residual_traces[0].tobytes() == np.max(loop, axis=0).tobytes()

    @pytest.mark.parametrize("case", TRACE_CASES)
    def test_blocked_trace_equals_one_block(self, case, r2_frame, c2_frame, monkeypatch):
        frame, seq, limit = _trace_case(case, {"r2": r2_frame, "c2": c2_frame})
        whole = converge_d_phi(frame, seq, limit, prefix=45).residual_traces
        # blocks of 1 and of 2 points, the last one short
        for entries in (1, 2 * frame.m):
            monkeypatch.setattr(topology, "_BLOCK_ENTRIES", entries)
            blocked = converge_d_phi(frame, seq, limit, prefix=45).residual_traces
            assert blocked.tobytes() == whole.tobytes()

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

    @pytest.mark.parametrize("copies", [19, 20])
    def test_pair_comes_from_the_failing_subset(self, copies):
        # e2 then e1 repeated: the complement property fails at {1} and the
        # suite builds its pair from that split; m = 21 is beyond the
        # falsifier's sign cap, and m = 20 would cost it 2^19 sign patterns
        frame = ExplicitFrame([DenseVector([0.0, 1.0])] + [DenseVector([1.0, 0.0])] * copies)
        rep = finite_dim_coincidence_suite(frame, trials=2, seed=0)
        assert not rep.pr_certified
        assert rep.mismatches == 1

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

    @staticmethod
    def oracle_frames():
        rng = np.random.default_rng(18)
        frames = {"r2": ExplicitFrame(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))}
        for m, n in ((5, 3), (7, 4)):
            frames[f"r{n}_m{m}"] = random_real_frame(rng, m, n)
        frames["onb"] = ExplicitFrame(np.eye(2))
        frames["undercomplete"] = random_real_frame(rng, 6, 4)
        planted = rng.standard_normal((8, 3))
        planted[:6, 2] = 0.0  # six vectors in one plane: a failing split
        frames["planted"] = ExplicitFrame(planted)
        frames["repeated"] = ExplicitFrame(np.array([[0.0, 1.0]] + [[1.0, 0.0]] * 19))
        exponents = rng.permutation(7) * 2.0 - 12.0
        frames["rescaled"] = ExplicitFrame(rng.standard_normal((7, 4)) * 10.0 ** exponents[:, None])
        return frames

    @pytest.mark.parametrize(
        "name", ["r2", "r3_m5", "r4_m7", "onb", "undercomplete", "planted", "repeated", "rescaled"]
    )
    def test_suite_equals_per_point_oracle(self, name):
        frame = self.oracle_frames()[name]
        for seed, prefix in ((0, 200), (5, 37)):
            rep = finite_dim_coincidence_suite(frame, trials=3, prefix=prefix, seed=seed)
            assert rep.pr_certified == (name in ("r2", "r3_m5", "r4_m7", "rescaled"))
            assert rep.to_dict() == coincidence_suite_oracle(frame, trials=3, prefix=prefix, seed=seed).to_dict()

    @pytest.mark.parametrize("name", ["r4_m7", "planted"])
    def test_suite_builds_no_per_point_objects(self, name, monkeypatch):
        # the realized (or sign-flipped) points travel as one block, so the
        # number of coerced vectors and DenseVectors does not grow with the prefix
        frame = self.oracle_frames()[name]
        counts = {"coerce": 0, "dense": 0}
        coerce, init = ExplicitFrame.coerce, DenseVector.__init__

        def counting_coerce(self, x):
            counts["coerce"] += 1
            return coerce(self, x)

        def counting_init(self, coords):
            counts["dense"] += 1
            init(self, coords)

        monkeypatch.setattr(ExplicitFrame, "coerce", counting_coerce)
        monkeypatch.setattr(DenseVector, "__init__", counting_init)
        seen = []
        for prefix in (20, 200):
            counts.update(coerce=0, dense=0)
            finite_dim_coincidence_suite(frame, trials=2, prefix=prefix, seed=1)
            seen.append(dict(counts))
        assert seen[0] == seen[1]

    def test_suite_realizes_once(self, monkeypatch):
        # every target of every trial goes to the realizer in one block
        frame = self.oracle_frames()["r4_m7"]
        calls = []
        realize = topology._realize

        def counting_realize(frame, targets):
            calls.append(np.shape(targets))
            return realize(frame, targets)

        monkeypatch.setattr(topology, "_realize", counting_realize)
        rep = finite_dim_coincidence_suite(frame, trials=3, prefix=50, seed=2)
        assert rep.pr_certified
        assert calls == [(150, 7)]

    @pytest.mark.parametrize("n", [2, 3, 4, 7])
    def test_witness_block_is_the_default_witnesses(self, n, monkeypatch):
        # rows 2.. of each trial's tau_w block are bytewise the dense
        # default witnesses for seed + t, and equal the per-row construction
        frame = random_real_frame(np.random.default_rng(n), 2 * n + 1, n)
        blocks = []
        converge = topology.converge_tau_w

        def capturing_converge(seq, limit, witnesses, prefix, tol):
            blocks.append(witnesses)
            return converge(seq, limit, witnesses, prefix, tol)

        monkeypatch.setattr(topology, "converge_tau_w", capturing_converge)
        rep = finite_dim_coincidence_suite(frame, trials=2, prefix=20, seed=11)
        assert rep.pr_certified and len(blocks) == 2
        for t, block in enumerate(blocks):
            want = default_tau_w_witnesses(dim=n, seed=11 + t, count_random=8)
            assert block.shape == (2 + n + 8, n)
            assert [row.tobytes() for row in block[2:]] == [w.coords.tobytes() for w in want]
            rng = np.random.default_rng(11 + t)
            for row in block[2 + n:]:
                v = rng.standard_normal(n)
                assert row.tobytes() == (v / np.linalg.norm(v)).tobytes()

    def test_report_document(self, r2_frame):
        doc = finite_dim_coincidence_suite(r2_frame, trials=3, seed=0).to_dict()
        assert doc["claim_scope"] == "finite_prefix_only"
        assert doc["pr_certified"] is True
