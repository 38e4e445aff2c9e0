"""Quotient metrics: values, axioms, the inequality chain, and realization."""

import itertools
import math

import numpy as np
import pytest

from phaselens import (
    DenseVector,
    EnumerationCapExceeded,
    ExplicitFrame,
    FieldError,
    IncompatibleVector,
    analysis_magnitudes,
    bures_distance,
    d_phi,
    d_phi_definitional,
    frak_distance,
    inequality_report,
    realize_from_magnitudes,
)
from conftest import random_real_frame, random_unit


class TestBuresDistance:
    def test_quotient_collapse(self):
        x = DenseVector([2.0, -1.0])
        assert bures_distance(x, DenseVector(-x.coords)) == 0.0
        z = DenseVector([1.0 + 1j, 2j])
        rotated = DenseVector(np.exp(0.7j) * z.coords)
        assert bures_distance(z, rotated) == pytest.approx(0.0, abs=1e-7)

    def test_orthogonal_pair_uses_pythagoras(self):
        x = DenseVector([3.0, 0.0])
        y = DenseVector([0.0, 4.0])
        assert bures_distance(x, y) == 5.0

    def test_bounded_by_norm_difference_path(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            x, y = rng.standard_normal(3), rng.standard_normal(3)
            d = bures_distance(DenseVector(x), DenseVector(y))
            assert d <= np.linalg.norm(x - y) + 1e-12
            assert d >= abs(np.linalg.norm(x) - np.linalg.norm(y)) - 1e-12


class TestDPhi:
    def test_fixture_values(self, c2_frame):
        x = DenseVector([3.0 + 0j, 0j])
        y = DenseVector([0j, 4.0 + 0j])
        assert d_phi(c2_frame, x, y) == 4.0

    def test_agrees_with_definitional_oracle(self, c2_frame, r2_frame):
        rng = np.random.default_rng(8)
        for frame, cplx in ((r2_frame, False), (c2_frame, True)):
            for _ in range(100):
                x = random_unit(rng, 2, cplx)
                y = random_unit(rng, 2, cplx)
                direct = d_phi(frame, x, y)
                value, deviation = d_phi_definitional(
                    frame, x, y, return_grid_deviation=True
                )
                assert direct == pytest.approx(value, abs=1e-12)
                # the 64-point grid tracks the analytic minimum only to its
                # Lipschitz resolution, about 0.07 for unit vectors here
                assert deviation <= 0.1

    def test_rejects_tiny_grid(self, r2_frame):
        with pytest.raises(IncompatibleVector):
            d_phi_definitional(r2_frame, DenseVector([1.0, 0.0]), DenseVector([0.0, 1.0]), points=1)


class TestFrakDistance:
    def test_real_phase_set_is_exact(self, r2_frame):
        x = DenseVector([1.0, 2.0])
        y = DenseVector([-1.5, 0.5])
        res = frak_distance(r2_frame, x, y)
        g0 = np.max(np.abs((r2_frame.matrix @ x.coords) - (r2_frame.matrix @ y.coords)))
        g1 = np.max(np.abs((r2_frame.matrix @ x.coords) + (r2_frame.matrix @ y.coords)))
        assert res.value == min(g0, g1)

    def test_complex_fixture_value(self, c2_frame):
        res = frak_distance(c2_frame, DenseVector([3.0 + 0j, 0j]), DenseVector([0j, 4.0 + 0j]))
        assert res.value == pytest.approx(4.0, abs=1e-6)

    def test_symmetry_is_bit_exact(self, c2_frame):
        rng = np.random.default_rng(19)
        for _ in range(20):
            x = random_unit(rng, 2, True)
            y = random_unit(rng, 2, True)
            assert frak_distance(c2_frame, x, y).value == frak_distance(c2_frame, y, x).value

    def test_theta_star_attains_the_value(self, c2_frame):
        rng = np.random.default_rng(29)
        x = random_unit(rng, 2, True)
        y = random_unit(rng, 2, True)
        res = frak_distance(c2_frame, x, y)
        attained = float(
            np.max(
                np.abs(
                    c2_frame.matrix.conj() @ x.coords
                    - np.exp(1j * res.theta_star) * (c2_frame.matrix.conj() @ y.coords)
                )
            )
        )
        assert attained == pytest.approx(res.value, abs=1e-8)

    def test_class_equal_complex_pair_is_zero(self):
        rng = np.random.default_rng(53)
        frame = ExplicitFrame(
            [DenseVector(row) for row in rng.standard_normal((16, 4)) + 1j * rng.standard_normal((16, 4))]
        )
        x = random_unit(rng, 4, True)
        y = DenseVector(np.exp(0.7j) * x.coords)
        res = frak_distance(frame, x, y)
        assert res.value <= 1e-12 * x.norm()


class TestMetricAxioms:
    @pytest.mark.parametrize("complex_field", [False, True])
    def test_symmetry_and_triangle(self, complex_field, r2_frame, c2_frame):
        frame = c2_frame if complex_field else r2_frame
        rng = np.random.default_rng(43)
        for _ in range(50):
            x, y, z = (random_unit(rng, 2, complex_field) for _ in range(3))
            for metric in (
                lambda a, b: bures_distance(a, b),
                lambda a, b: d_phi(frame, a, b),
                lambda a, b: frak_distance(frame, a, b).value,
            ):
                assert metric(x, y) == metric(y, x)
                assert metric(x, y) + metric(y, z) - metric(x, z) >= -1e-9

    @pytest.mark.parametrize("complex_field", [False, True])
    def test_class_invariance(self, complex_field, r2_frame, c2_frame):
        frame = c2_frame if complex_field else r2_frame
        rng = np.random.default_rng(47)
        for _ in range(20):
            x = random_unit(rng, 2, complex_field)
            y = random_unit(rng, 2, complex_field)
            lam = np.exp(0.9j) if complex_field else -1.0
            y2 = DenseVector(lam * y.coords)
            assert bures_distance(x, y2) == pytest.approx(bures_distance(x, y), abs=1e-9)
            assert d_phi(frame, x, y2) == pytest.approx(d_phi(frame, x, y), abs=1e-9)
            assert frak_distance(frame, x, y2).value == pytest.approx(
                frak_distance(frame, x, y).value, abs=1e-8
            )

    def test_continuity_in_each_argument(self, r2_frame):
        # |D(x_k, y) - D(x, y)| <= |x_k - x|: the metric descends continuously
        rng = np.random.default_rng(53)
        x, y = random_unit(rng, 2), random_unit(rng, 2)
        base = bures_distance(x, y)
        for k in (1, 10, 100):
            xk = DenseVector(x.coords + rng.standard_normal(2) / (10.0 * k))
            shift = np.linalg.norm(xk.coords - x.coords)
            assert abs(bures_distance(xk, y) - base) <= shift + 1e-12


class TestInequalityReport:
    def test_all_slacks_nonnegative(self, c2_frame, r2_frame):
        rng = np.random.default_rng(59)
        for frame, cplx in ((r2_frame, False), (c2_frame, True)):
            for _ in range(25):
                rep = inequality_report(frame, random_unit(rng, 2, cplx), random_unit(rng, 2, cplx))
                for name, slack in rep.inequality_slacks.items():
                    assert slack >= -1e-9, name

    def test_identical_arguments_give_zeros(self, c2_frame):
        x = DenseVector([1.0 + 2j, -1j])
        rep = inequality_report(c2_frame, x, x)
        assert rep.D == 0.0 and rep.d_phi == 0.0 and rep.frak_D == 0.0
        assert rep.alpha_diff_norm == 0.0

    def test_report_document(self, r2_frame):
        doc = inequality_report(r2_frame, DenseVector([1.0, 0.0]), DenseVector([0.0, 1.0])).to_dict()
        assert doc["schema_version"] == "1"
        assert set(doc["inequality_slacks"]) == {
            "d_phi_le_sqrtB_D",
            "frak_le_sqrtB_D",
            "D_le_sqrt_m_over_A_frak",
            "d_phi_le_alpha_diff",
            "alpha_diff_le_sqrt_m_d_phi",
        }


class TestRealization:
    def test_round_trip_recovers_the_class(self, r2_frame):
        rng = np.random.default_rng(61)
        for _ in range(50):
            x = random_unit(rng, 2)
            realized = realize_from_magnitudes(r2_frame, analysis_magnitudes(r2_frame, x))
            assert realized is not None
            assert bures_distance(realized, x) <= 1e-8

    def test_unrealizable_pattern_returns_none(self, r2_frame):
        # |x1| = |x2| = 1 forces |x1 + x2| in {0, 2}, never 5
        assert realize_from_magnitudes(r2_frame, np.array([1.0, 1.0, 5.0])) is None

    def test_zero_pattern_gives_zero_class(self, r2_frame):
        realized = realize_from_magnitudes(r2_frame, np.zeros(3))
        assert realized.norm() == 0.0

    def test_input_validation(self, r2_frame, c2_frame):
        with pytest.raises(IncompatibleVector):
            realize_from_magnitudes(r2_frame, np.array([1.0, 2.0]))
        with pytest.raises(IncompatibleVector):
            realize_from_magnitudes(r2_frame, np.array([1.0, -2.0, 1.0]))
        with pytest.raises(FieldError):
            realize_from_magnitudes(c2_frame, np.ones(4))
        with pytest.raises(EnumerationCapExceeded):
            realize_from_magnitudes(r2_frame, np.ones(3), sign_cap=2)

    @pytest.mark.parametrize(
        "m, n, count",
        [(3, 2, 301), (7, 4, 150), (8, 4, 75), (14, 5, 3)],
        ids=["r2_full_spark", "one_partial_slice", "three_slices", "slice_per_target"],
    )
    def test_block_equals_per_row_calls(self, m, n, count):
        # 7 rows: 64 patterns, 64 targets per slice, 150 = 2 * 64 + 22;
        # 8 rows: 32 targets per slice; 14 rows: 8192 patterns, one per slice
        rng = np.random.default_rng(m)
        frame = random_real_frame(rng, m, n)
        targets = np.abs(rng.standard_normal((count, n)) @ frame.matrix.T)
        targets[1::5] = rng.uniform(0.0, 2.0, (targets[1::5].shape[0], m))
        targets[::7] = 0.0
        block = realize_from_magnitudes(frame, targets)
        assert len(block) == count
        assert any(r is None for r in block)
        for row, got in zip(targets, block):
            want = realize_from_magnitudes(frame, row)
            if want is None:
                assert got is None
            else:
                assert got.rep.coords.tobytes() == want.rep.coords.tobytes()
        zero_rows = block[::7]
        assert all(r is not None and r.norm() == 0.0 for r in zero_rows)

    def test_first_pattern_in_counting_order_wins(self):
        # {e1, e2, e3, e1+e2} leaves the sign of x3 free, so two signings of
        # every pattern with x3 != 0 are realizable and the order decides
        rng = np.random.default_rng(29)
        rows = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
        frame = ExplicitFrame(rows * np.array([[1.0], [2.0], [0.5], [3.0]]))
        a = frame.matrix / np.linalg.norm(frame.matrix, axis=1)[:, None]
        targets = np.abs(rng.standard_normal((40, 3)) @ frame.matrix.T)
        for target, got in zip(targets, realize_from_magnitudes(frame, targets)):
            unit = target / np.linalg.norm(frame.matrix, axis=1)
            for signs in itertools.product((1.0, -1.0), repeat=3):
                signed = np.array((1.0,) + signs) * unit
                y = np.linalg.lstsq(a, signed, rcond=None)[0]
                if np.linalg.norm(a @ y - signed) <= 1e-8 * np.linalg.norm(unit):
                    break
            assert np.allclose(got.rep.coords, y, rtol=0.0, atol=1e-9)

    def test_block_input_validation(self, r2_frame):
        assert realize_from_magnitudes(r2_frame, np.zeros((0, 3))) == []
        with pytest.raises(IncompatibleVector):
            realize_from_magnitudes(r2_frame, np.ones((2, 2)))
        with pytest.raises(IncompatibleVector):
            realize_from_magnitudes(r2_frame, np.ones((2, 3, 1)))
        with pytest.raises(IncompatibleVector):
            realize_from_magnitudes(r2_frame, np.array([[1.0, 1.0, 2.0], [1.0, -1.0, 0.0]]))

    def test_rescaled_rows_still_pin_the_class(self):
        # rows scaled by 1e-12 .. 1: measured against |target| on raw rows,
        # a tiny row's sign was free within tolerance and the wrong class won
        rng = np.random.default_rng(0)
        m, n = 7, 4
        for _ in range(10):
            exponents = rng.permutation(m) * 2.0 - 12.0
            frame = ExplicitFrame(rng.standard_normal((m, n)) * 10.0 ** exponents[:, None])
            x = random_unit(rng, n)
            realized = realize_from_magnitudes(frame, analysis_magnitudes(frame, x))
            assert realized is not None
            assert bures_distance(realized, x) <= 1e-8

    def test_larger_real_frames(self):
        rng = np.random.default_rng(67)
        frame = random_real_frame(rng, 7, 3)
        for _ in range(20):
            x = random_unit(rng, 3)
            realized = realize_from_magnitudes(frame, analysis_magnitudes(frame, x))
            assert realized is not None
            assert bures_distance(realized, x) <= 1e-8


def test_example_metric_triple(c2_frame):
    """D = sqrt(n^2 + m^2) and both frame metrics equal max{n, m} on the
    canonical coordinate pair family."""
    for n, m in ((1, 1), (3, 4), (5, 2)):
        x = DenseVector([complex(n), 0j])
        y = DenseVector([0j, complex(m)])
        assert bures_distance(x, y) == pytest.approx(math.sqrt(n * n + m * m), abs=1e-12)
        assert d_phi(c2_frame, x, y) == pytest.approx(float(max(n, m)), abs=1e-12)
        assert frak_distance(c2_frame, x, y).value == pytest.approx(float(max(n, m)), abs=1e-6)
