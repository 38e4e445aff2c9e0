"""Property tests on small degenerate frames.

Frames are {-1, 0, 1} integer matrices with n = 2..4 and m = n..2n+1 that
span, so repeated, parallel and zero vectors all occur.  Two routes must
agree (subset enumeration and the constructive falsifier), and the verdict
must not move under transforms that preserve phase retrieval.  The exact
minimax distance is checked against a dense phase grid on small complex
frames whose entries mix Gaussian integers and floats.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given
from hypothesis import strategies as st

from phaselens import (
    DenseVector,
    ExplicitFrame,
    Verdict,
    certify_phase_retrieval,
    complement_property,
    falsify_by_sign_enumeration,
    frak_distance,
)


@st.composite
def spanning_integer_frames(draw):
    n = draw(st.integers(2, 4))
    m = draw(st.integers(n, 2 * n + 1))
    entries = st.lists(st.sampled_from((-1.0, 0.0, 1.0)), min_size=n, max_size=n)
    matrix = np.array(draw(st.lists(entries, min_size=m, max_size=m)))
    assume(np.linalg.matrix_rank(matrix) == n)
    return matrix


def as_frame(matrix):
    return ExplicitFrame([DenseVector(row) for row in matrix])


@given(spanning_integer_frames())
def test_complement_property_agrees_with_falsifier(matrix):
    frame = as_frame(matrix)
    positive = complement_property(frame).verdict == Verdict.PHASE_RETRIEVAL
    assert positive == (falsify_by_sign_enumeration(frame) is None)


@given(spanning_integer_frames(), st.data())
def test_verdict_invariant_under_pr_preserving_transforms(matrix, data):
    verdict = certify_phase_retrieval(as_frame(matrix)).verdict
    m = matrix.shape[0]
    order = data.draw(st.permutations(range(m)))
    row = data.draw(st.integers(0, m - 1))
    factor = data.draw(st.sampled_from((-3.0, 1e-6, 1e3)))
    rescaled = matrix.copy()
    rescaled[row] *= factor
    duplicated = np.vstack([matrix, matrix[row]])
    for variant in (matrix[list(order)], rescaled, duplicated):
        assert certify_phase_retrieval(as_frame(variant)).verdict == verdict


_parts = st.one_of(st.sampled_from((-1.0, 0.0, 0.5, 1.0)), st.floats(-2.0, 2.0))
_complex_entries = st.builds(complex, _parts, _parts)


@st.composite
def complex_frames_and_pairs(draw):
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 6))
    rows = st.lists(_complex_entries, min_size=n, max_size=n)
    matrix = np.array(draw(st.lists(rows, min_size=m, max_size=m)), dtype=complex)
    x, y = (np.array(draw(rows), dtype=complex) for _ in range(2))
    return matrix, x, y


def _sup_over_frame(a, b, thetas):
    return np.max(np.abs(a[:, None] - np.exp(1j * np.asarray(thetas))[None, :] * b[:, None]), axis=0)


@given(complex_frames_and_pairs())
def test_minimax_distance_is_the_exact_minimum(data):
    matrix, x, y = data
    frame = ExplicitFrame([DenseVector(row) for row in matrix], field="complex")
    res = frak_distance(frame, DenseVector(x), DenseVector(y))
    a, b = matrix.conj() @ x, matrix.conj() @ y
    rounding = 1e-12 * (1.0 + np.max(np.abs(a)) + np.max(np.abs(b)))
    grid = np.linspace(0.0, 2.0 * np.pi, 20_001)
    assert res.value <= np.min(_sup_over_frame(a, b, grid)) + rounding
    assert res.value >= np.max(np.abs(np.abs(a) - np.abs(b))) - rounding
    assert abs(_sup_over_frame(a, b, [res.theta_star])[0] - res.value) <= rounding
    assert frak_distance(frame, DenseVector(y), DenseVector(x)).value == res.value
