"""Property tests on small degenerate frames.

Frames are {-1, 0, 1} integer matrices with n = 2..4 and m = n..2n+1 that
span, so repeated, parallel and zero vectors all occur.  Two routes must
agree (subset enumeration and the constructive falsifier), and the verdict
must not move under transforms that preserve phase retrieval.
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
