"""Property tests on small degenerate frames.

Frames are {-1, 0, 1} integer matrices with n = 2..4 and m = n..2n+1 that
span, so repeated, parallel and zero vectors all occur.  Two routes must
agree (subset enumeration and the constructive falsifier), every negative
witness must re-verify, and the verdict must not move under transforms that
preserve phase retrieval.  The stacked rank engine behind the certificate,
spark and full spark must return the witnesses of the per-subset loops, on
those frames, on frames with rows rescaled by 10^U(-12, 0), on complex
frames and on frames whose smallest n-subset sigma_n sits near the
determinant screen's bound, and the screen must find the weak n-subsets that
one SVD per subset finds.  The exact minimax distance is checked against a
dense phase grid on small complex frames whose entries mix Gaussian integers
and floats.  The three convergence traces of a (P, n) block of dense points
must be bitwise those of the same points as DenseVector objects, and the
weak-type trace with its witnesses as one block must be bitwise the trace
with them as a list.  The anchor-subset realizer must find what the search
over all 2^(m-1) sign patterns finds, with rows equal to 1e-12 relative, on
phase-retrieval frames, on frames that leave a sign free, and on targets
near or at a zero coefficient or a few tolerances from realizable.
"""

import itertools

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given
from hypothesis import strategies as st

from phaselens import (
    DenseVector,
    ExplicitFrame,
    ExplicitList,
    PairwiseSumFrame,
    Verdict,
    certify_phase_retrieval,
    complement_property,
    converge_d_phi,
    converge_tau_phi,
    converge_tau_w,
    default_tau_w_witnesses,
    falsify_by_sign_enumeration,
    frak_distance,
)
from phaselens.metrics import _realize
from conftest import assert_engine_matches_oracle, realize_oracle, verify_witness


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
    cp, full = complement_property(frame), certify_phase_retrieval(frame)
    positive = cp.verdict == Verdict.PHASE_RETRIEVAL
    assert positive == (falsify_by_sign_enumeration(frame) is None)
    assert all(c.verdict == Verdict.PHASE_RETRIEVAL or verify_witness(frame, c.witness) for c in (cp, full))


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


_gaussian_frames = st.builds(
    lambda n, extra, seed: np.random.default_rng(seed).standard_normal((n + extra, n)),
    st.integers(2, 4),
    st.integers(0, 5),
    st.integers(0, 2**32 - 1),
)


@st.composite
def rescaled_frames(draw):
    """An integer or Gaussian frame with each row scaled by 10^U(-12, 0)."""
    base = draw(st.one_of(spanning_integer_frames(), _gaussian_frames))
    exponents = draw(st.lists(st.floats(-12.0, 0.0), min_size=len(base), max_size=len(base)))
    return base * 10.0 ** np.array(exponents)[:, None]


@st.composite
def complex_frames(draw):
    """Small complex frames whose entries repeat, so dependencies and failing
    splits occur."""
    n = draw(st.integers(2, 3))
    m = draw(st.integers(n, 3 * n))
    entries = st.lists(st.sampled_from((0, 1, -1, 1j, -1j, 1 + 1j)), min_size=n, max_size=n)
    return np.array(draw(st.lists(entries, min_size=m, max_size=m)), dtype=complex)


@given(st.one_of(spanning_integer_frames(), rescaled_frames(), complex_frames()))
def test_stacked_engine_agrees_with_per_subset_loops(matrix):
    assert_engine_matches_oracle(as_frame(matrix))


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


def smallest_sigma_n(matrix):
    n = matrix.shape[1]
    unit = matrix / np.linalg.norm(matrix, axis=1, keepdims=True)
    return min(np.linalg.svd(unit[list(t)], compute_uv=False)[-1]
               for t in itertools.combinations(range(len(matrix)), n))


@st.composite
def near_screen_bound_frames(draw):
    """Gaussian frames with m - n + 1 or more rows tilted off one hyperplane,
    so that the smallest sigma_n over the n-subsets of the unit rows sits at
    0.5, 1, 2 or 4 times the screen bound 2e-10 sqrt(m)."""
    n = draw(st.integers(2, 4))
    m = draw(st.integers(2 * n - 1, 2 * n + 2))
    tilted = draw(st.integers(m - n + 1, m))
    factor = draw(st.sampled_from((0.5, 1.0, 2.0, 4.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = rng.standard_normal((m, n))
    normal = rng.standard_normal(n)
    normal /= np.linalg.norm(normal)
    rows[:tilted] -= np.outer(rows[:tilted] @ normal, normal)
    tilt = np.zeros((m, n))
    tilt[:tilted] = np.outer(rng.standard_normal(tilted), normal)
    target = factor * 2e-10 * np.sqrt(m)
    # sigma_n is linear in a small tilt, so one probe sets the scale
    scale = 1e-6 * target / smallest_sigma_n(rows + 1e-6 * tilt)
    matrix = (rows + scale * tilt)[rng.permutation(m)]
    assert smallest_sigma_n(matrix) == pytest.approx(target, rel=1e-3)
    return matrix


@given(near_screen_bound_frames())
def test_screen_agrees_near_its_bound(matrix):
    assert_engine_matches_oracle(as_frame(matrix))


@st.composite
def dense_sequences(draw):
    """(frame, points, limit, witnesses): P = 2..300 points of dimension
    n = 1..8 that approach the limit at k^(-rate), stay off it, or jump at
    random.  The frame is real (explicit or pairwise-sum) for real points and
    complex for complex ones; a real limit or real points may ride with the
    other complex."""
    n, p = draw(st.integers(1, 8)), draw(st.integers(2, 300))
    kind = draw(st.sampled_from(("real", "pairwise", "complex", "complex_limit", "complex_points")))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def draw_array(shape, complex_field):
        a = rng.standard_normal(shape)
        return a + 1j * rng.standard_normal(shape) if complex_field else a

    limit = draw_array(n, kind in ("complex", "complex_limit"))
    noise = draw_array((p, n), kind in ("complex", "complex_points"))
    rate = draw(st.sampled_from((0.0, 0.5, 2.0)))
    points = limit + draw(st.sampled_from((0.0, 1e-9, 1.0))) * noise * np.arange(1.0, p + 1)[:, None] ** -rate
    m = draw(st.integers(1, 2 * n + 1))
    if kind == "pairwise":
        frame = PairwiseSumFrame(max(2, n + draw(st.integers(0, 2))))
    else:
        frame = ExplicitFrame(draw_array((m, n), kind != "real"), field=None if kind != "real" else "real")
    witnesses = [DenseVector(limit), DenseVector(points[0])] + default_tau_w_witnesses(dim=n, count_random=4)
    return frame, points, DenseVector(limit), witnesses


def _same_report(a, b, witnesses):
    assert a.residual_traces.tobytes() == b.residual_traces.tobytes()
    assert a.residual_traces.shape == b.residual_traces.shape
    assert (a.verdict, a.witness_gap) == (b.verdict, b.witness_gap)
    if a.witness in witnesses:  # the same tau_w witness object, by position
        assert witnesses.index(a.witness) == witnesses.index(b.witness)
    else:
        assert a.witness == b.witness


@given(dense_sequences())
def test_point_block_traces_equal_vector_traces(data):
    frame, points, limit, witnesses = data
    block, objects = ExplicitList(points), ExplicitList(tuple(DenseVector(r) for r in points))
    prefix = len(points)
    for converge in (converge_tau_phi, converge_d_phi):
        _same_report(converge(frame, block, limit, prefix), converge(frame, objects, limit, prefix), witnesses)
    reference = converge_tau_w(objects, limit, witnesses, prefix)
    _same_report(converge_tau_w(block, limit, witnesses, prefix), reference, witnesses)
    # the witnesses as one (W, n) block: the same traces, and the reported
    # witness is the DenseVector of its row
    stacked = converge_tau_w(block, limit, np.vstack([w.coords for w in witnesses]), prefix)
    assert stacked.residual_traces.tobytes() == reference.residual_traces.tobytes()
    assert (stacked.verdict, stacked.witness_gap) == (reference.verdict, reference.witness_gap)
    if reference.witness is None:
        assert stacked.witness is None
    else:
        assert np.array_equal(stacked.witness.coords, reference.witness.coords)  # a complex block upcasts


# {e1, e2, e3, e1 + e2} leaves the sign of x3 free: not phase retrieval, so
# two signings of most targets are realizable and the counting order decides
_FREE_SIGN_ROWS = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 1.0, 0.0]])


@st.composite
def realizer_cases(draw):
    """(frame, targets): a Gaussian frame (n = 2..5, m = n+1..2n+2, so both
    phase-retrieval frames and frames with free signs occur) or the
    free-sign frame above, rows scaled by 10^U(-4, 0), and 40 targets of one
    kind: generic |Phi x|; |Phi x| with one coefficient 1e-12..1e-6 from
    zero, or exactly zero; |Phi x| moved 0.3 to 5 tolerances off; uniform
    noise; or zero."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        matrix = _FREE_SIGN_ROWS.copy()
    else:
        n = draw(st.integers(2, 5))
        matrix = rng.standard_normal((draw(st.integers(n + 1, 2 * n + 2)), n))
    matrix *= 10.0 ** rng.uniform(-4.0, 0.0, (len(matrix), 1))
    m, n = matrix.shape
    xs = rng.standard_normal((40, n))
    kind = draw(st.sampled_from(("generic", "near_zero", "exact_zero", "off_tolerance", "noise", "zero")))
    picks = rng.integers(m, size=40)
    if kind in ("near_zero", "exact_zero"):
        rows = matrix[picks]
        gaps = 10.0 ** rng.uniform(-12.0, -6.0, 40) * np.linalg.norm(xs, axis=1) * np.linalg.norm(rows, axis=1)
        gaps *= kind == "near_zero"
        xs -= ((np.einsum("ij,ij->i", xs, rows) - gaps) / np.einsum("ij,ij->i", rows, rows))[:, None] * rows
    targets = np.abs(xs @ matrix.T)
    if kind == "exact_zero":
        targets[np.arange(40), picks] = 0.0
    elif kind == "off_tolerance":
        scale = np.linalg.norm(matrix, axis=1)
        moves = rng.standard_normal((40, m))
        sizes = rng.choice((0.3, 0.7, 2.0, 3.0, 5.0), 40) * 1e-8 * np.linalg.norm(targets / scale, axis=1)
        moves *= (sizes / np.linalg.norm(moves / scale, axis=1))[:, None]
        targets = np.abs(targets + moves)
    elif kind == "noise":
        targets = rng.uniform(0.0, 2.0, (40, m)) * np.linalg.norm(matrix, axis=1)
    elif kind == "zero":
        targets[::2] = 0.0
    return ExplicitFrame(matrix), targets


@given(realizer_cases())
def test_realizer_agrees_with_every_pattern_search(case):
    frame, targets = case
    rows, found = _realize(frame, targets)
    want_rows, want_found = realize_oracle(frame, targets)
    assert found.tolist() == want_found.tolist()
    gap = np.linalg.norm(rows[found] - want_rows[found], axis=1)
    assert np.all(gap <= 1e-12 * np.linalg.norm(want_rows[found], axis=1))
