"""Shared fixtures: the three reference frames, random-frame helpers,
witness checks that re-verify outside the certification code path, the
per-subset enumeration loops that the stacked rank engine and its
determinant screen are checked against, the 2^(m-1) sign-pattern realizer
that the anchor-subset realizer is checked against, and the per-point
coincidence suite that the block suite is checked against."""

import itertools
import pathlib
import tempfile

import numpy as np
import pytest

from phaselens import (
    CoincidenceReport,
    CollidingPair,
    DenseVector,
    ExplicitFrame,
    ExplicitList,
    FailingSubset,
    Verdict,
    analysis_magnitudes,
    bures_distance,
    certify_phase_retrieval,
    complement_property,
    converge_tau_phi,
    converge_tau_w,
    default_tau_w_witnesses,
    is_full_spark,
    spark,
)
from phaselens.certify import _split_pair, _weak_subsets
from phaselens.frames import _numerical_rank, _unit_rows
from phaselens.repro import c2_four_vector_frame, onb_r2_frame, r2_full_spark_frame

try:
    from hypothesis import settings
    from hypothesis.configuration import set_hypothesis_home_dir
except ImportError:  # the property tests skip themselves without hypothesis
    pass
else:
    # the same examples on every run and no example database; the cache of
    # source constants, written even so, goes to the temp dir, not the checkout
    settings.register_profile("phaselens", derandomize=True, database=None, deadline=None)
    settings.load_profile("phaselens")
    set_hypothesis_home_dir(pathlib.Path(tempfile.gettempdir()) / "phaselens-hypothesis")

DATA_DIR = pathlib.Path(__file__).resolve().parents[1] / "data"


@pytest.fixture
def c2_frame():
    """{(1,0),(0,1),(1,1),(1,i)} in C^2."""
    return c2_four_vector_frame()


@pytest.fixture
def r2_frame():
    """{e1, e2, e1+e2} in R^2 -- the smallest real frame with phase retrieval."""
    return r2_full_spark_frame()


@pytest.fixture
def onb_frame():
    """Orthonormal basis of R^2; magnitudes cannot separate sign patterns."""
    return onb_r2_frame()


@pytest.fixture
def data_dir():
    return DATA_DIR


def random_real_frame(rng, m, n):
    return ExplicitFrame([DenseVector(row) for row in rng.standard_normal((m, n))])


def random_complex_frame(rng, m, n):
    mat = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
    return ExplicitFrame([DenseVector(row) for row in mat])


def random_unit(rng, n, complex_field=False):
    v = rng.standard_normal(n)
    if complex_field:
        v = v + 1j * rng.standard_normal(n)
    return DenseVector(v / np.linalg.norm(v))


def _unit_rank(rows):
    """Rank of unit-normalized rows by the relative 1e-10 rule, computed here
    with numpy so that the witness checks do not share the decision path."""
    if rows.shape[0] == 0:
        return 0
    norms = np.linalg.norm(rows, axis=1, keepdims=True)
    sv = np.linalg.svd(rows / np.where(norms > 0.0, norms, 1.0), compute_uv=False)
    return int(np.count_nonzero(sv > 1e-10 * sv[0]))


def verify_failing_subset(frame, witness):
    """Both the subset and its complement must have deficient rank.  Rows are
    ranked at unit norm, so a rescaled row is not mistaken for zero."""
    inside = np.isin(np.arange(1, frame.m + 1), witness.indices)
    full = frame.dim
    return _unit_rank(frame.matrix[inside]) < full and _unit_rank(frame.matrix[~inside]) < full


def verify_collision(frame, witness):
    """Equal magnitude patterns, distinct quotient classes."""
    ax = analysis_magnitudes(frame, witness.x)
    ay = analysis_magnitudes(frame, witness.y)
    same_pattern = np.max(np.abs(ax - ay)) <= 1e-7 * np.linalg.norm(ax)
    distinct = bures_distance(witness.x, witness.y) > 1e-7 * witness.x.norm()
    return same_pattern and distinct


def verify_witness(frame, witness):
    """A colliding pair or a failing subset, re-verified by the checks above."""
    if isinstance(witness, CollidingPair):
        return verify_collision(frame, witness)
    return verify_failing_subset(frame, witness)


# The per-subset loops that spark, full spark and the complement property ran
# before ranks were stacked: one SVD per subset, the package's rank rule.  The
# engine must return the same witnesses, block by block.


def _subset_rank_oracle(unit, indices):
    if not indices:
        return 0
    return _numerical_rank(np.linalg.svd(unit[[i - 1 for i in indices], :], compute_uv=False))


def first_dependent_oracle(frame, sizes):
    unit = _unit_rows(frame.matrix)
    for k in sizes:
        for combo in itertools.combinations(range(1, frame.m + 1), k):
            if _subset_rank_oracle(unit, combo) < k:
                return combo
    return None


def failing_subset_oracle(frame):
    m, n = frame.m, frame.dim
    unit = _unit_rows(frame.matrix)
    for size in range(1, m + 1):
        for tail in itertools.combinations(range(2, m + 1), size - 1):
            sigma = (1,) + tail
            comp = tuple(i for i in range(1, m + 1) if i not in sigma)
            if _subset_rank_oracle(unit, sigma) < n and _subset_rank_oracle(unit, comp) < n:
                return sigma
    return None


def weak_subsets_oracle(frame):
    """The n-subsets T, as 1-based tuples in lexicographic order, whose unit
    rows have sigma_n <= 2e-10 sqrt(m): one SVD per subset, no det screen."""
    m, n = frame.m, frame.dim
    unit = _unit_rows(frame.matrix)
    bound = 2e-10 * np.sqrt(m)
    return [
        combo
        for combo in itertools.combinations(range(1, m + 1), n)
        if np.linalg.svd(unit[[i - 1 for i in combo]], compute_uv=False)[-1] <= bound
    ]


def assert_engine_matches_oracle(frame):
    """The certificate, spark and is_full_spark agree with the loops above,
    witnesses included, witnesses hold Python ints, and the determinant
    screen yields the weak n-subsets of ``weak_subsets_oracle``."""
    m, n = frame.m, frame.dim
    cert = complement_property(frame)
    failing = failing_subset_oracle(frame)
    assert (cert.witness.indices if cert.witness else None) == failing
    assert (cert.verdict == Verdict.NOT_PHASE_RETRIEVAL) == (failing is not None)
    dependent = first_dependent_oracle(frame, range(1, min(m, n) + 1))
    if dependent is None and m > n:
        dependent = tuple(range(1, n + 2))
    result = spark(frame)
    assert result.witness == dependent
    assert result.spark == (len(dependent) if dependent else None)
    for witness in (result.witness, cert.witness.indices if cert.witness else None):
        assert all(type(i) is int for i in witness or ())
    if m >= n:
        assert is_full_spark(frame) == (first_dependent_oracle(frame, (n,)) is None)
    screened = _weak_subsets(_unit_rows(frame.matrix))
    assert [tuple((t + 1).tolist()) for idx, _ in screened for t in idx] == weak_subsets_oracle(frame)


# The realizer as it ran before the anchor subset: every one of the 2^(m-1)
# sign patterns (first sign +1, binary counting order) is solved in least
# squares on unit rows, and the first whose residual is within 1e-8 |u| wins.


def realize_oracle(frame, targets):
    """(rows, found) for a (P, m) block of magnitude targets, one target at a
    time; a zero target gives the zero row, found, and a row not found is
    meaningless."""
    m = frame.m
    unit_targets = np.asarray(targets, dtype=np.float64).reshape(-1, m)
    norms = np.linalg.norm(frame.matrix, axis=1)
    scale = np.where(norms > 0.0, norms, 1.0)
    a = frame.matrix / scale[:, None]
    unit_targets = unit_targets / scale
    signs = np.array([(1.0,) + tail for tail in itertools.product((1.0, -1.0), repeat=m - 1)])
    pinv_t = np.linalg.pinv(a).T
    rows = np.zeros((unit_targets.shape[0], frame.dim))
    found = np.zeros(unit_targets.shape[0], dtype=bool)
    for i, u in enumerate(unit_targets):
        if not u.any():
            found[i] = True
            continue
        signed = signs * u
        ys = signed @ pinv_t
        hits = np.linalg.norm(ys @ a.T - signed, axis=1) <= 1e-8 * np.linalg.norm(u)
        first = int(np.argmax(hits))
        rows[i], found[i] = ys[first], hits[first]
    return rows, found


# The coincidence suite as it ran before sequences were carried as blocks:
# one realized target at a time, by the oracle above, and an ExplicitList of
# DenseVectors, so every trace takes the per-vector path.  The suite must
# report the same.


def coincidence_suite_oracle(frame, trials=100, prefix=200, tol=1e-6, seed=0):
    cert = certify_phase_retrieval(frame, seed=seed)
    rng = np.random.default_rng(seed)
    n = frame.dim
    exemplars = []
    if cert.verdict == Verdict.PHASE_RETRIEVAL:
        steps = np.arange(1, prefix + 1)[:, None]
        for t in range(trials):
            x = rng.standard_normal(n)
            x /= np.linalg.norm(x)
            d = rng.standard_normal(n)
            d *= 0.5 / np.linalg.norm(d)
            patterns = np.abs((x + d / steps) @ frame.matrix.T)
            realized, found = realize_oracle(frame, patterns)
            assert found.all()
            points = [DenseVector(r) for r in realized]
            seq, limit = ExplicitList(tuple(points)), DenseVector(x)
            rp = converge_tau_phi(frame, seq, limit, prefix, tol)
            witnesses = [limit, points[0]] + default_tau_w_witnesses(dim=n, seed=seed + t, count_random=8)
            rw = converge_tau_w(seq, limit, witnesses, prefix, tol)
            if rp.verdict != rw.verdict:
                exemplars.append({"trial": t, "tau_phi": rp.verdict.value, "tau_w": rw.verdict.value})
    else:
        pair = cert.witness
        if isinstance(pair, FailingSubset):
            pair = _split_pair(frame, np.isin(np.arange(1, frame.m + 1), pair.indices))
        if pair is not None:
            u, v = pair.x, pair.y
            seq = ExplicitList(tuple(DenseVector((-1.0) ** k * u.coords) for k in range(1, prefix + 1)))
            rp = converge_tau_phi(frame, seq, v, prefix, tol)
            witnesses = [u, v] + default_tau_w_witnesses(dim=n, seed=seed, count_random=8)
            rw = converge_tau_w(seq, v, witnesses, prefix, tol)
            if rp.verdict != rw.verdict:
                exemplars.append(
                    {"trial": "colliding_pair", "tau_phi": rp.verdict.value, "tau_w": rw.verdict.value}
                )
    return CoincidenceReport(
        pr_certified=cert.verdict == Verdict.PHASE_RETRIEVAL,
        trials=trials,
        mismatches=len(exemplars),
        exemplars=tuple(exemplars),
        parameters={"prefix": prefix, "tol": tol, "seed": seed},
    )
