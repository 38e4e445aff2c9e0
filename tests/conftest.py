"""Shared fixtures: the three reference frames, random-frame helpers and
witness checks that re-verify outside the certification code path."""

import pathlib
import tempfile

import numpy as np
import pytest

from phaselens import (
    CollidingPair,
    DenseVector,
    ExplicitFrame,
    analysis_magnitudes,
    bures_distance,
)
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


def verify_witness(frame, witness):
    """A colliding pair or a failing subset, re-verified by the checks above."""
    if isinstance(witness, CollidingPair):
        return verify_collision(frame, witness)
    return verify_failing_subset(frame, witness)
