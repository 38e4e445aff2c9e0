"""Shared fixtures: the three reference frames and random-frame helpers."""

import pathlib
import tempfile

import numpy as np
import pytest

from phaselens import DenseVector, ExplicitFrame
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
