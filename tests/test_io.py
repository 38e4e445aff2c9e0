"""Serialization: frame files, canonical form, fingerprints, vector parsing."""

import json

import numpy as np
import pytest

from phaselens import DenseVector, FiniteSupportVector, PairwiseSumFrame, ReciprocalVector
from phaselens.errors import FrameFormatError
from phaselens.io import (
    canonical_frame_json,
    frame_fingerprint,
    frame_from_csv,
    frame_from_dict,
    frame_to_dict,
    load_frame,
    parse_vector_arg,
    vector_from_obj,
    vector_to_json,
)
from conftest import random_complex_frame, random_real_frame


class TestFrameRoundTrip:
    @pytest.mark.parametrize("seed,m,n,complex_field", [(1, 5, 3, False), (2, 4, 2, True)])
    def test_canonical_form_is_a_fixed_point(self, seed, m, n, complex_field):
        rng = np.random.default_rng(seed)
        maker = random_complex_frame if complex_field else random_real_frame
        frame = maker(rng, m, n)
        text = canonical_frame_json(frame)
        reparsed = frame_from_dict(json.loads(text))
        assert canonical_frame_json(reparsed) == text
        assert np.array_equal(reparsed.matrix, frame.matrix)

    def test_complex_frame_accepts_bare_real_entries(self):
        bare = {"field": "complex", "dim": 2, "vectors": [[1.0, 0.0], [1.0, [0.0, 1.0]]]}
        pairs = {"field": "complex", "dim": 2, "vectors": [[[1, 0], [0, 0]], [[1, 0], [0, 1]]]}
        a, b = frame_from_dict(bare), frame_from_dict(pairs)
        assert a.matrix.dtype == np.complex128
        assert np.array_equal(a.matrix, b.matrix)
        assert frame_fingerprint(a) == frame_fingerprint(b)

    def test_star_import_does_not_shadow_stdlib_io(self):
        ns = {}
        exec("from phaselens import *", ns)
        assert "io" not in ns
        assert "load_frame" in ns and "certify_phase_retrieval" in ns

    def test_pairwise_sum_round_trip(self):
        frame = PairwiseSumFrame(50)
        again = frame_from_dict(frame_to_dict(frame))
        assert isinstance(again, PairwiseSumFrame)
        assert again.truncation == 50

    def test_fingerprint_separates_frames(self, r2_frame, onb_frame):
        assert frame_fingerprint(r2_frame) != frame_fingerprint(onb_frame)
        assert frame_fingerprint(r2_frame) == frame_fingerprint(r2_frame)

    def test_load_frame_files(self, data_dir):
        r2 = load_frame(str(data_dir / "r2_fullspark.json"))
        assert r2.field == "real" and r2.m == 3
        c2 = load_frame(str(data_dir / "c2_example34.json"))
        assert c2.field == "complex" and c2.m == 4
        assert c2.matrix[3, 1] == 1j
        ps = load_frame(str(data_dir / "pairwise_sum_50.json"))
        assert isinstance(ps, PairwiseSumFrame)


class TestMalformedFrames:
    @pytest.mark.parametrize(
        "doc",
        [
            [],
            {"field": "real", "dim": 2},
            {"field": "quaternion", "dim": 2, "vectors": [[1, 0]]},
            {"field": "real", "dim": 2, "vectors": [[1.0]]},
            {"structured": "toeplitz", "truncation": 4},
            {"structured": "pairwise_sum"},
            {"field": "complex", "dim": 1, "vectors": [[[1, 0, 0]]]},
        ],
    )
    def test_rejected_with_format_error(self, doc):
        with pytest.raises(FrameFormatError):
            frame_from_dict(doc)


class TestCsv:
    def test_basic_parse(self):
        frame = frame_from_csv("1,0\n0,1\n1,1\n")
        assert frame.m == 3 and frame.dim == 2 and frame.field == "real"

    def test_blank_lines_ignored(self):
        frame = frame_from_csv("1,0\n\n0,1\n")
        assert frame.m == 2

    def test_complex_and_empty_rejected(self):
        with pytest.raises(FrameFormatError):
            frame_from_csv("1,0\n", field="complex")
        with pytest.raises(FrameFormatError):
            frame_from_csv("")
        with pytest.raises(FrameFormatError):
            frame_from_csv("1,oops\n")


class TestVectorSerialization:
    def test_dense_round_trip(self):
        v = DenseVector([1.5, -2.0])
        assert vector_from_obj(vector_to_json(v)).coords.tolist() == [1.5, -2.0]

    def test_complex_dense_round_trip(self):
        v = DenseVector([1.0 + 2j, 0j])
        again = vector_from_obj(vector_to_json(v))
        assert np.array_equal(again.coords, v.coords)

    def test_finite_support_round_trip(self):
        v = FiniteSupportVector([(3, 2.0), (7, -1.0)])
        again = vector_from_obj(vector_to_json(v))
        assert isinstance(again, FiniteSupportVector)
        assert again.indices.tolist() == [3, 7]

    def test_reciprocal_round_trip(self):
        again = vector_from_obj(vector_to_json(ReciprocalVector()))
        assert isinstance(again, ReciprocalVector)


class TestCliVectorArgs:
    def test_shorthand(self):
        v = parse_vector_arg("3,0")
        assert v.coords.tolist() == [3.0, 0.0]

    def test_json_literal_with_complex_entries(self):
        v = parse_vector_arg("[[0, 1], [2, 0]]")
        assert v.coords.tolist() == [1j, 2.0 + 0j]

    def test_reciprocal_keyword(self):
        assert isinstance(parse_vector_arg("reciprocal"), ReciprocalVector)

    def test_garbage_rejected(self):
        with pytest.raises(FrameFormatError):
            parse_vector_arg("one,two")
        with pytest.raises(FrameFormatError):
            parse_vector_arg("[1, 2")
