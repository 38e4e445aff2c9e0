"""Command-line interface: exit codes, output formats, determinism."""

import json

import numpy as np
import pytest

from phaselens import CollidingPair, ExplicitFrame
from phaselens.cli import EXIT_CAP, EXIT_PARSE, main
from phaselens.io import vector_from_obj
from conftest import verify_collision


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCertifyCommand:
    def test_certified_frame_exits_zero(self, capsys, data_dir):
        code, out, _ = run(capsys, "certify", str(data_dir / "r2_fullspark.json"))
        assert code == 0
        assert "phase_retrieval" in out

    def test_refuted_frame_exits_one_with_witness(self, capsys, data_dir):
        code, out, _ = run(capsys, "certify", str(data_dir / "onb_r2.json"))
        assert code == 1
        assert "colliding_pair" in out

    def test_complex_fixture_exits_two(self, capsys, data_dir):
        code, out, _ = run(capsys, "certify", str(data_dir / "c2_example34.json"))
        assert code == 2
        assert "necessary_condition_only" in out

    def test_undercomplete_frame_needs_no_search(self, capsys, tmp_path):
        # m = 30 is beyond the falsifier's sign cap; certify refutes by counting
        matrix = np.random.default_rng(3).standard_normal((30, 20))
        path = tmp_path / "frame.json"
        path.write_text(json.dumps({"field": "real", "dim": 20, "vectors": matrix.tolist()}))
        code, out, _ = run(capsys, "--format", "json", "certify", str(path))
        assert code == 1
        witness = json.loads(out)["witness"]
        assert witness["type"] == "colliding_pair"
        frame = ExplicitFrame(matrix)
        pair = CollidingPair(vector_from_obj(witness["x"]), vector_from_obj(witness["y"]))
        assert verify_collision(frame, pair)

    def test_cap_exceeded_exits_65(self, capsys, data_dir):
        code, _, err = run(
            capsys, "--cap-subsets", "2", "certify", str(data_dir / "c2_example34.json")
        )
        assert code == EXIT_CAP
        assert "cap" in err


class TestBoundsCommand:
    def test_values(self, capsys, data_dir):
        code, out, _ = run(
            capsys, "--format", "json", "bounds", str(data_dir / "c2_example34.json")
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["lower"] == pytest.approx(3.0 - 2.0**0.5, abs=1e-10)
        assert doc["upper"] == pytest.approx(3.0 + 2.0**0.5, abs=1e-10)


class TestDistCommand:
    def test_fixture_pair(self, capsys, data_dir):
        code, out, _ = run(
            capsys,
            "--format",
            "json",
            "dist",
            str(data_dir / "c2_example34.json"),
            "3,0",
            "0,4",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["D"] == pytest.approx(5.0, abs=1e-12)
        assert doc["d_phi"] == pytest.approx(4.0, abs=1e-12)
        assert doc["frak_D"] == pytest.approx(4.0, abs=1e-6)
        assert all(s >= -1e-9 for s in doc["inequality_slacks"].values())

    def test_identical_arguments_give_zeros(self, capsys, data_dir):
        code, out, _ = run(
            capsys, "--format", "json", "dist", str(data_dir / "r2_fullspark.json"), "1,2", "1,2"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["D"] == 0.0 and doc["d_phi"] == 0.0 and doc["frak_D"] == 0.0

    def test_malformed_support_is_a_parse_error(self, capsys, data_dir):
        code, _, err = run(
            capsys, "dist", str(data_dir / "r2_fullspark.json"), '{"support": [[1]]}', "1,0"
        )
        assert code == EXIT_PARSE
        assert "support" in err

    @pytest.mark.parametrize(
        "vector", ['{"support": [[0, 1]]}', "[]"], ids=["zero_based_index", "empty"]
    )
    def test_out_of_range_vector_is_a_parse_error(self, capsys, data_dir, vector):
        code, _, err = run(capsys, "dist", str(data_dir / "r2_fullspark.json"), vector, "1,0")
        assert code == EXIT_PARSE
        assert "invalid vector" in err

    def test_complex_typed_real_vector_on_a_real_frame(self, capsys, data_dir):
        # the same real x, once as complex JSON literals and once as a plain list
        frame, y = str(data_dir / "r2_fullspark.json"), "[0.6404226504432821,0.10490011715303971]"
        docs = []
        for x in (
            "[[0.1257302210933933,0],[-0.1321048632913019,0]]",
            "[0.1257302210933933,-0.1321048632913019]",
        ):
            code, out, _ = run(capsys, "--format", "json", "dist", frame, x, y)
            assert code == 0
            docs.append(json.loads(out))
        assert docs[0]["frak_D"] == docs[1]["frak_D"]
        assert docs[0]["theta_star"] == docs[1]["theta_star"]
        assert docs[0] == docs[1]

    def test_dimension_mismatch_is_a_parse_error(self, capsys, data_dir):
        code, _, err = run(
            capsys, "dist", str(data_dir / "r2_fullspark.json"), "1,2,3", "1,2"
        )
        assert code == EXIT_PARSE
        assert err


class TestConvergeCommand:
    def test_scaled_basis_against_pairwise_sum(self, capsys, data_dir):
        spec = json.dumps({"type": "scaled_basis", "length": 45})
        code, out, _ = run(
            capsys,
            "--format",
            "json",
            "--prefix",
            "45",
            "converge",
            str(data_dir / "pairwise_sum_50.json"),
            spec,
            '{"support": []}',
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["tau_phi"]["verdict"] == "consistent_with_convergence"
        assert doc["tau_w"]["verdict"] == "divergence_witnessed"
        assert doc["tau_w"]["witness"] == {"structured": "reciprocal"}
        assert doc["d_phi"]["verdict"] == "unbounded"

    def test_witness_at_a_far_index(self, capsys, data_dir):
        # the witness pairs over its one support index, not the first 10^9
        code, out, _ = run(
            capsys,
            "--format",
            "json",
            "--prefix",
            "45",
            "converge",
            str(data_dir / "pairwise_sum_50.json"),
            json.dumps({"type": "scaled_basis", "length": 45}),
            '{"support": []}',
            "--witness",
            '{"support": [[1000000000, 1]]}',
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["tau_w"]["witness"] == {"structured": "reciprocal"}

    def test_prefix_below_two_is_a_parse_error(self, capsys, data_dir):
        code, _, err = run(
            capsys,
            "--prefix",
            "1",
            "converge",
            str(data_dir / "r2_fullspark.json"),
            json.dumps({"type": "scaled_basis", "length": 45}),
            "0,0",
        )
        assert code == EXIT_PARSE
        assert "--prefix" in err

    def test_bad_sequence_spec_exits_64(self, capsys, data_dir):
        code, _, err = run(
            capsys,
            "converge",
            str(data_dir / "r2_fullspark.json"),
            '{"type": "mystery"}',
            "0,0",
        )
        assert code == EXIT_PARSE
        assert "unknown sequence type" in err

    @pytest.mark.parametrize(
        "spec",
        [
            '{"type": "scaled_basis"}',
            '{"type": "scaled_basis", "length": "ten"}',
            "[1, 2]",
            '{"type": "scaled_basis", "length": 1}',
            '{"type": "explicit", "points": [[1, 0]]}',
        ],
        ids=["missing_length", "non_integer_length", "not_an_object", "one_point_range", "one_explicit_point"],
    )
    def test_malformed_sequence_spec_exits_64(self, capsys, data_dir, tmp_path, spec):
        if not spec.startswith("{"):  # only specs starting with "{" are inline
            path = tmp_path / "spec.json"
            path.write_text(spec)
            spec = str(path)
        code, _, err = run(capsys, "converge", str(data_dir / "r2_fullspark.json"), spec, "0,0")
        assert code == EXIT_PARSE
        assert "sequence spec" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["converge", "r2_fullspark.json",
             '{"type":"perturbed_limit","limit":[1,0,0],"direction":[0,1],"length":20}', "[1,0]"],
            ["converge", "r2_fullspark.json",
             '{"type":"perturbed_limit","limit":{"support":[[1,1.0]]},"direction":[0,1],"length":20}',
             "[1,0]"],
            ["--prefix", "45", "converge", "pairwise_sum_50.json",
             '{"type":"scaled_basis","length":45,"power":1000}', '{"support": []}'],
        ],
        ids=["perturbed_limit_dims_differ", "perturbed_limit_finite_support", "scaled_basis_overflows"],
    )
    def test_spec_outside_its_domain_exits_64(self, capsys, data_dir, argv):
        # each once died with an uncaught numpy error, exit 70 or an OverflowError
        argv = [str(data_dir / a) if a.endswith(".json") else a for a in argv]
        code, out, err = run(capsys, *argv)
        assert code == EXIT_PARSE
        assert out == ""
        assert "sequence spec" in err


class TestSuiteCommand:
    def test_certified_frame(self, capsys, data_dir):
        code, out, _ = run(
            capsys,
            "--format",
            "json",
            "suite",
            str(data_dir / "r2_fullspark.json"),
            "--trials",
            "5",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["pr_certified"] is True
        assert doc["mismatches"] == 0

    def test_trials_below_one_is_a_parse_error(self, capsys, data_dir):
        code, out, err = run(
            capsys, "--format", "json", "suite", str(data_dir / "r2_fullspark.json"), "--trials", "-3"
        )
        assert code == EXIT_PARSE
        assert out == ""
        assert "--trials" in err


class TestReproCommand:
    def test_known_scenario_passes(self, capsys):
        code, out, _ = run(capsys, "repro", "example_3_4")
        assert code == 0
        assert "overall: pass" in out

    def test_unknown_scenario_exits_64(self, capsys):
        code, _, err = run(capsys, "repro", "example_9_9")
        assert code == EXIT_PARSE
        assert "unknown scenario" in err


class TestErrorsAndDeterminism:
    def test_missing_file_exits_64(self, capsys):
        code, _, _ = run(capsys, "certify", "/nonexistent/frame.json")
        assert code == EXIT_PARSE

    def test_invalid_json_exits_64(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, _ = run(capsys, "certify", str(bad))
        assert code == EXIT_PARSE

    def test_non_numeric_frame_entry_exits_64(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"field": "real", "dim": 2, "vectors": [[1, "a"], [0, 1]]}))
        code, _, err = run(capsys, "certify", str(bad))
        assert code == EXIT_PARSE
        assert "'a'" in err

    def test_nonpositive_flag_rejected(self, capsys, data_dir):
        code, _, _ = run(
            capsys, "--tol", "-1", "certify", str(data_dir / "r2_fullspark.json")
        )
        assert code == EXIT_PARSE

    def test_json_output_is_byte_identical_across_runs(self, capsys, data_dir):
        args = ("--format", "json", "--seed", "3", "certify", str(data_dir / "onb_r2.json"))
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_csv_frame_input(self, capsys, tmp_path):
        path = tmp_path / "frame.csv"
        path.write_text("1,0\n0,1\n1,1\n")
        code, _, _ = run(capsys, "certify", str(path))
        assert code == 0
