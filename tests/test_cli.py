import json

import numpy as np
import pytest

from negtype import is_ultrametric, validate_metric, verify_equality
from negtype.cli import (
    generate_space,
    load_space,
    main,
    parse_simplex,
    parse_space,
    simplex_payload,
    space_payload,
)


@pytest.fixture()
def collinear_file(tmp_path):
    path = tmp_path / "collinear.json"
    path.write_text(json.dumps({"graph": {"n": 3, "edges": [[0, 1, 1], [1, 2, 1]]}}))
    return str(path)


@pytest.fixture()
def cycle_file(tmp_path):
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps(
        {"graph": {"n": 4, "edges": [[0, 1, 1], [1, 2, 1], [2, 3, 1], [3, 0, 1]]}}
    ))
    return str(path)


@pytest.fixture()
def two_point_file(tmp_path):
    path = tmp_path / "pair.json"
    path.write_text(json.dumps({"labels": ["a", "b"], "matrix": [[0, 1], [1, 0]]}))
    return str(path)


@pytest.fixture()
def witness_simplex_file(tmp_path):
    path = tmp_path / "simplex.json"
    path.write_text(json.dumps({"left": [[0, 1], [2, 1]], "right": [[1, 2]]}))
    return str(path)


class TestSpaceLoading:
    def test_matrix_shape(self, two_point_file):
        X = load_space(two_point_file)
        assert X.labels == ("a", "b")

    def test_graph_shape(self, collinear_file):
        X = load_space(collinear_file)
        assert X.dist[0, 2] == 2.0

    def test_points_shape(self):
        X = parse_space({"points": {"q": 1, "coords": [[0, 0], [1, 0], [1, 1], [0, 1]]}})
        assert X.dist[0, 2] == 2.0

    def test_points_q_defaults_to_two(self):
        X = parse_space({"points": {"coords": [[0, 0], [3, 4]]}})
        assert X.dist[0, 1] == 5.0

    def test_unknown_shape(self):
        with pytest.raises(ValueError):
            parse_space({"something": 1})

    def test_payload_round_trip(self):
        X = generate_space("random", 5, seed=9)
        Y = parse_space(space_payload(X))
        np.testing.assert_array_equal(X.dist, Y.dist)
        assert X.labels == Y.labels


class TestCheckCommand:
    def test_exit_codes_follow_classification(self, collinear_file, capsys):
        assert main(["check", collinear_file, "--p", "1"]) == 0
        assert main(["check", collinear_file, "--p", "2"]) == 1
        assert main(["check", collinear_file, "--p", "3"]) == 2
        capsys.readouterr()

    def test_json_payload(self, collinear_file, capsys):
        assert main(["check", collinear_file, "--p", "1", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["classification"] == "STRICT"
        assert data["lambda_max"] == pytest.approx(-2 / 3, rel=1e-9)
        assert len(data["direction"]) == 3

    def test_malformed_json_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert main(["check", str(bad), "--p", "1"]) == 3
        assert "error" in capsys.readouterr().err

    def test_missing_file_exits_3(self, capsys):
        assert main(["check", "/nonexistent.json", "--p", "1"]) == 3
        capsys.readouterr()

    def test_invalid_metric_exits_3(self, tmp_path, capsys):
        f = tmp_path / "x.json"
        f.write_text(json.dumps({"matrix": [[0, 1, 3], [1, 0, 1], [3, 1, 0]]}))
        assert main(["check", str(f), "--p", "1"]) == 3
        capsys.readouterr()

    def test_usage_error_exits_3(self, collinear_file, capsys):
        assert main(["check", collinear_file]) == 3  # --p required
        capsys.readouterr()

    @pytest.mark.parametrize("p", ["nan", "inf", "-1"])
    def test_invalid_exponent_exits_3(self, collinear_file, capsys, p):
        assert main(["check", collinear_file, "--p", p]) == 3
        assert "p = " in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_invalid_tolerance_exits_3(self, collinear_file, witness_simplex_file,
                                       capsys, tol):
        assert main(["check", collinear_file, "--p", "1", "--tol", tol]) == 3
        assert "epsilon = " in capsys.readouterr().err
        assert main(["witness", collinear_file, "--p", "3", "--tol", tol]) == 3
        assert "epsilon = " in capsys.readouterr().err
        assert main(["verify", collinear_file, witness_simplex_file, "--p", "2",
                     "--tol", tol]) == 3
        assert "tol = " in capsys.readouterr().err


class TestSupremalCommand:
    def test_collinear_midpoint(self, collinear_file, capsys):
        assert main(["supremal", collinear_file, "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["status"] == "FINITE"
        assert data["midpoint"] == pytest.approx(2.0, abs=1e-8)

    def test_cycle_midpoint(self, cycle_file, capsys):
        main(["supremal", cycle_file, "--format", "json"])
        data = json.loads(capsys.readouterr().out)
        assert data["midpoint"] == pytest.approx(1.0, abs=1e-8)

    def test_ultrametric_diagnosis(self, two_point_file, capsys):
        assert main(["supremal", two_point_file]) == 0
        out = capsys.readouterr().out
        assert "INFINITE_ULTRAMETRIC" in out
        assert "ultrametric" in out

    def test_p_flag_rejected(self, collinear_file, capsys):
        assert main(["supremal", collinear_file, "--p", "2"]) == 3
        assert main(["interval", collinear_file, "--p", "2"]) == 3
        capsys.readouterr()

    @pytest.mark.parametrize("flag", ["--cap", "--width-tol"])
    @pytest.mark.parametrize("value", ["nan", "inf", "0"])
    def test_invalid_cap_or_width_exits_3(self, cycle_file, capsys, flag, value):
        assert main(["supremal", cycle_file, flag, value]) == 3
        assert "error" in capsys.readouterr().err

    def test_exceeds_cap_is_success_exit(self, collinear_file, capsys):
        assert main(["supremal", collinear_file, "--cap", "1.5", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["status"] == "EXCEEDS_CAP"
        assert data["lo"] is None and data["midpoint"] is None


class TestWitnessCommand:
    def test_fixed_p_witness(self, collinear_file, capsys):
        assert main(["witness", collinear_file, "--p", "3"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["method"] == "IVT"
        assert data["holds"] is True and data["nontrivial"] is True
        assert abs(data["residual"]) <= 1e-9
        # the emitted simplex re-verifies through its own parser
        Q = parse_simplex(data["simplex"])
        X = load_space(collinear_file)
        rep = verify_equality(X, data["p"], Q)
        assert rep.holds and rep.nontrivial

    def test_strict_exits_1(self, collinear_file, capsys):
        assert main(["witness", collinear_file, "--p", "1"]) == 1
        assert "strict 1-negative type" in capsys.readouterr().err

    def test_at_supremal(self, collinear_file, capsys):
        assert main(["witness", collinear_file, "--at-supremal"]) == 0
        data = json.loads(capsys.readouterr().out)
        xi = np.array(data["xi"])
        target = np.array([1.0, -2.0, 1.0]) / np.sqrt(6)
        assert min(np.abs(xi - target).max(), np.abs(xi + target).max()) < 1e-6

    def test_ultrametric_exits_1(self, two_point_file, tmp_path, capsys):
        assert main(["witness", two_point_file, "--at-supremal"]) == 1
        assert capsys.readouterr().err.startswith("no witness: ultrametric space")
        beyond_cap = tmp_path / "beyond_cap.json"
        beyond_cap.write_text(json.dumps(
            {"matrix": [[0, 1, 1], [1, 0, 1.001], [1, 1.001, 0]]}
        ))
        assert main(["witness", str(beyond_cap), "--at-supremal"]) == 1
        assert capsys.readouterr().err.startswith(
            "no witness: supremal exponent exceeds cap 64"
        )

    def test_requires_exactly_one_mode(self, collinear_file, capsys):
        assert main(["witness", collinear_file]) == 3
        assert main(["witness", collinear_file, "--p", "2", "--at-supremal"]) == 3
        capsys.readouterr()

    def test_boundary_p_uses_eigendirection(self, cycle_file, capsys):
        assert main(["witness", cycle_file, "--p", "1"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["method"] == "EIGEN_DIRECTION"
        xi = np.abs(np.array(data["xi"]))
        np.testing.assert_allclose(xi, 0.5, atol=1e-9)


class TestVerifyCommand:
    def test_holds_nontrivial_exit_0(self, collinear_file, witness_simplex_file, capsys):
        assert main(["verify", collinear_file, witness_simplex_file, "--p", "2"]) == 0
        capsys.readouterr()

    def test_fails_exit_2(self, collinear_file, witness_simplex_file, capsys):
        assert main(["verify", collinear_file, witness_simplex_file, "--p", "1",
                     "--format", "json"]) == 2
        data = json.loads(capsys.readouterr().out)
        assert data["gap"] == pytest.approx(2.0)

    def test_trivial_exit_1(self, collinear_file, tmp_path, capsys):
        f = tmp_path / "trivial.json"
        f.write_text(json.dumps({"left": [[0, 1], [1, 1]], "right": [[0, 1], [1, 1]]}))
        for p in ("0.5", "2", "7"):
            assert main(["verify", collinear_file, str(f), "--p", p]) == 1
        capsys.readouterr()

    def test_unbalanced_exit_3(self, collinear_file, tmp_path, capsys):
        f = tmp_path / "unbalanced.json"
        f.write_text(json.dumps({"left": [[0, 1]], "right": [[1, 2]]}))
        assert main(["verify", collinear_file, str(f), "--p", "1"]) == 3
        capsys.readouterr()


class TestIntervalCommand:
    def test_two_point_empty_set(self, two_point_file, capsys):
        assert main(["interval", two_point_file]) == 0
        assert "∅" in capsys.readouterr().out

    def test_collinear(self, collinear_file, capsys):
        main(["interval", collinear_file])
        assert "[2.0000, ∞)" in capsys.readouterr().out

    def test_cycle(self, cycle_file, capsys):
        main(["interval", cycle_file])
        assert "[1.0000, ∞)" in capsys.readouterr().out

    def test_json_kind(self, cycle_file, capsys):
        main(["interval", cycle_file, "--format", "json"])
        data = json.loads(capsys.readouterr().out)
        assert data["kind"] == "RAY"
        assert data["lo"] <= 1.0 <= data["hi"] + 1e-9


class TestGenCommand:
    @pytest.mark.parametrize("kind,n", [
        ("cycle", 4), ("path", 3), ("complete", 5),
        ("points", 5), ("ultrametric", 8), ("random", 6),
    ])
    def test_generates_valid_space(self, kind, n, tmp_path, capsys):
        out = tmp_path / "space.json"
        assert main(["gen", kind, str(n), "--seed", "7", "--out", str(out)]) == 0
        X = load_space(str(out))
        assert X.size == n
        capsys.readouterr()

    def test_cycle_metric(self, tmp_path):
        out = tmp_path / "c.json"
        main(["gen", "cycle", "4", "--out", str(out)])
        X = load_space(str(out))
        assert X.dist[0, 2] == 2.0 and X.dist[0, 1] == 1.0

    def test_ultrametric_kind(self, tmp_path):
        out = tmp_path / "u.json"
        main(["gen", "ultrametric", "8", "--seed", "7", "--out", str(out)])
        assert is_ultrametric(load_space(str(out)))

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["gen", "random", "6", "--seed", "123", "--out", str(a)])
        main(["gen", "random", "6", "--seed", "123", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_points_q_flag(self, tmp_path):
        out = tmp_path / "p.json"
        assert main(["gen", "points", "5", "--dim", "2", "--q", "1",
                     "--seed", "3", "--out", str(out)]) == 0
        load_space(str(out))

    def test_bad_params_exit_3(self, capsys):
        assert main(["gen", "cycle", "1"]) == 3
        assert main(["gen", "nonsense", "4"]) == 3
        capsys.readouterr()


class TestDeterminism:
    def test_identical_invocations_byte_identical(self, collinear_file, capsys):
        main(["supremal", collinear_file, "--format", "json"])
        first = capsys.readouterr().out
        main(["supremal", collinear_file, "--format", "json"])
        second = capsys.readouterr().out
        assert first == second

    def test_exit_code_independent_of_format(self, collinear_file, capsys):
        a = main(["check", collinear_file, "--p", "3", "--format", "text"])
        b = main(["check", collinear_file, "--p", "3", "--format", "json"])
        assert a == b == 2
        capsys.readouterr()

    def test_twelve_significant_digits(self, collinear_file, capsys):
        main(["check", collinear_file, "--p", "1", "--format", "json"])
        out = capsys.readouterr().out
        assert "-0.666666666667" in out
