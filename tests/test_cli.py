import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import negtype
from helpers import reference_graph
from negtype import (
    NotSquare,
    is_ultrametric,
    supremal,
    validate_metric,
    verify_equality,
    witness_at_p,
    witness_at_supremal,
)
from negtype import cli
from negtype.cli import (
    GEN_KINDS,
    _round12,
    generate_space,
    load_space,
    main,
    parse_simplex,
    parse_space,
    render_json,
    simplex_payload,
    space_payload,
    witness_payload,
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

    @pytest.mark.parametrize("data", [
        {"matrix": [[0, 1], [1, 0]], "graph": {"n": 2, "edges": [[0, 1, 1]]}},
        {"matrix": [[0, 1], [1, 0]], "points": {"coords": [[0], [1]]}},
        {"graph": {"n": 2, "edges": [[0, 1, 1]]}, "points": {"coords": [[0], [1]]}},
    ], ids=["matrix+graph", "matrix+points", "graph+points"])
    def test_two_shapes_are_rejected(self, data, tmp_path, capsys):
        with pytest.raises(ValueError, match="exactly one of"):
            parse_space(data)
        f = tmp_path / "two.json"
        f.write_text(json.dumps(data))
        assert main(["check", str(f), "--p", "1"]) == 3
        assert "exactly one of" in capsys.readouterr().err

    @pytest.mark.parametrize("data", [
        {"labels": ["a", "b", "c"], "graph": {"n": 3, "edges": [[0, 1, 1], [1, 2, 1]]}},
        {"labels": ["a"], "points": {"coords": [[0], [1], [3]]}},
    ], ids=["graph", "points-wrong-length"])
    def test_labels_beside_graph_or_points_are_rejected(self, data, tmp_path, capsys):
        with pytest.raises(ValueError, match="labels go with matrix only"):
            parse_space(data)
        f = tmp_path / "labelled.json"
        f.write_text(json.dumps(data))
        assert main(["check", str(f), "--p", "1"]) == 3
        assert "labels go with matrix only" in capsys.readouterr().err

    @pytest.mark.parametrize("labels", ["abc", {"a": 0, "b": 1, "c": 2}], ids=["str", "object"])
    def test_labels_that_are_not_a_list_are_rejected(self, labels, tmp_path, capsys):
        data = {"labels": labels, "matrix": [[0, 1, 2], [1, 0, 1], [2, 1, 0]]}
        with pytest.raises(ValueError, match="labels must be a list"):
            parse_space(data)
        f = tmp_path / "labelled.json"
        f.write_text(json.dumps(data))
        assert main(["check", str(f), "--p", "1"]) == 3
        err = capsys.readouterr().err
        assert "labels must be a list" in err and "Traceback" not in err

    @pytest.mark.parametrize("n", [3.7, "3", float("inf"), float("nan"), None, True])
    def test_graph_n_must_be_integral(self, n, tmp_path, capsys):
        data = {"graph": {"n": n, "edges": [[0, 1, 1], [1, 2, 1]]}}
        with pytest.raises(ValueError, match="graph n must be an integer"):
            parse_space(data)
        f = tmp_path / "g.json"
        f.write_text(json.dumps(data))
        assert main(["check", str(f), "--p", "1"]) == 3
        assert "graph n must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("q", [True, "2"], ids=["bool", "str"])
    def test_points_q_must_be_a_number(self, q, tmp_path, capsys):
        # true was read as q = 1 (the l1 metric) and "2" as q = 2
        f = tmp_path / "s.json"
        f.write_text(json.dumps({"points": {"q": q, "coords": [[0], [1]]}}))
        assert main(["check", str(f), "--p", "1"]) == 3
        err = capsys.readouterr().err
        assert f"q = {q!r}" in err and "Traceback" not in err

    def test_integral_float_n_and_truncated_endpoints_load(self):
        X = parse_space({"graph": {"n": 3.0, "edges": [[0.9, 1.5, 1], [1, 2.99, 1]]}})
        np.testing.assert_array_equal(X.dist, [[0, 1, 2], [1, 0, 1], [2, 1, 0]])

    def test_oversized_graph_exits_3_without_a_traceback(self, tmp_path):
        # one edge cannot connect 10**8 vertices; no n x n array is built
        f = tmp_path / "big.json"
        f.write_text(json.dumps({"graph": {"n": 10**8, "edges": [[0, 1, 1.0]]}}))
        src = str(Path(negtype.__file__).resolve().parents[1])
        res = subprocess.run(
            [sys.executable, "-m", "negtype.cli", "check", str(f), "--p", "1"],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120)
        assert res.returncode == 3, res.stderr
        assert "Traceback" not in res.stderr
        assert "not connected" in res.stderr

    def test_memory_error_exits_3(self, collinear_file, monkeypatch, capsys):
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate")

        monkeypatch.setattr(cli, "from_graph", exhausted)
        assert main(["check", collinear_file, "--p", "1"]) == 3
        assert "Unable to allocate" in capsys.readouterr().err

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


class TestUnderflowedPowerMatrix:
    # every entry of D_p underflows to zero, but the decisions read the
    # normalised power matrix: each command exits as on the unscaled space
    def test_exit_3(self, tmp_path, witness_simplex_file, capsys):
        cycle = np.array([[0, 1, 2, 1], [1, 0, 1, 2], [2, 1, 0, 1], [1, 2, 1, 0]])
        line = np.array([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
        files = {}
        for name, d in (("cycle", cycle), ("small", 1e-6 * cycle),
                        ("line", line), ("tiny", 1e-200 * line)):
            files[name] = tmp_path / f"{name}.json"
            files[name].write_text(json.dumps({"matrix": d.tolist()}))
        for unit, scaled, argv in (
                ("cycle", "small", ["check", "--p", "60"]),
                ("cycle", "small", ["witness", "--p", "60"]),
                ("line", "tiny", ["witness", "--p", "2"]),
                ("line", "tiny", ["verify", witness_simplex_file, "--p", "2"])):
            want = main([argv[0], str(files[unit]), *argv[1:]])
            assert want in (0, 2)
            assert main([argv[0], str(files[scaled]), *argv[1:]]) == want
        assert capsys.readouterr().err == ""


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

    def test_evaluations_match_library(self, collinear_file, cycle_file, capsys):
        for path in (collinear_file, cycle_file):
            assert main(["supremal", path, "--format", "json"]) == 0
            data = json.loads(capsys.readouterr().out)
            assert data["evaluations"] == supremal(load_space(path)).evaluations

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

    @pytest.mark.parametrize("mode", [["--p", "3"], ["--at-supremal"]], ids=["p", "at_supremal"])
    def test_file_is_the_witness_payload(self, mode, tmp_path):
        space, out = str(tmp_path / "pts.json"), tmp_path / "w.json"
        assert main(["gen", "points", "30", "--seed", "1", "--out", space]) == 0
        assert main(["witness", space, *mode, "--format", "json", "--out", str(out)]) == 0
        X = load_space(space)
        w = witness_at_p(X, 3.0) if mode[0] == "--p" else witness_at_supremal(X, supremal(X))
        payload = witness_payload(w)
        assert payload["holds"] is w.equality.holds
        assert payload["nontrivial"] is w.equality.nontrivial
        assert out.read_text(encoding="utf-8") == render_json(payload) + "\n"

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

    def test_unverified_witness_exits_3(self, tmp_path, capsys):
        # at p = 150 the form's zero on this triangle puts about 1e-12 of its
        # weight on point 0, below the eigenvector's accuracy, and its simplex
        # misses the equality by a relative 1e-4: a program failure, and
        # nothing is written
        tri = tmp_path / "tri.json"
        tri.write_text(json.dumps({"matrix": [[0, 1, 3], [1, 0, 2.5], [3, 2.5, 0]]}))
        out = tmp_path / "w.json"
        assert main(["witness", str(tri), "--p", "150", "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "p = 150" in captured.err
        assert captured.out == "" and not out.exists()

    def test_requires_exactly_one_mode(self, collinear_file, capsys):
        assert main(["witness", collinear_file]) == 3
        assert main(["witness", collinear_file, "--p", "2", "--at-supremal"]) == 3
        capsys.readouterr()

    @pytest.mark.parametrize("tol", ["nan", "1e-9"])
    def test_tol_rejected_at_supremal(self, collinear_file, capsys, tol):
        # the supremal witness is classified at the default tolerance; a
        # --tol there would be silently ignored
        assert main(["witness", collinear_file, "--at-supremal", "--tol", tol]) == 3
        assert "--tol" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, message", [
        ([], "exactly one of --p or --at-supremal"),
        (["--p", "2", "--at-supremal"], "exactly one of --p or --at-supremal"),
        (["--at-supremal", "--tol", "1e-9"], "--tol applies only with --p"),
    ], ids=["neither", "both", "tol"])
    def test_flags_are_checked_before_the_space_is_read(self, tmp_path, capsys,
                                                        flags, message):
        # a usage mistake costs no validation: the file is never opened
        assert main(["witness", str(tmp_path / "missing.json"), *flags]) == 3
        assert message in capsys.readouterr().err

    def test_payload_p_is_exact(self, tmp_path, capsys):
        # the random graph's bracket midpoint has more than 12 significant
        # digits; rounded, it would send a verify of the emitted files elsewhere
        space, simplex = str(tmp_path / "random.json"), str(tmp_path / "q.json")
        assert main(["gen", "random", "12", "--seed", "8", "--out", space]) == 0
        mid = supremal(load_space(space)).midpoint
        assert float(f"{mid:.12g}") != mid
        assert main(["witness", space, "--at-supremal"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["p"] == mid
        Path(simplex).write_text(json.dumps(data["simplex"]), encoding="utf-8")
        assert main(["verify", space, simplex, "--p", repr(data["p"]), "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["p"] == mid
        assert main(["witness", space, "--at-supremal", "--format", "text"]) == 0
        assert f"p: {mid!r}\n" in capsys.readouterr().out

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

    @pytest.mark.parametrize("weight", ["NaN", "Infinity"])
    def test_non_finite_weight_exit_3(self, collinear_file, tmp_path, capsys, weight):
        f = tmp_path / "non_finite.json"
        f.write_text(f'{{"left": [[0, {weight}]], "right": [[1, 1.0]]}}')
        assert main(["verify", collinear_file, str(f), "--p", "2"]) == 3
        assert "weight totals differ" in capsys.readouterr().err

    @pytest.mark.parametrize("index", ["Infinity", "NaN", "0.7"])
    def test_non_integral_index_exit_3(self, collinear_file, tmp_path, capsys, index):
        # json.load reads Infinity, which int() would raise OverflowError on
        f = tmp_path / "index.json"
        f.write_text(f'{{"left": [[{index}, 1]], "right": [[1, 1]]}}')
        assert main(["verify", collinear_file, str(f), "--p", "2"]) == 3
        err = capsys.readouterr().err
        assert "simplex index must be an integer" in err and "Traceback" not in err

    def test_bool_or_string_entry_exit_3(self, collinear_file, tmp_path, capsys):
        # int() and float() would read it as the simplex {1} | {2}
        f = tmp_path / "strings.json"
        f.write_text('{"left": [[true, "1"]], "right": [["2", 1]]}')
        assert main(["verify", collinear_file, str(f), "--p", "2"]) == 3
        err = capsys.readouterr().err
        assert "simplex index must be an integer, got True" in err and "Traceback" not in err


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

    @pytest.mark.parametrize("n", ["-1", "0", "1"])
    def test_points_below_two_exit_3(self, n, capsys):
        assert main(["gen", "points", n]) == 3
        assert "need at least 2 points" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("n", [-1, 0, 1, 2, 3, 5, 33, 120, 351])
    @pytest.mark.parametrize("kind", ["cycle", "path", "complete", "random"])
    def test_graph_kinds_equal_the_per_edge_loops(self, kind, n, seed):
        # one edge array and one weight draw give the bits of the loops, and
        # below 2 vertices the same error
        def outcome(build):
            try:
                return build(kind, n, seed=seed).dist.tobytes()
            except NotSquare as exc:
                return f"NotSquare: {exc}"

        assert outcome(generate_space) == outcome(reference_graph)


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


class TestTextReports:
    # the collinear triple's text reports, field by field in a fixed order:
    # report scalars at 12 digits, xi and simplex at full precision
    @pytest.mark.parametrize("argv, code, text", [
        (["check", "{space}", "--p", "3"], 2, """\
classification: NOT_NEG_TYPE
p: 3
lambda_max: 1.33333333333
tolerance: 8e-09
direction: [0.408248290464, -0.816496580928, 0.408248290464]
"""),
        (["witness", "{space}", "--p", "3", "--format", "text"], 0, """\
p: 3
method: IVT
residual: 5.14518094418e-16
lhs: 0.571428571429
rhs: 0.571428571429
holds: True
nontrivial: True
xi: [0.11070323109680275, -0.7559289460184543, 0.6452257149216519]
simplex: {"left": [[0, 0.11070323109680275], [2, 0.6452257149216519]], \
"right": [[1, 0.7559289460184543]]}
"""),
        (["verify", "{space}", "{simplex}", "--p", "2"], 0, """\
p: 2
lhs: 4
rhs: 4
gap: 0
holds: True
nontrivial: True
"""),
        (["interval", "{space}"], 0, "interval: [2.0000, ∞)\n"),
    ], ids=["check", "witness", "verify", "interval"])
    def test_collinear(self, collinear_file, witness_simplex_file, capsys, argv, code, text):
        argv = [a.format(space=collinear_file, simplex=witness_simplex_file) for a in argv]
        assert main(argv) == code
        assert capsys.readouterr().out == text

    def test_module_entry_point_exits_with_the_class(self, collinear_file):
        # python -m negtype.cli: run() and the __main__ guard, in a fresh interpreter
        src = str(Path(negtype.__file__).resolve().parents[1])
        res = subprocess.run(
            [sys.executable, "-m", "negtype.cli", "check", collinear_file, "--p", "3"],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120)
        assert res.returncode == 2, res.stderr
        assert res.stdout.startswith("classification: NOT_NEG_TYPE\n")


def _json_dumps_render(payload: dict) -> str:
    # the rendering render_json must reproduce byte for byte; json writes an
    # array as its tolist(), as render_json does
    return json.dumps(_round12(payload), indent=2, ensure_ascii=False,
                      default=np.ndarray.tolist)


class TestRenderJson:
    @pytest.mark.parametrize("kind", GEN_KINDS)
    def test_gen_payloads(self, kind):
        for n in (2, 7, 40):
            for seed in (0, 1):
                payload = space_payload(generate_space(kind, n, seed=seed))
                assert render_json(payload) == _json_dumps_render(payload)

    @pytest.mark.parametrize("kind", GEN_KINDS)
    def test_large_gen_payloads(self, kind):
        payload = space_payload(generate_space(kind, 350, seed=5))
        assert isinstance(payload["matrix"], np.ndarray)
        assert render_json(payload) == _json_dumps_render(payload)

    def test_float_arrays(self):
        tiny, huge, nan, inf = 5e-324, 1e300, float("nan"), float("inf")
        values = np.array([-0.0, 0.0, tiny, -tiny, huge, nan, inf, -inf, 1 / 3, 0.1])
        square = np.array([values, values[::-1], 2 * values, values * 1e-12])
        payloads = [
            {"matrix": square, "xi": values, "direction": values},
            {"matrix": square.T, "xi": values[::3], "rounded": square / 7},
            {"matrix": square[:, :0], "xi": values[:0], "p": values[4:5], "empty": square[:0]},
            {"matrix": np.arange(6.0).reshape(2, 3).astype(np.float32),
             "xi": np.array([[[0.5, -0.0]], [[1.0, 2.0]]]), "ints": np.arange(3),
             "flags": np.array([True, False]), "scalar": np.float64(2.0) ** 0.5 * np.ones(())},
        ]
        for payload in payloads:
            assert render_json(payload) == _json_dumps_render(payload)
        # under a rounded key an array is rounded to 12 digits, as its tolist() is
        assert '"direction": [\n    -0.0,\n    0.0,\n    5e-324' in render_json(payloads[0])
        assert "0.333333333333,\n" in render_json(payloads[0])
        assert "0.3333333333333333,\n" in render_json(payloads[0])

    def test_ragged_float_lists(self):
        rows = [[0.5], [-0.0, 0.0, 1e300], [float("nan")], [0.1, 0.2, 0.30000000000000004]]
        payloads = [{"matrix": rows, "rounded": rows},
                    {"xi": [[2.5] * 5, [1e-310]], "nested": {"rows": rows[::-1]}}]
        for payload in payloads:
            assert render_json(payload) == _json_dumps_render(payload)

    def test_every_command_payload(self, collinear_file, cycle_file, two_point_file,
                                   witness_simplex_file, tmp_path, monkeypatch, capsys):
        payloads = []

        def recording(payload):
            payloads.append(payload)
            return _json_dumps_render(payload)

        monkeypatch.setattr(cli, "render_json", recording)
        runs = [
            ["check", collinear_file, "--p", "1"],
            ["check", cycle_file, "--p", "3"],
            ["supremal", collinear_file],
            ["supremal", two_point_file],
            ["supremal", cycle_file, "--cap", "0.5"],
            ["witness", collinear_file, "--p", "3"],
            ["witness", cycle_file, "--at-supremal"],
            ["verify", collinear_file, witness_simplex_file, "--p", "2"],
            ["interval", collinear_file],
            ["interval", two_point_file],
            ["interval", cycle_file, "--cap", "0.5"],
        ]
        for argv in runs:
            assert main([*argv, "--format", "json"]) in (0, 1, 2)
        assert main(["gen", "ultrametric", "9", "--seed", "4", "--out", str(tmp_path / "u.json")]) == 0
        assert len(payloads) == len(runs) + 1
        monkeypatch.undo()
        expected = capsys.readouterr().out
        assert "".join(render_json(p) + "\n" for p in payloads[:-1]) == expected
        assert render_json(payloads[-1]) == _json_dumps_render(payloads[-1])

    def test_edge_values(self):
        tiny, huge = 5e-324, 1e300
        payloads = [
            space_payload(validate_metric(
                ["α", "b", "点"], [[0, tiny, huge], [tiny, 0, huge], [huge, huge, 0]])),
            {"p": 2.000000000000123, "method": "IVT",
             "xi": [-0.0, 0.0, 0.5, -0.5, 2.2250738585072014e-309, -huge],
             "simplex": {"left": [], "right": [[0, 0.5], [3, 0.5]]},
             "residual": tiny, "lhs": huge, "rhs": -0.0},
            {"mixed": [1, 2.5, True, None, "s", [], {}, [0.5, 1]], "rows": [[1.0], [], [2.0, -0.0]],
             "nan": [float("nan"), float("inf"), -float("inf")], "empty": {}},
            {"simplex": {"left": [[0, 0.25], [7, 1], [2**70, -0.0]], "right": [[1, 1e300]]},
             "pairs": [[1, 2.0 / 3.0], [2, float("nan")]], "flags": [[1, True]], "one": [[3]]},
            # escapes inside strings, where an indent by replace must not reach,
            # and top-level keys that json turns into strings (1 and True are one key)
            {"labels": ["a\nb", "\t", '"', "\\", "\u2028", "\x00", "\n\n"],
             "nested": {"k\ney": ["\r\n", {"\u2028": "\x00"}]}, "line\nkey": "\n",
             1: [0.5, 1.5], None: {"x": "\n"}, 2.5: "s", float("nan"): [], -0.0: {}},
            {True: ["\n"], False: 0.25, "": [[0.5]]},
        ]
        for payload in payloads:
            assert render_json(payload) == _json_dumps_render(payload)
        # -0.0 and 0.0 are equal values with different bits
        assert '"xi": [\n    -0.0,\n    0.0,' in render_json(payloads[1])


class TestRoundTrip:
    # generated spaces skip the triangle scan inside their error bounds;
    # reading a written space back as a matrix runs the full scan
    @pytest.mark.parametrize("gen", [[k] for k in GEN_KINDS] + [
        ["points", "--q", "1"], ["points", "--q", "inf"], ["points", "--dim", "1"],
    ], ids="-".join)
    def test_gen_check_witness_verify(self, gen, tmp_path, capsys):
        space, wit, simplex = (str(tmp_path / f) for f in ("s.json", "w.json", "q.json"))
        codes = []
        for n in (2, 9, 40):
            for seed in ("0", "1"):
                assert main(["gen", gen[0], str(n), *gen[1:], "--seed", seed, "--out", space]) == 0
                assert main(["check", space, "--p", "1"]) in (0, 1, 2)
                codes.append(main(["witness", space, "--at-supremal", "--out", wit]))
                if codes[-1] != 0:
                    continue
                # the supremal witness re-verifies from the files alone
                data = json.loads(Path(wit).read_text(encoding="utf-8"))
                Path(simplex).write_text(json.dumps(data["simplex"]), encoding="utf-8")
                assert main(["verify", space, simplex, "--p", repr(data["p"])]) == 0
        assert set(codes) <= {0, 1}
        if gen[0] in ("cycle", "path", "points", "random"):
            assert 0 in codes
        capsys.readouterr()


# run in a fresh interpreter; prints the scipy modules loaded at the end
_PROBE = ("import json, sys; sys.path.insert(0, {src!r}); {body}; "
          "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))")


def _scipy_loaded_by(body: str) -> list[str]:
    src = str(Path(negtype.__file__).resolve().parents[1])
    res = subprocess.run([sys.executable, "-I", "-c", _PROBE.format(src=src, body=body)],
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout.splitlines()[-1])


class TestImportCost:
    # scipy's graph and distance modules take most of the start-up time of
    # every negtype command; only the constructors that use them load them
    def test_importing_the_cli_loads_no_scipy(self):
        assert _scipy_loaded_by("import negtype.cli") == []

    def test_check_on_a_matrix_file_loads_no_scipy(self, tmp_path):
        f = tmp_path / "m.json"
        f.write_text(json.dumps({"matrix": [[0, 1, 2], [1, 0, 1], [2, 1, 0]]}))
        body = ("from negtype.cli import main; "
                f"rc = main(['check', {str(f)!r}, '--p', '1']); rc == 0 or sys.exit(rc)")
        assert _scipy_loaded_by(body) == []

    def test_interval_on_a_generated_ultrametric_loads_no_scipy(self, tmp_path):
        # the triangle certificate and the ultrametric test are numpy only
        f = tmp_path / "u.json"
        assert main(["gen", "ultrametric", "60", "--seed", "2", "--out", str(f)]) == 0
        body = ("from negtype.cli import main; "
                f"rc = main(['interval', {str(f)!r}, '--format', 'json']); rc == 0 or sys.exit(rc)")
        assert _scipy_loaded_by(body) == []

    def test_graph_input_still_loads_it(self, tmp_path):
        f = tmp_path / "g.json"
        f.write_text(json.dumps({"graph": {"n": 3, "edges": [[0, 1, 1], [1, 2, 1]]}}))
        body = ("from negtype.cli import main; "
                f"rc = main(['check', {str(f)!r}, '--p', '1']); rc == 0 or sys.exit(rc)")
        assert "scipy.sparse.csgraph" in _scipy_loaded_by(body)
