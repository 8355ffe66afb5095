import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import negtype
from helpers import reference_graph
from negtype import (
    MetricSpace,
    NegTypeError,
    NotSquare,
    from_graph,
    from_points,
    is_ultrametric,
    random_ultrametric,
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

    @pytest.mark.parametrize("data, field", [
        ({"matrix": [[0, "1"], ["1", 0]]}, "matrix"),
        ({"graph": {"n": 2, "edges": [[0, 1, "2.5"]]}}, "edges"),
        ({"points": {"coords": [["0", "0"], ["3", "4"]]}}, "coords"),
    ], ids=["matrix", "edges", "coords"])
    def test_string_entries_are_rejected(self, data, field, tmp_path, capsys):
        # numpy's float conversion read each of these as numbers
        with pytest.raises(ValueError, match=f"{field} entries must be numbers"):
            parse_space(data)
        f = tmp_path / "s.json"
        f.write_text(json.dumps(data))
        assert main(["check", str(f), "--p", "1"]) == 3
        assert f"error: {field} entries must be numbers" in capsys.readouterr().err

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


def _json_load_space(path) -> MetricSpace:
    """load_space as it read every file before the memo: json's own floats."""
    with open(path, encoding="utf-8") as fh:
        return parse_space(json.load(fh))


def _outcome(load, path):
    """The labels and distance bits a loader gives, or the error it raises."""
    try:
        X = load(path)
    except (NegTypeError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return X.labels, X.dist.tobytes()


def _crafted(infinity: bool = False) -> str:
    """A 64-point ultrametric written with the edge cases of json's numbers.

    d(i, j) is the height of the highest bit of i ^ j: 5e-324, 1e-5, 1.0
    or 1.00 (by the parity of i + j), 1.2345678901234567, 1E5 and the
    largest float; the diagonal is -0.0. The block of the largest float
    fills the middle of the text, so it decodes with the memo. With
    infinity, entry (1, 0) reads Infinity.
    """
    heights = ("5e-324", "1e-5", ("1.0", "1.00"), "1.2345678901234567", "1E5",
               "1.7976931348623157e308")
    rows = []
    for i in range(64):
        row = ["-0.0"] * 64
        for j in range(64):
            if i != j:
                h = heights[(i ^ j).bit_length() - 1]
                row[j] = h[(i + j) % 2] if isinstance(h, tuple) else h
        rows.append("[" + ", ".join(row) + "]")
    if infinity:
        rows[1] = "[Infinity" + rows[1][len("[5e-324"):]
    return '{"matrix": [' + ",\n".join(rows) + "]}\n"


def _bipartite(m: int) -> MetricSpace:
    """K_{m/2,m/2} scaled by 1.2345678901234567: two long distances, not ultrametric."""
    half = m // 2
    X = from_graph(m, [(i, half + j, 1.0) for i in range(half) for j in range(half)])
    return validate_metric(None, 1.2345678901234567 * X.dist)


@pytest.fixture()
def decodes(monkeypatch):
    """The parse_float given to each json.loads call; None is json's own float."""
    seen = []
    loads = json.loads

    def spy(text, **kwargs):
        seen.append(kwargs.get("parse_float"))
        return loads(text, **kwargs)

    monkeypatch.setattr(json, "loads", spy)
    return seen


class TestRepeatedNumbers:
    """load_space parses each distinct float token once when the text repeats them."""

    @pytest.mark.parametrize("m", [150, 350])
    @pytest.mark.parametrize("kind", GEN_KINDS)
    def test_gen_files_give_the_bits_of_json_load(self, kind, m, tmp_path):
        f = tmp_path / "space.json"
        assert main(["gen", kind, str(m), "--seed", "5", "--out", str(f)]) == 0
        assert _outcome(load_space, f) == _outcome(_json_load_space, f)

    @pytest.mark.parametrize("m", [150, 350])
    def test_compact_files_give_the_bits_of_json_load(self, m, tmp_path):
        # the files of the certify benchmark: json.dumps of a random graph's
        # distances, of point clouds, and of unit path and cycle edges
        rng = np.random.default_rng(m)
        datas = [
            {"matrix": generate_space("random", m, seed=m).dist.tolist()},
            *({"points": {"q": q, "coords": rng.standard_normal((m, 3)).tolist()}}
              for q in (1.0, 2.0)),
            {"graph": {"n": m, "edges": [[i, i + 1, 1.0] for i in range(m - 1)]}},
            {"graph": {"n": m, "edges": [[i, (i + 1) % m, 1.0] for i in range(m)]}},
        ]
        for data in datas:
            f = tmp_path / "space.json"
            f.write_text(json.dumps(data), encoding="utf-8")
            assert _outcome(load_space, f) == _outcome(_json_load_space, f)

    def test_one_float_call_per_distinct_token(self, tmp_path, monkeypatch):
        f = tmp_path / "space.json"
        assert main(["gen", "ultrametric", "350", "--seed", "5", "--out", str(f)]) == 0
        tokens = []  # every float token of the text, as json hands it over
        json.loads(f.read_text(encoding="utf-8"), parse_float=tokens.append)
        parsed = []

        def counted(token):
            parsed.append(token)
            return float(token)

        monkeypatch.setattr(cli, "float", counted, raising=False)  # the memo's float
        X = load_space(str(f))
        assert sorted(parsed) == sorted(set(tokens))
        assert len(tokens) > 100 * len(parsed)  # 350 * 350 tokens, 349 heights and 0.0
        assert X.dist.tobytes() == random_ultrametric(350, seed=5).dist.tobytes()

    @pytest.mark.parametrize("infinity", [False, True], ids=["finite", "infinity"])
    def test_edge_tokens(self, infinity, tmp_path, decodes):
        f = tmp_path / "crafted.json"
        f.write_text(_crafted(infinity), encoding="utf-8")
        got = _outcome(load_space, f)
        assert decodes[-1] not in (None, float)  # the memo
        assert got == _outcome(_json_load_space, f)
        if infinity:
            assert got == "NonpositiveDistance: dist[1][0] is not finite"
        else:
            assert got[1][:8] == np.float64(0.0).tobytes()  # -0.0 on the diagonal is zeroed
        # the decoded data itself: json.dumps writes each float by repr,
        # which tells apart every double and -0.0 from 0.0
        with open(f, encoding="utf-8") as fh:
            assert json.dumps(cli._read_json(f)) == json.dumps(json.load(fh))

    @pytest.mark.parametrize("build, memo", [
        (lambda: space_payload(random_ultrametric(350, seed=5)), True),
        (lambda: space_payload(_bipartite(150)), True),
        (lambda: space_payload(generate_space("random", 350, seed=5)), False),
        # repeated, but shorter than 16 digits: float() is faster than a lookup
        (lambda: space_payload(generate_space("complete", 350)), False),
        (lambda: {"matrix": generate_space("random", 350, seed=6).dist.tolist()}, False),
        # a window of fewer than 32 long numbers
        (lambda: space_payload(random_ultrametric(5, seed=5)), False),
    ], ids=["ultrametric-350", "bipartite-150", "random-350", "complete-350",
            "compact-distinct-350", "ultrametric-5"])
    def test_path_choice(self, build, memo, tmp_path, decodes):
        payload = build()
        f = tmp_path / "space.json"
        compact = isinstance(payload["matrix"], list)
        f.write_text(json.dumps(payload) if compact else render_json(payload), encoding="utf-8")
        load_space(str(f))
        assert len(decodes) == 1
        assert (decodes[0] is not None) == memo

    @pytest.mark.parametrize("text", [
        lambda: render_json(space_payload(random_ultrametric(150, seed=5))),
        lambda: render_json(space_payload(random_ultrametric(350, seed=5))),
        lambda: render_json(space_payload(_bipartite(150))),
        _crafted,
        lambda: _crafted(infinity=True),
    ], ids=["ultrametric-150", "ultrametric-350", "bipartite-150", "crafted", "infinity"])
    def test_cli_output_of_the_default_decode(self, text, tmp_path, monkeypatch, capsys):
        # on files that take the memo, every command writes the bytes and
        # exits with the code of json's own decode
        f = tmp_path / "space.json"
        f.write_text(text(), encoding="utf-8")
        assert cli._repeats(f.read_text(encoding="utf-8"))

        def runs():
            out = []
            for command, *flags in (["interval"], ["supremal"], ["check", "--p", "1"],
                                    ["witness", "--at-supremal"],
                                    ["interval", "--format", "json"]):
                code = main([command, str(f), *flags])
                out.append((command, code, *capsys.readouterr()))
            return out

        memo = runs()
        monkeypatch.setattr(cli, "_repeats", lambda text: False)
        assert runs() == memo


class TestFileShapes:
    """One space given as a graph, as points and as its matrix gets the same
    class and exit code from check, and the same kind from interval."""

    @staticmethod
    def answers(data, tmp_path, capsys):
        f = tmp_path / "space.json"
        f.write_text(json.dumps(data), encoding="utf-8")
        out = []
        for p in ("0.5", "1", "2", "3"):
            code = main(["check", str(f), "--p", p, "--format", "json"])
            out.append((code, json.loads(capsys.readouterr().out)["classification"]))
        assert main(["interval", str(f), "--format", "json"]) == 0
        return out, json.loads(capsys.readouterr().out)["kind"]

    def test_same_answers(self, tmp_path, capsys):
        rng = np.random.default_rng(8)
        groups = [  # the spaces of a group are equal entry for entry
            [{"graph": {"n": 6, "edges": [[i, i + 1, 1.0] for i in range(5)]}},
             {"points": {"coords": [[float(i)] for i in range(6)]}}],
            [{"graph": {"n": 4, "edges": [[i, (i + 1) % 4, 1.0] for i in range(4)]}},
             {"points": {"coords": [[0, 0], [1, 0], [1, 1], [0, 1]], "q": 1}}],
            *([{"graph": {"n": n, "edges": [[i, (i + 1) % n, 1.0] for i in range(n)]}}]
              for n in (6, 7)),
            [{"graph": {"n": 5, "edges": [[i, j, 1.0] for i in range(5) for j in range(i)]}}],
            [{"graph": {"n": 8, "edges": [[i, j, float(rng.uniform(0.5, 2.0))]
                                          for i in range(8) for j in range(i + 1, 8)]}}],
            *([{"points": {"coords": rng.standard_normal((9, 3)).tolist(), "q": q}}]
              for q in (1, 2, float("inf"))),
        ]
        seen = set()
        for group in groups:
            group.append({"matrix": parse_space(group[0]).dist.tolist()})
            want = self.answers(group[0], tmp_path, capsys)
            for data in group[1:]:
                assert self.answers(data, tmp_path, capsys) == want, data
            seen.update(want[0])
            seen.add(want[1])
        assert seen >= {(0, "STRICT"), (1, "BOUNDARY"), (2, "NOT_NEG_TYPE"), "EMPTY", "RAY"}


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
        for name, d in (("cycle", cycle), ("small", 1e-6 * cycle), ("large", 1e6 * cycle),
                        ("huge", 1e20 * cycle), ("line", line), ("tiny", 1e-200 * line)):
            files[name] = tmp_path / f"{name}.json"
            files[name].write_text(json.dumps({"matrix": d.tolist()}))
        for unit, scaled, argv in (
                ("cycle", "small", ["check", "--p", "60"]),
                ("cycle", "large", ["check", "--p", "60"]),
                ("cycle", "huge", ["check", "--p", "60"]),
                ("cycle", "small", ["witness", "--p", "60"]),
                ("line", "tiny", ["witness", "--p", "2"]),
                ("line", "tiny", ["witness", "--at-supremal"]),
                ("line", "tiny", ["verify", witness_simplex_file, "--p", "2"])):
            want = main([argv[0], str(files[unit]), *argv[1:]])
            assert want in (0, 2)
            assert want == (2 if argv[0] == "check" else 0)
            assert main([argv[0], str(files[scaled]), *argv[1:]]) == want
        # the scaled cycles' brackets hold w = 1, and the tiny line's supremal
        # witness is a nontrivial equality
        out = tmp_path / "out.json"
        for scaled in ("small", "large", "huge"):
            assert main(["interval", str(files[scaled]), "--format", "json",
                         "--out", str(out)]) == 0
            i = json.loads(out.read_text(encoding="utf-8"))
            assert i["lo"] - 1e-10 <= 1 <= i["hi"] + 1e-10, (scaled, i)
        assert main(["witness", str(files["tiny"]), "--at-supremal", "--format", "json",
                     "--out", str(out)]) == 0
        w = json.loads(out.read_text(encoding="utf-8"))
        assert w["holds"] and w["nontrivial"], w
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


class TestSolveCounts:
    """check prints lambda_max and the direction, so it takes one eigvalsh and
    one solve of the form at every class, after the class's Lanczos steps
    (two on three points, which span F0; they prove the class at 3) and, at
    1, the Cholesky factorisation that proves STRICT; a witness at a STRICT
    exponent needs no direction, so it takes the factorisation alone."""

    DIRECTION = [-0.408248290464, 0.816496580928, -0.408248290464]

    @pytest.mark.parametrize("p, code, cls, lam, tol", [
        ("1", 0, "STRICT", -0.666666666667, 2e-09),
        ("2", 1, "BOUNDARY", 2.77555756156e-16, 4e-09),
        ("3", 2, "NOT_NEG_TYPE", 1.33333333333, 8e-09),
    ], ids=["strict", "boundary", "not_neg_type"])
    def test_check(self, collinear_file, lapack, capsys, p, code, cls, lam, tol):
        text = (f"classification: {cls}\np: {p}\nlambda_max: {lam:.12g}\n"
                f"tolerance: {tol:.12g}\ndirection: [{', '.join(map(str, self.DIRECTION))}]\n")
        payload = {"p": float(p), "classification": cls, "lambda_max": lam, "tolerance": tol,
                   "direction": self.DIRECTION}
        for fmt, out in (("text", text), ("json", render_json(payload) + "\n")):
            lapack.clear()
            assert main(["check", collinear_file, "--p", p, "--format", fmt]) == code
            proof = ["cholesky"] if cls == "STRICT" else []
            assert lapack == [*proof, "eigvalsh", "solve"] and lapack.steps == 2
            assert capsys.readouterr().out == out

    def test_strict_witness_takes_one_cholesky(self, collinear_file, lapack, capsys):
        assert main(["witness", collinear_file, "--p", "1"]) == 1
        assert lapack == ["cholesky"] and lapack.steps == 2
        assert lapack.of_order(2) == ["eigh", "cholesky"]  # no eigvalsh of the form
        assert capsys.readouterr().out == ""


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
        for n in ("30", "350"):
            assert main(["gen", "points", n, "--seed", "1", "--out", space]) == 0
            assert main(["witness", space, *mode, "--format", "json", "--out", str(out)]) == 0
            X = load_space(space)
            w = witness_at_p(X, 3.0) if mode[0] == "--p" else witness_at_supremal(X, supremal(X))
            payload = witness_payload(w)
            assert payload["holds"] is w.equality.holds
            assert payload["nontrivial"] is w.equality.nontrivial
            text = out.read_text(encoding="utf-8")
            assert text == render_json(payload) + "\n" == _json_dumps_render(payload) + "\n"

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
        (["--p", "3", "--cap", "0.5"], "--cap and --width-tol apply only with --at-supremal"),
        (["--p", "3", "--width-tol", "-1"], "--cap and --width-tol apply only with --at-supremal"),
    ], ids=["neither", "both", "tol", "cap", "width_tol"])
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

    @pytest.mark.parametrize("argv, message", [
        *(pytest.param(["points", n], "need at least 2 points", id=n) for n in ("-1", "0", "1")),
        pytest.param(["cycle", "1"], "need at least 2 vertices", id="cycle-1"),
        pytest.param(["path", "0"], "need at least 2 vertices", id="path-0"),
        *(pytest.param(["points", "5", "--dim", d], f"need at least 1 dimension, got dim = {d}",
                       id=f"dim={d}") for d in ("-1", "0")),
        # a flag only points reads is refused on any other kind, before the
        # space is built: cycle 1 would otherwise fail on its size
        *(pytest.param(argv, "--dim and --q apply only to gen points", id=i) for i, argv in {
            "cycle-dim-q": ["cycle", "4", "--dim", "-1", "--q", "0.5"],
            "cycle-1-dim": ["cycle", "1", "--dim", "3"],
            "ultrametric-q": ["ultrametric", "4", "--q", "2"],
            "random-dim": ["random", "5", "--seed", "1", "--dim", "3"],
        }.items()),
    ])
    def test_points_below_two_exit_3(self, argv, message, capsys):
        assert main(["gen", *argv]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize("kind", GEN_KINDS)
    def test_n_is_read_by_the_integer_rule(self, kind):
        # an integral n of any number type draws what the int draws; 4.0
        # and "4" raised numpy's or <'s TypeError on points and ultrametric
        want = generate_space(kind, 9, seed=4).dist.tobytes()
        for n in (9.0, np.float64(9.0), np.int64(9)):
            assert generate_space(kind, n, seed=4).dist.tobytes() == want
        for n in (True, "4", 4.5):
            with pytest.raises(ValueError, match=re.escape(f"n must be an integer, got {n!r}")):
                generate_space(kind, n, seed=4)
        if kind == "points":  # dim by the same rule; 3.0 and "3" raised TypeError
            for dim in (3.0, np.int64(3)):
                assert generate_space(kind, 9, dim=dim, seed=4).dist.tobytes() == want
            for dim in (True, "3", 2.5):
                with pytest.raises(ValueError,
                                   match=re.escape(f"dim must be an integer, got {dim!r}")):
                    generate_space(kind, 9, dim=dim, seed=4)

    def test_points_are_one_draw_of_standard_normals(self):
        for n, dim, q, seed in ((9, 3, 2.0, 4), (40, 2, 1.0, 0), (350, 3, 2.0, 5)):
            coords = np.random.default_rng(seed).standard_normal((n, dim))
            want = from_points(coords, q=q).dist.tobytes()
            assert generate_space("points", n, dim=dim, q=q, seed=seed).dist.tobytes() == want

    @pytest.mark.parametrize("kind, n, seed", [
        *((kind, n, seed) for kind in ("cycle", "path", "complete", "random")
          for n in (-1, 0, 1, 2, 3, 5, 33, 120, 351) for seed in (0, 1)),
        ("random", 400, 2), ("complete", 300, None),
    ], ids=str)
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

    def test_exit_code_independent_of_format(self, collinear_file, cycle_file,
                                             witness_simplex_file, tmp_path, capsys):
        # every subcommand keeps its exit code in both formats, and --out
        # writes exactly the bytes that the same run prints without it
        out = tmp_path / "out"
        runs = [(["gen", "random", "5", "--seed", "1"], 0)] + [
            ([*argv, "--format", fmt], code) for fmt in ("text", "json") for argv, code in [
                (["check", collinear_file, "--p", "3"], 2),
                (["check", cycle_file, "--p", "1"], 1),
                (["check", collinear_file, "--p", "1"], 0),
                (["supremal", collinear_file], 0),
                (["supremal", collinear_file, "--cap", "1.5"], 0),
                (["witness", collinear_file, "--p", "3"], 0),
                (["witness", collinear_file, "--p", "1"], 1),
                (["witness", collinear_file, "--at-supremal"], 0),
                (["verify", collinear_file, witness_simplex_file, "--p", "2"], 0),
                (["verify", collinear_file, witness_simplex_file, "--p", "3"], 2),
                (["interval", collinear_file], 0),
                (["interval", cycle_file], 0),
            ]]
        for argv, code in runs:
            assert main(argv) == code
            printed = capsys.readouterr().out
            assert main([*argv, "--out", str(out)]) == code
            assert capsys.readouterr().out == ""
            if printed:
                assert out.read_bytes() == printed.encode("utf-8")
                out.unlink()
            else:  # no witness: nothing printed and nothing written
                assert not out.exists()

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
direction: [-0.408248290464, 0.816496580928, -0.408248290464]
"""),
        (["witness", "{space}", "--p", "3", "--format", "text"], 0, """\
p: 3
method: IVT
residual: 5.46595872434e-16
lhs: 0.571428571429
rhs: 0.571428571429
holds: True
nontrivial: True
xi: [-0.6452257149216516, 0.7559289460184544, -0.1107032310968029]
simplex: {"left": [[1, 0.7559289460184544]], \
"right": [[0, 0.6452257149216516], [2, 0.1107032310968029]]}
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


class TestFlagSets:
    # each subcommand's options, from its --help, and what a run that gives
    # none of them parses: an option left out is None, so the library holds
    # its default; --format is text but for witness, and gen writes only JSON
    @pytest.mark.parametrize("argv, options, parsed", [
        (["check", "s.json", "--p", "1"], "--p --tol --format --out",
         {"space": "s.json", "p": 1.0, "tol": None, "format": "text", "out": None}),
        (["supremal", "s.json"], "--cap --width-tol --format --out",
         {"space": "s.json", "cap": None, "width_tol": None, "format": "text", "out": None}),
        (["interval", "s.json"], "--cap --width-tol --format --out",
         {"space": "s.json", "cap": None, "width_tol": None, "format": "text", "out": None}),
        (["witness", "s.json"], "--p --at-supremal --tol --cap --width-tol --format --out",
         {"space": "s.json", "p": None, "at_supremal": False, "tol": None, "cap": None,
          "width_tol": None, "format": "json", "out": None}),
        (["verify", "s.json", "q.json", "--p", "1"], "--p --tol --format --out",
         {"space": "s.json", "simplex": "q.json", "p": 1.0, "tol": None, "format": "text",
          "out": None}),
        (["gen", "cycle", "4"], "--dim --q --seed --out",
         {"kind": "cycle", "n": 4, "dim": None, "q": None, "seed": None, "format": "json",
          "out": None}),
    ], ids=["check", "supremal", "interval", "witness", "verify", "gen"])
    def test_flag_set(self, argv, options, parsed, capsys):
        args = vars(cli._build_parser().parse_args(argv))
        del args["func"]
        assert args.pop("command") == argv[0] and args == parsed
        with pytest.raises(SystemExit) as exc:
            main([argv[0], "--help"])
        assert exc.value.code == 0
        usage = capsys.readouterr().out.split("\n\n")[0]
        assert set(re.findall(r"--[\w-]+", usage)) == set(options.split())

    def test_description_is_the_first_docstring_line(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        assert cli.__doc__.splitlines()[0] in text
        assert "serializ" not in text and "main" not in text

    @pytest.mark.parametrize("command, flag, func, name", [
        ("supremal", "--cap", supremal, "cap"),
        ("interval", "--width-tol", supremal, "width_tol"),
        ("witness", "--cap", supremal, "cap"),
        ("gen", "--dim", generate_space, "dim"),
        ("gen", "--q", generate_space, "q"),
    ])
    def test_help_shows_the_library_default(self, command, flag, func, name, capsys):
        # the default in the help is the one in the library's signature
        default = inspect.signature(func).parameters[name].default
        with pytest.raises(SystemExit):
            main([command, "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert re.search(rf"{flag} \S+ [^-]*\(default: {default:g}\)", help_text), help_text


def _json_dumps_render(payload: dict) -> str:
    # the rendering render_json must reproduce byte for byte; json writes an
    # array as its tolist(), as render_json does
    return json.dumps(_round12(payload), indent=2, ensure_ascii=False,
                      default=np.ndarray.tolist)


def _first_difference(got: str, want: str):
    """None for equal texts, else where they part: pytest's own diff of two
    texts of megabytes runs for minutes."""
    if got == want:
        return None
    i = len(os.path.commonprefix([got, want]))
    return i, got[max(i - 60, 0):i + 60], want[max(i - 60, 0):i + 60]


class TestRenderJson:
    @pytest.mark.parametrize("kind", GEN_KINDS)
    def test_gen_payloads(self, kind):
        for n in (2, 7, 40):
            for seed in (0, 1):
                payload = space_payload(generate_space(kind, n, seed=seed))
                assert render_json(payload) == _json_dumps_render(payload)

    @pytest.mark.parametrize("kind, n, seed", [
        *(pytest.param(kind, 350, 5, id=kind) for kind in GEN_KINDS),
        ("ultrametric", 1000, 5), ("random", 400, 2), ("complete", 300, None),
    ], ids=str)
    def test_large_gen_payloads(self, kind, n, seed, tmp_path, capsys):
        payload = space_payload(generate_space(kind, n, seed=seed))
        assert isinstance(payload["matrix"], np.ndarray)
        want = _json_dumps_render(payload)
        assert _first_difference(render_json(payload), want) is None
        # the file gen writes is json's own bytes, and an ultrametric one reads EMPTY
        f = tmp_path / "space.json"
        seeded = ["--seed", str(seed)] if seed is not None else []
        assert main(["gen", kind, str(n), *seeded, "--out", str(f)]) == 0
        assert _first_difference(f.read_text(encoding="utf-8"), want + "\n") is None
        if kind == "ultrametric":
            assert main(["interval", str(f), "--format", "json"]) == 0
            assert json.loads(capsys.readouterr().out)["kind"] == "EMPTY"

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
        nan, inf = float("nan"), float("inf")
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
            # simplex payloads: empty sides, non-finite, signed-zero and
            # subnormal weights, an index past 2**64, a simplex before its xi
            {"xi": [0.5, -0.25, -0.25],
             "simplex": {"left": [[0, 0.5]], "right": [[1, 0.25], [2, 0.25]]}},
            {"xi": [0.5, -0.5], "simplex": {"left": [], "right": [[1, 0.5]]}},
            {"xi": [0.5, -0.5], "simplex": {"left": [[0, 0.5]], "right": []}},
            {"xi": [0.5, -0.5], "simplex": {"left": [], "right": []}},
            {"xi": [inf, -inf, nan, 0.0, -0.0, 1e-310, -2.5, 0.1],
             "simplex": {"left": [[0, inf], [1, -inf], [2, nan], [3, -0.0], [4, 0.0],
                                  [5, -1e-310], [6, 2.5]],
                         "right": [[7, -2.5], [8, 0.30000000000000004], [2**70, -inf]]}},
            {"simplex": {"left": [[0, 0.1], [1, -0.0], [2, nan]], "right": [[3, -inf]]},
             "xi": [0.1, -0.1], "after": {"left": [[0, 0.1], [1, -0.1]]}},
            # simplex-like values that are not pairs of an int and a float
            {"xi": [0.5, -0.5], "simplex": {"left": [[True, 0.5]], "right": [[1, 0.5]]}},
            {"xi": [0.5, -0.5], "simplex": {"left": [[0, 1]], "right": [[1, 0.5]]}},
            {"xi": [0.5, -0.5], "simplex": {"left": [[0, 0.5, 1]], "right": []}},
            {"xi": [0.5, -0.5], "simplex": {"left": [(0, 0.5)], "right": [[1, np.float64(0.5)]]}},
            {"xi": [0.5, -0.5], "simplex": {"left": [[0]], "right": [[0.5, 1]]}},
            {"xi": [0.5, -0.5], "simplex": {1: [[0, 0.5]], "right": [[1, 0.5]]}},
            {"xi": [0.5, -0.5], "simplex": {"left": ([0, 0.5],), "right": []}},
            {"xi": [0.5, -0.5], "simplex": {}, "other": {"left": 0.5}, "list": [[0, 0.5]]},
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
        space = str(tmp_path / "s.json")
        codes = []
        for n in (2, 9, 40):
            for seed in ("0", "1"):
                assert main(["gen", gen[0], str(n), *gen[1:], "--seed", seed, "--out", space]) == 0
                assert main(["check", space, "--p", "1"]) in (0, 1, 2)
                codes.append(self.witness_reverifies(space, ["--at-supremal"], tmp_path))
        assert set(codes) <= {0, 1}
        if gen[0] in ("cycle", "path", "points", "random"):
            assert 0 in codes
        capsys.readouterr()

    def test_large_and_scaled_witnesses_reverify(self, tmp_path):
        points, cycle = str(tmp_path / "points.json"), tmp_path / "cycle.json"
        assert main(["gen", "points", "200", "--seed", "1", "--out", points]) == 0
        unit = [[0, 1, 2, 1], [1, 0, 1, 2], [2, 1, 0, 1], [1, 2, 1, 0]]
        cycle.write_text(json.dumps({"matrix": [[1e6 * x for x in row] for row in unit]}))
        assert self.witness_reverifies(points, ["--p", "3"], tmp_path) == 0
        assert self.witness_reverifies(str(cycle), ["--at-supremal"], tmp_path) == 0

    @staticmethod
    def witness_reverifies(space: str, mode: list, tmp_path) -> int:
        """The witness exit code; a witness written re-verifies from the files alone."""
        wit, simplex, check = (tmp_path / f for f in ("w.json", "q.json", "v.json"))
        code = main(["witness", space, *mode, "--format", "json", "--out", str(wit)])
        if code == 0:
            w = json.loads(wit.read_text(encoding="utf-8"))
            simplex.write_text(json.dumps(w["simplex"]), encoding="utf-8")
            assert main(["verify", space, str(simplex), "--p", repr(w["p"]),
                         "--format", "json", "--out", str(check)]) == 0
            v = json.loads(check.read_text(encoding="utf-8"))
            fields = ("lhs", "rhs", "holds", "nontrivial")
            assert [v[f] for f in fields] == [w[f] for f in fields], (w, v)
        return code


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

    def test_witness_at_a_not_neg_type_exponent_loads_no_scipy(self, tmp_path):
        # the Ritz vector's Lanczos run is numpy only
        f = tmp_path / "m.json"
        f.write_text(json.dumps({"matrix": [[0, 1, 2], [1, 0, 1], [2, 1, 0]]}))
        body = ("from negtype.cli import main; "
                f"rc = main(['witness', {str(f)!r}, '--p', '3']); rc == 0 or sys.exit(rc)")
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
