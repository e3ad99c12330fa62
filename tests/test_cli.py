"""Command-line surface: documents, exit codes, reproducibility."""

import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from netbridge import BridgeSolution, DirectedGraph, EdgeIndex, PathMeasure, \
    average_path_length, boltzmann_prior, count_feasible_paths, delta_marginal, \
    dump_graph, entropy, g9_network, path_counts, solve_schrodinger
from netbridge._numeric import sig12
import netbridge.cli as cli
from netbridge.cli import _emit_json, _jsonify, _round_array, _rounded_solution, main
from conftest import dense_steps, random_graph


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def doc_edges(doc):
    """The edge index of a flow document's "edges"."""
    u, v = (np.array(doc["edges"], dtype=int).reshape(-1, 2) - 1).T
    return EdgeIndex(doc["n"], u, v)


def parse_measure(doc):
    return PathMeasure(doc["horizon"],
                       [[int(x) for x in k.split("-")] for k in doc["path_masses"]],
                       list(doc["path_masses"].values()))


def assert_self_consistent(doc, g):
    """Recomputing L, S and F from a flow document reproduces its values."""
    # enumeration route: from the emitted path masses
    if doc["path_masses"] is not None:
        m = parse_measure(doc)
        assert abs(average_path_length(m, g) - doc["average_length"]) <= 1e-12
        assert abs(entropy(m) - doc["entropy"]) <= 1e-12
    # chain route: from the emitted flow and the per-edge transitions on
    # the emitted edge list
    transitions = np.array(doc["transitions"])
    marginals = np.array(doc["marginal_flow"])
    with np.errstate(divide="ignore"):
        log_transitions = np.log(transitions)
    sol = BridgeSolution(doc_edges(doc), log_transitions, marginals[0],
                         transitions=transitions, marginals=marginals,
                         iterations=1, residual=0.0)
    assert abs(average_path_length(sol, g) - doc["average_length"]) <= 1e-12
    assert abs(entropy(sol) - doc["entropy"]) <= 1e-12
    F = doc["average_length"] - doc["temperature"] * doc["entropy"]
    assert abs(F - doc["free_energy"]) <= 1e-12


SOLVE_G9 = ("solve", "--graph", "g9", "--from-delta", "1",
            "--to-delta", "9", "-N", "4", "-T", "1")
ORACLE_G9 = ("oracle", "--graph", "g9", "--from-delta", "1", "--to-delta", "9",
             "-N", "4", "-T", "1")
# diffuse g9 marginals: two sources, two targets
DIFFUSE_FROM = "[0.5,0.5,0,0,0,0,0,0,0]"
DIFFUSE_TO = "[0,0,0,0,0,0,0,0.5,0.5]"


class TestSolve:
    def test_document_values(self, capsys):
        code, out, _ = run(capsys, *SOLVE_G9)
        assert code == 0
        doc = json.loads(out)
        assert doc["n"] == 9 and doc["horizon"] == 4
        assert doc["path_count"] == 7
        p3 = 1.0 / (3.0 + 4.0 * np.exp(-1.0))
        assert doc["path_masses"]["1-2-7-9-9"] == pytest.approx(p3, abs=1e-9)
        assert doc["path_masses"]["1-2-5-6-9"] == pytest.approx(
            p3 * np.exp(-1.0), abs=1e-9)
        assert doc["average_length"] == pytest.approx(
            (9 + 16 * np.exp(-1.0)) / (3 + 4 * np.exp(-1.0)), abs=1e-9)

    def test_round_trip_consistency(self, capsys, g9):
        _, out, _ = run(capsys, *SOLVE_G9)
        doc = json.loads(out)
        assert doc["format"] == 3
        assert doc["edges"] == [[u, v] for u, v, _ in g9.edges]
        assert_self_consistent(doc, g9)

    @settings(max_examples=40)
    @given(st.integers(0, 10_000), st.integers(2, 6), st.integers(1, 4),
           st.floats(-0.5, 0.5), st.data())
    def test_edge_list_densifies_to_rounded_solution(self, seed, n, N, log_T, data):
        g = random_graph(np.random.default_rng(seed), n)
        T = float(10.0 ** log_T)
        s = data.draw(st.integers(1, n))
        t = data.draw(st.integers(1, n))
        assume(count_feasible_paths(g, N, source=s, target=t) > 0)
        with tempfile.TemporaryDirectory() as tmp:
            graph, out = Path(tmp) / "g.json", Path(tmp) / "doc.json"
            graph.write_text(dump_graph(g))
            assert main(["solve", "--graph", str(graph), "--from-delta", str(s),
                         "--to-delta", str(t), "-N", str(N), "-T", repr(T),
                         "--output", str(out)]) == 0
            doc = json.loads(out.read_text())
        sol = solve_schrodinger(boltzmann_prior(g, T, N), delta_marginal(n, s),
                                delta_marginal(n, t))
        want = _rounded_solution(sol).transitions
        assert want.shape == (N, len(g.edges))
        assert doc["edges"] == [[u, v] for u, v, _ in g.edges]
        assert np.array_equal(np.array(doc["transitions"]).reshape(want.shape), want)
        assert np.array_equal(dense_steps(doc_edges(doc), doc["transitions"]),
                              dense_steps(sol.edges, want))

    def test_non_finite_array_entries_spelled_as_strings(self, tmp_path):
        path = tmp_path / "doc.json"
        _emit_json({"flow": np.array([[0.5, np.nan], [np.inf, -np.inf]]),
                    "ok": np.array([0.25, -0.0])}, str(path))
        doc = json.loads(path.read_text())
        assert doc["flow"] == [[0.5, "nan"], ["inf", "-inf"]]
        assert doc["ok"] == [0.25, -0.0]

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_round_array_matches_per_entry_sig12_bitwise(self, order):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((4, 5)) * 10.0 ** rng.integers(-20, 20, (4, 5))
        a[0, :4] = [0.0, -0.0, np.inf, -np.inf]
        a[1, 0] = np.nan
        a[2, 1] = 1 / 3
        a = np.asarray(a, order=order)
        want = np.vectorize(sig12, otypes=[float])(a)
        got = _round_array(a)
        assert got.shape == a.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert not np.array_equal(got.view(np.uint64), a.view(np.uint64))

    def test_reruns_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run(capsys, *SOLVE_G9, "--output", str(a))[0] == 0
        assert run(capsys, *SOLVE_G9, "--output", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_csv_flow_table(self, capsys):
        code, out, _ = run(capsys, "solve", "--graph", "g9", "--from-delta", "1",
                           "--to-delta", "9", "-N", "3", "-T", "1",
                           "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["t"] + [f"node{i}" for i in range(1, 10)]
        assert float(rows[2][2]) == pytest.approx(1.0 / 3.0, abs=1e-9)
        assert float(rows[4][9]) == 1.0

    def test_csv_flow_bytes_pinned(self, capsys):
        code, out, _ = run(capsys, *SOLVE_G9, "--format", "csv")
        assert code == 0
        assert out == (
            "t,node1,node2,node3,node4,node5,node6,node7,node8,node9\n"
            "0,1,0,0,0,0,0,0,0,0\n"
            "1,0,0.470452860576,0.305909427885,0.223637711539,0,0,0,0,0\n"
            "2,0,0,0.0822717163458,0.0822717163458,0.164543432692,0,"
            "0.223637711539,0.447275423078,0\n"
            "3,0,0,0,0,0,0.0822717163458,0.0822717163458,0.164543432692,"
            "0.670913134617\n"
            "4,0,0,0,0,0,0,0,0,1\n")

    def test_marginal_vector_spec(self, capsys):
        nu0 = json.dumps([0.5, 0.25, 0.25, 0, 0, 0, 0, 0, 0])
        code, out, _ = run(capsys, "solve", "--graph", "g9", "--from", nu0,
                           "--to", '{"delta": 9}', "-N", "4", "-T", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["marginal_flow"][0][0] == pytest.approx(0.5)

    def test_graph_file_argument(self, tmp_path, capsys, g9_long79):
        path = tmp_path / "modified.json"
        path.write_text(dump_graph(g9_long79))
        code, out, _ = run(capsys, "solve", "--graph", str(path),
                           "--from-delta", "1", "--to-delta", "9",
                           "-N", "3", "-T", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["path_masses"]["1-2-7-9"] == pytest.approx(
            1.0 / (1.0 + 2.0 * np.e), abs=1e-9)

    def test_path_count_counts_once_per_target(self, capsys, monkeypatch, tmp_path):
        import netbridge.cli as cli
        calls = []

        def counting(g, N, target=None):
            calls.append(target)
            return path_counts(g, N, target)

        monkeypatch.setattr(cli, "path_counts", counting)
        g = DirectedGraph(5, tuple((u, v, 1.0 + (u * v) % 3) for u in range(1, 6)
                                   for v in range(1, 6) if u != v))
        path = tmp_path / "g.json"
        path.write_text(dump_graph(g))
        code, out, _ = run(capsys, "solve", "--graph", str(path),
                           "--from", "[0.4, 0.3, 0.3, 0, 0]", "--to", "[0, 0.5, 0, 0.5, 0]",
                           "-N", "4", "-T", "1")
        assert code == 0
        per_pair = sum(count_feasible_paths(g, 4, source=s, target=t)
                       for s in (1, 2, 3) for t in (2, 4))
        assert json.loads(out)["path_count"] == per_pair
        assert sorted(calls) == [2, 4]

    def test_entropy_bits_flag(self, capsys):
        _, out, _ = run(capsys, *SOLVE_G9, "--bits")
        doc = json.loads(out)
        assert doc["entropy_bits"] == pytest.approx(
            doc["entropy"] / np.log(2.0), rel=1e-12)


def sig12_each(a):
    return np.vectorize(sig12, otypes=[float])(a)


def assert_bitwise_equal(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def _nudged(x, step):
    """x, or its neighbouring double below (step -1) or above (step 1)."""
    return float(np.nextafter(x, step * np.inf)) if step else x


SIGNS = st.sampled_from([1.0, -1.0])
# a 13-digit decimal ending in 5 lies halfway between two 12-digit ones
NEAR_TIES = st.builds(lambda m, e, s: s * float(f"{m}5e{e}"),
                      st.integers(10**11, 10**12 - 1), st.integers(-40, 40), SIGNS)
POWERS_OF_TEN = st.builds(lambda j, step, s: s * _nudged(float(f"1e{j}"), step),
                          st.integers(-323, 308), st.sampled_from([-1, 0, 1]), SIGNS)
SPECIALS = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan])
ANY_DOUBLE = st.floats(allow_subnormal=True)


class TestRoundArray:
    @settings(max_examples=300)
    @given(st.lists(st.one_of(ANY_DOUBLE, SPECIALS, POWERS_OF_TEN, NEAR_TIES),
                    min_size=1, max_size=60))
    def test_matches_per_entry_sig12(self, xs):
        a = np.array(xs)
        assert_bitwise_equal(_round_array(a), sig12_each(a))

    @given(st.lists(st.one_of(
        NEAR_TIES,
        st.floats(-1e-12, 1e-12),            # |k| > 22, subnormals included
        st.floats(min_value=1e35), st.floats(max_value=-1e35),
        st.sampled_from([math.inf, -math.inf, math.nan])), min_size=1, max_size=40))
    def test_every_entry_falling_back(self, xs):
        a = np.array(xs)
        with mock.patch.object(cli, "sig12", side_effect=sig12) as scalar:
            got = _round_array(a)
        assert scalar.call_count == np.count_nonzero(a)
        assert_bitwise_equal(got, sig12_each(a))

    @given(st.lists(st.builds(lambda m, d, e, s: s * float(f"{m}{d:03d}e{e}"),
                              st.integers(2 * 10**11, 9 * 10**11),
                              st.integers(0, 999).filter(lambda d: abs(d - 500) > 5),
                              st.integers(-20, 15), SIGNS),
                    min_size=1, max_size=40))
    def test_vectorized_path_needs_no_scalar_call(self, xs):
        # 12 kept digits, then three more well away from ...500: no entry
        # is out of range or near a tie, so none falls back
        a = np.array(xs)
        with mock.patch.object(cli, "sig12", side_effect=sig12) as scalar:
            got = _round_array(a)
        assert scalar.call_count == 0
        assert_bitwise_equal(got, sig12_each(a))


SWEEP_G9 = ("sweep", "--graph", "g9", "--from-delta", "1", "--to-delta", "9",
            "-N", "4", "--T-grid", "0.1,1,100", "--track-all", "--format", "json")
CALIBRATE_G9 = ("calibrate", "--graph", "g9", "--from-delta", "1",
                "--to-delta", "9", "-N", "4", "--L-bar", "3.5")
VERIFY_G9 = ("verify", "--graph", "g9", "--from-delta", "1", "--to-delta", "9",
             "-N", "3", "-T", "1", "--pairs", "2", "--format", "json")
JSON_COMMANDS = {
    "solve": SOLVE_G9,
    "sweep": SWEEP_G9,
    "calibrate": CALIBRATE_G9,
    "verify": VERIFY_G9,
    "oracle": ("oracle", "--graph", "g9", "--from-delta", "1", "--to-delta", "9",
               "-N", "4", "-T", "1"),
    "paths": ("paths", "--graph", "g9", "-N", "4", "--source", "1", "--target", "9"),
    "metrics": ("metrics", "--graph", "g9"),
}


def parse_layout(text):
    """Rebuild a document line by line, insisting on the format-3 layout."""
    assert text.endswith("\n")
    lines = text[:-1].split("\n")
    if lines[0] == "[":
        assert lines[-1] == "]"
        return [json.loads(line.removesuffix(",")) for line in lines[1:-1]]
    assert lines[0] == "{" and lines[-1] == "}"
    doc, rows = {}, None
    for line in lines[1:-1]:
        if rows is not None:  # inside a list of lists, one inner list a line
            if line in ("]", "],"):
                rows = None
            else:
                rows.append(json.loads(line.removesuffix(",")))
            continue
        key, value = line.split(":", 1)
        if value == "[":
            rows = doc[json.loads(key)] = []
        else:
            doc[json.loads(key)] = json.loads(value.removesuffix(","))
    assert rows is None
    return doc


class TestFormat3:
    @pytest.mark.parametrize("name", sorted(JSON_COMMANDS))
    def test_one_key_or_row_per_line(self, name, capsys):
        code, out, _ = run(capsys, *JSON_COMMANDS[name])
        assert code == 0
        doc = json.loads(out)
        assert parse_layout(out) == doc
        if isinstance(doc, dict):
            keys = [json.loads(line.split(":", 1)[0]) for line in out.split("\n")
                    if line.startswith('"')]
            assert keys == sorted(doc)

    def test_one_line_per_transitions_row(self, capsys):
        code, out, _ = run(capsys, *SOLVE_G9)
        doc = json.loads(out)
        assert doc["format"] == 3
        lines = out.split("\n")
        first = lines.index('"transitions":[') + 1
        N, E = doc["horizon"], len(doc["edges"])
        assert lines[first + N] in ("]", "],")
        for line in lines[first:first + N]:
            assert len(json.loads(line.removesuffix(","))) == E

    @pytest.mark.parametrize("name", sorted(JSON_COMMANDS))
    def test_content_equals_the_indented_encoding(self, name, capsys, monkeypatch):
        # the format-2 writer was json.dumps(_jsonify(doc), indent=2,
        # sort_keys=True); the layout changed, the parsed content did not
        docs = []
        emit = cli._emit_json

        def recording(doc, output):
            docs.append(doc)
            emit(doc, output)

        monkeypatch.setattr(cli, "_emit_json", recording)
        code, out, _ = run(capsys, *JSON_COMMANDS[name])
        assert code == 0 and len(docs) == 1
        indented = json.dumps(_jsonify(docs[0]), indent=2, sort_keys=True)
        assert json.loads(out) == json.loads(indented)

    @pytest.mark.parametrize("argv", [SWEEP_G9, CALIBRATE_G9, VERIFY_G9],
                             ids=["sweep", "calibrate", "verify"])
    def test_reruns_byte_identical(self, argv, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run(capsys, *argv, "--output", str(a))[0] == 0
        assert run(capsys, *argv, "--output", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_failed_sweep_rows_spell_nan(self, capsys):
        code, out, _ = run(capsys, "sweep", "--graph", "g9", "--from-delta", "1",
                           "--to-delta", "6", "-N", "2", "--T-grid", "0.5,1",
                           "--format", "json")
        assert code == 0
        rows = parse_layout(out)
        assert [(r["L"], r["S"], r["Var"]) for r in rows] == [("nan",) * 3] * 2
        assert all(r["error"] for r in rows)

    @pytest.mark.parametrize("doc, text", [
        ({}, "{}\n"),
        ([], "[]\n"),
        ({"b": [], "a": {"y": 1, "x": [[1]]}}, '{\n"a":{"x":[[1]],"y":1},\n"b":[]\n}\n'),
        ({"m": np.zeros((2, 0))}, '{\n"m":[\n[],\n[]\n]\n}\n'),
        ({"v": [[1], 2]}, '{\n"v":[[1],2]\n}\n'),
        ([{"a": np.inf}, None], '[\n{"a":"inf"},\nnull\n]\n'),
    ])
    def test_emit_json_layout(self, doc, text, tmp_path):
        path = tmp_path / "doc.json"
        _emit_json(doc, str(path))
        assert path.read_text() == text


class TestExitCodes:
    def test_missing_graph_file(self, capsys):
        code, _, err = run(capsys, "solve", "--graph", "/no/such/file.json",
                           "--from-delta", "1", "--to-delta", "9",
                           "-N", "3", "-T", "1")
        assert code == 1
        assert "not found" in err

    def test_infeasible_pair(self, capsys):
        code, _, err = run(capsys, "solve", "--graph", "g9", "--from-delta", "1",
                           "--to-delta", "6", "-N", "2", "-T", "1")
        assert code == 2
        assert "infeasible" in err

    def test_cold_feasible_pair_solves(self, capsys, g9):
        # every route weight exp(-l/0.002) underflows in linear arithmetic
        code, out, _ = run(capsys, "solve", "--graph", "g9", "--from-delta", "1",
                           "--to-delta", "9", "-N", "4", "-T", "0.002")
        assert code == 0
        doc = json.loads(out)
        assert_self_consistent(doc, g9)
        assert abs(doc["average_length"] - 3.0) <= 1e-9
        minimal = {"1-2-7-9-9", "1-3-8-9-9", "1-4-8-9-9"}
        for key, m in doc["path_masses"].items():
            # a length-4 route carries exp(-1/0.002) / 3 ~ 2.4e-218
            want = 1 / 3 if key in minimal else np.exp(-500.0) / 3
            assert m == pytest.approx(want, rel=1e-9, abs=0)

    def test_cold_g200_writes_a_consistent_document(self, tmp_path, capsys):
        g = random_graph(np.random.default_rng(1), 200, 0.04)
        graph = tmp_path / "g200.json"
        graph.write_text(dump_graph(g))
        out = tmp_path / "out.json"
        code, _, _ = run(capsys, "solve", "--graph", str(graph), "--from-delta", "1",
                         "--to-delta", "2", "-N", "20", "-T", "0.005",
                         "--output", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        assert_self_consistent(doc, g)
        assert doc["residual"] <= 1e-12
        flow = np.array(doc["marginal_flow"])
        assert np.abs(flow.sum(axis=1) - 1.0).max() <= 1e-9
        assert flow[0, 0] == 1.0 and abs(flow[20, 1] - 1.0) <= 1e-9

    @pytest.mark.parametrize("command", ["solve", "verify"])
    def test_overflowing_temperature_is_an_input_error(self, capsys, command):
        # -length/T overflows at T=1e-310; that is no proof of infeasibility
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, command, "--graph", "g9", "--from-delta", "1",
                                 "--to-delta", "9", "-N", "4", "-T", "1e-310")
        assert code == 1 and out == ""
        assert "edge 1 -> 2" in err and "overflows" in err
        assert "infeasible" not in err

    def test_conflicting_marginal_flags(self, capsys):
        code, _, err = run(capsys, "solve", "--graph", "g9", "--from-delta", "1",
                           "--from", "[1,0]", "--to-delta", "9",
                           "-N", "3", "-T", "1")
        assert code == 1
        assert "not both" in err

    def test_bad_marginal_json(self, capsys):
        code, _, err = run(capsys, "solve", "--graph", "g9",
                           "--from", "oops", "--to-delta", "9",
                           "-N", "3", "-T", "1")
        assert code == 1

    @pytest.mark.parametrize("flag, marginals", [
        ("--from", ["--from", '{"delta": 1.9}', "--to-delta", "9"]),
        ("--to", ["--from-delta", "1", "--to", '{"delta": true}']),
    ], ids=["from-float", "to-bool"])
    def test_non_integer_delta_spec_is_rejected(self, capsys, flag, marginals):
        # int() would read either value as node 1
        code, out, err = run(capsys, "solve", "--graph", "g9", *marginals,
                             "-N", "4", "-T", "1")
        assert code == 1 and out == ""
        assert f"{flag}: delta must be an integer node" in err

    def test_usage_error_is_exit_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--graph", "g9"])
        assert exc.value.code == 1

    def test_unknown_command_is_exit_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["transmogrify"])
        assert exc.value.code == 1

    def test_no_command_prints_help(self, capsys):
        code, _, err = run(capsys)
        assert code == 1
        assert "COMMAND" in err

    @pytest.mark.parametrize("argv", [
        ["paths", "--graph", "g9", "-N", "3", "--tol", "1e-6"],
        ["paths", "--graph", "g9", "-N", "3", "--max-iter", "5"],
        ["metrics", "--graph", "g9", "--tol", "1e-6"],
        ["metrics", "--graph", "g9", "--max-iter", "5"],
        [*ORACLE_G9, "--tol", "1e-6"],
        [*ORACLE_G9, "--max-iter", "5"],
        [*ORACLE_G9, "--path-cap", "1"],
        ["verify", *SOLVE_G9[1:], "--seed", "1"],
        ["verify", *SOLVE_G9[1:], "--tol-oracle", "1e-6"],
        ["verify", *SOLVE_G9[1:], "--tol-invariance", "1e-6"],
    ], ids=lambda argv: f"{argv[0]}{argv[-2]}")
    def test_options_a_command_does_not_read_are_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, reason", [
        (["solve", "-T", "0.1", "--max-iter", "50"], "did not converge"),
        (["calibrate", "--L-bar", "2.505", "--max-iter", "300"], "lowest at which"),
    ])
    def test_non_convergence_exits_three_and_writes_nothing(self, tmp_path, capsys,
                                                            argv, reason):
        out = tmp_path / "out.json"
        command, *rest = argv
        code, _, err = run(capsys, command, "--graph", "g9", "-N", "3",
                           "--from", DIFFUSE_FROM, "--to", DIFFUSE_TO, *rest,
                           "--output", str(out))
        assert code == 3
        assert reason in err
        assert not out.exists()

    def test_bad_graph_document(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"n": 2}')
        code, _, err = run(capsys, "metrics", "--graph", str(path))
        assert code == 1
        assert "edges" in err

    @pytest.mark.parametrize("argv, option", [
        (["paths", "--graph", "g9", "-N", "4", "--source", "1", "--target", "9",
          "--cap", "-1"], "--cap"),
        ([*SOLVE_G9, "--path-cap", "-5"], "--path-cap"),
    ], ids=["paths-cap", "solve-path-cap"])
    def test_negative_cap_exits_one_and_names_the_option(self, tmp_path, capsys,
                                                         argv, option):
        # -1 read as a cap refused every path; -5 silently dropped path_masses
        out = tmp_path / "out.json"
        code, _, err = run(capsys, *argv, "--output", str(out))
        assert code == 1
        assert f"{option} must be >= 0, got {argv[-1]}" in err
        assert not out.exists()


class TestSweep:
    def test_csv_columns_and_monotone_length(self, capsys):
        code, out, _ = run(capsys, "sweep", "--graph", "g9", "--from-delta", "1",
                           "--to-delta", "9", "-N", "4",
                           "--T-grid", "0.1,1,10", "--track", "1-2-7-9-9",
                           "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["T", "L", "S", "Var", "1-2-7-9-9"]
        lengths = [float(r[1]) for r in rows[1:]]
        assert lengths == sorted(lengths)
        masses = [float(r[4]) for r in rows[1:]]
        # a minimal path loses protagonism as temperature rises
        assert masses == sorted(masses, reverse=True)
        assert masses[0] == pytest.approx(1.0 / 3.0, abs=1e-3)

    def test_track_all_finds_every_path(self, capsys):
        code, out, _ = run(capsys, "sweep", "--graph", "g9", "--from-delta", "1",
                           "--to-delta", "9", "-N", "4", "--T-grid", "1",
                           "--track", "1-2-7-9-9", "--track-all", "--format", "csv")
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows[0]) == 4 + 7
        assert len(set(rows[0][4:])) == 7
        assert rows[0][4] == "1-2-7-9-9"

    def test_repeated_track_is_one_column(self, capsys):
        code, out, _ = run(capsys, "sweep", "--graph", "g9", "--from-delta", "1",
                           "--to-delta", "9", "-N", "4", "--T-grid", "1",
                           "--track", "1-2-7-9-9", "--track", "1-3-8-9-9",
                           "--track", "1-2-7-9-9", "--format", "csv")
        assert code == 0
        header = next(csv.reader(io.StringIO(out)))
        assert header[4:] == ["1-2-7-9-9", "1-3-8-9-9"]

    def test_json_rows_on_modified_graph(self, capsys):
        code, out, _ = run(capsys, "sweep", "--graph", "g9-long79",
                           "--from-delta", "1", "--to-delta", "9", "-N", "3",
                           "--T-grid", "0.1,1,100", "--format", "json")
        assert code == 0
        docs = json.loads(out)
        flows = {d["T"]: np.array(d["marginal_flow"]) for d in docs}
        assert flows[1.0][1, 1] == pytest.approx(0.1554, abs=1e-3)
        assert flows[0.1][1, 2] == pytest.approx(0.5, abs=1e-3)
        assert flows[100.0][2, 6] == pytest.approx(0.3311, abs=1e-3)

    def test_empty_grid(self, capsys):
        code, _, err = run(capsys, "sweep", "--graph", "g9", "--from-delta", "1",
                           "--to-delta", "9", "-N", "3", "--T-grid", ",")
        assert code == 1

    def test_bad_tracked_path(self, capsys):
        code, _, err = run(capsys, "sweep", "--graph", "g9", "--from-delta", "1",
                           "--to-delta", "9", "-N", "3", "--T-grid", "1",
                           "--track", "1-x-9")
        assert code == 1
        assert "path" in err


class TestCalibrate:
    def test_interior_budget(self, capsys):
        code, out, _ = run(capsys, "calibrate", "--graph", "g9",
                           "--from-delta", "1", "--to-delta", "9", "-N", "4",
                           "--L-bar", "3.5")
        assert code == 0
        doc = json.loads(out)
        assert not doc["at_bound"]
        assert doc["achieved_length"] == pytest.approx(3.5, abs=1e-8)
        assert doc["entropy"] > 0

    def test_boundary_budget_flagged(self, capsys):
        code, out, _ = run(capsys, "calibrate", "--graph", "g9",
                           "--from-delta", "1", "--to-delta", "9", "-N", "4",
                           "--L-bar", "3")
        assert code == 0
        doc = json.loads(out)
        assert doc["temperature"] == "zero"
        assert doc["at_bound"] is True
        assert doc["entropy"] is None

    def test_budget_above_range_exits_two(self, capsys):
        code, _, err = run(capsys, "calibrate", "--graph", "g9",
                           "--from-delta", "1", "--to-delta", "9", "-N", "4",
                           "--L-bar", "5")
        assert code == 2
        assert "3.57142857143" in err

    def test_budget_below_range_exits_two(self, capsys):
        code, _, err = run(capsys, "calibrate", "--graph", "g9",
                           "--from-delta", "1", "--to-delta", "9", "-N", "4",
                           "--L-bar", "1")
        assert code == 2
        assert "attainable" in err


class TestSmallCommands:
    def test_paths_csv(self, capsys):
        for N, want in (
                ("3", [["1-2-7-9", "3"], ["1-3-8-9", "3"], ["1-4-8-9", "3"]]),
                ("4", [["1-2-3-8-9", "4"], ["1-2-5-6-9", "4"], ["1-2-5-7-9", "4"],
                       ["1-2-7-9-9", "3"], ["1-3-4-8-9", "4"], ["1-3-8-9-9", "3"],
                       ["1-4-8-9-9", "3"]])):
            code, out, _ = run(capsys, "paths", "--graph", "g9", "-N", N,
                               "--source", "1", "--target", "9", "--format", "csv")
            assert code == 0
            rows = list(csv.reader(io.StringIO(out)))
            assert rows[1:] == want

    def test_metrics_json(self, capsys):
        code, out, _ = run(capsys, "metrics", "--graph", "g9")
        doc = json.loads(out)
        assert doc["characteristic_length"] == "inf"
        assert doc["edge_count"] == 15
        assert doc["global_efficiency"] == 0.273148148148
        assert doc["reachable_pair_average"] == 1.53846153846

    def test_oracle_matches_solve(self, capsys):
        _, solve_out, _ = run(capsys, *SOLVE_G9)
        code, oracle_out, _ = run(capsys, "oracle", "--graph", "g9",
                                  "--from-delta", "1", "--to-delta", "9",
                                  "-N", "4", "-T", "1")
        assert code == 0
        a = json.loads(solve_out)["path_masses"]
        b = json.loads(oracle_out)["path_masses"]
        assert set(a) == set(b)
        for k in a:
            assert a[k] == pytest.approx(b[k], abs=1e-10)


class TestVerify:
    def test_battery_passes(self, capsys):
        code, out, err = run(capsys, "verify", "--graph", "g9",
                             "--from-delta", "1", "--to-delta", "9",
                             "-N", "4", "-T", "1", "--pairs", "5")
        assert code == 0
        assert out.count("[PASS]") == 7
        assert "[FAIL]" not in out

    def test_cold_battery_passes_where_the_stationary_chain_fails(self, capsys):
        # no Ruelle-Bowen chain exists on g9 at T = 0.002; solve and oracle
        # answer there, and so does every check
        code, out, err = run(capsys, "verify", "--graph", "g9",
                             "--from-delta", "1", "--to-delta", "9",
                             "-N", "4", "-T", "0.002", "--pairs", "2")
        assert code == 0, err
        assert out.count("[PASS]") == 7

    def test_inject_error_option_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--graph", "g9", "--from-delta", "1", "--to-delta", "9",
                  "-N", "4", "-T", "1", "--inject-error"])
        assert exc.value.code == 1
        assert "unrecognized arguments: --inject-error" in capsys.readouterr().err

    def test_failed_check_exits_four_and_names_it(self, capsys):
        solve = cli.solve_schrodinger

        def corrupted(*args):
            sol = solve(*args)
            bad = sol.log_weights.copy()
            bad[0, sol.edges.out_edges(0)] += np.log(0.5)
            return replace(sol, log_weights=bad, transitions=np.exp(bad))

        # only the CLI's solve is corrupted; the battery's own solves are not
        with mock.patch.object(cli, "solve_schrodinger", corrupted):
            code, out, err = run(capsys, "verify", "--graph", "g9",
                                 "--from-delta", "1", "--to-delta", "9",
                                 "-N", "4", "-T", "1", "--pairs", "2")
        assert code == 4
        assert "[FAIL] solver-vs-oracle" in out
        assert err.startswith("verification failed: ") and "solver-vs-oracle" in err

    @pytest.mark.parametrize("pairs", ["0", "-3"])
    def test_pairs_below_one_exits_one(self, capsys, pairs):
        # with no random pair the iterated-bridge check would pass unchecked
        code, out, err = run(capsys, "verify", "--graph", "g9",
                             "--from-delta", "1", "--to-delta", "9",
                             "-N", "4", "-T", "1", "--pairs", pairs)
        assert code == 1
        assert out == ""
        assert f"pairs must be >= 1, got {pairs}" in err

    def test_zero_horizon_trivial_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "--graph", "g9",
                           "--from-delta", "1", "--to-delta", "1",
                           "-N", "0", "-T", "1")
        assert code == 0
        assert "[PASS]" in out

    def test_json_report(self, capsys):
        code, out, _ = run(capsys, "verify", "--graph", "g9",
                           "--from-delta", "1", "--to-delta", "9",
                           "-N", "3", "-T", "1", "--pairs", "2",
                           "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["all_passed"] is True
        assert {c["name"] for c in doc["checks"]} >= {
            "solver-vs-oracle", "iterated-bridge", "argmax-path-invariance",
            "restriction-ratio", "equal-length-masses"}


class TestModuleEntryPoint:
    """`python -m netbridge.cli` freezes the heap before it runs main, so
    interpreter shutdown skips numpy's import-time objects."""

    def run(self, *args):
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        done = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                              timeout=60, env=env)
        assert done.returncode == 0, done.stderr
        return done.stdout

    def test_import_freezes_nothing(self):
        assert self.run("-c", "import netbridge.cli, gc; print(gc.get_freeze_count())") == "0\n"

    def test_module_run_writes_the_in_process_bytes(self, tmp_path):
        argv = ["solve", "--graph", "g9", "--from-delta", "1", "--to-delta", "9", "-N", "4",
                "-T", "0.7", "--output"]
        assert main(argv + [str(tmp_path / "main.json")]) == 0
        self.run("-m", "netbridge.cli", *argv, str(tmp_path / "module.json"))
        assert (tmp_path / "module.json").read_bytes() == (tmp_path / "main.json").read_bytes()
