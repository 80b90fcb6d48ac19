"""CLI behavior: exit codes, JSON/CSV payloads, determinism."""

from __future__ import annotations

import json
import sys

import pytest

from diagcheck import (
    Rhomboid,
    TriploidParams,
    loop_indicator_labeling,
    nz_pair_labeling,
    parse_diagram,
    rhomboid_gap_labeling,
    serialize_diagram,
    serialize_graph,
    strip_loops,
    triploid,
)
from diagcheck.cli import main

from .conftest import kirchhoff_square, rhomboid_square_graph


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_verify_commutative_exit_zero(tmp_path, capsys):
    path = _write(tmp_path, "square.json", serialize_diagram(kirchhoff_square()))
    assert main(["verify", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["commutative"] is True
    assert payload["counters"] == {
        "eq_loops": 0,
        "eq_multi": 0,
        "eq_dfs": 1,
        "mult_dfs": 6,
        "reduced_edges": 4,
    }
    assert payload["witness"] is None


def test_verify_noncommutative_exit_one(tmp_path, capsys):
    d = rhomboid_gap_labeling(rhomboid_square_graph(), Rhomboid(0, 1, 2, 3))
    path = _write(tmp_path, "gap.json", serialize_diagram(d))
    assert main(["verify", path]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["commutative"] is False
    assert payload["witness"]["kind"] == "path_mismatch"
    assert payload["witness"]["path1"] == {"edges": [0, 1], "origin": 0, "tail": 3}
    assert payload["witness"]["path2"] == {"edges": [2, 3], "origin": 0, "tail": 3}


def test_verify_malformed_input_exit_two(tmp_path, capsys):
    path = _write(tmp_path, "broken.json", "{not json")
    assert main(["verify", path]) == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err


@pytest.mark.parametrize("command", ["verify", "oracle"])
def test_matrix_dimension_past_the_cap_exit_two(tmp_path, capsys, command):
    path = _write(tmp_path, "wide.json", '{"vertices": 0, "monoid": {"family": "matrix", "k": 100000}, "edges": []}')
    assert main([command, path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "monoid.k: expected an integer <= 256, got 100000" in captured.err


_TOO_LONG = "1" * (sys.get_int_max_str_digits() + 1)


@pytest.mark.parametrize("command", ["verify", "oracle"])
@pytest.mark.parametrize(
    "label, location",
    [(_TOO_LONG, "diagram:"), (f'"{_TOO_LONG}/3"', "edges[0].label:")],
    ids=["json-number", "p/q-numerator"],
)
def test_over_long_integer_exit_two(tmp_path, capsys, command, label, location):
    text = '{"vertices": 1, "monoid": {"family": "additive"}, "edges": [{"origin": 0, "tail": 0, "label": %s}]}'
    path = _write(tmp_path, "long.json", text % label)
    assert main([command, path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {location} integer of more than")


def test_verify_trace_and_report_file(tmp_path, capsys):
    diagram_path = _write(tmp_path, "square.json", serialize_diagram(kirchhoff_square()))
    report_path = tmp_path / "report.json"
    assert main(["verify", diagram_path, "--trace", "--report", str(report_path)]) == 0
    stdout_payload = json.loads(capsys.readouterr().out)
    file_payload = json.loads(report_path.read_text(encoding="utf-8"))
    assert stdout_payload == file_payload
    assert len(stdout_payload["trace"]["relations"]) == 1
    assert len(stdout_payload["trace"]["products"]) == 6


def test_oracle_command(tmp_path, capsys):
    path = _write(tmp_path, "square.json", serialize_diagram(kirchhoff_square()))
    assert main(["oracle", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"commutative": True, "counters": None, "witness": None, "trace": None}

    gap = rhomboid_gap_labeling(rhomboid_square_graph(), Rhomboid(0, 1, 2, 3))
    gap_path = _write(tmp_path, "gap.json", serialize_diagram(gap))
    assert main(["oracle", gap_path, "--length", "2"]) == 1
    assert json.loads(capsys.readouterr().out)["commutative"] is False


def test_gen_fit(capsys):
    assert main(["gen", "--fit", "100", "50"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["vertices"] == 100
    assert len(payload["edges"]) == 50


def test_gen_rejects_tiny_inputs(capsys):
    assert main(["gen", "--fit", "3", "10"]) == 2
    assert "error:" in capsys.readouterr().err


def test_bounds_command(capsys):
    assert main(["bounds", "11", "16"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["eta_upper"] == 192
    assert payload["nu_upper"] == 176

    assert main(["bounds", "4", "4"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["eta_lower"] == "20/16384"
    assert payload["nu_lower"] == "16/16384"


def test_rhomboids_explicit(capsys):
    assert main(["rhomboids", "--explicit", "--params", "3", "2", "4", "2", "16"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload) == 12
    assert payload[0] == {"a": 0, "b": 6, "c": 1, "d": 10}


def test_rhomboids_greedy_from_graph_file(tmp_path, capsys):
    from diagcheck import serialize_graph

    graph = triploid(TriploidParams(3, 2, 4, 2, 16))
    path = _write(tmp_path, "fig4.json", serialize_graph(graph))
    assert main(["rhomboids", "--greedy", "--graph", path]) == 0
    assert len(json.loads(capsys.readouterr().out)) >= 12


def test_fixtures_rhomboid_gap_round_trips(tmp_path, capsys):
    args = [
        "fixtures",
        "rhomboid-gap",
        "--params",
        "3", "2", "4", "2", "16",
        "--strip-loops",
        "--rhomboid-index",
        "0",
    ]
    assert main(args) == 0
    text = capsys.readouterr().out
    diagram = parse_diagram(text)
    assert diagram.graph == strip_loops(triploid(TriploidParams(3, 2, 4, 2, 16)))
    assert main(["verify", _write(tmp_path, "gap.json", text)]) == 1
    capsys.readouterr()


def test_fixtures_loop_kernel(capsys):
    assert main(["fixtures", "loop-kernel", "--params", "1", "2", "1", "0", "6", "--kernel", "1,-1"]) == 0
    diagram = parse_diagram(capsys.readouterr().out)
    assert diagram.graph.edge_count == 6


def test_fixtures_precondition_failure_exit_two(capsys):
    # Without stripping loops the fixture preconditions fail.
    assert main(["fixtures", "nz-edge", "--fit", "10", "12", "--edge", "0"]) == 2
    assert "loop-free" in capsys.readouterr().err


def test_fixtures_missing_flag_exit_two(capsys):
    assert main(["fixtures", "nz-edge", "--fit", "10", "12", "--strip-loops"]) == 2
    assert "error:" in capsys.readouterr().err


def test_usage_error_exit_two():
    with pytest.raises(SystemExit) as excinfo:
        main(["verify"])
    assert excinfo.value.code == 2


def test_bench_is_deterministic_and_within_bounds(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["bench", "--n-grid", "4,6", "--m-grid", "4,9", "--seed", "7", "--instances", "2"]
    assert main(args + ["--csv", str(out1)]) == 0
    assert main(args + ["--csv", str(out2)]) == 0
    first = out1.read_bytes()
    assert first == out2.read_bytes()

    lines = first.decode().strip().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    # 2 random + 1 triploid row per cell, sorted by (n, m, instance).
    assert len(rows) == 4 * 3
    keys = [(int(r["n"]), int(r["m"]), int(r["instance"])) for r in rows]
    assert keys == sorted(keys)
    for row in rows:
        assert row["within_bounds"] == "true"
        if row["kind"] == "triploid":
            assert row["nu_ge_eq_ok"] == "true"
            assert row["nu_ge_mult_ok"] == "true"


def test_bench_different_seed_changes_output(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    base = ["bench", "--n-grid", "5", "--m-grid", "8", "--instances", "3"]
    assert main(base + ["--seed", "1", "--csv", str(out1)]) == 0
    assert main(base + ["--seed", "2", "--csv", str(out2)]) == 0
    assert out1.read_bytes() != out2.read_bytes()


def test_bench_requires_seed():
    with pytest.raises(SystemExit) as excinfo:
        main(["bench", "--n-grid", "4", "--m-grid", "4"])
    assert excinfo.value.code == 2


@pytest.mark.parametrize(
    "n_grid, m_grid, named",
    [
        ("3", "-2", "--m-grid value -2"),
        ("-1,4", "3", "--n-grid value -1"),
        ("0,5", "0,3", "--n-grid value 0"),
        (",", "4", "empty grid"),
    ],
)
def test_bench_rejects_invalid_grid_values(n_grid, m_grid, named, capsys):
    args = ["bench", f"--n-grid={n_grid}", f"--m-grid={m_grid}", "--seed", "1", "--instances", "1"]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert named in captured.err


def test_bench_accepts_the_empty_graph(capsys):
    assert main(["bench", "--n-grid", "0", "--m-grid", "0", "--seed", "1", "--instances", "1"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()[1:]
    assert [row.split(",")[:3] for row in rows] == [["0", "0", "random"]]


@pytest.mark.parametrize("commutes", [True, False])
def test_verify_unwritable_report_exit_two(tmp_path, capsys, commutes):
    # Exit 1 is the non-commutative verdict, so a failed write must not end
    # with it (or with a traceback) on either side of the verdict.
    diagram = kirchhoff_square() if commutes else rhomboid_gap_labeling(rhomboid_square_graph(), Rhomboid(0, 1, 2, 3))
    path = _write(tmp_path, "d.json", serialize_diagram(diagram))
    report = tmp_path / "missing" / "r.json"
    assert main(["verify", path, "--report", str(report)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and str(report) in captured.err


def test_bench_unwritable_csv_exit_two(tmp_path, capsys):
    csv_path = tmp_path / "missing" / "x.csv"
    args = ["bench", "--n-grid", "4", "--m-grid", "4", "--seed", "1", "--instances", "1", "--csv", str(csv_path)]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and str(csv_path) in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "MISSING"],
        ["oracle", "MISSING"],
        ["gen", "--graph", "MISSING"],
        ["fixtures", "nz-edge", "--edge", "0", "--graph", "MISSING"],
        ["rhomboids", "--greedy", "--graph", "MISSING"],
        ["oracle", "SQUARE", "--budget", "3"],
        ["rhomboids", "--greedy", "--fit", "40", "300", "--budget", "5"],
    ],
    ids=["verify-missing", "oracle-missing", "gen-missing", "fixtures-missing", "rhomboids-missing",
         "oracle-budget", "rhomboids-budget"],
)
def test_unreadable_input_and_exhausted_budget_exit_two(tmp_path, capsys, argv):
    square = _write(tmp_path, "square.json", serialize_diagram(kirchhoff_square()))
    paths = {"MISSING": str(tmp_path / "missing.json"), "SQUARE": square}
    assert main([paths.get(arg, arg) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert captured.out == ""


# ---------------------------------------------------------------------------
# Fixture branches and option checks

_FIG4 = TriploidParams(3, 2, 4, 2, 16)
_FIG4_ARGS = ["--params", "3", "2", "4", "2", "16"]


def test_fixtures_nz_pair(tmp_path, capsys):
    argv = ["fixtures", "nz-pair", *_FIG4_ARGS, "--strip-loops", "--edge", "0", "--edge2", "1"]
    assert main(argv) == 0
    text = capsys.readouterr().out
    assert text == serialize_diagram(nz_pair_labeling(strip_loops(triploid(_FIG4)), 0, 1)) + "\n"
    assert main(["verify", _write(tmp_path, "pair.json", text)]) == 0
    capsys.readouterr()


def test_fixtures_rhomboid_gap_explicit_rhomboid(tmp_path, capsys):
    path = _write(tmp_path, "square.json", serialize_graph(rhomboid_square_graph()))
    assert main(["fixtures", "rhomboid-gap", "--graph", path, "--rhomboid", "0", "1", "2", "3"]) == 0
    expected = rhomboid_gap_labeling(rhomboid_square_graph(), Rhomboid(0, 1, 2, 3))
    assert capsys.readouterr().out == serialize_diagram(expected) + "\n"


def test_fixtures_loop_indicator(capsys):
    assert main(["fixtures", "loop-indicator", *_FIG4_ARGS]) == 0
    assert capsys.readouterr().out == serialize_diagram(loop_indicator_labeling(triploid(_FIG4))) + "\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["oracle", "DIAGRAM", "--length", "-1"], "length bound must be non-negative"),
        (["fixtures", "nz-pair", *_FIG4_ARGS, "--strip-loops", "--edge", "0"], "nz-pair requires --edge and --edge2"),
        (["fixtures", "rhomboid-gap", "--graph", "GRAPH", "--rhomboid-index", "0"], "--rhomboid-index needs a triploid"),
        (["fixtures", "rhomboid-gap", *_FIG4_ARGS, "--rhomboid-index", "12"], "index out of range (family has 12 members)"),
        (["fixtures", "rhomboid-gap", *_FIG4_ARGS], "rhomboid-gap requires --rhomboid or --rhomboid-index"),
        (["fixtures", "loop-kernel", *_FIG4_ARGS], "loop-kernel requires --kernel"),
        (["rhomboids", "--explicit", "--graph", "GRAPH"], "--explicit needs a triploid source"),
        (["bounds", "0", "5"], "rank_bounds requires n, m >= 1"),
        (["bench", "--n-grid", "4", "--m-grid", "4", "--seed", "1", "--instances", "0"], "--instances must be at least 1"),
    ],
    ids=[
        "oracle-negative-length", "nz-pair-no-edge2", "rhomboid-index-on-graph-file", "rhomboid-index-out-of-range",
        "rhomboid-gap-no-rhomboid", "loop-kernel-no-kernel", "explicit-on-graph-file", "bounds-zero-vertices",
        "bench-zero-instances",
    ],
)
def test_option_errors_exit_two(tmp_path, capsys, argv, message):
    paths = {
        "DIAGRAM": _write(tmp_path, "square.json", serialize_diagram(kirchhoff_square())),
        "GRAPH": _write(tmp_path, "graph.json", serialize_graph(rhomboid_square_graph())),
    }
    assert main([paths.get(arg, arg) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and message in captured.err


def test_rhomboids_budget_default_is_the_greedy_default():
    import inspect

    from diagcheck.cli import _build_parser
    from diagcheck.constructions import greedy_disjoint_rhomboids

    args = _build_parser().parse_args(["rhomboids", "--greedy", "--fit", "8", "12"])
    assert args.budget == inspect.signature(greedy_disjoint_rhomboids).parameters["budget"].default
