from __future__ import annotations

import csv
import json
import os
import subprocess
import sys

import pytest

from pathgames import gamefiles
from pathgames.cli import main
from pathgames.fixtures import BUNDLED


@pytest.fixture
def example_file(tmp_path):
    def write(name):
        path = tmp_path / f"{name}.json"
        gamefiles.save_game(BUNDLED[name](), str(path))
        return str(path)

    return write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_ok(capsys, example_file):
    code, out, _ = run(capsys, "validate", example_file("g6s"))
    assert code == 0
    assert out == "no violations\n"


def test_validate_reports_violations(capsys, tmp_path):
    data = {
        "players": 1,
        "vertices": [{"id": 0, "name": "s", "owner": 1},
                     {"id": 1, "name": "t", "owner": "T"}],
        "edges": [{"from": 0, "to": 1, "costs": ["1"]},
                  {"from": 1, "to": 0, "costs": ["1"]}],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 3
    assert "terminal vertex 1" in out


def test_parse_error_exit_code(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    code, _, err = run(capsys, "validate", str(path))
    assert code == 2
    assert "not valid JSON" in err


@pytest.mark.parametrize("cost", ["3/-4", "3/0", "1/0", "\u00b2", "", "/", True, 1.5, 0.5, None])
def test_malformed_cost_exit_code(capsys, tmp_path, cost):
    data = gamefiles.game_to_dict(BUNDLED["g6s"]())
    data["edges"][0]["costs"][0] = cost
    path = tmp_path / "bad-cost.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "validate", str(path))
    assert code == 2
    assert out == ""
    assert "not a rational" in err or "is not exact" in err


def test_oracle_ne_fig1(capsys, example_file):
    code, out, _ = run(capsys, "oracle", "ne", example_file("fig1-pm"))
    assert code == 0
    assert out == "0 NE found\n"


def test_oracle_une_g6(capsys, example_file):
    code, out, _ = run(capsys, "oracle", "une", example_file("g6"))
    assert code == 0
    assert out == "0 UNE found\n"


def test_oracle_ne_lists_situations(capsys, example_file):
    code, out, _ = run(capsys, "oracle", "ne", example_file("g2"), "--start", "0")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "1 NE found"
    assert lines[1] == "1->a1 2->a2"


def test_oracle_normal_form_grid(capsys, example_file):
    code, out, _ = run(capsys, "oracle", "normal-form", example_file("fig1-pm"))
    assert code == 0
    assert "s->a" in out and "-inf" in out


def test_oracle_normal_form_csv(capsys, example_file, tmp_path):
    target = tmp_path / "nf.csv"
    code, out, _ = run(
        capsys, "oracle", "normal-form", example_file("fig1-p"), "--csv", str(target)
    )
    assert code == 0
    text = target.read_text()
    assert text.splitlines()[0].startswith("strategy_p1")
    assert len(text.splitlines()) == 13


def test_oracle_too_large_exit_code(capsys, example_file, monkeypatch):
    monkeypatch.setenv("PATHGAMES_ENUM_CAP", "5")
    code, _, err = run(capsys, "oracle", "ne", example_file("g6"))
    assert code == 4
    assert "exceeds cap" in err


def test_solve_sp_ne_g6s(capsys, example_file):
    code, out, _ = run(capsys, "solve", "sp-ne", example_file("g6s"))
    assert code == 0
    assert "situation:" in out and "play: u1 -> a1" in out
    assert "cost player 1: 4" in out


def test_solve_sp_ne_requires_positivity(capsys, example_file):
    path = example_file("fig1-pm")
    for flags in ([], ["--transform"]):
        code, _, err = run(capsys, "solve", "sp-ne", path, *flags)
        assert code == 3
        assert "neither are cycle sums" in err


def test_solve_sp_ne_refuses_negative_edges_on_positive_cycles(capsys, tmp_path):
    # cycle sums are positive, so only the edge condition fails, and only
    # --transform solves the game
    path = tmp_path / "cycle-positive.json"
    path.write_text(json.dumps(_CYCLE_POSITIVE))
    assert run(capsys, "solve", "sp-ne", str(path)) == (
        3, "", "error: edge costs are not all positive\n"
    )
    code, out, err = run(capsys, "solve", "sp-ne", str(path), "--transform")
    assert (code, err) == (0, "")
    assert out.startswith("situation: a->t b->a\n")


def test_solve_sp_ne_without_terminals(capsys, tmp_path):
    # every play cycles, so the all-lowest-id situation is returned, as the
    # oracle's one equilibrium
    path = tmp_path / "no-terminal.json"
    path.write_text(json.dumps(_NO_TERMINAL))
    assert run(capsys, "solve", "sp-ne", str(path)) == (0, (
        "situation: a->b b->a\n"
        "play: a -> (cycle: a -> b -> a)\n"
        "cost player 1: +inf\n"
        "cost player 2: +inf\n"
    ), "")
    assert run(capsys, "oracle", "ne", str(path)) == (0, "1 NE found\na->b b->a\n", "")


def test_solve_terminal_ne_g2(capsys, example_file):
    code, out, _ = run(capsys, "solve", "terminal-ne", example_file("g2"))
    assert code == 0
    assert "situation: 1->a1 2->a2" in out


def test_solve_une_chain(capsys, example_file):
    code, out, _ = run(capsys, "solve", "une", example_file("chain"))
    assert code == 0
    assert "situation: v1->v2 v2->t" in out
    assert "rounds: 0" in out


def test_solve_une_trace_output(capsys, example_file):
    code, out, _ = run(capsys, "solve", "une", example_file("chain"), "--trace")
    assert code == 0
    assert "nu:" in out


def test_solve_une_trace_prints_every_step(capsys, tmp_path):
    # two improvements, one by each player, each with its potential
    path = tmp_path / "two-rounds.json"
    path.write_text(json.dumps(_TWO_ROUNDS))
    assert run(capsys, "solve", "une", str(path), "--trace") == (0, (
        "situation: p->q q->r r->t2 s->t2\n"
        "rounds: 2\n"
        "nu: -6 -7 -8\n"
        "step 1: player 1 nu=-7 changed=q\n"
        "step 2: player 2 nu=-8 changed=p\n"
    ), "")


def test_solve_une_rejects_asymmetric(capsys, example_file):
    code, _, err = run(capsys, "solve", "une", example_file("g6"))
    assert code == 3
    assert "SYM" in err


def test_examples_writes_fixture(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, "examples", "g2")
    assert code == 0
    assert out == "wrote g2.json\n"
    game = gamefiles.load_game(str(tmp_path / "g2.json"))
    assert game.graph.n_vertices == 4


def test_examples_unknown_name(capsys):
    code, _, err = run(capsys, "examples", "nope")
    assert code == 2
    assert "unknown example" in err


def test_export_dot(capsys, example_file):
    code, out, _ = run(capsys, "export-dot", example_file("chain"),
                       "--situation", "v1:v2,v2:t")
    assert code == 0
    assert out.count("penwidth") == 2


def test_export_dot_readme_example_bolds_only_listed_moves(capsys, example_file):
    # README's command lists two moves of g6s and leaves four vertices out
    code, out, err = run(capsys, "export-dot", example_file("g6s"),
                         "--situation", "u1:a1,u2:u1")
    assert (code, err) == (0, "")
    assert [line for line in out.splitlines() if "penwidth" in line] == [
        '  v0 -> v6 [label="4, 6", penwidth=2.5, style=bold];',
        '  v1 -> v0 [label="7, 7", penwidth=2.5, style=bold];',
    ]


def test_export_dot_situation_entry_must_be_a_move(capsys, example_file):
    code, out, err = run(capsys, "export-dot", example_file("g6s"), "--situation", "u1:u3")
    assert (code, out, err) == (2, "", "error: situation entry 'u1:u3' is not a move\n")


def _quoted_chain(tmp_path):
    data = _chain_dict()
    data["vertices"][0]["name"] = 'a"b'
    data["vertices"][1]["name"] = "c\\d"
    path = tmp_path / "quoted.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_export_dot_escapes_names(capsys, tmp_path):
    code, out, _ = run(capsys, "export-dot", _quoted_chain(tmp_path))
    assert code == 0
    assert out.splitlines()[2:4] == [
        '  v0 [label="a\\"b", shape=circle, style=filled, fillcolor=lightblue, '
        "peripheries=2];",
        '  v1 [label="c\\\\d", shape=circle, style=filled, fillcolor=lightcoral];',
    ]


def test_oracle_normal_form_csv_quotes_names(capsys, tmp_path):
    target = tmp_path / "nf.csv"
    code, _, _ = run(capsys, "oracle", "normal-form", _quoted_chain(tmp_path), "--csv", str(target))
    assert code == 0
    with open(target, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["strategy_p1", "strategy_p2", "cost_p1", "cost_p2", "ne"]
    assert [row[0] for row in rows[1:]] == ['a"b->c\\d'] * (len(rows) - 1)
    assert {len(row) for row in rows} == {5}


def test_byte_identical_output(capsys, example_file):
    path = example_file("fig1-p")
    runs = []
    for _ in range(2):
        code, out, err = run(capsys, "oracle", "normal-form", path)
        assert code == 0
        runs.append((out, err))
    assert runs[0] == runs[1]


def test_fixture_files_roundtrip_through_cli(tmp_path, capsys):
    for name in sorted(BUNDLED):
        path = tmp_path / f"{name}.json"
        code, out, _ = run(capsys, "examples", name, "--out", str(path))
        assert code == 0
        first = path.read_text()
        reparsed = gamefiles.load_game(str(path))
        assert gamefiles.dump_game(reparsed) == first


def _chain_dict(**changes):
    data = gamefiles.game_to_dict(BUNDLED["chain"]())
    data.update(changes)
    return data


_SP_LOOP = {
    "players": 1,
    "vertices": [{"id": 0, "name": "s", "owner": 1},
                 {"id": 1, "name": "t", "owner": "T"}],
    "edges": [{"from": 0, "to": 0, "costs": ["1"]},
              {"from": 0, "to": 1, "costs": ["1"]}],
    "initial": 0,
}
_SP_STUCK = {
    "players": 1,
    "vertices": [{"id": 0, "name": "s", "owner": 1},
                 {"id": 1, "name": "u", "owner": 1},
                 {"id": 2, "name": "t", "owner": "T"}],
    "edges": [{"from": 0, "to": 2, "costs": ["1"]}],
    "initial": 0,
}
_STUCK_VERTEX = {"id": 3, "name": "x", "owner": 2}
# edge-symmetric, a negative edge, every cycle sum positive
_CYCLE_POSITIVE = {
    "players": 3,
    "vertices": [{"id": 0, "name": "a", "owner": 1},
                 {"id": 1, "name": "b", "owner": 2},
                 {"id": 2, "name": "t", "owner": "T"}],
    "edges": [{"from": 0, "to": 1, "costs": ["-1", "2", "-2"]},
              {"from": 1, "to": 0, "costs": ["3", "1", "5"]},
              {"from": 0, "to": 2, "costs": ["1", "1", "1"]},
              {"from": 1, "to": 2, "costs": ["2", "2", "2"]}],
    "initial": 0,
}
_NO_TERMINAL = {
    "players": 2,
    "vertices": [{"id": 0, "name": "a", "owner": 1}, {"id": 1, "name": "b", "owner": 2}],
    "edges": [{"from": 0, "to": 1, "costs": ["1", "1"]},
              {"from": 1, "to": 0, "costs": ["1", "1"]}],
    "initial": 0,
}
# Theorem 3 takes two improvements here
_TWO_ROUNDS = {
    "players": 2,
    "vertices": [{"id": 0, "name": "p", "owner": 2}, {"id": 1, "name": "q", "owner": 1},
                 {"id": 2, "name": "r", "owner": 2}, {"id": 3, "name": "s", "owner": 2},
                 {"id": 4, "name": "t1", "owner": "T"}, {"id": 5, "name": "t2", "owner": "T"}],
    "edges": [{"from": u, "to": v} for u, v in [
        (0, 1), (0, 4), (1, 0), (1, 2), (1, 3), (2, 1), (2, 5), (3, 1), (3, 5)]],
    "terminal_costs": {"4": ["-18/25", "-26/25"], "5": ["-211/50", "-403/100"]},
    "infinite_costs": ["0", "0"],
    "initial": 2,
}
_CHAIN_EDGES = [{"from": 0, "to": 1}, {"from": 1, "to": 0}, {"from": 1, "to": 2}]


@pytest.mark.parametrize(
    "data, argv, violation",
    [
        (_chain_dict(terminal_costs={}), ("solve", "terminal-ne"), "terminal 2 (t) has no cost"),
        (_chain_dict(terminal_costs={}), ("oracle", "ne"), "terminal 2 (t) has no cost"),
        (_chain_dict(terminal_costs={}), ("oracle", "une"), "terminal 2 (t) has no cost"),
        (_chain_dict(vertices=_chain_dict()["vertices"] + [_STUCK_VERTEX]),
         ("solve", "terminal-ne"), "vertex 3 (x) has no outgoing edge"),
        (_chain_dict(vertices=_chain_dict()["vertices"] + [_STUCK_VERTEX]),
         ("solve", "une"), "vertex 3 (x) has no outgoing edge"),
        (_SP_STUCK, ("solve", "sp-ne"), "vertex 1 (u) has no outgoing edge"),
        (_chain_dict(edges=_CHAIN_EDGES + [{"from": 1, "to": 2}]),
         ("solve", "une"), "parallel edge (1, 2)"),
        (_chain_dict(edges=_CHAIN_EDGES + [{"from": 1, "to": 2}]),
         ("oracle", "une"), "parallel edge (1, 2)"),
        (_SP_LOOP, ("solve", "sp-ne"), "self-loop (0, 0)"),
        (_SP_LOOP, ("oracle", "ne"), "self-loop (0, 0)"),
    ],
    ids=[
        "no-cost-solve", "no-cost-oracle-ne", "no-cost-oracle-une", "stuck-terminal-ne",
        "stuck-une", "stuck-sp-ne", "parallel-une", "parallel-oracle-une",
        "sp-loop-sp-ne", "sp-loop-oracle-ne",
    ],
)
def test_solve_and_oracle_reject_invalid_games(capsys, tmp_path, data, argv, violation):
    # solving any of these would crash or accept a malformed game
    path = tmp_path / "invalid.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, *argv, str(path))
    assert code == 3
    assert out == ""
    assert err.startswith("error: invalid game: ") and violation in err


def test_oracle_une_on_an_all_terminal_game(capsys, tmp_path):
    data = {
        "players": 2,
        "vertices": [{"id": 0, "name": "t", "owner": "T"}],
        "edges": [],
        "terminal_costs": {"0": ["-1", "-1"]},
        "infinite_costs": ["0", "0"],
    }
    path = tmp_path / "terminals.json"
    path.write_text(json.dumps(data))
    code, out, _ = run(capsys, "oracle", "une", str(path))
    assert code == 0
    assert out == "1 UNE found\n\n"


_TERMINAL_START = (3, "error: a non-terminal start vertex is required\n")


@pytest.mark.parametrize("kind, name, start, expected", [
    ("terminal-ne", "g2", "a1", _TERMINAL_START),
    ("sp-ne", "g6s", "a1", _TERMINAL_START),
    # a digit that int() rejects is looked up as a name
    ("terminal-ne", "g2", "\u00b2", (2, "error: no vertex named '\u00b2'\n")),
])
def test_solve_start_vertex_errors(capsys, example_file, kind, name, start, expected):
    code, out, err = run(capsys, "solve", kind, example_file(name), "--start", start)
    assert (code, err) == expected
    assert out == ""


def test_a_vertex_label_is_a_name_first(capsys, example_file):
    # g2 names its vertices 1, 2, a1, a2 at ids 0-3, so "1:2" is the move
    # from the vertex named 1 to the one named 2 (ids 0 -> 1), as the
    # situations the CLI prints name them, and "--start 2" is id 1
    path = example_file("g2")
    code, out, err = run(capsys, "export-dot", path, "--situation", "1:2,2:a2")
    assert (code, err) == (0, "")
    assert [line.split(" [")[0].strip() for line in out.splitlines() if "penwidth" in line] == [
        "v0 -> v1", "v1 -> v3",
    ]
    code, out, err = run(capsys, "solve", "terminal-ne", path, "--start", "2")
    assert (code, err) == (0, "")
    assert out.splitlines()[1] == "play: 2 -> a2"


@pytest.mark.parametrize("kind", ["normal-form", "ne"])
def test_oracle_start_errors_are_preconditions(capsys, example_file, tmp_path, kind):
    path = example_file("g2")
    code, out, err = run(capsys, "oracle", kind, path, "--start", "a1")
    assert (code, out, err) == (3, "", "error: start vertex 2 is a terminal\n")
    with open(path) as fh:
        data = json.load(fh)
    del data["initial"]
    no_initial = tmp_path / "no_initial.json"
    no_initial.write_text(json.dumps(data))
    code, out, err = run(capsys, "oracle", kind, str(no_initial))
    assert (code, out, err) == (
        3, "", "error: no start vertex given and game has no initial vertex\n"
    )


@pytest.mark.parametrize("argv, message", [
    (("solve", "une", "--start", "0"), "--start applies only to sp-ne and terminal-ne"),
    (("oracle", "une", "--start", "0"), "--start applies only to normal-form and ne"),
    (("solve", "terminal-ne", "--transform"), "--transform applies only to sp-ne"),
    (("solve", "une", "--transform"), "--transform applies only to sp-ne"),
    (("solve", "sp-ne", "--trace"), "--trace applies only to une"),
    (("solve", "terminal-ne", "--trace"), "--trace applies only to une"),
    (("oracle", "ne", "--csv", "out.csv"), "--csv applies only to normal-form"),
], ids=["solve-une-start", "oracle-une-start", "terminal-ne-transform", "une-transform",
        "sp-ne-trace", "terminal-ne-trace", "oracle-ne-csv"])
def test_flags_the_kind_would_ignore_exit_2(capsys, tmp_path, argv, message):
    # refused before the file is read: the path does not exist
    missing = str(tmp_path / "missing.json")
    command, kind, *flags = argv
    code, out, err = run(capsys, command, kind, missing, *flags)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_bad_enumeration_cap_is_a_precondition(capsys, example_file, monkeypatch):
    monkeypatch.setenv("PATHGAMES_ENUM_CAP", "many")
    code, _, err = run(capsys, "oracle", "ne", example_file("g6"))
    assert (code, err) == (3, "error: PATHGAMES_ENUM_CAP must be an integer, got 'many'\n")


def test_negative_enumeration_cap_is_a_precondition(capsys, example_file, monkeypatch):
    # a negative cap would refuse every enumeration as too large (exit 4)
    monkeypatch.setenv("PATHGAMES_ENUM_CAP", "-5")
    code, out, err = run(capsys, "oracle", "ne", example_file("chain"))
    assert (code, out, err) == (3, "", "error: PATHGAMES_ENUM_CAP must not be negative, got -5\n")


def test_stray_value_error_is_an_internal_error(capsys, example_file, monkeypatch):
    # outside input is rejected with the library's own errors, so a ValueError is a bug
    def broken(game, start=None):
        raise ValueError("negative weight on edge (0, 1)")

    monkeypatch.setattr("pathgames.cli.solve_theorem2", broken)
    code, out, err = run(capsys, "solve", "terminal-ne", example_file("g2"))
    assert (code, out) == (5, "")
    assert err == "internal error: negative weight on edge (0, 1)\n"


_HOSTILE = {
    "vertices-int": (_chain_dict(vertices=5), "vertices must be a JSON array, got int"),
    "vertices-ints": (_chain_dict(vertices=[1, 2, 3]), "vertex must be a JSON object, got int"),
    "edges-int": (_chain_dict(edges=7), "edges must be a JSON array, got int"),
    "endpoint-list": (_chain_dict(edges=[{"from": [0], "to": 1}]),
                      "edge ([0], 1) references unknown vertex"),
    "terminal-costs-list": (_chain_dict(terminal_costs=[1]),
                            "terminal_costs must be a JSON object, got list"),
    "infinite-costs-int": (_chain_dict(infinite_costs=3),
                           "infinite_costs must be a JSON array, got int"),
    "initial-true": (_chain_dict(initial=True), "initial must be a vertex id, got True"),
    "id-true": (_chain_dict(vertices=[{"id": True, "owner": 1}, {"id": 0, "owner": 2},
                                      {"id": 2, "owner": "T"}]),
                "bad or duplicate vertex id: True"),
    "from-false": (_chain_dict(edges=[{"from": False, "to": 1}] + _CHAIN_EDGES[1:]),
                   "edge (False, 1) references unknown vertex"),
    "players-true": (_chain_dict(players=True), "players must be a positive integer, got True"),
}
# terminal_costs keys that int() reads, or that name no terminal: only "2" names chain's one
_HOSTILE.update(
    (f"terminal-key-{name}",
     (_chain_dict(terminal_costs={"2": ["-1", "-1"], key: ["-2", "-2"]}),
      f"terminal_costs key {key!r} does not name a terminal vertex"))
    for name, key in [("non-terminal", "0"), ("no-vertex", "99"), ("negative", "-1"),
                      ("space", " 2"), ("underscore", "2_0"), ("leading-zero", "02")]
)


@pytest.mark.parametrize("argv", [("validate",), ("solve", "une"), ("oracle", "ne")],
                         ids=["validate", "solve", "oracle"])
@pytest.mark.parametrize("name", sorted(_HOSTILE))
def test_hostile_fields_are_parse_errors(capsys, tmp_path, name, argv):
    # wrongly typed fields, and booleans where an integer is meant
    data, message = _HOSTILE[name]
    path = tmp_path / "hostile.json"
    path.write_text(json.dumps(data))
    assert run(capsys, *argv, str(path)) == (2, "", f"error: {message}\n")


def test_deeply_nested_json_is_a_parse_error(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    code, out, err = run(capsys, "validate", str(path))
    assert (code, out, err) == (2, "", f"error: {path} nests too deeply\n")


@pytest.mark.parametrize("cost", ["1e999999999", "1e-999999999", "1E+4301"])
def test_huge_decimal_exponent_is_a_parse_error(tmp_path, cost):
    # Fraction(cost) would build 10**exponent; a regression hangs, so the
    # check runs in a child process under a timeout
    path = tmp_path / "exponent.json"
    path.write_text(json.dumps(_chain_dict(terminal_costs={"2": [cost, "-1"]})))
    src = os.path.dirname(os.path.dirname(gamefiles.__file__))
    result = subprocess.run(
        [sys.executable, "-m", "pathgames.cli", "validate", str(path)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=20,
    )
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == f"error: not a rational: {cost!r}\n"


_UNLOADABLE = {
    "edge-no-endpoint": (json.dumps(_chain_dict(edges=[{"from": 0}])),
                         "edge missing endpoint: {{'from': 0}}"),
    "terminal-cost-arity": (json.dumps(_chain_dict(terminal_costs={"2": ["-1"]})),
                            "terminal 2 needs 2 costs"),
    "infinite-cost-arity": (json.dumps(_chain_dict(infinite_costs=["0"])),
                            "infinite_costs has wrong arity"),
    "missing-file": (None, "cannot read {path}: [Errno 2] No such file or directory: '{path}'"),
    "top-level-array": ("[]", "{path}: top level must be an object"),
}


@pytest.mark.parametrize("name", sorted(_UNLOADABLE))
def test_unloadable_files_are_parse_errors(capsys, tmp_path, name):
    text, message = _UNLOADABLE[name]
    path = tmp_path / "game.json"
    if text is not None:
        path.write_text(text)
    assert run(capsys, "validate", str(path)) == (
        2, "", f"error: {message.format(path=path)}\n"
    )


# the commands that write a file, given a writer of bundled game files
_WRITERS = {
    "examples": lambda file: ("examples", "g2", "--out"),
    "oracle-csv": lambda file: ("oracle", "normal-form", file("fig1-pm"), "--csv"),
    "export-dot": lambda file: ("export-dot", file("g6s"), "--out"),
}


@pytest.mark.parametrize("command", sorted(_WRITERS))
def test_unwritable_output_path_is_a_usage_error(capsys, example_file, tmp_path, command):
    # the output's directory does not exist: exit 2, nothing written, no traceback
    out_path = tmp_path / "missing" / "out.txt"
    assert run(capsys, *_WRITERS[command](example_file), str(out_path)) == (
        2, "", f"error: cannot write {out_path}: No such file or directory\n"
    )
    assert not out_path.parent.exists()


@pytest.mark.parametrize("name", [None, True, 3, [], {"a": 1}],
                         ids=["null", "true", "int", "list", "object"])
def test_vertex_name_must_be_a_string(capsys, tmp_path, name):
    vertices = [{"id": 0, "name": "v1", "owner": 1}, {"id": 1, "name": name, "owner": 2},
                {"id": 2, "owner": "T"}]
    path = tmp_path / "names.json"
    path.write_text(json.dumps(_chain_dict(vertices=vertices)))
    assert run(capsys, "validate", str(path)) == (
        2, "", f"error: vertex 1: name must be a JSON string, got {name!r}\n"
    )
    # an absent name reads as the id
    del vertices[1]["name"]
    path.write_text(json.dumps(_chain_dict(vertices=vertices)))
    assert gamefiles.load_game(str(path)).graph.names == ("v1", "1", "2")
