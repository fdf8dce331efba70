"""Seeded fuzz of the game-file loader.

Bundled games are written with ``game_to_dict`` and then broken one to
three ways at a time: values that are not exact rationals, wrong-arity cost
vectors, keys that name no terminal, duplicate or non-integer ids,
duplicate names, and structural faults that only ``validate`` sees. Every
broken file must either be rejected with ``GameFormatError`` or load and
report a violation; any other exception is a loader defect. The CLI maps
these to exit codes 2 and 3.
"""

from __future__ import annotations

import copy
import json
import random

import pytest

from pathgames import fixtures, gamefiles
from pathgames.cli import main
from pathgames.errors import GameFormatError
from pathgames.gamefiles import game_from_dict, game_to_dict
from pathgames.model import validate

_BAD_COSTS = [
    0.5, 1e300, True, False, None, [1], [[["1"]]], {"1": 1}, "1/0", "0/0", "x", "",
    "1e999999999", "1E+4301", "-1e-4301", "1/2/3", "nan", "inf", "1_0", "1_000/3",
]
_BAD_IDS = [1.0, True, "0", [0], -1, 10**6]


def _cost_slots(doc):
    """Every cost vector of the file, as (container, key) pairs."""
    if "terminal_costs" in doc:
        slots = [(doc["terminal_costs"], key) for key in doc["terminal_costs"]]
        return slots + [(doc, "infinite_costs")]
    return [(edge, "costs") for edge in doc["edges"] if "costs" in edge]


def _bad_cost(rng, doc):
    holder, key = rng.choice(_cost_slots(doc))
    holder[key][rng.randrange(len(holder[key]))] = copy.deepcopy(rng.choice(_BAD_COSTS))


def _wrong_arity(rng, doc):
    holder, key = rng.choice(_cost_slots(doc))
    if rng.random() < 0.5 or not holder[key]:
        holder[key].append("1")
    else:
        holder[key].pop()


def _key_not_a_terminal(rng, doc):
    terminals = {str(v["id"]) for v in doc["vertices"] if v["owner"] == "T"}
    keys = [str(v["id"]) for v in doc["vertices"]] + ["99", " 1", "01", "1_0", "-0", ""]
    doc["terminal_costs"][rng.choice([k for k in keys if k not in terminals])] = ["0", "0"]


def _duplicate_id(rng, doc):
    doc["vertices"].append(dict(rng.choice(doc["vertices"])))


def _duplicate_name(rng, doc):
    first, second = rng.sample(doc["vertices"], 2)
    second["name"] = first["name"]


def _bad_id(rng, doc):
    place = rng.choice(["vertex", "from", "to", "initial", "players"])
    value = rng.choice(_BAD_IDS)
    if place == "vertex":
        rng.choice(doc["vertices"])["id"] = value
    elif place == "initial":
        doc["initial"] = value
    elif place == "players":
        doc["players"] = rng.choice([0, -2, True, 2.0, "2", None])
    else:
        rng.choice(doc["edges"])[place] = value


def _missing_cost(rng, doc):
    if "terminal_costs" not in doc:
        rng.choice(doc["edges"]).pop("costs", None)
        return
    terminals = {str(v["id"]) for v in doc["vertices"] if v["owner"] == "T"}
    keys = [key for key in doc["terminal_costs"] if key in terminals]
    if keys:  # a key that names no terminal stays, so its fault stays too
        del doc["terminal_costs"][rng.choice(keys)]
    else:
        _dead_end(rng, doc)


def _duplicate_edge(rng, doc):
    doc["edges"].append(copy.deepcopy(rng.choice(doc["edges"])))


def _edge_from_terminal(rng, doc):
    ids = [v["id"] for v in doc["vertices"]]
    t = rng.choice([v["id"] for v in doc["vertices"] if v["owner"] == "T"])
    edge = copy.deepcopy(rng.choice(doc["edges"]))
    edge.update({"from": t, "to": rng.choice(ids)})
    doc["edges"].append(edge)


def _dead_end(rng, doc):
    v = rng.choice([v["id"] for v in doc["vertices"] if v["owner"] != "T"])
    kept = [e for e in doc["edges"] if e["from"] != v]
    if kept:  # the other mutations pick from the edges left
        doc["edges"] = kept
    else:
        _edge_from_terminal(rng, doc)


_MUTATIONS = [
    _bad_cost, _wrong_arity, _key_not_a_terminal, _duplicate_id, _duplicate_name, _bad_id,
    _missing_cost, _duplicate_edge, _edge_from_terminal, _dead_end,
]


def _broken_docs(seed, count):
    rng = random.Random(seed)
    docs = [game_to_dict(make()) for _, make in sorted(fixtures.BUNDLED.items())]
    for _ in range(count):
        doc = copy.deepcopy(rng.choice(docs))
        applied = []
        for _ in range(rng.randint(1, 3)):
            kinds = [m for m in _MUTATIONS
                     if "terminal_costs" in doc or m is not _key_not_a_terminal]
            mutate = rng.choice(kinds)
            mutate(rng, doc)
            applied.append(mutate.__name__)
        yield applied, doc


def test_broken_files_are_rejected_or_report_violations():
    outcomes = {"rejected": 0, "violations": 0}
    for applied, doc in _broken_docs(seed=2024, count=600):
        try:
            game = game_from_dict(doc)
        except GameFormatError:
            outcomes["rejected"] += 1
            continue
        violations = validate(game)
        assert violations, (applied, doc)
        assert all(type(line) is str for line in violations)
        outcomes["violations"] += 1
    # the fuzz reaches both outcomes
    assert min(outcomes.values()) >= 50, outcomes


def test_broken_files_exit_2_or_3(capsys, tmp_path):
    path = tmp_path / "game.json"
    codes = set()
    for applied, doc in _broken_docs(seed=7, count=12):
        path.write_text(json.dumps(doc))
        code = main(["validate", str(path)])
        out, err = capsys.readouterr()
        assert code in (2, 3), (applied, code, err)
        assert (err.startswith("error: ") and out == "") if code == 2 else (err == "" and out)
        codes.add(code)
    assert codes == {2, 3}


def test_integer_literal_past_the_digit_limit_exits_2(capsys, tmp_path):
    # json.load raises a plain ValueError for it, not a JSONDecodeError
    text = json.dumps(game_to_dict(fixtures.chain())).replace('"-1"', "-" + "9" * 5000, 1)
    path = tmp_path / "game.json"
    path.write_text(text)
    assert main(["validate", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {path}: ")


# a terminal game and its shortest path twin, with no vertices at all
_MANY_PLAYERS = [
    {"players": 400000, "vertices": [], "edges": [], "terminal_costs": {}},
    {"players": 400000, "vertices": [], "edges": []},
]


@pytest.mark.parametrize("doc", _MANY_PLAYERS)
def test_more_players_than_vertices_exit_2(capsys, tmp_path, doc):
    # each player gets a cost row, so the count is bounded before rows are built
    path = tmp_path / "game.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: players must be at most 2 for 0 vertices, got 400000\n"


def test_a_billion_players_are_rejected_before_any_cost_row(monkeypatch):
    def no_rows(*args):
        raise AssertionError("cost rows built for an unbounded player count")

    monkeypatch.setattr(gamefiles, "_scaled_rows", no_rows)
    # the shortest path twin: a terminal file without infinite costs would
    # first expand a zero per player, which no patch here could stop
    with pytest.raises(GameFormatError, match="players must be at most 2 for 0 vertices"):
        game_from_dict({**_MANY_PLAYERS[1], "players": 10**9})
