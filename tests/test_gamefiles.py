from __future__ import annotations

import math
import random
import re
import sys
from fractions import Fraction

import pytest

import genutil
from pathgames import fixtures
from pathgames.errors import GameFormatError
from pathgames.gamefiles import (
    _rational_pair,
    dump_game,
    format_rational,
    game_from_dict,
    game_to_dict,
    to_dot,
)
from pathgames.model import SPGame, Situation, TerminalGame, validate
from pathgames.spne import solve_theorem1


def parse_rational(value):
    """The loader's value of one cost in a game file."""
    return Fraction(*_rational_pair(value))


@pytest.mark.parametrize("value,expected", [
    (3, Fraction(3)),
    ("-3", Fraction(-3)),
    ("1/100", Fraction(1, 100)),
    ("0.01", Fraction(1, 100)),
    ("-5/2", Fraction(-5, 2)),
])
def test_parse_rational(value, expected):
    assert parse_rational(value) == expected


@pytest.mark.parametrize("value", [0.01, True, "x", "1/0", None])
def test_parse_rational_rejects(value):
    with pytest.raises(GameFormatError):
        parse_rational(value)


def _fraction_parser(value):
    """The loader's rule: Fraction's own string parser, with an exponent
    bounded by the digit limit that ``int()`` puts on integer strings and
    no ``_`` digit separator (which the parser takes from Python 3.11 on)."""
    if isinstance(value, bool):
        raise GameFormatError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            if "_" in value:
                raise ValueError("digit separator")
            exponent = re.search(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z", value)
            if exponent and abs(int(exponent[1])) > sys.get_int_max_str_digits():
                raise ValueError("exponent too large")
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise GameFormatError(f"not a rational: {value!r}") from exc
    if isinstance(value, float):
        raise GameFormatError(
            f"float {value!r} is not exact; write it as a string like \"1/100\""
        )
    raise GameFormatError(f"not a rational: {value!r}")


def _outcome(parse, value):
    try:
        q = parse(value)
    except GameFormatError as exc:
        return "error", str(exc)
    assert type(q) is Fraction
    return "value", q


@pytest.mark.parametrize("value,expected", [
    ("7", Fraction(7)),
    ("-3/4", Fraction(-3, 4)),
    ("0.01", Fraction(1, 100)),
    (" 5", Fraction(5)),
    ("+3", Fraction(3)),
    ("5_0", None),  # a digit separator, which Fraction reads only from Python 3.11 on
    ("3/-4", None),
    ("3/ 4", None),
    ("1e3", Fraction(1000)),
    ("3/0", None),
    ("\u00b2", None),  # superscript two: a digit to str.isdigit, not to Fraction
    ("\u0661\u0662", Fraction(12)),  # Arabic-Indic digits
    ("", None),
    ("/", None),
    (True, None),
    (1.5, None),
    (None, None),
    ("-0", Fraction(0)),
    ("007/010", Fraction(7, 10)),
    ("-", None),
    ("--3", None),
    ("3/", None),
    ("/4", None),
    ("-3/-4", None),
    ("0/0", None),
    (" 3/4 ", Fraction(3, 4)),
    ("12345678901234567890/3", Fraction(4115226300411522630)),
    ("1e4300", Fraction(10**4300)),
    ("-1.5E-4300", Fraction(-15, 10**4301)),
    ("1e4301", None),
    ("1e-4_301", None),
])
def test_parse_rational_edge_cases(value, expected):
    outcome = _outcome(parse_rational, value)
    assert outcome == _outcome(_fraction_parser, value)
    if expected is None:
        assert outcome[0] == "error"
    else:
        assert outcome == ("value", expected)


def test_parse_rational_matches_fraction_parser():
    rng = random.Random(11)
    alphabet = "0123456789-/+._ e"
    values = []
    for _ in range(4000):
        values.append("".join(rng.choice(alphabet) for _ in range(rng.randint(0, 6))))
        num = str(rng.randint(-10**6, 10**6))
        den = rng.choice(["1", "7", "100", "0", "000", "0012", str(rng.randint(1, 10**9))])
        values.append(f"{num}/{den}")
        values.append(num)
    parsed = 0
    for value in values:
        outcome = _outcome(parse_rational, value)
        assert outcome == _outcome(_fraction_parser, value), value
        parsed += outcome[0] == "value"
    assert parsed >= 6000


def test_format_rational_roundtrip():
    for q in (Fraction(3), Fraction(-7, 3), Fraction(1, 100), Fraction(0)):
        assert parse_rational(format_rational(q)) == q


@pytest.mark.parametrize("name", sorted(fixtures.BUNDLED))
def test_bundled_fixture_roundtrip(name):
    game = fixtures.BUNDLED[name]()
    data = game_to_dict(game)
    back = game_from_dict(data)
    assert type(back) is type(game)
    assert back.graph == game.graph
    if isinstance(game, SPGame):
        assert back.edge_cost == game.edge_cost
    else:
        assert back.terminal_cost == game.terminal_cost
        assert back.infinite_cost == game.infinite_cost
    # a second round trip is byte-identical
    assert dump_game(back) == dump_game(game)


def test_terminal_game_default_infinite_costs():
    data = {
        "players": 2,
        "vertices": [
            {"id": 0, "name": "v", "owner": 1},
            {"id": 1, "name": "t", "owner": "T"},
        ],
        "edges": [{"from": 0, "to": 1}],
        "terminal_costs": {"1": ["-1", "-2"]},
    }
    game = _assert_loads_like_fractions(data)
    assert isinstance(game, TerminalGame)
    assert game.infinite_cost == (Fraction(0), Fraction(0))
    assert game._int_costs == (1, ({1: -1, None: 0}, {1: -2, None: 0}))


@pytest.mark.parametrize("mutate,msg", [
    (lambda d: d.pop("players"), "missing"),
    (lambda d: d["vertices"].append({"id": 5, "owner": 1}), "dense"),
    (lambda d: d["vertices"][0].update(owner=9), "owner"),
    (lambda d: d["edges"][0].update({"to": 77}), "unknown vertex"),
    (lambda d: d["edges"][0].update(costs=["1"]), "costs"),
])
def test_format_errors(mutate, msg):
    game = fixtures.fig1_pm()
    data = game_to_dict(game)
    mutate(data)
    with pytest.raises(GameFormatError, match=msg):
        game_from_dict(data)


def test_dot_export_marks_situation():
    game = fixtures.chain()
    situation = Situation.of(game.graph, {0: 1, 1: 2})
    text = to_dot(game, situation)
    assert text.count("penwidth") == 2
    assert "digraph" in text
    assert to_dot(game, situation) == text  # deterministic


def test_dot_export_sp_edge_labels(g6s):
    text = to_dot(g6s)
    assert 'label="1/100, 1/100"' in text


def _fraction_route(data):
    """Each cost vector of a game file as ``parse_rational`` reads it, keyed
    as the loader keys its table: edges in file order, or terminals in file
    order and then None for the infinite-play costs."""
    if "terminal_costs" not in data:
        return [((e["from"], e["to"]), tuple(map(parse_rational, e["costs"])))
                for e in data["edges"]]
    vectors = [(int(key), tuple(map(parse_rational, costs)))
               for key, costs in data["terminal_costs"].items()]
    infinite = data.get("infinite_costs", [0] * data["players"])
    return vectors + [(None, tuple(map(parse_rational, infinite)))]


def _assert_loads_like_fractions(data):
    game = game_from_dict(data)
    vectors = _fraction_route(data)
    # the table's scale is the LCM of the parsed denominators
    scale = math.lcm(*(q.denominator for _, qs in vectors for q in qs))
    table = tuple({key: qs[i] * scale for key, qs in vectors} for i in range(data["players"]))
    assert game._int_costs == (scale, table)
    assert all(type(c) is int for row in game._int_costs[1] for c in row.values())
    view = game.terminal_cost if isinstance(game, TerminalGame) else game.edge_cost
    expected = {key: qs for key, qs in vectors if key is not None}
    if isinstance(game, TerminalGame):
        assert game.infinite_cost == vectors[-1][1]
    assert view == expected and expected == view
    assert list(view) == list(expected)
    assert list(view.values()) == list(expected.values())
    assert len(view) == len(expected)
    assert repr(view) == repr(expected)
    return game


def _one_terminal_doc(cost):
    return {
        "players": 2,
        "vertices": [{"id": 0, "owner": 1}, {"id": 1, "owner": "T"}, {"id": 2, "owner": "T"}],
        "edges": [{"from": 0, "to": 1}, {"from": 0, "to": 2}],
        "terminal_costs": {"2": ["-2/4", "7"], "1": [cost, "-1/3"]},
        "infinite_costs": [5, "-1/6"],
    }


def _one_edge_doc(cost):
    return {
        "players": 2,
        "vertices": [{"id": 0, "owner": 1}, {"id": 1, "owner": "T"}],
        "edges": [{"from": 0, "to": 1, "costs": [cost, "1/3"]}],
    }


@pytest.mark.parametrize("cost", [
    "2/4", "-0", "007", "+3", "0.5", "1e-2", "-7/21",
    "١٢", "３",  # Arabic-Indic and fullwidth digits
    5, -12, 0,
])
def test_loaded_costs_match_parse_rational(cost):
    game = _assert_loads_like_fractions(_one_edge_doc(cost))
    assert game.edge_cost[(0, 1)] == (parse_rational(cost), Fraction(1, 3))
    doc = _one_terminal_doc(cost)
    game = _assert_loads_like_fractions(doc)
    assert game.terminal_cost[1] == (parse_rational(cost), Fraction(-1, 3))
    assert (game.cost_at(2, 1), game.cycle_cost(2)) == (Fraction(-1, 2), Fraction(-1, 6))
    doc["infinite_costs"] = [cost, "1/4"]
    game = _assert_loads_like_fractions(doc)
    assert game.infinite_cost == (parse_rational(cost), Fraction(1, 4))


@pytest.mark.parametrize("cost", ["1/0", True, 0.5])
def test_loader_rejects_like_parse_rational(cost):
    with pytest.raises(GameFormatError) as expected:
        parse_rational(cost)
    with pytest.raises(GameFormatError) as got:
        game_from_dict(_one_edge_doc(cost))
    assert str(got.value) == str(expected.value)


def test_cost_view_reads_like_a_dict():
    data = game_to_dict(fixtures.fig1_pm())
    data["edges"].reverse()  # iteration follows the file, not sorted order
    game = _assert_loads_like_fractions(data)
    view = game.edge_cost
    first = (data["edges"][0]["from"], data["edges"][0]["to"])
    assert next(iter(view)) == first and first in view
    assert view.get((0, 0)) is None and (0, 0) not in view
    with pytest.raises(KeyError):
        view[(0, 0)]
    assert view[first] is view[first]  # built once, then cached
    assert " at 0x" not in repr(game)
    assert validate(game) == []


def test_solving_a_loaded_positive_game_builds_no_fraction():
    rng = random.Random(79)
    source = genutil.random_symmetric_positive_sp(rng, max_v=10)
    while len(source.graph.terminals) < 2:
        source = genutil.random_symmetric_positive_sp(rng, max_v=10)
    data = game_to_dict(source)
    game = game_from_dict(data)
    situation = solve_theorem1(game)
    assert situation == solve_theorem1(source)
    assert game.edge_cost._built == {}
    for entry in data["edges"]:
        for player, cost in enumerate(entry["costs"], 1):
            assert game.cost(entry["from"], entry["to"], player) == parse_rational(cost)


def test_loading_1000_positions_matches_the_fraction_route():
    # a scale guard for loading: 1000 positions, 3 players, about 6000
    # costs over mixed denominators, ints and decimals
    rng = random.Random(83)
    n_pos, n_term, n_players = 1000, 8, 3
    owners = [rng.randint(1, n_players) for _ in range(n_pos)] + ["T"] * n_term
    pairs = {(u, (u + 1) % n_pos) for u in range(n_pos)}
    pairs |= {(u, rng.randrange(n_pos)) for u in range(n_pos)}
    moves = {(u, v) for u, v in pairs if u != v} | {(v, u) for u, v in pairs if u != v}
    moves |= {(u, n_pos + rng.randrange(n_term)) for u in rng.sample(range(n_pos), 100)}

    def cost():
        kind = rng.random()
        if kind < 0.1:
            return rng.randint(1, 50)
        if kind < 0.2:
            return f"{rng.randint(1, 999)}e-{rng.randint(1, 3)}"
        return f"{rng.randint(1, 1000)}/{rng.choice([1, 2, 3, 4, 6, 12, 25, 100])}"

    data = {
        "players": n_players,
        "vertices": [{"id": v, "owner": o} for v, o in enumerate(owners)],
        "edges": [
            {"from": u, "to": v, "costs": [cost() for _ in range(n_players)]}
            for u, v in sorted(moves)
        ],
        "initial": 0,
    }
    assert len(data["edges"]) * n_players >= 6000
    _assert_loads_like_fractions(data)
