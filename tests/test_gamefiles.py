from __future__ import annotations

import random
import re
import sys
from fractions import Fraction

import pytest

from pathgames import fixtures
from pathgames.errors import GameFormatError
from pathgames.gamefiles import (
    dump_game,
    format_rational,
    game_from_dict,
    game_to_dict,
    parse_rational,
    to_dot,
)
from pathgames.model import SPGame, Situation, TerminalGame


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
    bounded by the digit limit that ``int()`` puts on integer strings."""
    if isinstance(value, bool):
        raise GameFormatError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
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
    ("5_0", Fraction(50)),
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
    game = game_from_dict(data)
    assert isinstance(game, TerminalGame)
    assert game.infinite_cost == (Fraction(0), Fraction(0))


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
