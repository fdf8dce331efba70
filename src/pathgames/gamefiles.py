"""Loading, saving and exporting games.

The JSON interchange format carries vertices with owners (player number or
"T"), edges with per-player cost vectors for shortest path games, or bare
edges plus terminal/infinite cost tables for terminal games. Rationals are
written as canonical "p" / "p/q" strings and may be read back from integer
literals, fraction strings or decimal strings. A decimal exponent is
bounded like an integer literal's digits, by ``sys.get_int_max_str_digits()``.
"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction
from typing import Any

from .errors import GameFormatError
from .model import Game, GameGraph, SPGame, Situation, TerminalGame, _scaled_rows


def _max_digits() -> int:
    """``int()``'s digit limit; 0 switches it off, and Python before 3.10.7 has none."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    return limit or sys.maxsize


def _rational_pair(value: Any) -> tuple[int, int]:
    """A game file's cost as ``(numerator, denominator)`` in lowest terms.

    JSON integers and plain ASCII "p" / "p/q" strings are read without
    building a ``Fraction``; anything else takes ``Fraction``'s parser.
    """
    if isinstance(value, str):
        try:
            num, slash, den = value.partition("/")
            if value.isascii() and num.removeprefix("-").isdigit() and (den.isdigit() or not slash):
                p, q = int(num), int(den or 1)
                if q:  # "p/0" falls through to the parser's error
                    g = math.gcd(p, q)
                    return p // g, q // g
            if "_" in value:  # Fraction reads "1_0" as 10 from Python 3.11 on
                raise ValueError("digit separator")
            _, e, exp = value.lower().partition("e")
            if e and abs(int(exp)) > _max_digits():
                raise ValueError("exponent too large")
            return Fraction(value).as_integer_ratio()
        except (ValueError, ZeroDivisionError) as exc:
            raise GameFormatError(f"not a rational: {value!r}") from exc
    if isinstance(value, bool):
        raise GameFormatError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return value, 1
    if isinstance(value, float):
        raise GameFormatError(
            f"float {value!r} is not exact; write it as a string like \"1/100\""
        )
    raise GameFormatError(f"not a rational: {value!r}")


def format_rational(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _parse_owner(raw: Any, n_players: int) -> int | None:
    if raw == "T":
        return None
    if type(raw) is int and 1 <= raw <= n_players:
        return raw
    raise GameFormatError(f"owner must be 1..{n_players} or \"T\", got {raw!r}")


_CONTAINERS = {"vertices": list, "edges": list, "terminal_costs": dict, "infinite_costs": list}


def game_from_dict(data: dict) -> Game:
    """Build a game from its JSON form; malformed input raises GameFormatError.

    Ids, endpoints and the player count must be exact ``int``s, so a JSON
    ``true`` or ``false`` is not read as 1 or 0.
    """
    try:
        n_players = data["players"]
        raw_vertices = data["vertices"]
        raw_edges = data["edges"]
    except (KeyError, TypeError) as exc:
        raise GameFormatError(f"missing required field: {exc}") from exc
    if type(n_players) is not int or n_players < 1:
        raise GameFormatError(f"players must be a positive integer, got {n_players!r}")
    for field, kind in _CONTAINERS.items():
        if field in data and not isinstance(data[field], kind):
            raise GameFormatError(
                f"{field} must be a JSON {'array' if kind is list else 'object'}, "
                f"got {type(data[field]).__name__}"
            )

    by_id = {}
    for entry in raw_vertices:
        if not isinstance(entry, dict):
            raise GameFormatError(f"vertex must be a JSON object, got {type(entry).__name__}")
        vid = entry.get("id")
        if type(vid) is not int or vid in by_id:
            raise GameFormatError(f"bad or duplicate vertex id: {vid!r}")
        by_id[vid] = entry
    n = len(by_id)
    if sorted(by_id) != list(range(n)):
        raise GameFormatError("vertex ids must be dense 0..|V|-1")
    # the cost table keeps a row per player: bound the count before rows are
    # built, so a short file cannot ask for millions of them; two players
    # stay allowed on a board of terminals alone, as two-person games
    bound = max(2, n)
    if n_players > bound:
        raise GameFormatError(f"players must be at most {bound} for {n} vertices, got {n_players}")
    owner = []
    names = []
    for vid in range(n):
        entry = by_id[vid]
        owner.append(_parse_owner(entry.get("owner"), n_players))
        name = entry.get("name", str(vid))
        if type(name) is not str:
            raise GameFormatError(f"vertex {vid}: name must be a JSON string, got {name!r}")
        names.append(name)

    initial = data.get("initial")
    if initial is not None and (type(initial) is not int or not 0 <= initial < n):
        raise GameFormatError(f"initial must be a vertex id, got {initial!r}")

    is_terminal_game = "terminal_costs" in data
    edges = []
    edge_cost = {}  # (u, v) -> each player's cost as a reduced (num, den) pair
    parsed: dict[str, tuple[int, int]] = {}

    def pair(value: Any) -> tuple[int, int]:
        """``_rational_pair``, parsing each distinct cost string once per load."""
        if type(value) is not str:
            return _rational_pair(value)
        got = parsed.get(value)
        if got is None:
            got = parsed[value] = _rational_pair(value)
        return got

    for entry in raw_edges:
        try:
            u, v = entry["from"], entry["to"]
        except (KeyError, TypeError) as exc:
            raise GameFormatError(f"edge missing endpoint: {entry!r}") from exc
        if type(u) is not int or type(v) is not int or not (0 <= u < n and 0 <= v < n):
            raise GameFormatError(f"edge ({u!r}, {v!r}) references unknown vertex")
        edges.append((u, v))
        if not is_terminal_game:
            costs = entry.get("costs")
            if not isinstance(costs, list) or len(costs) != n_players:
                raise GameFormatError(f"edge ({u}, {v}) needs {n_players} costs")
            edge_cost[(u, v)] = tuple(map(pair, costs))

    graph = GameGraph(
        owner=tuple(owner),
        edges=tuple(edges),
        n_players=n_players,
        initial=initial,
        names=tuple(names),
    )
    if not is_terminal_game:
        return SPGame._from_ints(graph, *_scaled_rows(edge_cost.items(), n_players))

    # a key is a terminal's id exactly as game_to_dict writes it: not " 2",
    # "2_0" or "02", and not the id of a non-terminal or of no vertex at all
    terminal_ids = {str(w): w for w in graph.terminals}
    outcome_cost = []  # (terminal, or None for infinite play) -> reduced pairs
    for key, costs in data["terminal_costs"].items():
        w = terminal_ids.get(key)
        if w is None:
            raise GameFormatError(f"terminal_costs key {key!r} does not name a terminal vertex")
        if not isinstance(costs, list) or len(costs) != n_players:
            raise GameFormatError(f"terminal {w} needs {n_players} costs")
        outcome_cost.append((w, tuple(map(pair, costs))))
    infinite = tuple(map(pair, data.get("infinite_costs", [0] * n_players)))
    if len(infinite) != n_players:
        raise GameFormatError("infinite_costs has wrong arity")
    outcome_cost.append((None, infinite))
    return TerminalGame._from_ints(graph, *_scaled_rows(outcome_cost, n_players))


def game_to_dict(game: Game) -> dict:
    g = game.graph
    data: dict[str, Any] = {
        "players": g.n_players,
        "vertices": [
            {
                "id": v,
                "name": g.names[v],
                "owner": g.owner[v] if g.owner[v] is not None else "T",
            }
            for v in range(g.n_vertices)
        ],
    }
    if isinstance(game, SPGame):
        data["edges"] = [
            {
                "from": u,
                "to": v,
                "costs": [format_rational(c) for c in game.edge_cost[(u, v)]],
            }
            for u, v in g.sorted_edges()
        ]
    else:
        data["edges"] = [{"from": u, "to": v} for u, v in g.sorted_edges()]
        data["terminal_costs"] = {
            str(w): [format_rational(c) for c in game.terminal_cost[w]]
            for w in g.terminals
        }
        data["infinite_costs"] = [format_rational(c) for c in game.infinite_cost]
    if g.initial is not None:
        data["initial"] = g.initial
    return data


def load_game(path: str) -> Game:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise GameFormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise GameFormatError(f"{path} is not valid JSON: {exc}") from exc
    except ValueError as exc:  # an integer literal past int()'s digit limit
        raise GameFormatError(f"{path}: {exc}") from exc
    except RecursionError as exc:
        raise GameFormatError(f"{path} nests too deeply") from exc
    if not isinstance(data, dict):
        raise GameFormatError(f"{path}: top level must be an object")
    return game_from_dict(data)


def dump_game(game: Game) -> str:
    return json.dumps(game_to_dict(game), indent=2) + "\n"


def save_game(game: Game, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_game(game))


_PLAYER_COLORS = ["lightblue", "lightcoral", "orange", "palegreen", "plum", "khaki"]


def to_dot(game: Game, situation: Situation | None = None) -> str:
    """Graphviz rendering: owners as node colors, the situation's moves (any
    subset of edges) in bold, names with backslashes and quotes escaped."""
    g = game.graph
    lines = ["digraph game {", "  rankdir=LR;"]
    for v in range(g.n_vertices):
        if g.is_terminal(v):
            shape, color = "box", "lightgray"
        else:
            shape = "circle"
            color = _PLAYER_COLORS[(g.owner[v] - 1) % len(_PLAYER_COLORS)]
        marker = ", peripheries=2" if v == g.initial else ""
        label = g.names[v].replace("\\", "\\\\").replace('"', '\\"')
        lines.append(
            f'  v{v} [label="{label}", shape={shape}, style=filled, '
            f"fillcolor={color}{marker}];"
        )
    chosen = set(situation.items()) if situation is not None else set()
    for u, v in g.sorted_edges():
        attrs = []
        if isinstance(game, SPGame):
            label = ", ".join(format_rational(c) for c in game.edge_cost[(u, v)])
            attrs.append(f'label="{label}"')
        if (u, v) in chosen:
            attrs.append("penwidth=2.5")
            attrs.append("style=bold")
        suffix = f" [{', '.join(attrs)}]" if attrs else ""
        lines.append(f"  v{u} -> v{v}{suffix};")
    lines.append("}")
    return "\n".join(lines) + "\n"
