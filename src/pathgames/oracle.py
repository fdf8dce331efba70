"""Brute-force ground truth: enumeration, normal forms, NE/UNE search.

Everything here is deliberately simple and exhaustive: every situation or
deviation is traced with ``play.trace``. Only the costing is shared within
one call: a shortest path game costs each distinct play once, and a
terminal game, whose costs depend only on the outcome, each outcome once
(the deviation checks compare outcomes with the set of those that beat the
current cost). The enumeration cap
(default 10**6, overridable via the PATHGAMES_ENUM_CAP environment variable
or per call) keeps accidental blow-ups from hanging a session; exceeding it
raises TooLarge rather than sampling.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import Iterator, Mapping

from . import graphalg
from .errors import PathgamesError, PreconditionError, TooLarge
from .model import (
    ExtCost,
    Game,
    GameGraph,
    SPGame,
    Situation,
    TerminalGame,
    _edge_positive,
    _start_or_initial,
    one_player_out,
)
from .play import Play, sp_cost, terminal_cost, trace

DEFAULT_CAP = 10**6
CAP_ENV_VAR = "PATHGAMES_ENUM_CAP"


def resolve_cap(cap: int | None = None) -> int:
    if cap is not None:
        return cap
    env = os.environ.get(CAP_ENV_VAR)
    if not env:
        return DEFAULT_CAP
    try:
        return int(env)
    except ValueError:
        raise PreconditionError(f"{CAP_ENV_VAR} must be an integer, got {env!r}") from None


def _graph_of(game_or_graph) -> GameGraph:
    return game_or_graph if isinstance(game_or_graph, GameGraph) else game_or_graph.graph


def situation_count(game_or_graph) -> int:
    g = _graph_of(game_or_graph)
    return prod(len(g.out[v]) for v in g.nonterminals)


def enumerate_situations(game_or_graph, cap: int | None = None) -> Iterator[Situation]:
    """All situations in lexicographic order by vertex id, then target id."""
    g = _graph_of(game_or_graph)
    count = situation_count(g)
    limit = resolve_cap(cap)
    if count > limit:
        raise TooLarge(count, limit)
    verts = g.nonterminals
    for combo in itertools.product(*(g.out[v] for v in verts)):
        moves: list[int | None] = [None] * g.n_vertices
        for v, t in zip(verts, combo):
            moves[v] = t
        yield Situation(tuple(moves))


def player_strategies(
    graph: GameGraph, player: int, cap: int | None = None
) -> list[dict[int, int]]:
    """All strategies of one player, lexicographic, as vertex -> target maps."""
    verts = [v for v in graph.nonterminals if graph.owner[v] == player]
    count = prod(len(graph.out[v]) for v in verts)
    limit = resolve_cap(cap)
    if count > limit:
        raise TooLarge(count, limit)
    return [
        dict(zip(verts, combo))
        for combo in itertools.product(*(graph.out[v] for v in verts))
    ]


def effective_cost(game: Game, play, player: int):
    """Dispatch to the applicable cost semantics.

    Shortest path games yield ExtCost, terminal games plain Fraction; both
    support the exact comparisons the equilibrium checks need.
    """
    if isinstance(game, SPGame):
        return sp_cost(game, play, player)
    return terminal_cost(game, play, player)


def _require_start(game: Game, start: int | None) -> int:
    start = _start_or_initial(game.graph, start)
    if start is None:
        raise PathgamesError("no start vertex given and game has no initial vertex")
    if game.graph.is_terminal(start):
        raise PathgamesError(f"start vertex {start} is a terminal")
    return start


@dataclass(frozen=True)
class NormalForm:
    """Exhaustive strategic form of a game from a fixed start vertex.

    ``axes[i]`` lists player i+1's strategies as sorted (vertex, target)
    tuples; ``cells`` maps a strategy index per player to the per-player cost
    vector; ``ne`` holds the indices that are unilaterally minimal for every
    player at once.
    """

    start: int
    axes: tuple[tuple[tuple[tuple[int, int], ...], ...], ...]
    cells: Mapping[tuple[int, ...], tuple]
    ne: frozenset[tuple[int, ...]]

    def cost(self, index: tuple[int, ...]) -> tuple:
        return self.cells[index]

    def situation_at(self, index: tuple[int, ...], graph: GameGraph) -> Situation:
        choice: dict[int, int] = {}
        for strategies, k in zip(self.axes, index):
            choice.update(dict(strategies[k]))
        return Situation.of(graph, choice)

    def strategy_label(self, player: int, k: int, graph: GameGraph) -> str:
        pairs = self.axes[player - 1][k]
        if not pairs:
            return "(none)"
        return ",".join(f"{graph.name(v)}->{graph.name(t)}" for v, t in pairs)

    def to_csv(self, graph: GameGraph) -> str:
        """One row per situation; a strategy label is one quoted field."""
        n = len(self.axes)
        header = (
            [f"strategy_p{i}" for i in range(1, n + 1)]
            + [f"cost_p{i}" for i in range(1, n + 1)]
            + ["ne"]
        )
        lines = [",".join(header)]
        for index in sorted(self.cells):
            labels = [
                '"%s"' % self.strategy_label(p, index[p - 1], graph).replace('"', '""')
                for p in range(1, n + 1)
            ]
            costs = [str(c) for c in self.cells[index]]
            lines.append(",".join(labels + costs + ["1" if index in self.ne else "0"]))
        return "\n".join(lines) + "\n"

    def to_text(self, graph: GameGraph) -> str:
        """Two-person grid with unilateral minima starred, NE cells boxed."""
        if len(self.axes) != 2:
            raise PathgamesError("text grid is only defined for 2-person games")
        n1 = len(self.axes[0])
        n2 = len(self.axes[1])
        col_min = [
            min(self.cells[(i, j)][1] for j in range(n2)) for i in range(n1)
        ]
        row_min = [
            min(self.cells[(i, j)][0] for i in range(n1)) for j in range(n2)
        ]
        def cell_text(i: int, j: int) -> str:
            c1, c2 = self.cells[(i, j)]
            s1 = f"{c1}" + ("*" if c1 == row_min[j] else "")
            s2 = f"{c2}" + ("*" if c2 == col_min[i] else "")
            body = f"{s1} / {s2}"
            return f"[{body}]" if (i, j) in self.ne else body
        col_labels = [self.strategy_label(1, i, graph) for i in range(n1)]
        row_labels = [self.strategy_label(2, j, graph) for j in range(n2)]
        table = [[""] + col_labels]
        for j in range(n2):
            table.append([row_labels[j]] + [cell_text(i, j) for i in range(n1)])
        widths = [max(len(row[k]) for row in table) for k in range(n1 + 1)]
        lines = [
            "  ".join(row[k].ljust(widths[k]) for k in range(n1 + 1)).rstrip()
            for row in table
        ]
        return "\n".join(lines) + "\n"


def normal_form(game: Game, start: int | None = None, cap: int | None = None) -> NormalForm:
    g = game.graph
    start = _require_start(game, start)
    count = situation_count(g)
    limit = resolve_cap(cap)
    if count > limit:
        raise TooLarge(count, limit)
    axes = []
    for p in g.players:
        strategies = player_strategies(g, p, cap=limit)
        axes.append(tuple(tuple(sorted(s.items())) for s in strategies))
    # a terminal game's costs depend only on the outcome, an SP game's on the play
    by_play = isinstance(game, SPGame)
    vectors: dict = {}
    cells: dict[tuple[int, ...], tuple] = {}
    moves: list[int | None] = [None] * g.n_vertices
    for index in itertools.product(*(range(len(a)) for a in axes)):
        # the axes cover every non-terminal with one of its own moves
        for strategies, k in zip(axes, index):
            for v, t in strategies[k]:
                moves[v] = t
        play = trace(g, Situation(tuple(moves)), start)
        key = play if by_play else play.terminal
        vector = vectors.get(key)
        if vector is None:
            vector = vectors[key] = tuple(effective_cost(game, play, p) for p in g.players)
        cells[index] = vector
    ne = _ne_indices(axes, cells)
    return NormalForm(start=start, axes=tuple(axes), cells=cells, ne=ne)


def _ne_indices(axes, cells) -> frozenset[tuple[int, ...]]:
    n = len(axes)
    best: list[dict[tuple, object]] = [dict() for _ in range(n)]
    for index, costs in cells.items():
        for i in range(n):
            rest = index[:i] + index[i + 1:]
            cur = best[i].get(rest)
            if cur is None or costs[i] < cur:
                best[i][rest] = costs[i]
    out = set()
    for index, costs in cells.items():
        if all(costs[i] == best[i][index[:i] + index[i + 1:]] for i in range(n)):
            out.add(index)
    return frozenset(out)


def find_all_ne(game: Game, start: int | None = None, cap: int | None = None) -> list[Situation]:
    """Every Nash equilibrium from the given start, by full enumeration."""
    nf = normal_form(game, start, cap)
    found = [nf.situation_at(index, game.graph) for index in nf.ne]
    return sorted(found, key=lambda s: s.moves)


def find_all_une(game: Game, cap: int | None = None) -> list[Situation]:
    """Situations that are Nash equilibria from every non-terminal start."""
    g = game.graph
    if not g.nonterminals:
        return [Situation.of(g, {})]  # the one situation; nobody can deviate
    surviving = None
    for start in g.nonterminals:
        nf = normal_form(game, start, cap)
        surviving = nf.ne if surviving is None else surviving & nf.ne
        if not surviving:
            return []
    found = [nf.situation_at(index, g) for index in surviving]
    return sorted(found, key=lambda s: s.moves)


@dataclass(frozen=True)
class VerifyReport:
    """Result of an equilibrium check, with a concrete witness on failure."""

    ok: bool
    player: int | None = None
    start: int | None = None
    deviation: Situation | None = None
    note: str = ""

    def __bool__(self) -> bool:
        return self.ok


def verify_ne_sp(
    game: SPGame,
    situation: Situation,
    start: int | None = None,
    cap: int | None = None,
) -> VerifyReport:
    """NE check for shortest path games.

    For positive games each player's best deviation is a one-player shortest
    path question, so no enumeration is needed. Otherwise falls back to
    exhaustive per-player strategy enumeration.
    """
    start = _require_start(game, start)
    g = game.graph
    if _edge_positive(game):
        # an infinite play costs +inf here; all sums run on the integer table
        play = trace(g, situation, start)
        walked = play.path_edges() if play.is_terminal else None
        for player in g.players:
            adj = one_player_out(g, player, situation.moves)
            weight = game._int_weight(player)
            dist = graphalg.lex_dist_to(adj, weight, g.terminals)
            reach = dist[start]
            better = reach is not None and (
                walked is None or reach[0] < sum(weight(u, v) for u, v in walked)
            )
            if better:
                path = graphalg.canonical_path(start, adj, weight, dist)
                override = {u: w for u, w in zip(path, path[1:]) if g.owner[u] == player}
                cost = Fraction(reach[0], game._int_costs[0])
                return VerifyReport(
                    False, player, start, situation.replace(override),
                    note=f"player {player} can reach a terminal at cost {cost}",
                )
        return VerifyReport(True, start=start)
    return _verify_exhaustive(game, situation, start, cap)


def verify_ne_terminal(
    game: TerminalGame,
    situation: Situation,
    start: int | None = None,
    cap: int | None = None,
) -> VerifyReport:
    start = _require_start(game, start)
    return _verify_exhaustive(game, situation, start, cap)


def verify_une(game: Game, situation: Situation, cap: int | None = None) -> VerifyReport:
    """UNE check: exhaustive per-player deviations from every start."""
    return _verify_exhaustive(game, situation, None, cap)


def _verify_exhaustive(game: Game, situation: Situation, start: int | None, cap) -> VerifyReport:
    """Exhaustive deviation check from ``start``, or from every start if None.

    The witness is the first strict improvement in loop order. Every
    deviation is traced; an SP game costs each distinct play once per
    player, and a terminal game compares outcomes against the set of those
    that beat the current cost.
    """
    g = game.graph
    starts = g.nonterminals if start is None else (start,)
    base = {v: trace(g, situation, v) for v in starts}
    terminal = isinstance(game, TerminalGame)
    for player in g.players:
        strategies = player_strategies(g, player, cap)
        seen: dict[Play, ExtCost] = {}
        for v in starts:
            if terminal:
                cur = terminal_cost(game, base[v], player)
                wins = {w for w in g.terminals if game.cost_at(w, player) < cur}
                if game.cycle_cost(player) < cur:
                    wins.add(None)
            else:
                cur = _sp_cost_once(game, base[v], player, seen)
            for strategy in strategies:
                deviated = situation.replace(strategy)
                play = trace(g, deviated, v)
                if terminal:
                    if play.terminal not in wins:
                        continue
                    alt = terminal_cost(game, play, player)
                else:
                    alt = _sp_cost_once(game, play, player, seen)
                    if not alt < cur:
                        continue
                return VerifyReport(
                    False, player, v, deviated,
                    note=f"player {player} improves {cur} -> {alt} from {g.name(v)}",
                )
    return VerifyReport(True, start=start)


def _sp_cost_once(game: SPGame, play: Play, player: int, seen: dict[Play, ExtCost]) -> ExtCost:
    """``sp_cost`` of the play, computed on its first sight in ``seen``."""
    cost = seen.get(play)
    if cost is None:
        cost = seen[play] = sp_cost(game, play, player)
    return cost
