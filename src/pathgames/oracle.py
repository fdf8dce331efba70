"""Brute-force ground truth: enumeration, normal forms, NE/UNE search.

Everything here is exhaustive, but each distinct play is walked once:

- a normal form walks the tree of plays from its start and costs each
  distinct play (shortest path games) or outcome (terminal games) once;
- a deviation check values each of a player's strategies from every start
  with ``play._walk_rank`` on the player's row of the integer cost table,
  with a memo that lives for that deviation only; only a failing report's
  witness is traced and costed exactly;
- the equilibrium scan of a normal form ranks each player's cost once per
  distinct cost vector and takes the line minima on those integer ranks.

The enumeration cap (default 10**6, overridable via the PATHGAMES_ENUM_CAP
environment variable or per call; a negative cap is a precondition error)
keeps accidental blow-ups from hanging a session; exceeding it raises
TooLarge rather than sampling.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from fractions import Fraction
from math import prod
from operator import and_, eq
from typing import Iterator, Mapping

from . import graphalg
from .errors import PathgamesError, PreconditionError, TooLarge
from .model import (
    Game,
    GameGraph,
    SPGame,
    Situation,
    TerminalGame,
    _edge_positive,
    _start_or_initial,
    one_player_out,
)
from .play import _MIXED, Play, _sp_rank, _walk_rank, sp_cost, terminal_cost, trace

DEFAULT_CAP = 10**6
CAP_ENV_VAR = "PATHGAMES_ENUM_CAP"


def resolve_cap(cap: int | None = None) -> int:
    """``cap``, else the PATHGAMES_ENUM_CAP variable, else DEFAULT_CAP.

    A negative cap, or a variable that is not an integer, raises
    PreconditionError.
    """
    source = "enumeration cap"
    if cap is None:
        env = os.environ.get(CAP_ENV_VAR)
        if not env:
            return DEFAULT_CAP
        try:
            cap = int(env)
        except ValueError:
            raise PreconditionError(f"{CAP_ENV_VAR} must be an integer, got {env!r}") from None
        source = CAP_ENV_VAR
    if cap < 0:
        raise PreconditionError(f"{source} must not be negative, got {cap}")
    return cap


def _within_cap(count: int, cap: int | None) -> int:
    """The resolved cap; TooLarge if ``count`` exceeds it."""
    limit = resolve_cap(cap)
    if count > limit:
        raise TooLarge(count, limit)
    return limit


def _graph_of(game_or_graph) -> GameGraph:
    return game_or_graph if isinstance(game_or_graph, GameGraph) else game_or_graph.graph


def situation_count(game_or_graph) -> int:
    g = _graph_of(game_or_graph)
    return prod(len(g.out[v]) for v in g.nonterminals)


def enumerate_situations(game_or_graph, cap: int | None = None) -> Iterator[Situation]:
    """All situations in lexicographic order by vertex id, then target id."""
    g = _graph_of(game_or_graph)
    _within_cap(situation_count(g), cap)
    verts = g.nonterminals
    for combo in itertools.product(*(g.out[v] for v in verts)):
        moves: list[int | None] = [None] * g.n_vertices
        for v, t in zip(verts, combo):
            moves[v] = t
        yield Situation(tuple(moves))


def _own_rows(graph: GameGraph, player: int, cap) -> tuple[list[int], list[tuple[int, ...]]]:
    """The player's vertices and their move rows; TooLarge past the cap.

    ``itertools.product`` of the rows lists the player's strategies in
    lexicographic order.
    """
    verts = [v for v in graph.nonterminals if graph.owner[v] == player]
    rows = [graph.out[v] for v in verts]
    _within_cap(prod(map(len, rows)), cap)
    return verts, rows


def player_strategies(
    graph: GameGraph, player: int, cap: int | None = None
) -> list[dict[int, int]]:
    """All strategies of one player, lexicographic, as vertex -> target maps."""
    verts, rows = _own_rows(graph, player, cap)
    return [dict(zip(verts, combo)) for combo in itertools.product(*rows)]


def effective_cost(game: Game, play, player: int):
    """A play's exact cost for one player under the game's semantics.

    Shortest path games yield ExtCost, terminal games plain Fraction.
    ``normal_form`` keeps these in its cells; the deviation checks compare
    on the integer cost table and call this only for a failing report.
    """
    if isinstance(game, SPGame):
        return sp_cost(game, play, player)
    return terminal_cost(game, play, player)


def _require_start(game: Game, start: int | None) -> int:
    start = _start_or_initial(game.graph, start)
    if start is None:
        raise PreconditionError("no start vertex given and game has no initial vertex")
    if game.graph.is_terminal(start):
        raise PreconditionError(f"start vertex {start} is a terminal")
    return start


def _require_moves(graph: GameGraph, situation: Situation) -> None:
    """PreconditionError unless each non-terminal moves along an out-edge, and no terminal."""
    moves = situation.moves
    if len(moves) != graph.n_vertices:
        raise PreconditionError(f"situation has {len(moves)} entries, not {graph.n_vertices}")
    for v, t in enumerate(moves):
        if (t is not None) if graph.owner[v] is None else (v, t) not in graph.edge_set:
            raise PreconditionError(f"situation entry {t} at vertex {v} is not a move")


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
    """Every situation's cost vector from ``start``, and the equilibria."""
    return next(_normal_forms(game, (_require_start(game, start),), cap))


def _normal_forms(game: Game, starts, cap) -> Iterator[NormalForm]:
    """The normal form from each start in turn; the axes are built once.

    The cells are costed in the order of each play's first cell, once per
    distinct play (shortest path games) or outcome (terminal games).
    """
    g = game.graph
    count = situation_count(g)
    limit = _within_cap(count, cap)
    axes = tuple(
        tuple(tuple(sorted(s.items())) for s in player_strategies(g, p, cap=limit))
        for p in g.players
    )
    shape = [len(a) for a in axes]
    # the cells' mixed radix: the vertices with a choice by player, then id
    branching = [v for v in sorted(g.nonterminals, key=g.owner.__getitem__) if len(g.out[v]) > 1]
    stride = {v: prod(len(g.out[u]) for u in branching[i + 1:]) for i, v in enumerate(branching)}
    by_play = isinstance(game, SPGame)
    for start in starts:
        flat, plays = _play_tree(g, start, count, branching, stride)
        vectors: dict = {}
        for leaf in dict.fromkeys(flat):
            key = leaf if by_play else plays[leaf].terminal
            if key not in vectors:
                vectors[key] = tuple(effective_cost(game, plays[leaf], p) for p in g.players)
            plays[leaf] = vectors[key]
        flat = list(map(plays.__getitem__, flat))
        cells = dict(zip(itertools.product(*map(range, shape)), flat))
        yield NormalForm(start=start, axes=axes, cells=cells, ne=_ne_indices(shape, flat))


def _play_tree(g: GameGraph, start: int, count: int, branching, stride) -> tuple[list, list]:
    """Each situation's play number from ``start``, and the distinct plays.

    The walk branches over ``g.out[v]`` at each vertex not yet on it. A leaf
    (a terminal or a repeated vertex) is one play; its situations are the
    sub-box of cells ``sum(pos_v * stride[v])`` that agree with its moves.
    An explicit stack keeps long plays off the interpreter's.
    """
    out, owner = g.out, g.owner
    flat, plays = [0] * count, []
    on_walk: dict[int, int] = {}  # the walk in order, each vertex to its depth
    todo = [(start, 0, 0)] if count else []  # a vertex to enter, its depth, its first cell
    while todo:
        v, depth, base = todo.pop()
        while len(on_walk) > depth:
            on_walk.popitem()
        on_walk[v] = depth
        for i, w in enumerate(out[v]):
            first = base + i * stride.get(v, 0)
            if owner[w] is not None and w not in on_walk:
                todo.append((w, depth + 1, first))
                continue
            walk, k = tuple(on_walk), on_walk.get(w)
            plays.append(Play(walk, w) if k is None else Play(walk[: k + 1], cycle=walk[k:]))
            box = [first]
            for u in branching:
                if u not in on_walk:
                    box = [c + j * stride[u] for j in range(len(out[u])) for c in box]
            for c in box:
                flat[c] = len(plays) - 1
    return flat, plays


def _ne_indices(shape, flat) -> frozenset[tuple[int, ...]]:
    """Indices of the cells whose cost is minimal on every player's line.

    ``flat`` lists the cost vectors in ``itertools.product`` order over
    ``shape``, so the cell at index ``(k_1, ..., k_n)`` sits at the
    mixed-radix position ``sum(k_i * stride_i)``, the last axis fastest.
    Each player's costs are ranked once per distinct vector object
    (``normal_form`` shares one per play or outcome; equal costs in
    distinct objects get equal ranks), and the line minima are taken on
    those integer ranks.
    """
    if not flat:
        return frozenset()
    ids = list(map(id, flat))
    distinct = dict(zip(ids, flat))
    good = [True] * len(flat)
    stride = len(flat)
    for i, n in enumerate(shape):
        stride //= n
        if n == 1:
            continue  # one strategy: every cell is its own line
        rank: dict[int, int] = {}
        previous = None
        for key, vector in sorted(distinct.items(), key=lambda item: item[1][i]):
            if previous is None or previous < vector[i]:
                level = len(rank)
            rank[key] = level
            previous = vector[i]
        ranks = list(map(rank.__getitem__, ids))
        good = list(map(and_, good, map(eq, ranks, _line_minima(ranks, n, stride))))
    return frozenset(itertools.compress(itertools.product(*map(range, shape)), good))


def _line_minima(ranks: list[int], n: int, stride: int) -> list[int]:
    """Each cell's smallest rank on its line along one axis of the grid.

    The axis has length ``n`` > 1, so the cell at ``o * n * stride +
    k * stride + u`` lies on line ``(o, u)``. A pass takes one slice per
    ``k`` and ``map(min, ...)`` across them, for all ``o`` at one ``u`` or
    for all ``u`` at one ``o``, whichever needs fewer passes.
    """
    block = n * stride
    if stride <= len(ranks) // block:
        passes = (
            [slice(u + k * stride, None, block) for k in range(n)]
            for u in range(stride)
        )
    else:
        passes = (
            [slice(o + k * stride, o + (k + 1) * stride) for k in range(n)]
            for o in range(0, len(ranks), block)
        )
    low = [0] * len(ranks)
    for lines in passes:
        minima = list(map(min, *(ranks[line] for line in lines)))
        for line in lines:
            low[line] = minima
    return low


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
    for nf in _normal_forms(game, g.nonterminals, cap):
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
    _require_moves(g, situation)
    if _edge_positive(game):
        # an infinite play costs +inf here; all sums run on the integer table
        play = trace(g, situation, start)
        for player in g.players:
            adj = one_player_out(g, player, situation.moves)
            weight = game._int_weight(player)
            dist = graphalg.lex_dist_to(adj, weight, g.terminals)
            reach = dist[start]
            row = game._int_costs[1][player - 1]
            if reach is not None and (0, reach[0]) < _sp_rank(row, play, player):
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
    _require_moves(game.graph, situation)
    return _verify_exhaustive(game, situation, start, cap)


def verify_une(game: Game, situation: Situation, cap: int | None = None) -> VerifyReport:
    """UNE check: exhaustive per-player deviations from every start."""
    _require_moves(game.graph, situation)
    return _verify_exhaustive(game, situation, None, cap)


def _verify_exhaustive(game: Game, situation: Situation, start: int | None, cap) -> VerifyReport:
    """Exhaustive deviation check from ``start``, or from every start if None.

    The witness is the first event in the order players, starts, then the
    player's strategies: a strict improvement on the player's integer cost
    row, or a play whose value is undefined (``play._MIXED``). Once an
    event is found at a start, later strategies scan only the starts before
    it; an undefined current play ends the scan at its start. The witness's
    exact costing raises ZeroSumMixedCycle for an undefined play.
    """
    g = game.graph
    starts = g.nonterminals if start is None else (start,)
    by_play = isinstance(game, SPGame)
    for player in g.players:
        verts, rows = _own_rows(g, player, cap)
        row = game._int_costs[1][player - 1]
        memo: dict = {}
        cur = [_walk_rank(g.owner, situation.moves, row, v, memo, by_play) for v in starts]
        limit = next((i for i, c in enumerate(cur) if c is _MIXED), len(starts))
        event = None  # the deviation of the first event, if it is not the current play's
        moves = list(situation.moves)
        for combo in itertools.product(*rows):
            if not limit:
                break
            for v, t in zip(verts, combo):
                moves[v] = t
            memo = {}
            for i in range(limit):
                value = _walk_rank(g.owner, moves, row, starts[i], memo, by_play)
                if value is _MIXED or value < cur[i]:
                    limit, event = i, combo
                    break
        if limit == len(starts):
            continue
        v = starts[limit]
        before = effective_cost(game, trace(g, situation, v), player)
        deviated = situation.replace(dict(zip(verts, event)))
        after = effective_cost(game, trace(g, deviated, v), player)
        return VerifyReport(
            False, player, v, deviated,
            note=f"player {player} improves {before} -> {after} from {g.name(v)}",
        )
    return VerifyReport(True, start=start)
