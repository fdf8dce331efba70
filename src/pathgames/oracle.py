"""Brute-force ground truth: enumeration, normal forms, NE/UNE search.

Everything here is deliberately simple and exhaustive: every situation or
deviation is traced with ``play.trace``. Only bookkeeping is shared within
one call, never a trace:

- a normal form costs each distinct play (shortest path games) or outcome
  (terminal games, whose costs depend only on the outcome) once;
- a deviation check builds each of a player's deviated situations once,
  traces it from every start and compares its play with the current one on
  the player's row of the game's integer cost table: the outcome's entry
  in a terminal game, ``play._sp_rank`` in a shortest path game. Exact
  costs are built only for a failing report's note;
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
from .play import _sp_rank, sp_cost, terminal_cost, trace

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


def _own_rows(graph: GameGraph, player: int, cap) -> tuple[list[int], list[tuple[int, ...]]]:
    """The player's vertices and their move rows; TooLarge past the cap.

    ``itertools.product`` of the rows lists the player's strategies in
    lexicographic order.
    """
    verts = [v for v in graph.nonterminals if graph.owner[v] == player]
    rows = [graph.out[v] for v in verts]
    count = prod(map(len, rows))
    limit = resolve_cap(cap)
    if count > limit:
        raise TooLarge(count, limit)
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
    flat: list[tuple] = []  # the cells' vectors in index order
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
        flat.append(vector)
    ne = _ne_indices([len(a) for a in axes], flat)
    return NormalForm(start=start, axes=tuple(axes), cells=cells, ne=ne)


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
    return _verify_exhaustive(game, situation, start, cap)


def verify_une(game: Game, situation: Situation, cap: int | None = None) -> VerifyReport:
    """UNE check: exhaustive per-player deviations from every start."""
    return _verify_exhaustive(game, situation, None, cap)


def _verify_exhaustive(game: Game, situation: Situation, start: int | None, cap) -> VerifyReport:
    """Exhaustive deviation check from ``start``, or from every start if None.

    The witness is the first strict improvement in loop order: players,
    then starts, then the player's strategies in lexicographic order. Each
    deviated situation is built once per player and traced from every
    start. Its play is compared with the current one on the player's row
    of the integer cost table: a terminal game reads the outcome's entry
    (the None key is the infinite-play cost), an SP game ranks the play
    with ``_sp_rank``, which raises ZeroSumMixedCycle where ``sp_cost``
    would. The exact costs are built only for the failing report's note.
    """
    g = game.graph
    starts = g.nonterminals if start is None else (start,)
    base = {v: trace(g, situation, v) for v in starts}
    terminal = isinstance(game, TerminalGame)
    for player in g.players:
        deviations = _deviations(g, situation, player, cap)
        row = game._int_costs[1][player - 1]
        for v in starts:
            now = base[v]
            cur = row[now.terminal] if terminal else _sp_rank(row, now, player)
            for deviated in deviations:
                play = trace(g, deviated, v)
                if (row[play.terminal] if terminal else _sp_rank(row, play, player)) < cur:
                    before = effective_cost(game, now, player)
                    after = effective_cost(game, play, player)
                    return VerifyReport(
                        False, player, v, deviated,
                        note=f"player {player} improves {before} -> {after} from {g.name(v)}",
                    )
    return VerifyReport(True, start=start)


def _deviations(graph: GameGraph, situation: Situation, player: int, cap) -> list[Situation]:
    """The situation with each of the player's strategies in place of its own.

    In ``player_strategies`` order; every deviation is written into one
    ``moves`` list, so no per-strategy map is built.
    """
    verts, rows = _own_rows(graph, player, cap)
    moves = list(situation.moves)
    deviations = []
    for combo in itertools.product(*rows):
        for v, t in zip(verts, combo):
            moves[v] = t
        deviations.append(Situation(tuple(moves)))
    return deviations
