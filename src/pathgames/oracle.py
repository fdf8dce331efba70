"""Brute-force ground truth: enumeration, normal forms, NE/UNE search.

Everything here is exhaustive, but each distinct play is walked once:

- a normal form walks the tree of plays from its start and costs each
  distinct play (shortest path games) or outcome (terminal games) once;
- a deviation check values each start's current play with
  ``play._walk_rank`` on the player's row of the integer cost table, and
  walks the tree of the player's deviation plays once per distinct first
  branch (the first vertex of a start's current play where the player has
  a choice), shared by every start that reaches it; only a failing
  report's witness is traced and costed exactly;
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
from operator import and_, eq, getitem
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
from .play import (
    _MIXED,
    _ON_WALK,
    Play,
    _sp_rank,
    _walk_rank,
    sp_cost,
    terminal_cost,
    trace,
)

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
    return _situations_at(game.graph, nf.axes, nf.ne)


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
    return _situations_at(g, nf.axes, surviving)


def _situations_at(graph: GameGraph, axes, indices) -> list[Situation]:
    """The situations at ``indices`` of a normal form over ``axes``, sorted
    by their moves.

    Each axis strategy's moves are checked against the edges once, where
    ``Situation.of`` would check them once per situation.
    """
    chain = itertools.chain.from_iterable
    if not graph.edge_set.issuperset(chain(chain(axes))):
        bad = next(m for m in chain(chain(axes)) if m not in graph.edge_set)
        raise PathgamesError(f"chosen move {bad} is not an edge")
    found = []
    for index in indices:
        choice = dict(chain(map(getitem, axes, index)))
        found.append(tuple(map(choice.get, range(graph.n_vertices))))
    found.sort()
    return [Situation(moves) for moves in found]


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
    row, or a play whose value is undefined (``play._MIXED``). An undefined
    current play ends the scan at its start, and its exact costing raises
    ZeroSumMixedCycle.

    Each start's current play is valued by ``play._walk_rank``. Every
    deviation from a start follows the same forced moves up to the first
    vertex where the player has a choice, its first branch ``b``; each
    distinct ``b`` has one tree of deviation plays (``_deviation_leaves``),
    shared by all the starts that reach it. Why a start's events are the
    events of its ``b``'s tree, valued from ``b``: the prefix has no choice,
    so it adds no cell offset, and it adds the same cost to every finite
    value, the current one included. A play that closes a cycle into a
    prefix vertex ``x`` would, valued from ``b``, run forced from ``x`` back
    to ``b`` and close there: the same cycle, so the same sum and the same
    mixed verdict; for an all-zero cycle ``x -> b`` costs 0, so the approach
    cost from the start is the one from ``b`` plus the prefix cost. A
    start's first event is then the smallest first cell among its tree's
    events.
    """
    g = game.graph
    starts = g.nonterminals if start is None else (start,)
    by_play = isinstance(game, SPGame)
    moves = situation.moves
    for player in g.players:
        verts, rows = _own_rows(g, player, cap)
        row = game._int_costs[1][player - 1]
        memo: dict = {}
        cur = [_walk_rank(g.owner, moves, row, v, memo, by_play) for v in starts]
        limit = next((i for i, c in enumerate(cur) if c is _MIXED), len(starts))
        stride, step = {}, 1
        for v, targets in zip(reversed(verts), reversed(rows)):
            stride[v], step = step, step * len(targets)
        branch_of: dict = {}
        first_event: dict = {}  # each distinct first branch to its smallest event cell, or None
        witness = None
        for i in range(limit):
            b = _first_branch(g, player, moves, starts[i], branch_of)
            if b is None:
                continue  # the current play is the only one
            if b not in first_event:
                now = memo[b]  # b lies on the current play from starts[i]
                leaves = _deviation_leaves(g, moves, row, player, b, stride, by_play)
                first_event[b] = min(
                    (cell for value, cell in leaves if value is _MIXED or value < now), default=None
                )
            if first_event[b] is not None:
                limit, witness = i, first_event[b]
                break
        if limit == len(starts):
            continue
        v = starts[limit]
        before = effective_cost(game, trace(g, situation, v), player)
        event, cell = {}, witness
        for u, targets in zip(reversed(verts), reversed(rows)):
            cell, k = divmod(cell, len(targets))
            event[u] = targets[k]
        deviated = situation.replace(event)
        after = effective_cost(game, trace(g, deviated, v), player)
        return VerifyReport(
            False, player, v, deviated,
            note=f"player {player} improves {before} -> {after} from {g.name(v)}",
        )
    return VerifyReport(True, start=start)


def _first_branch(g: GameGraph, player: int, moves, start: int, memo: dict) -> int | None:
    """The first vertex on the play from ``start`` where ``player`` has a
    choice, or None if the play reaches a terminal or closes a cycle first.

    ``memo`` holds the answers for vertices walked before under the same
    ``moves`` and player, and gets every vertex this walk passes.
    """
    out, owner = g.out, g.owner
    walk, v = [], start
    while v not in memo:
        if owner[v] is None or (owner[v] == player and len(out[v]) > 1):
            branch = None if owner[v] is None else v
            break
        memo[v] = _ON_WALK
        walk.append(v)
        v = moves[v]
    else:
        branch = memo[v]
        if branch is _ON_WALK:  # the forced play closed a cycle
            branch = None
    for u in walk:
        memo[u] = branch
    return branch


def _deviation_leaves(
    g: GameGraph, moves, row, player: int, root: int, stride, by_play: bool
) -> list:
    """``(value, first cell)`` of each distinct play from ``root`` as
    ``player`` deviates and everyone else keeps ``moves``.

    The walk branches over ``g.out[v]`` at the player's vertices and follows
    ``moves[v]`` elsewhere; a leaf is a terminal or a repeated vertex. Its
    value is ``_walk_rank``'s from ``root`` on the player's ``row``
    (``by_play`` as there). Its first cell is ``sum(pos_v * stride[v])``
    over the player's vertices on the walk, the first of its strategies in
    ``itertools.product`` order. An explicit stack keeps long plays off the
    interpreter's.
    """
    out, owner = g.out, g.owner
    leaves = []
    on_walk: dict = {}  # the walk in order, each vertex to its cost and nonzero moves from root
    todo = [(root, 0, 0, 0, 0)]  # a vertex to enter, its depth, first cell, cost, nonzero moves
    while todo:
        v, depth, first, total, nonzero = todo.pop()
        while len(on_walk) > depth:
            on_walk.popitem()
        on_walk[v] = total, nonzero
        targets, step = (out[v], stride[v]) if owner[v] == player else ((moves[v],), 0)
        for i, w in enumerate(targets):
            c = row[v, w] if by_play else 0
            if owner[w] is None:
                value = (0, total + c) if by_play else row[w]
            elif w not in on_walk:
                todo.append((w, depth + 1, first + i * step, total + c, nonzero + (c != 0)))
                continue
            elif by_play:  # the cycle from w back to w
                at, nonzero_at = on_walk[w]
                s = total + c - at
                mixed = nonzero + (c != 0) > nonzero_at
                value = ((1 if s > 0 else -1), 0) if s else _MIXED if mixed else (0, at)
            else:
                value = row[None]
            leaves.append((value, first + i * step))
    return leaves
