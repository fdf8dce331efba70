"""Brute-force ground truth: enumeration, normal forms, NE/UNE search.

Everything here is exhaustive, but ``_play_tree`` walks each distinct play once:

- a normal form walks the tree of plays from its start and values each
  distinct play on the game's integer cost table as it reaches it; only
  ``normal_form`` turns the values into exact cost cells, and the
  equilibrium searches build none;
- a deviation check values each start's current play with
  ``play._walk_rank`` on the player's row of the integer cost table, and
  walks the tree of the player's deviation plays once per distinct first
  branch (the first vertex of a start's current play where the player has
  a choice), shared by every start that reaches it; only a failing
  report's witness is traced and costed exactly;
- the equilibrium scan ranks each player's values once per play and takes
  the line minima on those integer ranks.

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
from operator import add, and_, eq, getitem, gt, itemgetter, sub
from typing import Iterator, Mapping

from . import graphalg
from .errors import PathgamesError, PreconditionError, TooLarge, ZeroSumMixedCycle
from .model import (
    MINUS_INF,
    PLUS_INF,
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
from .play import (
    _MIXED,
    _ON_WALK,
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

    Shortest path games yield ExtCost, terminal games plain Fraction. The
    oracle compares plays on the integer cost table and calls this only for
    a failing report's note; ``normal_form``'s cells hold the same values.
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
    vector, each cost as ``effective_cost`` gives it; ``ne`` holds the
    indices that are unilaterally minimal for every player at once.
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
    start = _require_start(game, start)
    axes, walked = _walked(game, (start,), cap)
    flat, values, ne = next(walked)
    scale, infinite = game._int_costs[0], {1: PLUS_INF, -1: MINUS_INF}
    if isinstance(game, SPGame):  # effective_cost's values, sp_cost's constants shared
        exact = lambda v: infinite[v[0]] if v[0] else ExtCost(0, Fraction(v[1], scale))
    else:
        exact = lambda v: Fraction(v, scale)
    vectors = [tuple(map(exact, vector)) for vector in values]
    grid = itertools.product(*map(range, map(len, axes)))
    cells = dict(zip(grid, map(vectors.__getitem__, flat)))
    return NormalForm(start=start, axes=axes, cells=cells, ne=ne)


def _walked(game: Game, starts, cap) -> tuple[tuple, Iterator[tuple]]:
    """The axes, built once, and each start's ``(flat, values, ne)`` in turn.

    ``flat`` lists each cell's leaf: a leaf of ``_play_tree`` fills the
    sub-box of cells that agree with its moves on its walk. The ``_MIXED``
    leaf with the smallest first cell raises ZeroSumMixedCycle for its
    lowest such player, as costing the leaves in cell order would.
    """
    g = game.graph
    count = situation_count(g)
    limit = _within_cap(count, cap)
    axes = tuple(
        tuple(tuple(s.items()) for s in player_strategies(g, p, cap=limit)) for p in g.players
    )
    shape = [len(a) for a in axes]
    verts = sorted(g.nonterminals, key=g.owner.__getitem__)  # the cells' radix: by player, then id
    rows = [g.out[v] for v in verts]
    offsets = _offsets(verts, rows)
    by_play = isinstance(game, SPGame)
    table = _table(game._int_costs[1], by_play)

    def walked():
        for start in starts:
            flat, values, mixed = [0] * count, [], None
            leaves = _play_tree(g.out, g.owner, start, offsets, table, by_play) if count else ()
            for leaf, (value, first, on_walk) in enumerate(leaves):
                if by_play and _MIXED in value and (mixed is None or first < mixed[0]):
                    mixed = first, value.index(_MIXED) + 1
                box = [first]
                for u, moves in offsets.items():
                    if u not in on_walk:
                        box = [c + o for o in moves for c in box]
                for c in box:
                    flat[c] = leaf
                values.append(value)
            if mixed:
                situation = Situation.of(g, _cell_moves(verts, rows, mixed[0]))
                raise ZeroSumMixedCycle(mixed[1], trace(g, situation, start).cycle)
            yield flat, values, _ne_indices(shape, flat, values)

    return axes, walked()


def _offsets(verts, rows) -> dict:
    """Each of ``verts`` with a choice to its moves' cell offsets, in the mixed
    radix over ``rows`` that ``itertools.product`` orders, the last fastest."""
    offsets, step = {}, 1
    for v, targets in zip(reversed(verts), reversed(rows)):
        if len(targets) > 1:
            offsets[v] = range(0, len(targets) * step, step)
        step *= len(targets)
    return offsets


def _cell_moves(verts, rows, cell: int) -> dict[int, int]:
    """The move at each of ``verts`` in the cell at ``cell`` of ``_offsets``'s radix."""
    moves = {}
    for v, targets in zip(reversed(verts), reversed(rows)):
        cell, k = divmod(cell, len(targets))
        moves[v] = targets[k]
    return moves


def _table(costs, by_play: bool) -> dict:
    """Each move (or outcome) to its cost on each integer row of ``costs``,
    then, by play, whether each of those is nonzero."""
    keys = list(costs[0])
    columns = [list(map(row.__getitem__, keys)) for row in costs]
    if by_play:
        columns += [list(map(bool, column)) for column in columns]
    return dict(zip(keys, zip(*columns)))


def _play_tree(rows, owner, start: int, offsets, table, by_play: bool) -> Iterator[tuple]:
    """``(value, first cell, live walk)`` for each distinct play from ``start``.

    The walk branches over ``rows[v]`` at each vertex not yet on it; a leaf
    (a terminal or a repeated vertex) is one play. A cell is
    ``sum(offsets[v][pos_v])`` over the vertices with a choice, and a leaf's
    first cell takes position 0 off its walk. The live walk maps the leaf's
    walk, in order, to each vertex's sums; it holds until the next leaf. An
    explicit stack keeps long plays off the interpreter's.

    The leaf rule is ``play._sp_rank`` on each cost column of ``_table``'s
    ``table``: the walk keeps, per vertex, the running total and count of
    nonzero moves. A terminal leaf is ``(0, total)``. A cycle closing at
    ``w`` with sum ``s = total - total(w)`` is ``(1, 0)`` or ``(-1, 0)`` by
    its sign, else ``_MIXED`` if the count grew since ``w``, else ``(0,
    total(w))``. Terminal games take ``table[t]``, or ``table[None]`` for a
    cycle.
    """
    n = len(next(iter(table.values()))) // 2  # by play, n cost columns, then n counts
    finite = (0,) * n
    on_walk: dict = {}  # the walk in order, each vertex to its totals and nonzero counts
    todo = [(start, 0, 0, finite * 2 if by_play else ())]  # vertex, depth, first cell, sums
    while todo:
        v, depth, base, sums = todo.pop()
        while len(on_walk) > depth:
            on_walk.popitem()
        on_walk[v] = sums
        offset = offsets.get(v, (0,))
        for i, w in enumerate(rows[v]):
            first = base + offset[i]
            here = tuple(map(add, sums, table[v, w])) if by_play else sums
            if owner[w] is not None and w not in on_walk:
                todo.append((w, depth + 1, first, here))
                continue
            if not by_play:
                value = table[w if owner[w] is None else None]
            elif owner[w] is None:
                value = tuple(zip(finite, here))
            else:  # the cycle from w back to w
                at = on_walk[w]
                value = tuple(
                    ((1 if s > 0 else -1), 0) if s else _MIXED if grew else (0, a)
                    for s, grew, a in zip(map(sub, here, at), map(gt, here[n:], at[n:]), at))
            yield value, first, on_walk


def _ne_indices(shape, flat, values) -> frozenset[tuple[int, ...]]:
    """Indices of the cells whose value is minimal on every player's line.

    ``flat`` lists each cell's leaf in ``itertools.product`` order over
    ``shape``, so the cell at index ``(k_1, ..., k_n)`` sits at the
    mixed-radix position ``sum(k_i * stride_i)``, the last axis fastest;
    ``values[leaf]`` is the leaf's value per player. Each player's values
    are ranked once per leaf (equal values get equal ranks), the ranks are
    mapped to the cells through ``flat``, and the line minima are taken on
    those integer ranks.
    """
    if not flat:
        return frozenset()
    good = [True] * len(flat)
    stride = len(flat)
    for n, column in zip(shape, zip(*values)):
        stride //= n
        if n == 1:
            continue  # one strategy: every cell is its own line
        level = {value: k for k, value in enumerate(sorted(set(column)))}
        ranks = list(map(list(map(level.__getitem__, column)).__getitem__, flat))
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
    axes, walked = _walked(game, (_require_start(game, start),), cap)
    return _situations_at(game.graph, axes, next(walked)[2])


def find_all_une(game: Game, cap: int | None = None) -> list[Situation]:
    """Situations that are Nash equilibria from every non-terminal start."""
    g = game.graph
    if not g.nonterminals:
        return [Situation.of(g, {})]  # the one situation; nobody can deviate
    axes, walked = _walked(game, g.nonterminals, cap)
    surviving = None
    for _, _, ne in walked:
        surviving = ne if surviving is None else surviving & ne
        if not surviving:
            return []
    return _situations_at(g, axes, surviving)


def _situations_at(graph: GameGraph, axes, indices) -> list[Situation]:
    """The situations at ``indices`` of a normal form over ``axes``, sorted
    by their moves.

    Each axis strategy's moves are checked against the edges once, where
    ``Situation.of`` would check them once per situation. A situation's
    moves are its players' targets one after another (each player's
    vertices in id order), behind the None every terminal takes, put in
    vertex order by one ``itemgetter``.
    """
    chain = itertools.chain.from_iterable
    if not graph.edge_set.issuperset(chain(chain(axes))):
        bad = next(m for m in chain(chain(axes)) if m not in graph.edge_set)
        raise PathgamesError(f"chosen move {bad} is not an edge")
    second = itemgetter(1)
    targets = [[tuple(map(second, s)) for s in axis] for axis in axes]
    slot = {v: k for k, v in enumerate(sorted(graph.nonterminals, key=graph.owner.__getitem__), 1)}
    order = [slot.get(v, 0) for v in range(graph.n_vertices)]
    pick = itemgetter(*order) if len(order) > 1 else lambda row: (row[order[0]],)
    found = sorted(pick(sum(map(getitem, targets, index), (None,))) for index in indices)
    return list(map(Situation, found))


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
    distinct ``b`` has one ``_play_tree`` of deviation plays on the player's
    row alone, branching at the player's vertices and following
    ``situation`` elsewhere, shared by all the starts that reach it. Why a
    start's events are the events of its ``b``'s tree, valued from ``b``:
    the prefix has no choice, so it adds no cell offset, and it adds the
    same cost to every finite value, the current one included. A play that
    closes a cycle into a prefix vertex ``x`` would, valued from ``b``, run
    forced from ``x`` back to ``b`` and close there: the same cycle, so the
    same sum and the same mixed verdict; for an all-zero cycle ``x -> b``
    costs 0, so the approach cost from the start is the one from ``b`` plus
    the prefix cost. A start's first event is then the smallest first cell
    among its tree's events.
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
        offsets = _offsets(verts, rows)
        tree = list(zip(moves))  # the situation's move at each vertex, the player's every move
        for v, targets in zip(verts, rows):
            tree[v] = targets
        table = _table([row], by_play)
        branch_of: dict = {}
        first_event: dict = {}  # each distinct first branch to its smallest event cell, or None
        witness = None
        for i in range(limit):
            b = _first_branch(g, player, moves, starts[i], branch_of)
            if b is None:
                continue  # the current play is the only one
            if b not in first_event:
                now = memo[b]  # b lies on the current play from starts[i]
                leaves = _play_tree(tree, g.owner, b, offsets, table, by_play)
                events = (cell for (value,), cell, _ in leaves if value is _MIXED or value < now)
                first_event[b] = min(events, default=None)
            if first_event[b] is not None:
                limit, witness = i, first_event[b]
                break
        if limit == len(starts):
            continue
        v = starts[limit]
        before = effective_cost(game, trace(g, situation, v), player)
        deviated = situation.replace(_cell_moves(verts, rows, witness))
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
