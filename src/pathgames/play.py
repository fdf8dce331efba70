"""Tracing plays and evaluating effective costs under both game semantics."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InternalCheckFailed, PreconditionError, ZeroSumMixedCycle
from .model import (
    MINUS_INF,
    PLUS_INF,
    ExtCost,
    GameGraph,
    SPGame,
    Situation,
    TerminalGame,
)


@dataclass(frozen=True)
class Play:
    """The unique walk induced by a situation from a start vertex.

    Exactly one of ``terminal`` and ``cycle`` is set. For terminal plays,
    ``prefix`` lists the vertices strictly before the terminal. For infinite
    plays, ``prefix`` ends at the vertex where the repeated cycle is entered
    and ``cycle`` lists that cycle starting from the entry vertex.
    """

    prefix: tuple[int, ...]
    terminal: int | None = None
    cycle: tuple[int, ...] | None = None

    @property
    def is_terminal(self) -> bool:
        return self.terminal is not None

    def path_edges(self) -> list[tuple[int, int]]:
        """Edges walked before the outcome, including the move into a terminal."""
        verts = list(self.prefix)
        if self.terminal is not None:
            verts.append(self.terminal)
        return list(zip(verts, verts[1:]))

    def cycle_edges(self) -> list[tuple[int, int]]:
        if self.cycle is None:
            raise InternalCheckFailed("a terminal play has no cycle")
        closed = list(self.cycle) + [self.cycle[0]]
        return list(zip(closed, closed[1:]))


def trace(graph: GameGraph, situation: Situation, start: int) -> Play:
    """Follow the situation from start until a terminal or a repeated vertex.

    A start outside 0..|V|-1 raises PreconditionError.
    """
    owner = graph.owner
    moves = situation.moves
    if not 0 <= start < len(owner):
        raise PreconditionError(f"start vertex {start} outside 0..{len(owner) - 1}")
    if owner[start] is None:
        return Play(prefix=(), terminal=start)
    walk = [start]
    seen = {start: 0}
    v = start
    while True:
        v = moves[v]
        if v is None:
            raise InternalCheckFailed(f"situation has no move at vertex {walk[-1]}")
        if owner[v] is None:
            return Play(prefix=tuple(walk), terminal=v)
        if v in seen:
            k = seen[v]
            return Play(prefix=tuple(walk[: k + 1]), cycle=tuple(walk[k:]))
        seen[v] = len(walk)
        walk.append(v)


def outcomes(graph: GameGraph, situation: Situation) -> list[int | None]:
    """Terminal reached from every start vertex, or None for an infinite play.

    One pass over the functional successor graph: each vertex is walked at
    most once, and a walk stops at a terminal, at a vertex whose outcome is
    already known, or when it closes a cycle of its own. A non-terminal
    without a move raises InternalCheckFailed.
    """
    owner = graph.owner
    moves = situation.moves
    result: list[int | None] = [None] * graph.n_vertices
    # 0 unvisited, 1 on the current walk, 2 outcome known
    state = [0] * graph.n_vertices
    for start in range(graph.n_vertices):
        walk = []
        v = start
        while state[v] == 0:
            if owner[v] is None:
                result[v] = v
                state[v] = 2
                break
            state[v] = 1
            walk.append(v)
            v = moves[v]
            if v is None:
                raise InternalCheckFailed(f"situation has no move at vertex {walk[-1]}")
        end = result[v] if state[v] == 2 else None
        for u in walk:
            result[u] = end
            state[u] = 2
    return result


def sp_cost(game: SPGame, play: Play, player: int) -> ExtCost:
    """Total cost of a play for one player under shortest-path semantics.

    The exact form of ``_sp_rank`` on the player's row of the game's
    integer cost table: the total divided by the table's scale. Raises
    ZeroSumMixedCycle where ``_sp_rank`` does.
    """
    scale, rows = game._int_costs
    rank, total = _sp_rank(rows[player - 1], play, player)
    if rank:  # the shared constants, so equal costs often compare by identity
        return PLUS_INF if rank > 0 else MINUS_INF
    return ExtCost(0, Fraction(total, scale))


def _sp_rank(row, play: Play, player: int) -> tuple[int, int]:
    """``(rank, total)`` of a play on one player's scaled integer cost row.

    Rank -1/0/1 stands for -inf/finite/+inf, and the tuples order as the
    costs do. Terminal plays sum the move costs. Cycle plays take the sign
    of the cycle sum, with total 0; a zero-sum cycle is only meaningful
    when every one of its edges costs zero (else ZeroSumMixedCycle), in
    which case the total is the finite approach cost.
    """
    cost = row.__getitem__
    if play.is_terminal:
        return 0, sum(map(cost, play.path_edges()))
    cyc = list(map(cost, play.cycle_edges()))
    s = sum(cyc)
    if s:
        return (1 if s > 0 else -1), 0
    if any(cyc):
        raise ZeroSumMixedCycle(player, play.cycle)
    return 0, sum(map(cost, zip(play.prefix, play.prefix[1:])))


_MIXED = object()  # ``_walk_rank``'s value where ``_sp_rank`` raises ZeroSumMixedCycle
_ON_WALK = object()


def _walk_rank(owner, moves, row, start: int, memo: dict, by_play: bool):
    """The play from ``start`` valued on one player's integer cost row.

    ``_sp_rank``'s ``(rank, total)`` when ``by_play`` (_MIXED where it
    raises), else ``row[outcome]`` (None for an infinite play). ``memo``
    holds the values of vertices walked before under the same ``moves`` and
    row, and gets every vertex this walk passes; on a terminal or all-zero
    cycle suffix, ``total(v) = row[v, s(v)] + total(s(v))``.
    """
    if start in memo:
        return memo[start]
    walk, v = [], start
    while v not in memo and owner[v] is not None:
        memo[v] = _ON_WALK
        walk.append(v)
        v = moves[v]
    value = memo[v] if v in memo else (0, 0) if by_play else row[v]
    if value is _ON_WALK and not by_play:  # the walk closed a cycle at v
        value = row[None]
    elif value is _ON_WALK:
        cyc = [row[u, moves[u]] for u in walk[walk.index(v):]]
        s = sum(cyc)
        value = ((1 if s > 0 else -1), 0) if s else _MIXED if any(cyc) else (0, 0)
    if by_play and value is not _MIXED and not value[0]:
        total = value[1]
        for u in reversed(walk):
            total += row[u, moves[u]]
            memo[u] = (0, total)
    else:
        for u in walk:
            memo[u] = value
    return memo[start]


def terminal_cost(game: TerminalGame, play: Play, player: int) -> Fraction:
    """Effective cost of a play under terminal-game semantics."""
    if play.is_terminal:
        return game.cost_at(play.terminal, player)
    return game.cycle_cost(player)
