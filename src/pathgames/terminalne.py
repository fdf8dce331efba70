"""NE construction for edge-symmetric n-person terminal games.

The game is first contracted so that every move joins vertices of different
players (loops stand for internal cycling). On the contracted game a NE is
built by a three-case analysis around the start vertex v0: lock an infinite
2-cycle, route to a neighbor's preferred terminal with protective moves, or,
when v0 has terminal moves, take v0's best terminal only if its controller
strictly prefers it to the play the first two cases give over v0's other
exits. The result is lifted back and checked exactly with the value tables
of ``reductions``: every player's cost from the start must equal their
one-player relaxation's optimum there.
"""

from __future__ import annotations

from . import graphalg
from .errors import NotSymmetric, PreconditionError
from .model import (
    GameGraph,
    Situation,
    TerminalGame,
    _start_or_initial,
    is_edge_symmetric,
    lowest_id_situation,
)
from .play import trace
from .reductions import _check_table_values, contract_small_game, lift_situation, response_tables


def _solve_contracted(game: TerminalGame, v0: int) -> Situation:
    g = game.graph
    exits = [w for w in g.out[v0] if not g.is_terminal(w)]
    # v0 reaches a terminal without its own terminal moves iff an exit
    # reaches one without passing v0: no smaller game is needed to ask
    reach = graphalg.tree_toward(g._into, g.terminals, set(g.nonterminals) - {v0})
    routed = any(x in reach for x in exits)
    t0 = game.best_terminal(v0)
    if t0 is None:
        return _route(game, v0, exits) if routed else lowest_id_situation(g)

    # Case 3: weigh the play without v0's terminal moves against v0's best one.
    if not exits:
        return lowest_id_situation(g).replace({v0: t0})
    inner = _route(game, v0, exits) if routed else lowest_id_situation(g).replace({v0: exits[0]})
    row = game._int_costs[1][g.owner[v0] - 1]
    if row[trace(g, inner, v0).terminal] <= row[t0]:
        return inner
    return inner.replace({v0: t0})


def _route(game: TerminalGame, v0: int, exits: list[int]) -> Situation:
    """Cases 1-2 for v0 restricted to its non-terminal ``exits``, some of
    which reach a terminal; v0 itself counts as a dead end."""
    g = game.graph
    dead_ends = [v for v in exits if v == v0 or game.best_terminal(v) is None]
    choice = dict(lowest_id_situation(g).items())
    if dead_ends:
        # Case 1: lock the infinite 2-cycle v0 <-> v1; nobody on it can
        # reach a terminal, so nobody involved can do better.
        return _lock_two_cycle(g, choice, v0, exits, min(dead_ends))

    # Case 2: every neighbor has a terminal move; aim for the one whose
    # preferred terminal suits v0's controller best.
    rows = game._int_costs[1]
    mine = rows[g.owner[v0] - 1]
    v1 = min(exits, key=lambda v: (mine[game.best_terminal(v)], v))
    t1 = game.best_terminal(v1)
    holder = rows[g.owner[v1] - 1]
    if holder[t1] < holder[None]:
        # Subcase 2.1: the play v0 -> v1 -> t1; v1's other exits are walled
        # off back to v1 and v0's alternatives route to their own terminals.
        for x in g.out[v1]:
            if not g.is_terminal(x) and x not in (v0, v1):
                choice[x] = v1
        v1_neighbors = set(g.out[v1])
        for v in exits:
            if v != v1 and v not in v1_neighbors:
                choice[v] = game.best_terminal(v)
        choice[v1] = t1
        choice[v0] = v1
        return Situation.of(g, choice)

    # Subcase 2.2: v1's controller weakly prefers cycling, so lock the
    # 2-cycle v0 <-> v1.
    return _lock_two_cycle(g, choice, v0, exits, v1)


def _lock_two_cycle(
    g: GameGraph, choice: dict[int, int], v0: int, exits: list[int], v1: int
) -> Situation:
    """Lock v0 <-> v1: v0's other exits point to v0, v1's other non-terminal neighbors to v1."""
    for x in exits:
        if x != v0:
            choice[x] = v0
    for y in g.out[v1]:
        if not g.is_terminal(y) and y not in (v0, v1) and y not in exits:
            choice[y] = v1
    choice[v0] = v1
    return Situation.of(g, choice)


def solve_theorem2(game: TerminalGame, start: int | None = None) -> Situation:
    """Construct a NE of an edge-symmetric terminal game from a start vertex.

    Raises NotSymmetric when the precondition fails and VerificationFailed
    if the constructed situation does not survive the deviation check, which
    would signal a bug here rather than a property of the input. The check
    compares each player's cost with the optimum of their one-player
    relaxation against the others' fixed moves, so it is exact and never
    enumerates strategies.
    """
    g = game.graph
    start = _start_or_initial(g, start)
    if start is None or g.is_terminal(start):
        raise PreconditionError("a non-terminal start vertex is required")
    if not is_edge_symmetric(g):
        raise NotSymmetric("the graph is not edge-symmetric")
    small, cmap = contract_small_game(game)
    inner = _solve_contracted(small, cmap.component[start])
    situation = lift_situation(inner, cmap)
    tables = (response_tables(game, situation, p) for p in g.players)
    _check_table_values(game, situation, tables, [start])
    return situation

