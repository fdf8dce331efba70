"""NE construction for edge-symmetric n-person terminal games.

The game is first contracted so that every move joins vertices of different
players (loops stand for internal cycling). On the contracted game a NE is
built by a three-case analysis around the start vertex: lock an infinite
2-cycle, route to a neighbor's preferred terminal with protective moves, or
strip the start's own terminal moves and recurse. The result is lifted back
and checked exactly with the value tables of ``reductions``: every player's
cost from the start must equal their one-player relaxation's optimum there.
"""

from __future__ import annotations

from . import graphalg
from .errors import NotSymmetric, PreconditionError
from .model import (
    GameGraph,
    Situation,
    TerminalGame,
    is_edge_symmetric,
    lowest_id_situation,
)
from .play import terminal_cost, trace
from .reductions import _check_table_values, contract_small_game, lift_situation, response_tables


def _solve_contracted(game: TerminalGame, v0: int) -> Situation:
    g = game.graph
    if v0 not in graphalg.tree_toward(g._into, g.terminals, range(g.n_vertices)):
        return lowest_id_situation(g)

    own_terminals = [w for w in g.out[v0] if g.is_terminal(w)]
    if own_terminals:
        # Case 3: argue about the game without v0's terminal moves.
        t0 = game.best_terminal(v0)
        if all(g.is_terminal(w) for w in g.out[v0]):
            return lowest_id_situation(g).replace({v0: t0})
        sub = game.restricted(g.edge_set.difference((v0, w) for w in own_terminals))
        inner = _solve_contracted(sub, v0)
        me = g.owner[v0]
        inner_value = terminal_cost(sub, trace(sub.graph, inner, v0), me)
        if inner_value <= game.cost_at(t0, me):
            return Situation.of(g, dict(inner.items()))
        return Situation.of(g, {**dict(inner.items()), v0: t0})

    neighbors = [v for v in g.out[v0]]  # all non-terminal here
    dead_ends = [v for v in neighbors if game.best_terminal(v) is None]
    choice = dict(lowest_id_situation(g).items())
    if dead_ends:
        # Case 1: lock the infinite 2-cycle v0 <-> v1; nobody on it can
        # reach a terminal, so nobody involved can do better.
        return _lock_two_cycle(g, choice, v0, min(dead_ends))

    # Case 2: every neighbor has a terminal move; aim for the one whose
    # preferred terminal suits v0's controller best.
    me = g.owner[v0]
    v1 = min(neighbors, key=lambda v: (game.cost_at(game.best_terminal(v), me), v))
    t1 = game.best_terminal(v1)
    holder = g.owner[v1]
    if game.cost_at(t1, holder) < game.cycle_cost(holder):
        # Subcase 2.1: the play v0 -> v1 -> t1; v1's other exits are walled
        # off back to v1 and v0's alternatives route to their own terminals.
        for x in g.out[v1]:
            if not g.is_terminal(x) and x not in (v0, v1):
                choice[x] = v1
        v1_neighbors = set(g.out[v1])
        for v in neighbors:
            if v != v1 and v not in v1_neighbors:
                choice[v] = game.best_terminal(v)
        choice[v1] = t1
        choice[v0] = v1
        return Situation.of(g, choice)

    # Subcase 2.2: v1's controller weakly prefers cycling, so lock the
    # 2-cycle v0 <-> v1.
    return _lock_two_cycle(g, choice, v0, v1)


def _lock_two_cycle(g: GameGraph, choice: dict[int, int], v0: int, v1: int) -> Situation:
    """Lock v0 <-> v1: v0's other neighbors point to v0, v1's other non-terminal ones to v1."""
    neighbors = g.out[v0]
    for x in neighbors:
        if x != v0:
            choice[x] = v0
    for y in g.out[v1]:
        if not g.is_terminal(y) and y not in (v0, v1) and y not in neighbors:
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
    if start is None:
        start = g.initial
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

