"""Reference copies of the exhaustive oracle's costing loops and scan.

These trace and re-cost every cell and every deviation from scratch, with
one ``effective_cost`` call per player and play and a ``Fraction`` or
``ExtCost`` comparison per deviation, and scan for equilibria by comparing
costs cell by cell. The library's normal form walks the tree of plays from
its start instead of tracing each cell, values each distinct play once on
the game's integer cost table and scans on integer ranks; its equilibrium
searches build no cost cells at all. Its deviation check walks each
player's tree of deviation plays once per distinct first branch on the
same table, shared by every start that reaches it, and traces and costs
exactly only a failing report's witness; tests require both to return
identical cells, equilibria, situations, reports and exceptions.
"""

from __future__ import annotations

import itertools

from pathgames import oracle
from pathgames.model import Situation
from pathgames.play import trace


def cost_vector(game, situation, start):
    """Every player's cost of the play from ``start``."""
    play = trace(game.graph, situation, start)
    return tuple(oracle.effective_cost(game, play, p) for p in game.graph.players)


def normal_form_cells(game, start):
    """``(axes, cells)`` of the normal form from ``start``, one costing per cell."""
    g = game.graph
    axes = [
        tuple(tuple(sorted(s.items())) for s in oracle.player_strategies(g, p))
        for p in g.players
    ]
    cells = {}
    for index in itertools.product(*(range(len(a)) for a in axes)):
        cells[index] = cost_vector(game, situation_at(g, axes, index), start)
    return axes, cells


def situation_at(g, axes, index):
    """The situation that plays strategy ``index[i]`` of ``axes[i]`` for each player."""
    choice = {}
    for strategies, k in zip(axes, index):
        choice.update(dict(strategies[k]))
    return Situation.of(g, choice)


def ne_indices(axes, cells):
    """Indices whose cost is minimal for every player over that player's line.

    ``cells`` maps each index to its cost vector, in any order.
    """
    n = len(axes)
    best = [dict() for _ in range(n)]
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


def equilibria(game, starts):
    """The situations that are equilibria from every start, sorted by their
    moves; the starts' normal forms are built in order until none is left."""
    surviving = None
    for start in starts:
        axes, cells = normal_form_cells(game, start)
        ne = ne_indices(axes, cells)
        surviving = ne if surviving is None else surviving & ne
        if not surviving:
            return []
    found = [situation_at(game.graph, axes, index) for index in surviving]
    return sorted(found, key=lambda situation: situation.moves)


def verify_exhaustive(game, situation, start):
    """Deviation check from ``start``, or from every start if None."""
    g = game.graph
    starts = g.nonterminals if start is None else (start,)
    base = {v: trace(g, situation, v) for v in starts}
    for player in g.players:
        strategies = oracle.player_strategies(g, player)
        for v in starts:
            cur = oracle.effective_cost(game, base[v], player)
            for strategy in strategies:
                deviated = situation.replace(strategy)
                alt = oracle.effective_cost(game, trace(g, deviated, v), player)
                if alt < cur:
                    return oracle.VerifyReport(
                        False, player, v, deviated,
                        note=f"player {player} improves {cur} -> {alt} from {g.name(v)}",
                    )
    return oracle.VerifyReport(True, start=start)
