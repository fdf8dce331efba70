"""Reference copy of the round-by-round colouring of Theorem 3's start.

Each round scans every uncoloured vertex and points it at its lowest-id
already-coloured out-neighbour. The library builds the same situation with
one reverse breadth-first search (``graphalg.tree_toward``) and finds the
vertices that reach no terminal itself; tests pass them here as
``unreachable`` and require both to return identical situations.
"""

from __future__ import annotations

from pathgames.errors import InternalCheckFailed
from pathgames.model import Situation


def initial_basic_situation(game, unreachable=frozenset()):
    g = game.graph
    choice = {}
    colored = set(g.terminals)
    for v in g.nonterminals:
        if v in unreachable:
            choice[v] = g.out[v][0]
            continue
        best = game.best_terminal(v)
        if best is not None:
            choice[v] = best
            colored.add(v)
    pending = [v for v in g.nonterminals if v not in choice]
    while pending:
        frontier = [
            (v, [w for w in g.out[v] if w in colored])
            for v in sorted(pending)
        ]
        frontier = [(v, ws) for v, ws in frontier if ws]
        if not frontier:
            raise InternalCheckFailed("uncolored vertex cannot reach the colored region")
        for v, ws in frontier:
            choice[v] = ws[0]
        for v, _ in frontier:
            colored.add(v)
        pending = [v for v in pending if v not in choice]
    return Situation.of(g, choice)
