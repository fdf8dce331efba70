"""The terminal-game solvers reproduce a recorded digest of their outputs.

On seeded ``genutil.random_symmetric_terminal`` games, infinite-averse and
not, of up to 10 vertices, the digest covers:

- Theorem 2 from every non-terminal start: the situation, or the type and
  message of the exception raised;
- Theorem 3: the situation, rounds, potential trajectory and steps, the
  contracted game it ran on without the terminal moves it never takes
  (``UnePrep.dropped_edges``), its unreachable set, or the exception raised;
- ``lift_situation`` of seeded random situations of the contracted game.

The benchmark's digests cover Theorem 2 only from each game's initial
vertex, so case 3 of its analysis, reached from other starts, is locked
here. A change that alters any of these outputs fails this test.
"""

from __future__ import annotations

import hashlib
import random

import genutil
from pathgames.errors import PathgamesError
from pathgames.model import Situation
from pathgames.reductions import contract_small_game, lift_situation
from pathgames.terminalne import solve_theorem2
from pathgames.une import solve_theorem3

# sha256 of every line of _lines(), each followed by a newline
RECORDED = "4a8e880a69af7720d715d2f89fe3980d4fffe9e463217ba2e1486e1d1e5a56e4"


def _outcome(solve):
    try:
        return repr(solve())
    except PathgamesError as exc:
        return f"{type(exc).__name__}: {exc}"


def _theorem3(game):
    res = solve_theorem3(game)
    pg = res.prep.game.graph
    # the contracted game minus the terminal moves the dynamics never take
    edges = tuple(sorted(pg.edge_set.difference(res.prep.dropped_edges)))
    return (res.situation.moves, res.rounds, res.nu_trajectory, res.steps,
            edges, pg.owner, pg.names, pg.initial, sorted(res.prep.unreachable),
            res.prep.dropped_edges)


def _lines():
    rng = random.Random(20261019)
    for k in range(900):
        ciw = k % 2 == 0
        game = genutil.random_symmetric_terminal(rng, max_v=10, ciw=ciw)
        g = game.graph
        yield repr((g.owner, g.edges, game._int_costs))
        for v in g.nonterminals:
            yield _outcome(lambda: solve_theorem2(game, v).moves)
        yield _outcome(lambda: _theorem3(game))
        small, cmap = contract_small_game(game)
        sg = small.graph
        for _ in range(3):
            moves = [rng.choice(sg.out[v]) if sg.out[v] else None for v in range(sg.n_vertices)]
            yield _outcome(lambda: lift_situation(Situation(tuple(moves)), cmap).moves)


def test_terminal_path_outputs_match_the_recorded_digest():
    digest = hashlib.sha256()
    for line in _lines():
        digest.update(line.encode())
        digest.update(b"\n")
    assert digest.hexdigest() == RECORDED
