"""The benchmark's workloads: seeded game pools, the timed op, the checks.

An op receives only a game's JSON text and does what a command-line user
would: parse it, ``gamefiles.game_from_dict``, then the solver (and, in
``crosscheck-small``, the exhaustive oracle). Checks run outside the timed
region and never share code with the construction they check: the
``terminal-large`` value check below imports neither ``une`` nor
``terminalne``.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace
from typing import Callable

import games


@dataclass(frozen=True)
class Item:
    """One generated game: the JSON text the op sees, plus check-only data."""

    text: str
    twin: str | None = None  # positive game with the same equilibria


@dataclass(frozen=True)
class Workload:
    name: str
    pool: int  # distinct games per run; the closed loop cycles through them
    trace_ops: int  # games in one traced pass
    sizes: dict  # the generator's size parameters
    make: Callable[[dict, random.Random, int], Item]
    op: Callable[[SimpleNamespace, Item], object]
    check: Callable[[SimpleNamespace, Item, object], bool]
    key: Callable[[object], tuple]
    # Flags an output that passes ``check`` but shows a known library defect;
    # flagged games are reported, not failed.
    defect: Callable[[SimpleNamespace, Item, object], bool] | None = None


def items(workload: Workload, seed: int, count: int) -> list[Item]:
    """The first ``count`` games of a seed; game i depends only on (seed, i)."""
    return [
        workload.make(workload.sizes, random.Random(f"{workload.name}:{seed}:{i}"), i)
        for i in range(count)
    ]


def digest(key: tuple) -> str:
    return hashlib.sha256(repr(key).encode()).hexdigest()[:16]


def _moves(situation) -> tuple:
    return situation.moves


def _une_key(result) -> tuple:
    return (
        result.situation.moves,
        result.rounds,
        tuple(str(x) for x in result.nu_trajectory),
        result.steps,
    )


# --- sp-mid ---------------------------------------------------------------

SP_MID = dict(n_pos=30, n_term=3, n_players=3, n_pairs=60, n_exits=6)
SHIFT_EVERY = 4  # every fourth game carries a negative-edge potential shift


def _sp_make(sizes: dict, rng: random.Random, i: int) -> Item:
    doc, twin = games.sp_document(rng, shift=i % SHIFT_EVERY == SHIFT_EVERY - 1, **sizes)
    return Item(json.dumps(doc), json.dumps(twin) if twin else None)


def _sp_op(pg: SimpleNamespace, item: Item):
    """Shifted games are solved the way a user would, with ``--transform``."""
    game = pg.gamefiles.game_from_dict(json.loads(item.text))
    return pg.spne.solve_theorem1(game, transform=item.twin is not None)


def _sp_check(pg: SimpleNamespace, item: Item, situation) -> bool:
    """verify_ne_sp on the positive game the solver worked on."""
    game = pg.gamefiles.game_from_dict(json.loads(item.text))
    if item.twin is not None:
        game = pg.reductions.gallai_transform(game).game
    return pg.oracle.verify_ne_sp(game, situation).ok


def _sp_transform_defect(pg: SimpleNamespace, item: Item, situation) -> bool:
    """A shifted game's result is not an equilibrium of the input game.

    The positive twin has exactly the input's equilibria. The Gallai
    potentials differ between terminals, so with several terminals the
    reweighted game the solver verifies can rank terminals differently.
    """
    if item.twin is None:
        return False
    twin = pg.gamefiles.game_from_dict(json.loads(item.twin))
    return not pg.oracle.verify_ne_sp(twin, situation).ok


# --- terminal-large -------------------------------------------------------

TERMINAL_LARGE = dict(n_pos=500, n_term=8, n_players=2, n_pairs=650, n_exits=20, ciw=True)


def _terminal_make(sizes: dict, rng: random.Random, i: int) -> Item:
    return Item(json.dumps(games.terminal_document(rng, **sizes)))


def _terminal_op(pg: SimpleNamespace, item: Item):
    game = pg.gamefiles.game_from_dict(json.loads(item.text))
    return pg.terminalne.solve_theorem2(game), pg.une.solve_theorem3(game)


def _terminal_key(out) -> tuple:
    ne, une = out
    return ne.moves, _une_key(une)


def _outcomes(game, moves) -> list:
    """Cost vector of the play from every vertex, by one walk per vertex
    with memoisation over the functional successor graph."""
    n = game.graph.n_vertices
    result: list = [None] * n
    for v in range(n):
        path, pos = [], {}
        u = v
        while result[u] is None and u not in pos and moves[u] is not None:
            pos[u] = len(path)
            path.append(u)
            u = moves[u]
        if result[u] is not None:
            value = result[u]
        elif moves[u] is None:
            value = result[u] = tuple(game.terminal_cost[u])
        else:
            value = tuple(game.infinite_cost)
        for w in path:
            result[w] = value
    return result


def _best_values(game, moves, player: int) -> list[Fraction]:
    """Best cost the player can force from each vertex, opponents fixed.

    In the one-player relaxation every walk is the player's to choose, so
    the optimum is the cheapest reachable terminal, or the infinite-play
    cost when a cycle is reachable.
    """
    g = game.graph
    n = g.n_vertices
    succ = [
        list(g.out[v]) if g.owner[v] == player else ([moves[v]] if moves[v] is not None else [])
        for v in range(n)
    ]
    pred: list[list[int]] = [[] for _ in range(n)]
    for v in range(n):
        for w in succ[v]:
            pred[w].append(v)
    best: list[Fraction | None] = [None] * n
    for t in sorted(g.terminals, key=lambda t: game.terminal_cost[t][player - 1]):
        c = game.terminal_cost[t][player - 1]
        todo = [t]
        seen = {t}
        while todo:
            w = todo.pop()
            if best[w] is None or c < best[w]:
                best[w] = c
            for u in pred[w]:
                if u not in seen and best[u] is None:
                    seen.add(u)
                    todo.append(u)
    # Peel vertices all of whose successors are peeled; the rest reach a cycle.
    left = [len(succ[v]) for v in range(n)]
    peeled = [False] * n
    todo = [v for v in range(n) if left[v] == 0]
    while todo:
        w = todo.pop()
        peeled[w] = True
        for u in pred[w]:
            left[u] -= 1
            if left[u] == 0:
                todo.append(u)
    cyc = game.infinite_cost[player - 1]
    return [
        cyc if best[v] is None else best[v] if peeled[v] else min(best[v], cyc)
        for v in range(n)
    ]


def relaxation_ne(game, moves, starts) -> bool:
    """No player gains by a unilateral deviation from any of ``starts``."""
    now = _outcomes(game, moves)
    for p in range(1, game.graph.n_players + 1):
        best = _best_values(game, moves, p)
        if any(best[v] < now[v][p - 1] for v in starts):
            return False
    return True


def _terminal_check(pg: SimpleNamespace, item: Item, out) -> bool:
    ne, une = out
    game = pg.gamefiles.game_from_dict(json.loads(item.text))
    g = game.graph
    return relaxation_ne(game, ne.moves, [g.initial]) and relaxation_ne(
        game, une.situation.moves, g.nonterminals
    )


# --- crosscheck-small -----------------------------------------------------

CROSSCHECK = {
    "sp": dict(n_pos=7, n_term=2, n_players=3, n_pairs=9, n_exits=3),
    "terminal": dict(n_pos=8, n_term=1, n_players=2, n_pairs=12, n_exits=3, ciw=False, n_loops=1),
    "ciw": dict(n_pos=7, n_term=2, n_players=2, n_pairs=10, n_exits=3, ciw=True),
    "ring": dict(n_pos=7, n_term=2, n_chords=3, n_exits=6),
}


def _cross_make(families: dict, rng: random.Random, i: int) -> Item:
    """Game i comes from family i mod 4, so every run mixes them evenly."""
    kind = list(families)[i % len(families)]
    sizes = families[kind]
    if kind == "sp":
        doc = games.sp_document(rng, **sizes)[0]
    elif kind == "ring":
        doc = games.ring_document(rng, **sizes)
    else:
        doc = games.terminal_document(rng, **sizes)
    return Item(json.dumps(doc))


def _is_ciw_pair(game) -> bool:
    g = game.graph
    return (
        g.n_players == 2
        and all(c == 0 for c in game.infinite_cost)
        and all(c < 0 for w in g.terminals for c in game.terminal_cost[w])
    )


def _cross_op(pg: SimpleNamespace, item: Item):
    """Solve by the theorem that applies, then certify by enumeration."""
    game = pg.gamefiles.game_from_dict(json.loads(item.text))
    if isinstance(game, pg.model.SPGame):
        situation = pg.spne.solve_theorem1(game)
        ok = any(s.moves == situation.moves for s in pg.oracle.find_all_ne(game))
        return ("t1", situation.moves), ok
    if _is_ciw_pair(game):
        result = pg.une.solve_theorem3(game)
        return ("t3",) + _une_key(result), pg.oracle.verify_une(game, result.situation).ok
    situation = pg.terminalne.solve_theorem2(game)
    return ("t2", situation.moves), pg.oracle.verify_ne_terminal(game, situation).ok


def _cross_check(pg: SimpleNamespace, item: Item, out) -> bool:
    return out[1]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sp-mid",
            pool=160,
            trace_ops=24,
            sizes=SP_MID,
            make=_sp_make,
            op=_sp_op,
            check=_sp_check,
            key=_moves,
            defect=_sp_transform_defect,
        ),
        Workload(
            name="terminal-large",
            pool=200,
            trace_ops=24,
            sizes=TERMINAL_LARGE,
            make=_terminal_make,
            op=_terminal_op,
            check=_terminal_check,
            key=_terminal_key,
        ),
        Workload(
            name="crosscheck-small",
            pool=2400,
            trace_ops=80,
            sizes=CROSSCHECK,
            make=_cross_make,
            op=_cross_op,
            check=_cross_check,
            key=lambda out: out[0],
        ),
    )
}
