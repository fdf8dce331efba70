"""Seeded fixed-size game generators for the benchmark.

Every size knob (positions, terminals, players, edge pairs, terminal exits)
is an explicit argument, so one workload produces games of one size on
every seed. Boards are edge-symmetric: a random spanning tree over the
positions keeps every position connected, extra symmetric pairs are drawn
without replacement up to the requested count, and the chosen positions get
one move into a random terminal each. Games are built as JSON documents in
the ``pathgames`` interchange format, so the solver sees exactly what a
command-line user would load.
"""

from __future__ import annotations

import random
from fractions import Fraction


def _rat(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def symmetric_board(
    rng: random.Random,
    n_pos: int,
    n_term: int,
    n_players: int,
    n_pairs: int,
    n_exits: int,
    n_loops: int = 0,
) -> tuple[list[int | None], list[tuple[int, int]]]:
    """Owners and sorted edges of an edge-symmetric board.

    Positions are 0..n_pos-1 and terminals n_pos..n_pos+n_term-1.
    ``n_pairs`` counts unordered position pairs (each gives two moves) and
    must be at least n_pos - 1 for the spanning tree; ``n_exits`` positions
    get a terminal move; ``n_loops`` positions get a self-loop (terminal
    games only).
    """
    max_pairs = n_pos * (n_pos - 1) // 2
    if not (n_pos - 1 <= n_pairs <= max_pairs and 1 <= n_exits <= n_pos):
        raise ValueError("board parameters out of range")
    owners: list[int | None] = [rng.randint(1, n_players) for _ in range(n_pos)]
    owners += [None] * n_term
    order = list(range(n_pos))
    rng.shuffle(order)
    pairs = set()
    for k in range(1, n_pos):
        u, v = order[k], order[rng.randrange(k)]
        pairs.add((min(u, v), max(u, v)))
    while len(pairs) < n_pairs:
        u, v = rng.sample(range(n_pos), 2)
        pairs.add((min(u, v), max(u, v)))
    edges = set()
    for u, v in pairs:
        edges.add((u, v))
        edges.add((v, u))
    for u in rng.sample(range(n_pos), n_exits):
        edges.add((u, n_pos + rng.randrange(n_term)))
    for u in rng.sample(range(n_pos), n_loops):
        edges.add((u, u))
    return owners, sorted(edges)


def _vertices(owners: list[int | None]) -> list[dict]:
    return [
        {"id": v, "name": f"v{v}", "owner": "T" if p is None else p}
        for v, p in enumerate(owners)
    ]


def sp_document(
    rng: random.Random,
    n_pos: int,
    n_term: int,
    n_players: int,
    n_pairs: int,
    n_exits: int,
    shift: bool = False,
) -> tuple[dict, dict | None]:
    """Edge-symmetric positive shortest path game, costs in (0, 10].

    With ``shift`` set, each player's costs are reweighted by a random
    potential that is zero on every terminal: c(u,v) + pi(u) - pi(v). Cycle
    sums are unchanged (so still positive), the edge set is unchanged (so
    still symmetric), and every terminal play from a start s shifts by the
    same pi(s), so the shifted game has exactly the equilibria of the
    positive one. Returns (document, positive twin or None).
    """
    owners, edges = symmetric_board(rng, n_pos, n_term, n_players, n_pairs, n_exits)
    cost = {e: [Fraction(rng.randint(1, 1000), 100) for _ in range(n_players)] for e in edges}
    initial = rng.randrange(n_pos)
    twin = None
    if shift:
        twin = _sp_dict(owners, edges, cost, n_players, initial)
        while True:
            pi = [
                [Fraction(rng.randint(-600, 600), 100) for _ in range(n_pos)] + [Fraction(0)] * n_term
                for _ in range(n_players)
            ]
            shifted = {
                (u, v): [c + pi[p][u] - pi[p][v] for p, c in enumerate(cs)]
                for (u, v), cs in cost.items()
            }
            if any(c < 0 for cs in shifted.values() for c in cs):
                cost = shifted
                break
    return _sp_dict(owners, edges, cost, n_players, initial), twin


def _sp_dict(owners, edges, cost, n_players, initial) -> dict:
    return {
        "players": n_players,
        "vertices": _vertices(owners),
        "edges": [
            {"from": u, "to": v, "costs": [_rat(c) for c in cost[(u, v)]]}
            for u, v in edges
        ],
        "initial": initial,
    }


def terminal_document(
    rng: random.Random,
    n_pos: int,
    n_term: int,
    n_players: int,
    n_pairs: int,
    n_exits: int,
    ciw: bool,
    n_loops: int = 0,
) -> dict:
    """Edge-symmetric terminal game.

    ``ciw`` makes it infinite-averse: every terminal costs every player a
    negative rational and infinite plays cost zero. Otherwise terminal costs
    are integers in [-5, 5] and infinite plays cost integers in [-2, 2].
    """
    owners, edges = symmetric_board(
        rng, n_pos, n_term, n_players, n_pairs, n_exits, n_loops
    )
    terminals = range(n_pos, n_pos + n_term)
    if ciw:
        tcost = {w: [-Fraction(rng.randint(1, 500), 100) for _ in range(n_players)] for w in terminals}
        inf = [Fraction(0)] * n_players
    else:
        tcost = {w: [Fraction(rng.randint(-5, 5)) for _ in range(n_players)] for w in terminals}
        inf = [Fraction(rng.randint(-2, 2)) for _ in range(n_players)]
    return {
        "players": n_players,
        "vertices": _vertices(owners),
        "edges": [{"from": u, "to": v} for u, v in edges],
        "terminal_costs": {str(w): [_rat(c) for c in cs] for w, cs in tcost.items()},
        "infinite_costs": [_rat(c) for c in inf],
        "initial": rng.randrange(n_pos),
    }


def ring_document(rng: random.Random, n_pos: int, n_term: int, n_chords: int, n_exits: int) -> dict:
    """2-person infinite-averse ring with chords and conflicting preferences.

    Owners alternate around a symmetric ring; both players rank the
    terminals by independent random permutations.
    """
    owners: list[int | None] = [1 + v % 2 for v in range(n_pos)] + [None] * n_term
    pairs = {(v, (v + 1) % n_pos) for v in range(n_pos)}
    pairs = {(min(u, v), max(u, v)) for u, v in pairs}
    target = len(pairs) + n_chords
    while len(pairs) < target:
        u, v = rng.sample(range(n_pos), 2)
        pairs.add((min(u, v), max(u, v)))
    edges = {(u, v) for u, v in pairs} | {(v, u) for u, v in pairs}
    for u in rng.sample(range(n_pos), n_exits):
        edges.add((u, n_pos + rng.randrange(n_term)))
    ranks = [list(range(1, n_term + 1)) for _ in range(2)]
    for order in ranks:
        rng.shuffle(order)
    return {
        "players": 2,
        "vertices": _vertices(owners),
        "edges": [{"from": u, "to": v} for u, v in sorted(edges)],
        "terminal_costs": {
            str(n_pos + k): [str(-ranks[0][k]), str(-ranks[1][k])] for k in range(n_term)
        },
        "infinite_costs": ["0", "0"],
        "initial": rng.randrange(n_pos),
    }
