"""Shared test helpers: random game generators and independent oracles.

The checkers here are deliberately written from scratch (plain DFS cycle
enumeration, a plain heap Dijkstra) so that library results are compared
against a second, unrelated implementation.
"""

from __future__ import annotations

import heapq
import itertools
import random
import sys
from fractions import Fraction

from pathgames.model import SPGame, TerminalGame, sp_game, terminal_game


def out_rows(n, edges):
    """Adjacency rows of an edge list: sorted, without duplicates."""
    adj = [[] for _ in range(n)]
    for u, v in sorted(set(edges)):
        adj[u].append(v)
    return adj


def simple_cycles(n, edges):
    """All simple directed cycles, each listed from its smallest vertex."""
    adj = out_rows(n, edges)
    found = []

    def dfs(start, v, path, visited):
        for w in adj[v]:
            if w == start:
                found.append(tuple(path))
            elif w > start and w not in visited:
                dfs(start, w, path + [w], visited | {w})

    for start in range(n):
        dfs(start, start, [start], {start})
    return found


def scc_naive(n, out):
    """Strongly connected components by plain pairwise reachability.

    Same output convention as ``graphalg.strongly_connected_components``:
    sorted members, components ordered by smallest member.
    """
    reach = []
    for s in range(n):
        seen = {s}
        todo = [s]
        while todo:
            v = todo.pop()
            for w in out[v]:
                if w not in seen:
                    seen.add(w)
                    todo.append(w)
        reach.append(seen)
    assigned = [False] * n
    comps = []
    for v in range(n):
        if assigned[v]:
            continue
        comp = sorted(u for u in range(n) if u in reach[v] and v in reach[u])
        for u in comp:
            assigned[u] = True
        comps.append(comp)
    comps.sort(key=lambda c: c[0])
    return comps


def count_calls(monkeypatch, module, name):
    """Count calls to module.name through every pathgames binding of it."""
    real = getattr(module, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] != "pathgames":
            continue
        for attr, value in list(vars(mod).items()):
            if value is real:
                monkeypatch.setattr(mod, attr, counting)
    return calls


def dijkstra_cost(n, edges, weight, source, targets):
    """Plain nonnegative-weight shortest distance, or None."""
    adj = out_rows(n, edges)
    dist = {source: Fraction(0)}
    heap = [(Fraction(0), source)]
    done = set()
    targets = set(targets)
    while heap:
        d, v = heapq.heappop(heap)
        if v in done:
            continue
        done.add(v)
        if v in targets:
            return d
        for w in adj[v]:
            nd = d + weight(v, w)
            if w not in dist or nd < dist[w]:
                dist[w] = nd
                heapq.heappush(heap, (nd, w))
    return None


def all_simple_paths(n, edges, source, target, cap=200000):
    adj = [[] for _ in range(n)]
    for u, v in sorted(set(edges)):
        adj[u].append(v)
    out = []

    def dfs(v, path, visited):
        if len(out) >= cap:
            raise RuntimeError("path explosion")
        if v == target:
            out.append(tuple(path))
            return
        for w in adj[v]:
            if w not in visited:
                dfs(w, path + [w], visited | {w})

    dfs(source, [source], {source})
    return out


def _rational(rng: random.Random, lo_num=1, hi_num=1000, den=100) -> Fraction:
    return Fraction(rng.randint(lo_num, hi_num), den)


def _symmetric_board(rng: random.Random, max_v: int, n_players: int,
                     edge_p=0.45, term_p=0.5, loops=False):
    """Random owners plus a symmetric edge skeleton with terminal exits."""
    n_pos = rng.randint(2, max(2, max_v - 1))
    n_term = rng.randint(1, max(1, max_v - n_pos))
    owners = [rng.randint(1, n_players) for _ in range(n_pos)]
    owners += [None] * n_term
    edges = set()
    for u in range(n_pos):
        for v in range(u + 1, n_pos):
            if rng.random() < edge_p:
                edges.add((u, v))
                edges.add((v, u))
    for u in range(n_pos):
        if rng.random() < term_p:
            edges.add((u, n_pos + rng.randrange(n_term)))
    if loops:
        for u in range(n_pos):
            if rng.random() < 0.12:
                edges.add((u, u))
    for u in range(n_pos):
        if not any(e[0] == u for e in edges):
            if n_pos >= 2 and rng.random() < 0.5:
                v = rng.choice([x for x in range(n_pos) if x != u])
                edges.add((u, v))
                edges.add((v, u))
            else:
                edges.add((u, n_pos + rng.randrange(n_term)))
    return owners, sorted(edges), n_pos, n_term


def random_symmetric_positive_sp(rng: random.Random, max_v=9, max_players=3) -> SPGame:
    """Edge-symmetric SP game with rational costs in (0, 10]."""
    n_players = rng.randint(1, max_players)
    owners, edges, n_pos, _ = _symmetric_board(rng, max_v, n_players)
    cost = {e: tuple(_rational(rng) for _ in range(n_players)) for e in edges}
    return sp_game(owners, cost, n_players, initial=rng.randrange(n_pos))


def random_symmetric_terminal(
    rng: random.Random, max_v=9, max_players=3, ciw=False, loops=True
) -> TerminalGame:
    n_players = 2 if ciw else rng.randint(1, max_players)
    owners, edges, n_pos, n_term = _symmetric_board(
        rng, max_v, n_players, loops=loops and not ciw
    )
    tcost = {}
    for w in range(n_pos, n_pos + n_term):
        if ciw:
            tcost[w] = tuple(-_rational(rng, 1, 500) for _ in range(n_players))
        else:
            tcost[w] = tuple(
                Fraction(rng.randint(-5, 5)) for _ in range(n_players)
            )
    if ciw:
        inf = (Fraction(0),) * n_players
    else:
        inf = tuple(Fraction(rng.randint(-2, 2)) for _ in range(n_players))
    return terminal_game(owners, edges, tcost, n_players,
                         infinite_cost=inf, initial=rng.randrange(n_pos))


def random_ring_ciw_terminal(rng: random.Random, max_v=10) -> TerminalGame:
    """2-person symmetric infinite-averse game on a ring with terminal exits.

    Alternating-ish ownership around a symmetric ring, an exit per vertex
    and conflicting integer preferences give the improvement dynamics
    something to chew on.
    """
    n_pos = rng.randint(4, max(4, max_v // 2))
    n_term = min(n_pos, max_v - n_pos)
    owners = [1 + v % 2 for v in range(n_pos)]
    owners += [None] * n_term
    edges = set()
    for v in range(n_pos):
        u = (v + 1) % n_pos
        edges.add((v, u))
        edges.add((u, v))
    for v in range(n_pos):
        if rng.random() < 0.2:
            u = rng.randrange(n_pos)
            if u != v:
                edges.add((v, u))
                edges.add((u, v))
    for v in range(n_pos):
        if rng.random() < 0.9:
            edges.add((v, n_pos + rng.randrange(n_term)))
    if not any(e[1] >= n_pos for e in edges):
        edges.add((0, n_pos))
    # conflicting strict preference orders over the terminals
    ranks = [list(range(1, n_term + 1)) for _ in range(2)]
    for order in ranks:
        rng.shuffle(order)
    tcost = {
        n_pos + k: (Fraction(-ranks[0][k]), Fraction(-ranks[1][k]))
        for k in range(n_term)
    }
    return terminal_game(owners, sorted(edges), tcost, 2,
                         initial=rng.randrange(n_pos))


def random_ciw_terminal(rng: random.Random, max_v=6, max_players=3) -> TerminalGame:
    """Infinite-averse terminal game on an arbitrary (directed) board."""
    n_players = rng.randint(1, max_players)
    n_pos = rng.randint(2, max(2, max_v - 1))
    n_term = rng.randint(1, max(1, max_v - n_pos))
    owners = [rng.randint(1, n_players) for _ in range(n_pos)] + [None] * n_term
    edges = set()
    for u in range(n_pos):
        for v in range(n_pos):
            if u != v and rng.random() < 0.35:
                edges.add((u, v))
        if rng.random() < 0.5:
            edges.add((u, n_pos + rng.randrange(n_term)))
    for u in range(n_pos):
        if not any(e[0] == u for e in edges):
            edges.add((u, n_pos + rng.randrange(n_term)))
    tcost = {
        w: tuple(-_rational(rng, 1, 500) for _ in range(n_players))
        for w in range(n_pos, n_pos + n_term)
    }
    return terminal_game(owners, sorted(edges), tcost, n_players,
                         initial=rng.randrange(n_pos))


def random_positive_cycle_sp(rng: random.Random, max_v=7, max_players=3) -> SPGame:
    """SP game with positive cycle sums but some negative edge costs.

    Starts from a positive game and applies a random per-player potential
    shift, which preserves every cycle sum; retries the shift until at least
    one edge goes negative.
    """
    n_players = rng.randint(1, max_players)
    n_pos = rng.randint(2, max(2, max_v - 1))
    n_term = rng.randint(1, max(1, max_v - n_pos))
    owners = [rng.randint(1, n_players) for _ in range(n_pos)] + [None] * n_term
    edges = set()
    for u in range(n_pos):
        for v in range(n_pos):
            if u != v and rng.random() < 0.4:
                edges.add((u, v))
        if rng.random() < 0.5:
            edges.add((u, n_pos + rng.randrange(n_term)))
    for u in range(n_pos):
        if not any(e[0] == u for e in edges):
            edges.add((u, (u + 1) % n_pos if n_pos > 1 else n_pos))
    edges = sorted(edges)
    n = n_pos + n_term
    base = {e: [_rational(rng) for _ in range(n_players)] for e in edges}
    for _ in range(50):
        shift = [[Fraction(rng.randint(-3, 3)) for _ in range(n)]
                 for _ in range(n_players)]
        cost = {
            (u, v): tuple(
                base[(u, v)][p] + shift[p][u] - shift[p][v]
                for p in range(n_players)
            )
            for u, v in edges
        }
        if any(c < 0 for cs in cost.values() for c in cs):
            return sp_game(owners, cost, n_players, initial=rng.randrange(n_pos))
    return sp_game(owners, base | {}, n_players, initial=rng.randrange(n_pos))


def enumerate_player_strategies(graph, player):
    verts = [v for v in graph.nonterminals if graph.owner[v] == player]
    for combo in itertools.product(*(graph.out[v] for v in verts)):
        yield dict(zip(verts, combo))
