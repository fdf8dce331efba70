"""Reference graph kernels over ``Fraction``s.

These are straightforward exact implementations of the minimum cycle mean
(Karp 1978), Bellman-Ford potentials and the lexicographic (cost, hops)
Dijkstra in both directions. They take edge lists and build their own
rows, with components from ``genutil.scc_naive``, so they share no code
with the library's kernels. The library runs the
same algorithms on integer-scaled weights over adjacency rows; tests
require both to return identical values.
"""

from __future__ import annotations

import heapq
from fractions import Fraction

import genutil


def _lex_dijkstra(n, adj, step_weight, seeds):
    dist = [None] * n
    heap = []
    for s in sorted(set(seeds)):
        dist[s] = (Fraction(0), 0)
        heap.append((Fraction(0), 0, s))
    heapq.heapify(heap)
    done = [False] * n
    while heap:
        c, h, v = heapq.heappop(heap)
        if done[v]:
            continue
        done[v] = True
        for u in adj[v]:
            if done[u]:
                continue
            cand = (c + step_weight(v, u), h + 1)
            if dist[u] is None or cand < dist[u]:
                dist[u] = cand
                heapq.heappush(heap, (cand[0], cand[1], u))
    return dist


def _checked_edges(edges, weight):
    edge_list = sorted(set(edges))
    for u, v in edge_list:
        if weight(u, v) < 0:
            raise ValueError(f"negative weight on edge ({u}, {v})")
    return edge_list


def lex_dist_to(n, edges, weight, targets):
    radj = [[] for _ in range(n)]
    for u, v in _checked_edges(edges, weight):
        radj[v].append(u)
    return _lex_dijkstra(n, radj, lambda v, u: weight(u, v), targets)


def lex_dist_from(n, edges, weight, sources):
    adj = [[] for _ in range(n)]
    for u, v in _checked_edges(edges, weight):
        adj[u].append(v)
    return _lex_dijkstra(n, adj, weight, sources)


def bellman_ford_potentials(n, edges, weight):
    edge_list = sorted(set(edges))
    dist = [Fraction(0)] * n
    # n + 1 passes: pass n + 1 changes only on a negative cycle, also at n = 0
    for _ in range(n + 1):
        changed = False
        for u, v in edge_list:
            cand = dist[u] + weight(u, v)
            if cand < dist[v]:
                dist[v] = cand
                changed = True
        if not changed:
            break
    else:
        raise AssertionError("negative cycle in potential computation")
    return dist


def _karp_min_mean(comp, edges, weight):
    if not edges:
        return None
    local = {v: i for i, v in enumerate(comp)}
    m = len(comp)
    ledges = [(local[u], local[v], weight(u, v)) for u, v in edges]
    d = [[None] * m for _ in range(m + 1)]
    d[0][0] = Fraction(0)
    for k in range(1, m + 1):
        prev, cur = d[k - 1], d[k]
        for u, v, w in ledges:
            if prev[u] is not None:
                cand = prev[u] + w
                if cur[v] is None or cand < cur[v]:
                    cur[v] = cand
    best = None
    for v in range(m):
        if d[m][v] is None:
            continue
        worst = None
        for k in range(m):
            if d[k][v] is None:
                continue
            ratio = (d[m][v] - d[k][v]) / (m - k)
            if worst is None or ratio > worst:
                worst = ratio
        if worst is not None and (best is None or worst < best):
            best = worst
    return best


def min_cycle_mean(n, edges, weight):
    edge_list = sorted(set(edges))
    comps = genutil.scc_naive(n, genutil.out_rows(n, edge_list))
    comp_id = {}
    for i, comp in enumerate(comps):
        for v in comp:
            comp_id[v] = i
    best = None
    for comp in comps:
        inner = [
            (u, v) for u, v in edge_list
            if comp_id[u] == comp_id[v] == comp_id[comp[0]]
        ]
        mean = _karp_min_mean(comp, inner, weight)
        if mean is not None and (best is None or mean < best):
            best = mean
    return best
