"""Reference graph kernels over ``Fraction``s.

These are straightforward exact implementations of the minimum cycle mean
(Karp 1978), its witness cycle, Bellman-Ford potentials and the
lexicographic (cost, hops) Dijkstra in both directions. The library runs
the same algorithms on integer-scaled weights; tests require both to
return identical values.
"""

from __future__ import annotations

import heapq
from fractions import Fraction

from pathgames import graphalg


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
    for _ in range(n):
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


def _extract_mean_cycle(comp, edges, weight, mean):
    shifted = lambda u, v: weight(u, v) - mean
    pot = {v: Fraction(0) for v in comp}
    for _ in range(len(comp)):
        changed = False
        for u, v in sorted(edges):
            cand = pot[u] + shifted(u, v)
            if cand < pot[v]:
                pot[v] = cand
                changed = True
        if not changed:
            break
    tight = {v: [] for v in comp}
    for u, v in sorted(edges):
        if pot[u] + shifted(u, v) == pot[v]:
            tight[u].append(v)
    color = {v: 0 for v in comp}
    stack_pos = {}
    for root in comp:
        if color[root]:
            continue
        path = []
        work = [(root, 0)]
        while work:
            v, ei = work[-1]
            if ei == 0:
                color[v] = 1
                stack_pos[v] = len(path)
                path.append(v)
            advanced = False
            while ei < len(tight[v]):
                w = tight[v][ei]
                ei += 1
                if color[w] == 1:
                    cyc = path[stack_pos[w]:]
                    k = cyc.index(min(cyc))
                    return cyc[k:] + cyc[:k]
                if color[w] == 0:
                    work[-1] = (v, ei)
                    work.append((w, 0))
                    advanced = True
                    break
            if advanced:
                continue
            work.pop()
            color[v] = 2
            path.pop()
    raise AssertionError(f"no cycle of mean {mean} found in component {comp}")


def min_cycle_mean(n, edges, weight):
    edge_list = sorted(set(edges))
    adj = graphalg.out_adjacency(n, edge_list)
    comps = graphalg.strongly_connected_components(n, adj)
    comp_id = {}
    for i, comp in enumerate(comps):
        for v in comp:
            comp_id[v] = i
    best = best_comp = best_edges = None
    for comp in comps:
        inner = [
            (u, v) for u, v in edge_list
            if comp_id[u] == comp_id[v] == comp_id[comp[0]]
        ]
        mean = _karp_min_mean(comp, inner, weight)
        if mean is not None and (best is None or mean < best):
            best, best_comp, best_edges = mean, comp, inner
    if best is None:
        return None, None
    return best, _extract_mean_cycle(best_comp, best_edges, weight, best)
