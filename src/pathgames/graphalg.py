"""Deterministic exact-arithmetic graph primitives.

Every kernel takes one graph format: adjacency rows over vertices
0..len(rows)-1, where ``out[v]`` lists v's out-neighbours (``into[v]`` its
in-neighbours) in increasing id order without duplicates, as
``GameGraph.out`` and ``GameGraph._into`` cache them per graph. Weight
callables return ``int``s. Callers with rational costs multiply them by
one positive common multiple of the denominators first (``SPGame`` keeps
one such integer table per game). Scaling keeps every sum, comparison and
tie, so an integer result ``r`` stands exactly for ``r / scale``.
Distances and potentials come back as ints, the minimum cycle mean as a
``Fraction``; cycles with a sum <= 0 come from Bellman-Ford. Every tie is
broken by vertex id so repeated runs produce identical results.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from typing import Callable, Container, Iterable, Sequence

from .errors import InternalCheckFailed

Weight = Callable[[int, int], int]
Rows = Sequence[Sequence[int]]


def out_adjacency(n: int, edges: Iterable[tuple[int, int]]) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
    for row in adj:
        row.sort()
    return adj


def strongly_connected_components(out: Rows) -> list[list[int]]:
    """Tarjan's algorithm, iterative.

    Components are returned with sorted members, ordered by smallest member.
    """
    n = len(out)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    comps: list[list[int]] = []
    counter = 0

    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, ei = work[-1]
            if ei == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            while ei < len(out[v]):
                w = out[v][ei]
                ei += 1
                if index[w] == -1:
                    work[-1] = (v, ei)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                comp.sort()
                comps.append(comp)
            if work:
                u, _ = work[-1]
                low[u] = min(low[u], low[v])
    comps.sort(key=lambda c: c[0])
    return comps


def tree_toward(
    into: Rows, roots: Iterable[int], joins: Container[int]
) -> dict[int, int]:
    """Reverse breadth-first in-tree toward ``roots``.

    ``into[v]`` lists v's in-neighbours. Each vertex of ``joins`` that can
    reach a root, other than the roots themselves, maps to its move toward
    them: a vertex one layer closer, the lowest id within that layer. The
    keys plus the roots are exactly the vertices that reach a root along
    vertices of ``joins``.
    """
    reached = set(roots)
    layer = list(reached)
    tree: dict[int, int] = {}
    while layer:
        nxt: dict[int, int] = {}
        for u in layer:
            for v in into[u]:
                if v not in reached and v in joins and (v not in nxt or u < nxt[v]):
                    nxt[v] = u
        tree.update(nxt)
        reached.update(nxt)
        layer = list(nxt)
    return tree


def _lex_dist(
    out: Rows, weight: Weight, seeds: Iterable[int], forward: bool
) -> list[tuple[int, int] | None]:
    """Lexicographic (cost, hops) Dijkstra from ``seeds`` over ``out`` rows.

    With ``forward`` the search follows the moves (distances from the
    seeds), otherwise it runs against them (distances to the seeds). Every
    move is weighted before the search, in row order, so the first negative
    weight raised is the first in sorted order, whatever the seeds reach.
    """
    n = len(out)
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for u, row in enumerate(out):
        for v in row:
            w = weight(u, v)
            if w < 0:
                raise ValueError(f"negative weight on edge {(u, v)}")
            if forward:
                adj[u].append((v, w))
            else:
                adj[v].append((u, w))
    dist: list[tuple[int, int] | None] = [None] * n
    heap = [(0, 0, s) for s in sorted(set(seeds))]  # sorted, so already a heap
    for _, _, s in heap:
        dist[s] = (0, 0)
    done = [False] * n
    while heap:
        c, h, v = heapq.heappop(heap)
        if done[v]:
            continue
        done[v] = True
        for u, w in adj[v]:
            if done[u]:
                continue
            cand = (c + w, h + 1)
            du = dist[u]
            if du is None or cand < du:
                dist[u] = cand
                heapq.heappush(heap, (c + w, h + 1, u))
    return dist


def lex_dist_to(
    out: Rows, weight: Weight, targets: Iterable[int]
) -> list[tuple[int, int] | None]:
    """Lexicographic (cost, hops) shortest distance from each vertex to targets.

    Runs Dijkstra on the reversed graph, so weights must be nonnegative.
    Together with :func:`canonical_path` this yields one well-defined optimal
    path per query: cheapest, then fewest edges, then lowest vertex ids.
    """
    return _lex_dist(out, weight, targets, forward=False)


def lex_dist_from(
    out: Rows, weight: Weight, sources: Iterable[int]
) -> list[tuple[int, int] | None]:
    """Forward counterpart of :func:`lex_dist_to`."""
    return _lex_dist(out, weight, sources, forward=True)


def canonical_path(
    start: int,
    out: Rows,
    weight: Weight,
    dist: Sequence[tuple[int, int] | None],
) -> list[int]:
    """Reconstruct the canonical optimal path for a lex_dist_to table."""
    if dist[start] is None:
        raise ValueError(f"no path from vertex {start}")
    path = [start]
    v = start
    while dist[v] != (0, 0):
        c, h = dist[v]
        step = next((u for u in out[v] if dist[u] == (c - weight(v, u), h - 1)), None)
        if step is None:
            raise InternalCheckFailed("inconsistent distance table")
        path.append(step)
        v = step
    return path


def _bellman_ford(out: Rows, weight: Weight) -> tuple[list[int], list[int] | None]:
    """Shortest walk costs from a virtual all-zero source, and a negative
    cycle listed from its smallest vertex (then the costs are not final).

    A vertex still relaxed in pass n lies n parent steps from a cycle of
    the parent pointers, and every such cycle is negative.
    """
    n = len(out)
    weighted = [(u, v, weight(u, v)) for u, row in enumerate(out) for v in row]
    dist = [0] * n
    parent = [-1] * n
    last = -1
    for _ in range(n):
        last = -1
        for u, v, w in weighted:
            cand = dist[u] + w
            if cand < dist[v]:
                dist[v] = cand
                parent[v] = u
                last = v
        if last < 0:
            break
    if last < 0:
        return dist, None
    for _ in range(n):
        last = parent[last]
    back = [last]  # the cycle against the moves
    while parent[back[-1]] != last:
        back.append(parent[back[-1]])
    k = back.index(min(back))
    return dist, back[k::-1] + back[:k:-1]


def bellman_ford_potentials(out: Rows, weight: Weight) -> list[int]:
    """Shortest walk cost to each vertex from a virtual all-zero source.

    The caller must guarantee there is no negative cycle; InternalCheckFailed
    here means that guarantee was broken.
    """
    dist, cycle = _bellman_ford(out, weight)
    if cycle is not None:
        raise InternalCheckFailed("negative cycle in potential computation")
    return dist


def nonpositive_cycle(out: Rows, weight: Weight) -> list[int] | None:
    """Some cycle with a weight sum <= 0, listed from its smallest vertex,
    or None. It need not have the minimum mean.

    Bellman-Ford runs on ``n * weight - 1``: a cycle of k <= n moves with
    integer sum S weighs n*S - k there, which is negative iff S <= 0.
    """
    n = len(out)
    return _bellman_ford(out, lambda u, v: n * weight(u, v) - 1)[1]


def _karp_min_mean(m: int, ledges: list[tuple[int, int, int]]) -> tuple[int, int] | None:
    """Minimum cycle mean ``num / den`` (den > 0) of a strongly connected graph.

    The graph has vertices 0..m-1 and integer-weighted edges (u, v, w).
    Means are compared by cross-multiplying, so no division happens.
    """
    if not ledges:
        return None
    d: list[list[int | None]] = [[None] * m for _ in range(m + 1)]
    d[0][0] = 0
    for k in range(1, m + 1):
        prev, cur = d[k - 1], d[k]
        for u, v, w in ledges:
            p = prev[u]
            if p is not None:
                cand = p + w
                c = cur[v]
                if c is None or cand < c:
                    cur[v] = cand
    last = d[m]
    best: tuple[int, int] | None = None
    for v in range(m):
        if last[v] is None:
            continue
        worst: tuple[int, int] | None = None
        for k in range(m):
            dk = d[k][v]
            if dk is None:
                continue
            num, den = last[v] - dk, m - k
            if worst is None or num * worst[1] > worst[0] * den:
                worst = (num, den)
        if worst is not None and (best is None or worst[0] * best[1] < best[0] * worst[1]):
            best = worst
    return best


def min_cycle_mean(out: Rows, weight: Weight) -> Fraction | None:
    """Exact minimum directed-cycle mean of the ``out`` rows; None if acyclic.

    Karp's recurrence runs per strongly connected component, on weighted
    triples of the component's moves over local ids. The components' means
    are compared by cross-multiplying, and one Fraction is built at the end.
    """
    n = len(out)
    comps = strongly_connected_components(out)
    comp_id = [0] * n
    local = [0] * n
    for i, comp in enumerate(comps):
        for j, v in enumerate(comp):
            comp_id[v] = i
            local[v] = j
    inner: list[list[tuple[int, int, int]]] = [[] for _ in comps]
    for u, row in enumerate(out):
        for v in row:
            if comp_id[u] == comp_id[v]:
                inner[comp_id[u]].append((local[u], local[v], weight(u, v)))
    best: tuple[int, int] | None = None
    for i, comp in enumerate(comps):
        mean = _karp_min_mean(len(comp), inner[i])
        if mean is not None and (best is None or mean[0] * best[1] < best[0] * mean[1]):
            best = mean
    return None if best is None else Fraction(*best)
