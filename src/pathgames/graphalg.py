"""Deterministic exact-arithmetic graph primitives.

Every kernel takes one graph format: adjacency rows over vertices
0..len(rows)-1, where ``out[v]`` lists v's out-neighbours (``into[v]`` its
in-neighbours) in increasing id order without duplicates, as
``GameGraph.out`` and ``GameGraph._into`` cache them per graph. Weight
callables return ``int``s. Callers with rational costs multiply them by
one positive common multiple of the denominators first (``SPGame`` keeps
one such integer table per game). Scaling keeps every sum, comparison and
tie, so an integer result ``r`` stands exactly for ``r / scale``.
Distances and potentials come back as ints, the minimum cycle mean as an
exact ratio of ints. Every tie is broken by vertex id so repeated runs
produce identical results.
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


def bellman_ford_potentials(out: Rows, weight: Weight) -> list[int]:
    """Shortest walk cost to each vertex from a virtual all-zero source.

    The caller must guarantee there is no negative cycle; InternalCheckFailed
    here means that guarantee was broken.
    """
    n = len(out)
    weighted = [(u, v, weight(u, v)) for u, row in enumerate(out) for v in row]
    dist = [0] * n
    for _ in range(n):
        changed = False
        for u, v, w in weighted:
            cand = dist[u] + w
            if cand < dist[v]:
                dist[v] = cand
                changed = True
        if not changed:
            return dist
    raise InternalCheckFailed("negative cycle in potential computation")


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


def _extract_mean_cycle(
    comp: list[int], ledges: list[tuple[int, int, int]], mean: tuple[int, int]
) -> list[int]:
    """Find a cycle of the given (minimum) mean ``num / den`` inside one component.

    ``ledges`` are the component's edges over local ids (positions in
    ``comp``), in sorted order. After shifting every weight by the mean,
    minimum-mean cycles become zero-sum and lie entirely on tight
    shortest-path edges; the shift is multiplied by ``den`` to stay integral.
    """
    num, den = mean
    m = len(comp)
    shifted = {(u, v): w * den - num for u, v, w in ledges}
    rows: list[list[int]] = [[] for _ in range(m)]
    for u, v in shifted:
        rows[u].append(v)
    pot = bellman_ford_potentials(rows, lambda u, v: shifted[u, v])
    tight: list[list[int]] = [[] for _ in range(m)]
    for (u, v), s in shifted.items():
        if pot[u] + s == pot[v]:
            tight[u].append(v)
    # Any cycle of tight edges telescopes to a zero shifted sum.
    color = [0] * m
    stack_pos = [0] * m
    for root in range(m):
        if color[root]:
            continue
        path: list[int] = []
        work: list[tuple[int, int]] = [(root, 0)]
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
                    cyc = [comp[x] for x in path[stack_pos[w]:]]
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
    raise InternalCheckFailed(f"no cycle of mean {num}/{den} found in component {comp}")


def min_cycle_mean(out: Rows, weight: Weight) -> tuple[Fraction | None, list[int] | None]:
    """Exact minimum directed-cycle mean of the ``out`` rows and, when it
    is <= 0, a witness cycle.

    Karp's recurrence runs per strongly connected component, on weighted
    triples of the component's moves over local ids. Returns (None, None)
    when the graph is acyclic and (mean, None) when the mean is positive:
    extracting the witness costs a second Bellman-Ford and a search, and
    only callers that reject a non-positive cycle read it. The witness
    cycle is listed from its smallest vertex.
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
    best_i = 0
    for i, comp in enumerate(comps):
        mean = _karp_min_mean(len(comp), inner[i])
        if mean is not None and (best is None or mean[0] * best[1] < best[0] * mean[1]):
            best, best_i = mean, i
    if best is None:
        return None, None
    if best[0] > 0:  # den > 0, so the mean is positive
        return Fraction(*best), None
    return Fraction(*best), _extract_mean_cycle(comps[best_i], inner[best_i], best)
