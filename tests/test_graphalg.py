from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

import fraction_kernels
import genutil
from pathgames import graphalg
from pathgames.errors import InternalCheckFailed


def random_digraph(rng, n_max=7):
    n = rng.randint(2, n_max)
    edges = set()
    for u in range(n):
        for v in range(n):
            if rng.random() < 0.35:
                edges.add((u, v))
    return n, sorted(edges)


def weighted_digraphs(rng, count):
    """Random digraphs under every kind of weight the cycle kernels must
    handle exactly: mixed denominators 1-7, plain ints, negative and
    zero-mean cycles, self-loops, and acyclic graphs."""
    for _ in range(count):
        n, edges = random_digraph(rng)
        yield n, edges, {e: Fraction(rng.randint(-5, 9), rng.randint(1, 3)) for e in edges}
        yield n, edges, {e: Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for e in edges}
        yield n, edges, {e: rng.randint(-4, 6) for e in edges}
        # Potential differences sum to zero around every cycle; the 0/1
        # bumps leave some cycles at mean zero and lift the others.
        pi = [Fraction(rng.randint(-6, 6), rng.randint(1, 7)) for _ in range(n)]
        yield n, edges, {(u, v): pi[u] - pi[v] + rng.choice((0, 0, 1)) for u, v in edges}
        dag = [(u, v) for u, v in edges if u < v]
        yield n, dag, {e: Fraction(rng.randint(-5, 9), rng.randint(1, 7)) for e in dag}


def nonnegative_digraphs(rng, count):
    """Random digraphs under the weights the Dijkstras must handle exactly:
    mixed denominators 1-7, plain ints, many zero weights, and no edges."""
    for _ in range(count):
        n, edges = random_digraph(rng)
        yield n, edges, {e: Fraction(rng.randint(0, 9), rng.randint(1, 7)) for e in edges}
        yield n, edges, {e: rng.randint(0, 6) for e in edges}
        yield n, edges, {
            e: rng.choice((0, 0, Fraction(1, 3), Fraction(5, 7), 2, Fraction(3, 2)))
            for e in edges
        }
        yield n, [], {}


def int_weights(weights):
    """The kernels' integer weight for a table of exact weights, and its scale.

    Every weight is multiplied by the LCM of the denominators, so an
    integer result r stands for Fraction(r, scale).
    """
    scale = math.lcm(*(Fraction(w).denominator for w in weights.values()))
    ints = {e: int(w * scale) for e, w in weights.items()}
    return (lambda u, v: ints[(u, v)]), scale


def unscaled(table, scale):
    """A kernel's integer distance table in the caller's units."""
    return [None if d is None else (Fraction(d[0], scale), d[1]) for d in table]


def test_scc_matches_naive():
    rng = random.Random(1)
    for _ in range(60):
        n, edges = random_digraph(rng)
        adj = genutil.out_rows(n, edges)
        assert graphalg.strongly_connected_components(adj) == genutil.scc_naive(n, adj)


def test_min_cycle_mean_against_brute_force():
    rng = random.Random(2)
    for n, edges, weights in weighted_digraphs(rng, 60):
        weight = lambda u, v: weights[(u, v)]
        iweight, scale = int_weights(weights)
        rows = genutil.out_rows(n, edges)
        mean, cycle = graphalg.min_cycle_mean(rows, iweight)
        if mean is not None and mean > 0:
            # A witness comes only with a mean <= 0. Shifting every weight
            # by the mean keeps the minimum-mean cycles and makes their
            # mean 0, so the shifted graph yields the same witness.
            assert cycle is None
            num, den = mean.numerator, mean.denominator
            shifted = lambda u, v: iweight(u, v) * den - num
            zero, cycle = graphalg.min_cycle_mean(rows, shifted)
            assert zero == 0
        if mean is not None:
            mean /= scale
        assert (mean, cycle) == fraction_kernels.min_cycle_mean(n, edges, weight)
        cycles = genutil.simple_cycles(n, edges)
        if not cycles:
            assert mean is None and cycle is None
            continue
        best = min(
            Fraction(sum(weight(u, v) for u, v in zip(c + (c[0],), (c + (c[0],))[1:])), len(c))
            for c in cycles
        )
        assert mean == best
        closed = list(cycle) + [cycle[0]]
        witness_mean = Fraction(sum(weight(u, v) for u, v in zip(closed, closed[1:])), len(cycle))
        assert witness_mean == mean
        assert all((u, v) in weights for u, v in zip(closed, closed[1:]))


def test_lex_dist_matches_plain_dijkstra():
    rng = random.Random(3)
    for _ in range(40):
        n, edges = random_digraph(rng)
        weights = {e: Fraction(rng.randint(0, 9)) for e in edges}
        weight = lambda u, v: weights[(u, v)]
        target = rng.randrange(n)
        iweight, scale = int_weights(weights)
        dist = unscaled(graphalg.lex_dist_to(genutil.out_rows(n, edges), iweight, [target]), scale)
        for v in range(n):
            plain = genutil.dijkstra_cost(n, edges, weight, v, [target])
            if plain is None:
                assert dist[v] is None
            else:
                assert dist[v] is not None and dist[v][0] == plain


def test_lex_dist_matches_fraction_reference():
    rng = random.Random(6)
    reached = 0
    for n, edges, weights in nonnegative_digraphs(rng, 60):
        weight = lambda u, v: weights[(u, v)]
        back = lambda u, v: weights[(v, u)]
        iweight, scale = int_weights(weights)
        iback = lambda u, v: iweight(v, u)
        adj = genutil.out_rows(n, edges)
        radj = genutil.out_rows(n, [(v, u) for u, v in edges])
        for k in (0, 1, 1, 2, 3):
            seeds = rng.sample(range(n), min(k, n))
            to = graphalg.lex_dist_to(adj, iweight, seeds)
            frm = graphalg.lex_dist_from(adj, iweight, seeds)
            ref_to = fraction_kernels.lex_dist_to(n, edges, weight, seeds)
            ref_from = fraction_kernels.lex_dist_from(n, edges, weight, seeds)
            assert unscaled(to, scale) == ref_to and unscaled(frm, scale) == ref_from
            for v in range(n):
                for table, ref, a, iw, w in (
                    (to, ref_to, adj, iweight, weight),
                    (frm, ref_from, radj, iback, back),
                ):
                    if table[v] is None:
                        continue
                    reached += 1
                    assert type(table[v][0]) is int
                    # a from-table is a to-table of the reversed graph
                    path = graphalg.canonical_path(v, a, iw, table)
                    assert path == graphalg.canonical_path(v, a, w, ref)
                    assert path[-1] in seeds
    assert reached >= 2000


def test_lex_dist_rejects_negative_weight():
    # the first negative edge in sorted order is named, in both directions,
    # also when the seeds cannot reach it
    weights = {(0, 1): 1, (1, 2): Fraction(-1, 3), (2, 0): -2, (3, 3): 0}
    iweight, _ = int_weights(weights)
    weight = lambda u, v: weights[(u, v)]
    for run in (
        lambda edges, seeds: graphalg.lex_dist_to(genutil.out_rows(4, edges), iweight, seeds),
        lambda edges, seeds: graphalg.lex_dist_from(genutil.out_rows(4, edges), iweight, seeds),
        lambda edges, seeds: fraction_kernels.lex_dist_to(4, edges, weight, seeds),
        lambda edges, seeds: fraction_kernels.lex_dist_from(4, edges, weight, seeds),
    ):
        for seeds in ([0], [3], []):
            with pytest.raises(ValueError, match=r"^negative weight on edge \(1, 2\)$"):
                run(weights, seeds)
        with pytest.raises(ValueError, match=r"^negative weight on edge \(2, 0\)$"):
            run([(0, 1), (2, 0)], [1])


def test_canonical_path_is_optimal_and_deterministic():
    rng = random.Random(4)
    for _ in range(40):
        n, edges = random_digraph(rng)
        weights = {e: Fraction(rng.randint(0, 6)) for e in edges}
        weight, _ = int_weights(weights)
        target = rng.randrange(n)
        adj = genutil.out_rows(n, edges)
        dist = graphalg.lex_dist_to(adj, weight, [target])
        for v in range(n):
            if dist[v] is None:
                continue
            path = graphalg.canonical_path(v, adj, weight, dist)
            assert path[0] == v and path[-1] == target
            assert len(set(path)) == len(path)
            cost = sum(weight(a, b) for a, b in zip(path, path[1:]))
            assert cost == dist[v][0]
            assert len(path) - 1 == dist[v][1]
            assert graphalg.canonical_path(v, adj, weight, dist) == path


def test_bellman_ford_potentials_relax_all_edges():
    rng = random.Random(5)
    for n, edges, weights in weighted_digraphs(rng, 40):
        weight = lambda u, v: weights[(u, v)]
        iweight, scale = int_weights(weights)
        rows = genutil.out_rows(n, edges)
        try:
            expected = fraction_kernels.bellman_ford_potentials(n, edges, weight)
        except AssertionError:
            with pytest.raises(InternalCheckFailed, match="negative cycle"):
                graphalg.bellman_ford_potentials(rows, iweight)
            continue
        pot = graphalg.bellman_ford_potentials(rows, iweight)
        assert all(type(p) is int for p in pot)
        assert [Fraction(p, scale) for p in pot] == expected
        for u, v in edges:
            assert pot[u] + iweight(u, v) >= pot[v]


def _tree(n, edges, roots, joins=None):
    into = genutil.out_rows(n, [(v, u) for u, v in edges])
    return graphalg.tree_toward(into, roots, range(n) if joins is None else joins)


def test_tree_toward():
    n, edges = 5, [(0, 1), (1, 2), (3, 3)]
    assert _tree(n, edges, [2]).keys() | {2} == {0, 1, 2}
    assert _tree(n, edges, [4]).keys() | {4} == {4}


def test_tree_toward_takes_the_lowest_id_parent_one_layer_closer():
    # layer 1 is {5, 6}; 1 reaches both and takes 5; 2 reaches 6 and the
    # lower-id 1, but 1 is in 2's own layer
    edges = [(5, 0), (6, 0), (1, 5), (1, 6), (2, 1), (2, 6), (3, 2)]
    assert _tree(7, edges, [0]) == {5: 0, 6: 0, 1: 5, 2: 6, 3: 2}


def test_tree_toward_joins_only_listed_vertices():
    # without 1, vertex 2 routes through 3, and 4 (only behind 1) is left out
    edges = [(1, 0), (3, 0), (2, 1), (2, 3), (4, 1)]
    assert _tree(5, edges, [0]) == {1: 0, 3: 0, 2: 1, 4: 1}
    assert _tree(5, edges, [0], {2, 3, 4}) == {3: 0, 2: 3}


def test_tree_toward_ignores_self_loops_and_never_keys_a_root():
    edges = [(0, 0), (1, 1), (1, 0), (2, 2), (0, 3), (3, 0)]
    assert _tree(4, edges, [0]) == {1: 0, 3: 0}
    assert _tree(4, edges, [0, 3]) == {1: 0}
    assert _tree(4, edges, [0, 1, 3]) == {}


def test_wrong_minimum_mean_fails_the_cycle_extraction(monkeypatch):
    # a mean below every cycle's leaves no zero-sum cycle on the tight edges
    monkeypatch.setattr(graphalg, "_karp_min_mean", lambda m, edges: (0, 1))
    with pytest.raises(InternalCheckFailed, match="no cycle of mean 0/1 found in component"):
        graphalg.min_cycle_mean([[1], [0]], lambda u, v: 1)
