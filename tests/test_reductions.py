from __future__ import annotations

import dataclasses
import functools
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest

import genutil
from pathgames import graphalg, oracle, spne
from pathgames.errors import (
    CIWViolated,
    ConditionViolated,
    InternalCheckFailed,
    NonPositiveCycle,
)
from pathgames.model import (
    GameGraph,
    Situation,
    is_positive,
    merge_terminals,
    sp_game,
    terminal_game,
)
from pathgames.play import sp_cost, terminal_cost, trace
from pathgames.spne import solve_theorem1
from pathgames.terminalne import solve_theorem2
from pathgames.une import solve_theorem3
from pathgames.reductions import (
    _tree_toward,
    contract_small_game,
    gallai_transform,
    lift_situation,
    terminal_to_sp,
    une_preprocess,
)


def test_player_components_match_naive_pass():
    rng = random.Random(31)
    multi = 0
    for _ in range(40):
        game = genutil.random_symmetric_positive_sp(rng, max_v=12)
        for g in (game.graph, merge_terminals(game)[0].graph):
            intra = [
                [w for w in g.out[v] if not g.is_terminal(w) and g.owner[w] == g.owner[v]]
                for v in range(g.n_vertices)
            ]
            comps = [list(comp) for comp in g._player_components[0]]
            assert comps == genutil.scc_naive(g.n_vertices, intra)
            multi += sum(len(c) > 1 for c in comps)
    assert multi >= 20


def test_gallai_positive_input_unchanged(g6s):
    result = gallai_transform(g6s)
    assert result.game.edge_cost == g6s.edge_cost
    g = g6s.graph
    assert all(result.potential.of(p, v) == 0 for p in g.players for v in range(g.n_vertices))


def test_gallai_two_cycle_by_hand():
    game = sp_game([1, 1, None], {(0, 1): (3,), (1, 0): (-1,), (1, 2): (1,)}, 1)
    result = gallai_transform(game)
    new = result.game
    assert new.cost(0, 1, 1) == Fraction(3, 2)
    assert new.cost(1, 0, 1) == Fraction(1, 2)
    # cycle sum is invariant under any potential
    assert new.cost(0, 1, 1) + new.cost(1, 0, 1) == 2
    assert all(c > 0 for cs in new.edge_cost.values() for c in cs)
    # integer potentials, read back as exact rationals
    pot = result.potential
    assert all(type(x) is int for row in pot.pi for x in row)
    for u, v in game.edge_cost:
        assert new.cost(u, v, 1) - game.cost(u, v, 1) == pot.of(1, u) - pot.of(1, v)


def test_gallai_rejects_fig1(fig1_pm):
    with pytest.raises(NonPositiveCycle) as exc:
        gallai_transform(fig1_pm)
    assert exc.value.player == 1
    assert tuple(exc.value.cycle) == (0, 1)


def test_gallai_path_costs_shift_by_constant():
    rng = random.Random(21)
    games = 0
    for _ in range(30):
        game = genutil.random_positive_cycle_sp(rng, max_v=7)
        if not is_positive(game).cycle_positive:
            continue
        if is_positive(game).edge_positive:
            continue
        games += 1
        result = gallai_transform(game)
        new = result.game
        g = game.graph
        assert all(c > 0 for cs in new.edge_cost.values() for c in cs)
        for w in g.terminals:
            for v0 in g.nonterminals:
                paths = genutil.all_simple_paths(g.n_vertices, g.edge_set, v0, w)
                for player in g.players:
                    shifts = set()
                    for path in paths:
                        old = sum(
                            game.cost(a, b, player) for a, b in zip(path, path[1:])
                        )
                        fresh = sum(
                            new.cost(a, b, player) for a, b in zip(path, path[1:])
                        )
                        shifts.add(fresh - old)
                    assert len(shifts) <= 1
                    if shifts:
                        expected = result.potential.of(player, v0) - result.potential.of(player, w)
                        assert shifts == {expected}
    assert games >= 5


def test_terminal_to_sp_g3s(g3s):
    red = terminal_to_sp(g3s)
    game = red.game
    assert red.scale == 1
    assert red.big_m == 4
    n_edges = len(g3s.graph.edge_set)
    assert n_edges == 9
    for u, v in game.graph.sorted_edges():
        if game.graph.is_terminal(v):
            for p in game.graph.players:
                assert game.cost(u, v, p) == red.big_m + g3s.cost_at(v, p)
        else:
            assert game.edge_cost[(u, v)] == (Fraction(1, 18),) * 3
    assert is_positive(game).edge_positive


def test_terminal_to_sp_g2_violates_ciw(g2):
    with pytest.raises(CIWViolated) as exc:
        terminal_to_sp(g2)
    assert (1, 3) in exc.value.pairs  # player 1 prefers cycling to terminal a2
    assert (1, None) in exc.value.pairs  # player 1 has a nonzero cycling cost


def test_terminal_to_sp_single_move():
    g = terminal_game([1, None], [(0, 1)], {1: (-1,)}, n_players=1)
    red = terminal_to_sp(g)
    assert red.big_m == 2
    assert red.game.cost(0, 1, 1) == red.big_m - 1 > 0


def test_terminal_to_sp_game_without_moves():
    g = terminal_game([None], [], {0: (-1, -1)}, n_players=2)
    red = terminal_to_sp(g)
    assert (red.scale, red.big_m) == (1, 2)
    assert red.game.graph == g.graph
    assert red.game.edge_cost == {}
    assert red.game._int_costs == (1, ({}, {}))


def test_witness_cycle_is_extracted_only_on_the_error_path(monkeypatch, fig1_pm, fig1_p):
    extracted = genutil.count_calls(monkeypatch, graphalg, "_extract_mean_cycle")
    rng = random.Random(89)
    transformed = 0
    while transformed < 10:
        game = genutil.random_positive_cycle_sp(rng)
        if is_positive(game).edge_positive:
            continue
        gallai_transform(game)
        transformed += 1
    assert extracted == []
    for game in (fig1_pm, fig1_p):
        extracted.clear()
        report = is_positive(game)
        assert report.witness_cycle is not None
        assert len(extracted) == 1


def test_terminal_to_sp_fractional_costs_scale():
    g = terminal_game(
        [1, None, None],
        [(0, 1), (0, 2)],
        {1: (Fraction(-1, 3),), 2: (Fraction(-5, 2),)},
        n_players=1,
    )
    red = terminal_to_sp(g)
    assert red.scale == 6
    assert red.big_m == 16  # max scaled magnitude 15, plus one
    assert red.game.cost(0, 1, 1) == 16 - 2
    assert red.game.cost(0, 2, 1) == 16 - 15


def test_sandwich_inequality_random():
    rng = random.Random(31)
    checked = 0
    for _ in range(25):
        game = genutil.random_ciw_terminal(rng, max_v=6)
        if oracle.situation_count(game) > 400:
            continue
        red = terminal_to_sp(game)
        g = game.graph
        for situation in oracle.enumerate_situations(game):
            for start in g.nonterminals:
                play = trace(g, situation, start)
                if not play.is_terminal:
                    continue
                checked += 1
                for p in g.players:
                    scaled = red.scale * game.cost_at(play.terminal, p)
                    sp = sp_cost(red.game, play, p)
                    assert sp.is_finite
                    lo = red.big_m + scaled
                    assert lo <= sp.value < lo + Fraction(1, 2)
    assert checked > 200


def test_image_terminal_ne_is_source_ne():
    rng = random.Random(33)
    checked = 0
    for _ in range(15):
        game = genutil.random_ciw_terminal(rng, max_v=6)
        if oracle.situation_count(game) > 300:
            continue
        red = terminal_to_sp(game)
        for start in game.graph.nonterminals:
            for situation in oracle.find_all_ne(red.game, start=start):
                if not trace(game.graph, situation, start).is_terminal:
                    continue
                checked += 1
                assert oracle.verify_ne_terminal(game, situation, start=start).ok
    assert checked > 20


def test_contract_alternating_is_isomorphic(g6):
    small, cmap = contract_small_game(g6)
    assert small.graph.n_vertices == g6.graph.n_vertices
    assert sorted(small.graph.edge_set) == sorted(g6.graph.edge_set)
    assert all(len(m) == 1 for m in cmap.members)
    assert not any(u == v for u, v in small.graph.edge_set)


def test_contract_two_linked_same_player_vertices():
    g = terminal_game(
        [1, 1, None],
        [(0, 1), (1, 0), (0, 2)],
        {2: (-1,)},
        n_players=1,
    )
    small, cmap = contract_small_game(g)
    assert small.graph.n_vertices == 2
    merged_id = cmap.component[0]
    assert cmap.component[1] == merged_id
    assert (merged_id, merged_id) in small.graph.edge_set
    # lifting the loop choice realizes the internal 2-cycle
    loop = Situation.of(small.graph, {merged_id: merged_id})
    lifted = lift_situation(loop, cmap)
    assert lifted[0] == 1 and lifted[1] == 0


def test_contract_g3s_identity(g3s):
    small, cmap = contract_small_game(g3s)
    assert small.graph.n_vertices == g3s.graph.n_vertices
    assert sorted(small.graph.edge_set) == sorted(g3s.graph.edge_set)


def test_contract_singleton_self_loop_kept():
    g = terminal_game(
        [1, 2, None],
        [(0, 0), (0, 1), (1, 0), (1, 2)],
        {2: (-1, -1)},
        n_players=2,
    )
    small, _ = contract_small_game(g)
    assert (0, 0) in small.graph.edge_set


def test_lift_identity_contraction(g6):
    small, cmap = contract_small_game(g6)
    for situation in oracle.enumerate_situations(small, cap=100):
        lifted = lift_situation(situation, cmap)
        relabeled = {cmap.component[v]: cmap.component[t] for v, t in lifted.items()}
        assert relabeled == dict(situation.items())


def test_lift_preserves_costs_everywhere():
    rng = random.Random(41)
    checked = 0
    for _ in range(25):
        game = genutil.random_symmetric_terminal(rng, max_v=7)
        small, cmap = contract_small_game(game)
        if oracle.situation_count(small) > 400:
            continue
        for situation in oracle.enumerate_situations(small):
            lifted = lift_situation(situation, cmap)
            for v in game.graph.nonterminals:
                cid = cmap.component[v]
                for p in game.graph.players:
                    a = terminal_cost(game, trace(game.graph, lifted, v), p)
                    b = terminal_cost(small, trace(small.graph, situation, cid), p)
                    assert a == b
                    checked += 1
    assert checked > 500


def test_lift_trees_are_shortest_with_lowest_id_parents():
    rng = random.Random(47)
    checked = 0
    for _ in range(60):
        game = genutil.random_symmetric_terminal(rng, max_v=12, max_players=2)
        g = game.graph
        _, cmap = contract_small_game(game)
        for cid, members in enumerate(cmap.members):
            inside = set(members)
            for root in members:
                # hop distance to the root along moves inside the component
                dist = {root: 0}
                frontier = {root}
                while frontier:
                    d = 1 + dist[min(frontier)]
                    frontier = {
                        u for u in inside
                        if u not in dist and any(w in frontier for w in g.out[u])
                    }
                    dist.update((u, d) for u in frontier)
                tree = _tree_toward(cmap, cid, root)
                assert set(tree) == inside - {root}
                for v, parent in tree.items():
                    closer = [
                        w for w in g.out[v]
                        if w in inside and w != v and dist[w] == dist[v] - 1
                    ]
                    assert parent == closer[0]
                    checked += 1
    assert checked >= 1000


def test_lift_contracted_ne_verifies():
    rng = random.Random(43)
    checked = 0
    for _ in range(20):
        game = genutil.random_symmetric_terminal(rng, max_v=6)
        small, cmap = contract_small_game(game)
        if oracle.situation_count(small) > 200:
            continue
        for start in small.graph.nonterminals:
            orig_start = cmap.members[start][0]
            for ne in oracle.find_all_ne(small, start=start)[:3]:
                lifted = lift_situation(ne, cmap)
                assert oracle.verify_ne_terminal(game, lifted, start=orig_start).ok
                checked += 1
    assert checked > 20


def test_une_preprocess_alternating_unchanged(g6):
    # not symmetric, so preprocessing must refuse
    with pytest.raises(ConditionViolated):
        une_preprocess(g6)


def test_une_preprocess_chain(chain):
    prep = une_preprocess(chain)
    assert prep.dropped_edges == ()
    assert prep.unreachable == frozenset()
    assert prep.game.graph.n_vertices == chain.graph.n_vertices


def test_une_preprocess_drops_worse_terminal_moves():
    g = terminal_game(
        [1, 2, None, None],
        [(0, 1), (1, 0), (0, 2), (0, 3), (1, 3)],
        {2: (-1, -1), 3: (-3, -3)},
        n_players=2,
    )
    prep = une_preprocess(g)
    pg = prep.game.graph
    # vertex 0 keeps only the move to the -3 terminal
    assert (0, 2) not in pg.edge_set
    assert (0, 3) in pg.edge_set
    assert (0, 2) in prep.dropped_edges


def test_une_preprocess_terminal_tie_keeps_lowest_id():
    g = terminal_game(
        [1, 2, None, None],
        [(0, 1), (1, 0), (0, 2), (0, 3), (1, 2)],
        {2: (-2, -1), 3: (-2, -1)},
        n_players=2,
    )
    prep = une_preprocess(g)
    assert (0, 2) in prep.game.graph.edge_set
    assert (0, 3) not in prep.game.graph.edge_set


def test_une_preprocess_marks_terminal_free_region():
    g = terminal_game(
        [1, 2, 1, None],
        [(0, 1), (1, 0), (2, 3)],
        {3: (-1, -1)},
        n_players=2,
    )
    prep = une_preprocess(g)
    assert prep.unreachable == frozenset({prep.contraction.component[0],
                                          prep.contraction.component[1]})


def test_contraction_rejects_an_edge_inside_a_singleton_component():
    game = terminal_game([1, 2, None], [(0, 1), (1, 0), (1, 2)], {2: (-1, -1)}, n_players=2)
    # a broken component table: vertex 1 mapped into vertex 0's singleton
    game.graph.__dict__["_player_components"] = (((0,), (1,), (2,)), (0, 0, 2))
    with pytest.raises(InternalCheckFailed, match="intra-singleton edge between distinct vertices"):
        contract_small_game(game)


def test_lift_rejects_a_component_that_is_not_strongly_connected(chain):
    _, cmap = contract_small_game(chain)
    # vertex 2 is the terminal: nothing in the patched component leads back from it
    broken = dataclasses.replace(cmap, members=((0, 2),) + cmap.members[1:])
    with pytest.raises(InternalCheckFailed, match="component 0 not strongly connected"):
        lift_situation(Situation((1, 2, None)), broken)



def _solve_seeded_terminal_games():
    rng = random.Random(29)
    games = [genutil.random_symmetric_terminal(rng, max_v=12, ciw=True) for _ in range(30)]
    games += [genutil.random_ring_ciw_terminal(rng, max_v=14) for _ in range(10)]
    for game in games:
        for start in game.graph.nonterminals:
            solve_theorem2(game, start)
        solve_theorem3(game)
    return games


def _solve_seeded_sp_games():
    # each positive game plainly, then shifted by a per-player potential,
    # which keeps cycle sums positive but makes some costs negative
    rng = random.Random(31)
    for _ in range(30):
        game = genutil.random_symmetric_positive_sp(rng, max_v=12)
        solve_theorem1(game)
        g = game.graph
        pot = [[Fraction(rng.randint(-30, 30), 10) for _ in g.owner] for _ in g.players]
        costs = {
            (u, v): tuple(c + pot[p][u] - pot[p][v] for p, c in enumerate(cs))
            for (u, v), cs in game.edge_cost.items()
        }
        solve_theorem1(sp_game(g.owner, costs, g.n_players, initial=g.initial), transform=True)


def test_terminal_solvers_sort_rows_only_for_the_graphs_they_build(monkeypatch):
    # Theorems 1, 2 and 3 sort rows only as a graph's out rows, once per
    # graph: the kernels, components, relaxations and splice searches read
    # rows, and no search reverses edges
    splices = genutil.count_calls(monkeypatch, spne, "_best_splice")
    sorted_rows = []
    real = graphalg.out_adjacency

    def counting(n, edges):
        caller = sys._getframe(1)
        sorted_rows.append((caller.f_code.co_name, caller.f_locals.get("self")))
        return real(n, edges)

    monkeypatch.setattr(graphalg, "out_adjacency", counting)
    _solve_seeded_terminal_games()
    _solve_seeded_sp_games()
    assert len(splices) >= 10
    assert {name for name, _ in sorted_rows} == {"out"}
    assert all(isinstance(graph, GameGraph) for _, graph in sorted_rows)
    # the graphs stay referenced in sorted_rows, so their ids are distinct
    assert max(Counter((name, id(graph)) for name, graph in sorted_rows).values()) == 1


def test_terminal_solvers_reverse_each_graph_once(monkeypatch):
    built = []
    real = GameGraph.__dict__["_into"].func

    def counting(graph):
        built.append(graph)
        return real(graph)

    into = functools.cached_property(counting)
    into.__set_name__(GameGraph, "_into")
    monkeypatch.setattr(GameGraph, "_into", into)
    games = _solve_seeded_terminal_games()
    assert len(built) >= len(games)
    assert max(Counter(map(id, built)).values()) == 1
