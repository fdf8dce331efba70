from __future__ import annotations

import random

import pytest

import genutil
from pathgames import graphalg, oracle, reductions, terminalne
from pathgames.errors import NotSymmetric, VerificationFailed
from pathgames.model import Situation, TerminalGame, lowest_id_situation, terminal_game
from pathgames.play import terminal_cost, trace
from pathgames.reductions import (
    _check_table_values,
    contract_small_game,
    lift_situation,
    response_tables,
    terminal_to_sp,
)
from pathgames.spne import solve_theorem1
from pathgames.terminalne import solve_theorem2
from pathgames.une import solve_theorem3


def test_solve_g2_from_vertex_1(g2):
    situation = solve_theorem2(g2)
    assert oracle.verify_ne_terminal(g2, situation).ok
    # the oracle says this game has exactly one NE from vertex 1
    assert situation.describe(g2.graph) == "1->a1 2->a2"


def test_solve_g3s_has_ne_but_no_une(g3s):
    situation = solve_theorem2(g3s)
    assert oracle.verify_ne_terminal(g3s, situation).ok
    assert oracle.find_all_une(g3s) == []


def test_solve_single_terminal_move():
    game = terminal_game([1, None], [(0, 1)], {1: (-1,)}, n_players=1, initial=0)
    situation = solve_theorem2(game)
    assert situation[0] == 1


def test_solve_all_moves_terminal_picks_best():
    game = terminal_game(
        [1, None, None],
        [(0, 1), (0, 2)],
        {1: (-1,), 2: (-4,)},
        n_players=1,
        initial=0,
    )
    situation = solve_theorem2(game)
    assert situation[0] == 2


def test_solve_infinite_lock_when_cycling_preferred():
    # both players prefer the infinite play to every terminal
    game = terminal_game(
        [1, 2, None],
        [(0, 1), (1, 0), (1, 2)],
        {2: (3, 3)},
        n_players=2,
        infinite_cost=(0, 0),
        initial=0,
    )
    situation = solve_theorem2(game)
    assert oracle.verify_ne_terminal(game, situation).ok
    assert not trace(game.graph, situation, 0).is_terminal


def test_solve_rejects_asymmetric(g6):
    with pytest.raises(NotSymmetric):
        solve_theorem2(g6)


def test_solve_unreachable_terminal_any_situation():
    game = terminal_game(
        [1, 2, 1, None],
        [(0, 1), (1, 0), (2, 3)],
        {3: (-1, -1)},
        n_players=2,
        initial=0,
    )
    situation = solve_theorem2(game)
    assert oracle.verify_ne_terminal(game, situation).ok


def test_solve_from_every_start_random():
    rng = random.Random(71)
    for _ in range(40):
        game = genutil.random_symmetric_terminal(rng, max_v=8)
        for start in game.graph.nonterminals:
            situation = solve_theorem2(game, start=start)
            assert oracle.verify_ne_terminal(game, situation, start=start).ok


def test_solve_with_self_loops():
    game = terminal_game(
        [1, 2, None],
        [(0, 0), (0, 1), (1, 0), (1, 2)],
        {2: (-1, 5)},
        n_players=2,
        initial=0,
    )
    situation = solve_theorem2(game)
    assert oracle.verify_ne_terminal(game, situation).ok


def test_ciw_cross_validation_with_reduction_route():
    rng = random.Random(73)
    routed = 0
    for _ in range(30):
        game = genutil.random_symmetric_terminal(rng, max_v=7, ciw=True)
        start = game.graph.initial
        # route 1: direct case analysis
        direct = solve_theorem2(game, start=start)
        assert oracle.verify_ne_terminal(game, direct, start=start).ok
        # route 2: embed into a positive SP game and solve there
        red = terminal_to_sp(game)
        sp_situation = solve_theorem1(red.game, start=start)
        assert oracle.verify_ne_sp(red.game, sp_situation, start=start).ok
        if trace(game.graph, sp_situation, start).is_terminal:
            routed += 1
            assert oracle.verify_ne_terminal(game, sp_situation, start=start).ok
    assert routed >= 10


def test_case3_recursion_keeps_better_inner_outcome():
    # vertex 0 has a mediocre terminal move but can reach a better terminal
    # through vertex 1, so the recursive branch's situation must be kept
    game = terminal_game(
        [1, 2, None, None],
        [(0, 1), (1, 0), (0, 2), (1, 3)],
        {2: (-1, -1), 3: (-5, -5)},
        n_players=2,
        initial=0,
    )
    situation = solve_theorem2(game)
    play = trace(game.graph, situation, 0)
    assert play.terminal == 3
    assert terminal_cost(game, play, 1) == -5


def test_case32_takes_own_terminal():
    # cycling is the inner outcome and the own terminal beats it
    game = terminal_game(
        [1, 2, None],
        [(0, 1), (1, 0), (0, 2)],
        {2: (-1, -1)},
        n_players=2,
        initial=0,
    )
    situation = solve_theorem2(game)
    assert situation[0] == 2
    assert oracle.verify_ne_terminal(game, situation).ok


def test_huge_strategy_space_uses_value_table_check():
    # one player owns a symmetric clique, so its strategy space dwarfs any
    # enumeration cap; the solver must still verify and return
    n = 12
    edges = [(u, v) for u in range(n) for v in range(n) if u != v]
    edges.append((0, n))
    game = terminal_game(
        [1] * n + [None],
        edges,
        {n: (-1,)},
        n_players=1,
        initial=3,
    )
    situation = solve_theorem2(game)
    assert trace(game.graph, situation, 3).terminal == n


def test_value_table_check_agrees_with_exhaustive_oracle():
    # random lifted situations on non-CIW games with self-loops, every start
    rng = random.Random(41)
    verdicts = {True: 0, False: 0}
    for _ in range(300):
        game = genutil.random_symmetric_terminal(rng, max_v=7)
        small, cmap = contract_small_game(game)
        sg = small.graph
        inner = Situation.of(sg, {v: rng.choice(sg.out[v]) for v in sg.nonterminals})
        situation = lift_situation(inner, cmap)
        for start in game.graph.nonterminals:
            is_ne = oracle.verify_ne_terminal(game, situation, start).ok
            tables = [response_tables(game, situation, p) for p in game.graph.players]
            try:
                _check_table_values(game, situation, tables, [start])
                passed = True
            except VerificationFailed:
                passed = False
            assert passed == is_ne, (game, situation, start)
            verdicts[is_ne] += 1
    assert verdicts[True] >= 300 and verdicts[False] >= 300, verdicts


def test_broken_construction_fails_verification(chain, monkeypatch):
    # the all-lowest-id situation cycles between the two players, and
    # player 2 gains by exiting to the terminal
    monkeypatch.setattr(
        terminalne, "_solve_contracted", lambda game, v0: lowest_id_situation(game.graph)
    )
    with pytest.raises(VerificationFailed):
        solve_theorem2(chain)


def test_failed_check_reports_costs_in_game_units(monkeypatch):
    # the check compares ints scaled by 12 here; its message must not show them
    game = terminal_game(
        [1, 2, None], [(0, 1), (1, 0), (1, 2)], {2: ("-1/4", "-7/4")},
        n_players=2, infinite_cost=("1/3", "1/3"), initial=0,
    )
    assert game._int_costs[0] == 12
    monkeypatch.setattr(
        terminalne, "_solve_contracted", lambda game, v0: lowest_id_situation(game.graph)
    )
    with pytest.raises(VerificationFailed) as exc:
        solve_theorem2(game)
    assert str(exc.value) == (
        "player 2 from vertex 0: the play costs 1/3, the one-player optimum is -7/4"
    )


def test_theorems_2_and_3_share_one_component_pass(monkeypatch):
    sccs = genutil.count_calls(monkeypatch, graphalg, "strongly_connected_components")
    rng = random.Random(97)
    for _ in range(10):
        game = genutil.random_symmetric_terminal(rng, max_v=8, ciw=True)
        sccs.clear()
        solve_theorem2(game)
        solve_theorem3(game)
        assert len(sccs) == 1


def test_theorems_2_and_3_contract_once(monkeypatch):
    # solve_theorem2 and une_preprocess share the game's one contraction
    builds = genutil.count_calls(monkeypatch, reductions, "ContractionMap")
    rng = random.Random(101)
    for _ in range(10):
        game = genutil.random_symmetric_terminal(rng, max_v=8, ciw=True)
        builds.clear()
        solve_theorem2(game)
        solve_theorem3(game)
        assert len(builds) == 1
        assert contract_small_game(game) is contract_small_game(game)


def test_theorems_2_and_3_build_no_sub_game_and_lift_with_one_search(monkeypatch):
    # Case 3 runs on the contracted game, not on a copy without the start's
    # terminal moves: Theorem 2 builds only the contraction, from every
    # start, and Theorem 3 runs on that contraction without pruning a copy.
    # A lift routes every component with one reverse search.
    real = TerminalGame._from_ints.__func__
    builds = []

    def counting(cls, graph, scale, rows):
        builds.append(graph)
        return real(cls, graph, scale, rows)

    monkeypatch.setattr(TerminalGame, "_from_ints", classmethod(counting))
    searches = genutil.count_calls(monkeypatch, graphalg, "tree_toward")
    real_lift = reductions.lift_situation
    per_lift = []

    def lift(situation, cmap):
        before = len(searches)
        lifted = real_lift(situation, cmap)
        per_lift.append(len(searches) - before)
        return lifted

    monkeypatch.setattr(reductions, "lift_situation", lift)
    monkeypatch.setattr(terminalne, "lift_situation", lift)
    rng = random.Random(103)
    case3 = merged = 0
    for _ in range(40):
        game = genutil.random_symmetric_terminal(rng, max_v=10, ciw=True)
        g = game.graph
        builds.clear()
        searches.clear()
        for v in g.nonterminals:
            solve_theorem2(game, v)
        small, cmap = contract_small_game(game)
        assert builds == [small.graph]
        assert len(searches) == 2 * len(g.nonterminals)
        case3 += sum(
            small.best_terminal(cmap.component[v]) is not None
            and not all(map(small.graph.is_terminal, small.graph.out[cmap.component[v]]))
            for v in g.nonterminals
        )
        merged += sum(len(m) > 1 for m in cmap.members)
        builds.clear()
        searches.clear()
        solve_theorem3(game)
        assert builds == []
        assert len(searches) == 2  # the graph's one search toward the terminals, the lift
    assert set(per_lift) == {1}
    assert case3 >= 50 and merged >= 20, (case3, merged)
