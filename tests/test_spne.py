from __future__ import annotations

import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest

import genutil
import pathgames
from pathgames import graphalg, model, oracle, spne
from pathgames.errors import InternalCheckFailed, NotPositive, NotSymmetric, Unreachable
from pathgames.model import (
    SPGame,
    Situation,
    is_positive,
    lowest_id_situation,
    merge_terminals,
    sp_game,
)
from pathgames.play import sp_cost, trace
from pathgames.spne import (
    decompose,
    extend_to_situation,
    intra_component_distance,
    lambda_shortest,
    make_special,
    solve_theorem1,
)


def test_decompose_g6s_all_singletons(g6s):
    merged, _ = merge_terminals(g6s)
    dec = decompose(merged)
    assert len(dec.members) == 7
    assert all(len(m) == 1 for m in dec.members)


def test_decompose_three_cycle_one_component():
    game = sp_game(
        [1, 1, 1, None],
        {(0, 1): (1,), (1, 2): (1,), (2, 0): (1,), (0, 3): (1,)},
        n_players=1,
    )
    dec = decompose(game)
    assert sorted(map(len, dec.members)) == [1, 3]


def test_decompose_no_intraplayer_edges_all_singletons(chain):
    game = sp_game(
        [1, 2, None],
        {(0, 1): (1, 1), (1, 0): (1, 1), (1, 2): (1, 1)},
        n_players=2,
    )
    dec = decompose(game)
    assert len(dec.members) == 3


def test_lambda_shortest_g6s(g6s):
    merged, _ = merge_terminals(g6s)
    dec = decompose(merged)
    sp = lambda_shortest(merged, dec, 0)
    assert sp.vertices == (0, 6)
    assert sp.q == 2


def test_lambda_shortest_same_component_pair():
    game = sp_game(
        [1, 1, None],
        {(0, 1): (1,), (1, 0): (1,), (1, 2): (1,)},
        n_players=1,
    )
    dec = decompose(game)
    sp = lambda_shortest(game, dec, 0)
    assert sp.q == 2
    assert sp.vertices == (0, 1, 2)


def test_lambda_shortest_unreachable():
    game = sp_game(
        [1, 2, None],
        {(0, 1): (1, 1), (1, 0): (1, 1)},
        n_players=2,
    )
    dec = decompose(game)
    with pytest.raises(Unreachable):
        lambda_shortest(game, dec, 0)


def test_intra_component_distance():
    game = sp_game(
        [1, 1, None],
        {(0, 1): (3,), (1, 0): (5,), (1, 2): (1,)},
        n_players=1,
    )
    dec = decompose(game)
    comp = dec.comp_of[0]
    assert intra_component_distance(game, dec, comp, 0, 0) == 0
    assert intra_component_distance(game, dec, comp, 0, 1) == 3
    assert intra_component_distance(game, dec, comp, 1, 0) == 5


def test_intra_component_distance_three_vertices():
    game = sp_game(
        [1, 1, 1, None],
        {(0, 1): (2,), (1, 0): (9,), (1, 2): (4,), (2, 1): (9,),
         (2, 0): (9,), (0, 2): (100,), (2, 3): (1,)},
        n_players=1,
    )
    dec = decompose(game)
    comp = dec.comp_of[0]
    assert intra_component_distance(game, dec, comp, 0, 2) == 6  # via vertex 1


def test_make_special_g6s_base_is_special(g6s):
    merged, _ = merge_terminals(g6s)
    dec = decompose(merged)
    base = lambda_shortest(merged, dec, 0)
    assert make_special(merged, dec, base).vertices == base.vertices


def test_make_special_improves_inside_component():
    # a-b-c form one component; the crossing-minimal canonical path a->b->t
    # costs 11 while the player can reach t via c for 3, so the repair loop
    # must splice the detour in and shrink the block cost vector.
    game = sp_game(
        [1, 1, 1, None],
        {
            (0, 1): (10,), (1, 0): (10,),
            (0, 2): (1,), (2, 0): (1,),
            (1, 2): (1,), (2, 1): (1,),
            (1, 3): (1,),
        },
        n_players=1,
        names=["a", "b", "c", "t"],
    )
    dec = decompose(game)
    base = lambda_shortest(game, dec, 0)
    assert base.vertices == (0, 1, 3)
    assert base.r_vector == (Fraction(11),)
    sp = make_special(game, dec, base)
    assert sp.vertices == (0, 2, 1, 3)
    assert sp.r_vector == (Fraction(3),)


def test_make_special_single_player_equals_shortest_path():
    rng = random.Random(51)
    for _ in range(20):
        game = genutil.random_symmetric_positive_sp(rng, max_v=7, max_players=1)
        merged, _ = merge_terminals(game)
        dec = decompose(merged)
        g = merged.graph
        vt = g.terminals[0]
        v0 = merged.graph.initial
        best = genutil.dijkstra_cost(
            g.n_vertices, g.edge_set, lambda u, v: merged.cost(u, v, 1), v0, [vt]
        )
        if best is None:
            continue
        sp = make_special(merged, dec, lambda_shortest(merged, dec, v0))
        got = sum(merged.cost(u, v, 1) for u, v in zip(sp.vertices, sp.vertices[1:]))
        assert got == best


def test_make_special_result_is_special_for_everyone():
    rng = random.Random(53)
    for _ in range(30):
        game = genutil.random_symmetric_positive_sp(rng, max_v=8)
        merged, _ = merge_terminals(game)
        dec = decompose(merged)
        g = merged.graph
        v0 = g.initial
        vt = g.terminals[0]
        try:
            sp = make_special(merged, dec, lambda_shortest(merged, dec, v0))
        except Unreachable:
            continue
        # independent re-check with a plain Dijkstra per player
        for player in g.players:
            edges = set(zip(sp.vertices, sp.vertices[1:]))
            for v in g.nonterminals:
                if g.owner[v] == player:
                    edges.update((v, w) for w in g.out[v])
            own = sum(
                merged.cost(u, v, player) for u, v in zip(sp.vertices, sp.vertices[1:])
            )
            best = genutil.dijkstra_cost(
                g.n_vertices, edges, lambda u, v: merged.cost(u, v, player), v0, [vt]
            )
            assert best == own


def test_extend_all_on_path():
    game = sp_game(
        [1, 2, None],
        {(0, 1): (1, 1), (1, 0): (1, 1), (1, 2): (1, 1)},
        n_players=2,
    )
    dec = decompose(game)
    sp = lambda_shortest(game, dec, 0)
    situation = extend_to_situation(game, dec, sp)
    assert situation[0] == 1 and situation[1] == 2


def test_extend_g6s_pattern(g6s):
    merged, _ = merge_terminals(g6s)
    dec = decompose(merged)
    sp = make_special(merged, dec, lambda_shortest(merged, dec, 0))
    situation = extend_to_situation(merged, dec, sp)
    vt = merged.graph.terminals[0]
    assert situation[1] == 0 and situation[5] == 0  # neighbors re-enter block 1
    assert situation[2] == vt and situation[3] == vt and situation[4] == vt


def test_extend_prefers_earliest_block():
    # w sees both the middle block and the terminal block; the earliest wins
    game = sp_game(
        [1, 2, 1, None],
        {
            (0, 1): (1, 1), (1, 0): (1, 1),
            (1, 3): (1, 1),
            (2, 1): (1, 1), (1, 2): (1, 1),
            (2, 3): (1, 1),
        },
        n_players=2,
        names=["v1", "v2", "w", "t"],
    )
    dec = decompose(game)
    sp = lambda_shortest(game, dec, 0)
    assert sp.vertices == (0, 1, 3)
    situation = extend_to_situation(game, dec, sp)
    assert situation[2] == 1  # block 2 beats the terminal block


def test_extend_minimizes_entry_distance():
    # component {x, y}: the path enters at x, so the off-path vertex w must
    # aim at x (distance 0) rather than y
    game = sp_game(
        [1, 2, 2, 1, None],
        {
            (0, 1): (1, 1), (1, 0): (1, 1),      # v0 <-> x
            (1, 2): (1, 1), (2, 1): (1, 1),      # x <-> y
            (3, 1): (1, 1), (1, 3): (1, 1),      # w <-> x
            (3, 2): (1, 1), (2, 3): (1, 1),      # w <-> y
            (1, 4): (1, 1),                      # x -> t
        },
        n_players=2,
        names=["v0", "x", "y", "w", "t"],
    )
    dec = decompose(game)
    sp = make_special(game, dec, lambda_shortest(game, dec, 0))
    assert sp.vertices == (0, 1, 4)
    situation = extend_to_situation(game, dec, sp)
    assert situation[3] == 1
    assert situation[2] == 1


def reference_extension(game, dec, sp):
    """The extension rule with one distance query per candidate."""
    g = game.graph
    choice = dict(zip(sp.vertices, sp.vertices[1:]))
    block_of_comp = {c: j for j, c in enumerate(sp.block_comp)}
    for v in g.nonterminals:
        if v in choice:
            continue
        hits = [
            (block_of_comp[dec.comp_of[w]], w)
            for w in g.out[v]
            if dec.comp_of[w] in block_of_comp
        ]
        if not hits:
            choice[v] = g.out[v][0]
            continue
        k = min(j for j, _ in hits)
        comp, entry = sp.block_comp[k], sp.blocks[k][0]
        owner = dec.comp_owner[comp]
        inside = [(a, b) for a, b in g.edge_set if dec.comp_of[a] == dec.comp_of[b] == comp]
        dist = {}
        for w in (w for j, w in hits if j == k):
            dist[w] = intra_component_distance(game, dec, comp, entry, w)
            # the library query agrees with a plain Dijkstra inside the block
            assert dist[w] == genutil.dijkstra_cost(
                g.n_vertices, inside, lambda a, b: game.cost(a, b, owner), entry, [w]
            )
        choice[v] = min(dist, key=lambda w: (dist[w], w))
    return Situation.of(g, choice)


def test_extend_matches_per_candidate_reference():
    rng = random.Random(71)
    chosen_by_distance = 0
    for _ in range(60):
        game = genutil.random_symmetric_positive_sp(rng, max_v=12)
        merged, _ = merge_terminals(game)
        dec = decompose(merged)
        try:
            sp = make_special(merged, dec, lambda_shortest(merged, dec, merged.graph.initial))
        except Unreachable:
            continue
        situation = extend_to_situation(merged, dec, sp)
        assert situation == reference_extension(merged, dec, sp)
        # picks where the entry distance, not the lowest id, decided
        g = merged.graph
        for v in g.nonterminals:
            if v not in sp.vertices:
                block = dec.comp_of[situation[v]]
                chosen_by_distance += situation[v] > min(
                    w for w in g.out[v] if dec.comp_of[w] == block
                )
    assert chosen_by_distance >= 20


def test_extension_runs_one_search_per_visited_block(monkeypatch):
    searches = genutil.count_calls(monkeypatch, graphalg, "lex_dist_from")
    rng = random.Random(73)
    visited = 0
    for _ in range(30):
        game = genutil.random_symmetric_positive_sp(rng, max_v=12)
        merged, mmap = merge_terminals(game)
        dec = decompose(merged)
        v0 = mmap.old_to_new[game.graph.initial]
        try:
            sp = make_special(merged, dec, lambda_shortest(merged, dec, v0))
        except Unreachable:
            continue
        searches.clear()
        solve_theorem1(game)
        assert len(searches) <= sp.q
        visited += sp.q
    assert visited >= 40


def test_solve_theorem1_single_edge():
    game = sp_game([1, None], {(0, 1): (1,)}, n_players=1, initial=0)
    situation = solve_theorem1(game)
    assert situation[0] == 1
    play = trace(game.graph, situation, 0)
    assert sp_cost(game, play, 1).value == 1


def test_solve_theorem1_g6s(g6s):
    situation = solve_theorem1(g6s)
    assert oracle.verify_ne_sp(g6s, situation).ok
    all_ne = {s.moves for s in oracle.find_all_ne(g6s)}
    assert situation.moves in all_ne


def test_solve_theorem1_rejects_bad_inputs(fig1_pm, g6):
    # fig1_pm is edge-symmetric with a non-positive cycle, so the reweighting
    # cannot rescue it either.
    for transform in (False, True):
        with pytest.raises(
            NotPositive,
            match="^edge costs are not all positive and neither are cycle sums$",
        ):
            solve_theorem1(fig1_pm, transform=transform)
    from pathgames.reductions import terminal_to_sp

    g6_sp = terminal_to_sp(g6).game
    with pytest.raises(NotSymmetric):
        solve_theorem1(g6_sp)


def test_solve_theorem1_unreachable_terminal():
    game = sp_game(
        [1, 2, None],
        {(0, 1): (1, 1), (1, 0): (1, 1)},
        n_players=2,
        initial=0,
    )
    situation = solve_theorem1(game)
    assert situation.moves == lowest_id_situation(game.graph).moves
    assert oracle.verify_ne_sp(game, situation).ok


def test_solve_theorem1_without_terminals():
    # every play cycles, so no deviation helps: the all-lowest-id situation,
    # after the symmetry and positivity checks
    game = sp_game([1, 2], {(0, 1): (1, 1), (1, 0): (1, 1)}, n_players=2, initial=0)
    situation = solve_theorem1(game)
    assert situation.moves == lowest_id_situation(game.graph).moves == (1, 0)
    assert oracle.verify_ne_sp(game, situation).ok
    with pytest.raises(NotSymmetric):
        solve_theorem1(sp_game([1, 2, 2], {(0, 1): (1, 1), (1, 0): (1, 1), (2, 0): (1, 1)},
                               n_players=2, initial=0))
    with pytest.raises(NotPositive, match="^edge costs are not all positive$"):
        solve_theorem1(sp_game([1, 2], {(0, 1): (-1, 1), (1, 0): (2, 1)}, n_players=2,
                               initial=0))


def test_solve_theorem1_with_transform():
    rng = random.Random(61)
    solved = 0
    for _ in range(40):
        game = genutil.random_positive_cycle_sp(rng, max_v=6)
        # symmetrize the board, keeping cycle sums positive: add missing
        # reverse edges with clearly positive costs
        g = game.graph
        extra = {}
        for u, v in g.edge_set:
            if not g.is_terminal(v) and (v, u) not in g.edge_set:
                extra[(v, u)] = tuple(Fraction(7) for _ in g.players)
        cost = dict(game.edge_cost) | extra
        sym = sp_game(
            [g.owner[v] for v in range(g.n_vertices)],
            cost,
            g.n_players,
            initial=g.initial,
        )
        report = is_positive(sym)
        if not report.cycle_positive or report.edge_positive:
            continue
        solved += 1
        situation = solve_theorem1(sym, transform=True)
        from pathgames.reductions import gallai_transform

        positive = gallai_transform(sym).game
        assert oracle.verify_ne_sp(positive, situation).ok
        # equilibrium carries over to the original mixed-sign game
        if oracle.situation_count(sym) <= 4000:
            assert any(
                s.moves == situation.moves for s in oracle.find_all_ne(sym)
            )
    assert solved >= 3


def test_solve_theorem1_random_cross_check():
    rng = random.Random(63)
    enumerated = 0
    for _ in range(40):
        game = genutil.random_symmetric_positive_sp(rng, max_v=8)
        situation = solve_theorem1(game)
        assert oracle.verify_ne_sp(game, situation).ok
        if oracle.situation_count(game) <= 4000:
            enumerated += 1
            assert any(
                s.moves == situation.moves for s in oracle.find_all_ne(game)
            )
    assert enumerated >= 5


def test_make_special_fallback_route(monkeypatch):
    # force the single-splice search to fail so the full-relaxation fallback
    # must produce the same repaired path
    import pathgames.spne as spne_mod

    game = sp_game(
        [1, 1, 1, None],
        {
            (0, 1): (10,), (1, 0): (10,),
            (0, 2): (1,), (2, 0): (1,),
            (1, 2): (1,), (2, 1): (1,),
            (1, 3): (1,),
        },
        n_players=1,
    )
    dec = decompose(game)
    base = lambda_shortest(game, dec, 0)
    monkeypatch.setattr(spne_mod, "_best_splice", lambda *a, **k: None)
    sp = make_special(game, dec, base)
    assert sp.vertices == (0, 2, 1, 3)
    assert sp.r_vector == (Fraction(3),)


def test_theorem1_runs_at_most_one_cycle_pass(monkeypatch):
    calls = []
    real = graphalg.min_cycle_mean

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(graphalg, "min_cycle_mean", counting)
    # Positive edges imply positive cycles: no pass at all, also none in
    # the verification inside the solve.
    rng = random.Random(67)
    for _ in range(10):
        game = genutil.random_symmetric_positive_sp(rng, max_v=8)
        assert is_positive(game)
        solve_theorem1(game)
    assert calls == []
    # A negative edge on a positive cycle: the reweighting is the one pass.
    game = sp_game(
        [1, 2, None],
        {(0, 1): (-1, 2, -2), (1, 0): (3, 1, 5), (0, 2): (1, 1, 1), (1, 2): (2, 2, 2)},
        n_players=3,
        initial=0,
    )
    solve_theorem1(game, transform=True)
    assert len(calls) == game.graph.n_players


def test_theorem1_scales_each_game_once(monkeypatch):
    # No kernel rescales costs per call: a solve derives no integer table
    # from rationals, and each game it derives (merged, reweighted) is built
    # once, from the table of the game it came from.
    assert not hasattr(graphalg, "_scaled")
    scalings = genutil.count_calls(monkeypatch, model, "_scaled_rows")
    real = SPGame._from_ints.__func__
    builds = []

    def counting(cls, graph, scale, rows):
        builds.append(real(cls, graph, scale, rows))
        return builds[-1]

    monkeypatch.setattr(SPGame, "_from_ints", classmethod(counting))
    rng = random.Random(71)
    for _ in range(10):
        game = genutil.random_symmetric_positive_sp(rng, max_v=8)
        builds.clear()
        scalings.clear()
        solve_theorem1(game)
        assert scalings == []
        assert len(builds) == 1  # the merged game
    game = sp_game(
        [1, 2, None],
        {(0, 1): (-1, 2, -2), (1, 0): (3, 1, 5), (0, 2): (1, 1, 1), (1, 2): (2, 2, 2)},
        n_players=3,
        initial=0,
    )
    builds.clear()
    scalings.clear()
    solve_theorem1(game, transform=True)
    assert scalings == []
    assert len(builds) == 2  # the reweighted game, then its merged game
    assert len({id(g) for g in builds}) == len(builds)


def test_theorem1_checks_raise_under_dash_O():
    # Internal checks of the Theorem-1 path must not be plain asserts,
    # which -O strips.
    code = textwrap.dedent(
        """
        import sys
        from pathgames import graphalg, reductions, spne
        from pathgames.errors import InternalCheckFailed
        from pathgames.model import sp_game
        from pathgames.spne import ComponentDecomposition, SpecialPath

        one_way = sp_game([1, 1, None], {(0, 1): (1,), (1, 2): (1,)}, 1)
        split = ComponentDecomposition((0, 0, 1), ((0, 1), (2,)), (1, None))
        loop = sp_game([1, 1, None], {(0, 1): (1,), (1, 0): (1,), (1, 2): (5,)}, 1)
        stuck = sp_game(
            [1, 2, None], {(0, 1): (1, 1), (1, 0): (1, 1), (1, 2): (1, 1)}, 2
        )
        acyclic = sp_game([1, 1, None], {(0, 1): (-1,), (1, 2): (1,)}, 1)

        def bad_blocks(game, dec, v0):
            spne._make_special_path = lambda game, dec, path: SpecialPath(
                tuple(path), (), (), ()
            )
            return spne.lambda_shortest(game, dec, v0)

        def zero_potentials(game):
            graphalg.bellman_ford_potentials = lambda out, weight: [0] * len(out)
            return reductions.gallai_transform(game)

        for run in (
            lambda: graphalg.canonical_path(0, [[1], []], lambda u, v: 1, [(5, 1), (0, 0)]),
            lambda: spne._entry_distances(one_way, split, 0, 1),
            lambda: spne._speciality_gap(loop, SpecialPath((0, 1), (), (), ()), 1),
            lambda: spne._speciality_gap(stuck, SpecialPath((0, 1), (), (), ()), 1),
            lambda: bad_blocks(loop, spne.decompose(loop), 0),
            lambda: zero_potentials(acyclic),
        ):
            try:
                run()
            except InternalCheckFailed as exc:
                print(sys.flags.optimize, exc)
        """
    )
    src = os.path.dirname(os.path.dirname(pathgames.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [
        "1 inconsistent distance table",
        "1 component is not strongly connected",
        "1 path cost exceeds its own relaxation",
        "1 path start cannot reach the terminal in its relaxation",
        "1 block count disagrees with crossing distance",
        "1 potential failed to make the edge positive",
    ]


@pytest.mark.xfail(
    strict=True,
    reason="Gallai potentials differ between terminals, which reorders them",
)
def test_solve_theorem1_transform_keeps_equilibria_with_two_terminals():
    # Smallest failing case among random_positive_cycle_sp games made
    # edge-symmetric by adding each missing reverse move at cost 7 (here
    # 1->0). The reweighting puts terminal 2 at potential 0 and terminal 3
    # at -11/8, so the solver keeps 0->2 (193/100) although 0->1->3 costs
    # 13/20 in the input game.
    game = sp_game(
        [1, 1, None, None],
        {
            (0, 1): (Fraction(-59, 20),),
            (0, 2): (Fraction(193, 100),),
            (1, 0): (Fraction(7),),
            (1, 3): (Fraction(18, 5),),
        },
        n_players=1,
        initial=0,
    )
    situation = solve_theorem1(game, transform=True)
    assert oracle.verify_ne_sp(game, situation).ok


def test_lambda_shortest_rejects_a_path_that_re_enters_a_component(monkeypatch):
    game = sp_game([1, 2, None], {(0, 1): (1, 1), (1, 0): (1, 1), (1, 2): (1, 1)}, n_players=2)
    monkeypatch.setattr(graphalg, "canonical_path", lambda *args: [0, 1, 0, 1, 2])
    with pytest.raises(InternalCheckFailed, match="path re-enters a component it left"):
        lambda_shortest(game, decompose(game), 0)


def test_make_special_rejects_a_path_that_skips_a_block():
    # 0 -> 1 -> 2 crosses twice, though the edge 0 -> 2 reaches block 2 directly
    game = sp_game(
        [1, 2, None], {(0, 1): (1, 1), (1, 0): (1, 1), (1, 2): (1, 1), (0, 2): (1, 1)},
        n_players=2,
    )
    dec = decompose(game)
    detour = spne._make_special_path(game, dec, [0, 1, 2])
    with pytest.raises(InternalCheckFailed, match=r"edge \(0, 2\) jumps from block 0 to block 2"):
        make_special(game, dec, detour)
