from __future__ import annotations

import json
import math
import random
from fractions import Fraction

import pytest

import genutil
from pathgames import fixtures, oracle
from pathgames.errors import PathgamesError
from pathgames.gamefiles import game_from_dict, game_to_dict
from pathgames.model import (
    ExtCost,
    GameGraph,
    MINUS_INF,
    PLUS_INF,
    Situation,
    SPGame,
    is_edge_symmetric,
    is_positive,
    merge_terminals,
    sp_game,
    terminal_game,
    validate,
)
from pathgames.reductions import gallai_transform


def test_extcost_total_order():
    vals = [MINUS_INF, ExtCost.finite(-5), ExtCost.finite(0),
            ExtCost.finite(Fraction(1, 3)), ExtCost.finite(2), PLUS_INF]
    assert sorted(vals) == vals
    assert MINUS_INF < ExtCost.finite(-(10 ** 12))
    assert PLUS_INF > ExtCost.finite(10 ** 12)
    assert ExtCost.finite(Fraction(2, 4)) == ExtCost.finite(Fraction(1, 2))
    assert str(MINUS_INF) == "-inf" and str(PLUS_INF) == "+inf"


def test_validate_clean_fixture(g6s):
    assert validate(g6s) == []


def test_validate_terminal_out_edge():
    game = sp_game([1, None], {(0, 1): (1,), (1, 0): (1,)}, n_players=1)
    violations = validate(game)
    assert len(violations) == 1
    assert "(1, 0)" in violations[0] and "terminal" in violations[0]


def test_validate_nonterminal_sink():
    game = sp_game([1, 1, None], {(0, 1): (1,)}, n_players=1)
    violations = validate(game)
    assert len(violations) == 1
    assert "vertex 1" in violations[0]


def test_validate_self_loop_only_in_terminal_games():
    sp = sp_game([1, None], {(0, 0): (1,), (0, 1): (1,)}, n_players=1)
    assert any("self-loop" in v for v in validate(sp))
    tg = terminal_game([1, None], [(0, 0), (0, 1)], {1: (-1,)}, n_players=1)
    assert validate(tg) == []


def test_validate_missing_cost_vector():
    graph = GameGraph(owner=(1, None), edges=((0, 1),), n_players=1)
    game = SPGame._from_ints(graph, 1, ({},))
    assert validate(game) == ["edge (0, 1) has no cost vector"]
    tg = terminal_game([1, None, None], [(0, 1), (0, 2)], {2: (-1,)}, n_players=1)
    assert validate(tg) == ["terminal 1 (1) has no cost vector"]


@pytest.mark.parametrize("costs", [(1, 2, 3), (1,)])
def test_wrong_arity_cost_vectors_raise(costs):
    # a long vector is not cut to length, a short one is not an IndexError
    with pytest.raises(PathgamesError, match=r"^edge \(0, 1\) cost vector has wrong arity$"):
        sp_game([1, None], {(0, 1): costs}, 2)
    with pytest.raises(PathgamesError, match=r"^terminal 1 cost vector has wrong arity$"):
        terminal_game([1, None], [(0, 1)], {1: costs}, 2)
    with pytest.raises(PathgamesError, match=r"^infinite-play cost vector has wrong arity$"):
        terminal_game([1, None], [(0, 1)], {1: (-1, -1)}, 2, infinite_cost=costs)


@pytest.mark.parametrize("key", [0, 7, -1, "1"])
def test_terminal_cost_keys_must_name_terminals(key):
    # a non-terminal, an absent vertex or a string is not kept silently: the
    # game would validate, and game_to_dict would then drop the key
    with pytest.raises(PathgamesError,
                       match=rf"^terminal_cost key {key!r} does not name a terminal vertex$"):
        terminal_game([1, None], [(0, 1)], {1: (-1,), key: (5,), 9: (3,)}, 1)


def test_edge_symmetric(fig1_pm, g6):
    assert is_edge_symmetric(fig1_pm.graph)
    assert not is_edge_symmetric(g6.graph)


def test_edge_symmetric_terminal_exemption():
    game = sp_game([1, None], {(0, 1): (1,)}, n_players=1)
    assert is_edge_symmetric(game.graph)


def test_edge_symmetry_is_computed_once_per_graph(monkeypatch):
    # counts runs of the cached property's function, however it computes
    scans = []
    cached = GameGraph._edge_symmetric
    compute = cached.func

    def counting(graph):
        scans.append(graph)
        return compute(graph)

    monkeypatch.setattr(cached, "func", counting)

    rng = random.Random(12)
    for _ in range(20):
        g = genutil.random_symmetric_terminal(rng, max_v=8).graph
        inner = sorted((u, v) for u, v in g.edge_set if not g.is_terminal(v))
        drop = rng.choice(inner) if inner else None
        for edges in (g.edges, tuple(e for e in g.edges if e != drop)):
            graph = GameGraph(g.owner, edges, g.n_players, g.initial, g.names)
            expected = all(
                (v, u) in edges for u, v in edges if graph.owner[v] is not None
            )
            scans.clear()
            assert is_edge_symmetric(graph) is expected
            assert scans
            scans.clear()
            assert is_edge_symmetric(graph) is expected
            assert scans == []


def test_edge_symmetry_reads_rows_as_the_per_edge_definition():
    # hand-built graphs with self-loops, duplicate edges and terminals that
    # have out-edges: in-neighbors among out-neighbors at every non-terminal
    # iff every move into a non-terminal has its reverse
    rng = random.Random(16)
    seen = {True: 0, False: 0}
    for _ in range(600):
        n = rng.randint(1, 7)
        owner = tuple(rng.choice((None, 1, 2)) for _ in range(n))
        edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 12))]
        if rng.random() < 0.5:  # complete some reverses, so both answers occur
            edges += [(v, u) for u, v in edges if rng.random() < 0.9]
        edges += rng.sample(edges, min(len(edges), 2))  # duplicates
        graph = GameGraph(owner, tuple(edges), 2)
        expected = all(owner[v] is None or (v, u) in edges for u, v in edges)
        assert is_edge_symmetric(graph) is expected, (owner, edges)
        seen[expected] += 1
    loops = GameGraph((1, None), ((0, 0), (0, 0), (1, 0), (0, 1)), 1)
    assert is_edge_symmetric(loops)
    assert not is_edge_symmetric(GameGraph((1, None, 1), ((1, 0), (1, 2), (2, 2)), 1))
    assert seen[True] >= 150 and seen[False] >= 150, seen


def test_best_terminal_table_matches_the_scan_of_each_row():
    # cheapest terminal move for the vertex's owner, lowest id on ties
    rng = random.Random(18)
    ties = 0
    for _ in range(200):
        n = rng.randint(2, 9)
        owner = [rng.choice((None, 1, 2)) for _ in range(n)]
        edges = {(u, rng.randrange(n)) for u in range(n) if owner[u] for _ in range(4)}
        costs = {t: (rng.randint(-1, 0), rng.randint(-1, 0)) for t in range(n) if not owner[t]}
        game = terminal_game(owner, sorted(edges), costs, 2)
        g = game.graph
        for v in range(n):
            moves = [w for w in g.out[v] if g.is_terminal(w)]
            if g.is_terminal(v) or not moves:
                assert game.best_terminal(v) is None
                continue
            row = game._int_costs[1][g.owner[v] - 1]
            assert game.best_terminal(v) == min(moves, key=lambda w: (row[w], w))
            ties += len({row[w] for w in moves}) < len(moves)
    assert ties >= 50, ties


def test_edge_positivity_on_ints_and_fractions():
    for costs, positive in (
        ((1, Fraction(1, 7)), True),
        ((Fraction(3, 2), 2), True),
        ((1, 0), False),
        ((Fraction(0), 1), False),
        ((Fraction(-1, 3), 5), False),
        ((-2, 5), False),
    ):
        game = sp_game([1, 2, None], {(0, 1): costs, (1, 0): (1, 1), (1, 2): (1, 1)}, 2)
        report = is_positive(game)
        assert report.edge_positive is positive
        assert bool(report) is positive


def test_is_positive_g6s(g6s):
    report = is_positive(g6s)
    assert report.edge_positive and report.cycle_positive
    assert bool(report)


def test_is_positive_fig1_pm(fig1_pm):
    report = is_positive(fig1_pm)
    assert not report.edge_positive
    assert not report.cycle_positive
    assert report.witness_cycle is not None


def test_is_positive_fig1_p_zero_cycle_witness(fig1_p):
    report = is_positive(fig1_p)
    assert not report.edge_positive
    assert not report.cycle_positive
    cyc = list(report.witness_cycle)
    closed = cyc + [cyc[0]]
    sums = sum(
        fig1_p.cost(u, v, report.witness_player) for u, v in zip(closed, closed[1:])
    )
    assert sums == 0
    assert all(
        fig1_p.cost(u, v, report.witness_player) == 0
        for u, v in zip(closed, closed[1:])
    )


def test_cycle_flag_matches_enumeration():
    rng = random.Random(7)
    for _ in range(40):
        game = genutil.random_positive_cycle_sp(rng, max_v=8)
        g = game.graph
        cycles = genutil.simple_cycles(g.n_vertices, g.edge_set)
        expected = True
        for player in g.players:
            for cyc in cycles:
                closed = list(cyc) + [cyc[0]]
                if sum(game.cost(u, v, player) for u, v in zip(closed, closed[1:])) <= 0:
                    expected = False
        assert is_positive(game).cycle_positive == expected


def test_merge_single_terminal_is_identity_map(chain):
    game = sp_game(
        [1, None], {(0, 1): (1,)}, n_players=1, initial=0, names=["s", "t"]
    )
    merged, mmap = merge_terminals(game)
    assert merged.graph.n_vertices == 2
    assert mmap.chosen_terminal == {0: 1}
    situation = Situation.of(merged.graph, {0: 1})
    assert mmap.lift(situation).moves == situation.moves


def test_merge_g6s(g6s):
    merged, mmap = merge_terminals(g6s)
    assert len(merged.graph.terminals) == 1
    vt = merged.graph.terminals[0]
    terminal_edges = [e for e in merged.graph.edge_set if e[1] == vt]
    assert len(terminal_edges) == 6
    assert len(mmap.chosen_terminal) == 6
    # each kept edge carries the original terminal move's cost vector
    for u_new, w_old in mmap.chosen_terminal.items():
        u_old = mmap.new_to_old[u_new]
        assert merged.edge_cost[(u_new, vt)] == g6s.edge_cost[(u_old, w_old)]


def test_merge_keeps_controller_cheapest_terminal_edge():
    game = sp_game(
        [1, None, None],
        {(0, 1): (5,), (0, 2): (3,)},
        n_players=1,
        initial=0,
    )
    merged, mmap = merge_terminals(game)
    assert mmap.chosen_terminal[0] == 2
    # NE projection for the controller is unaffected by the merge
    ne_original = oracle.find_all_ne(game)
    ne_merged = oracle.find_all_ne(merged)
    lifted = sorted(mmap.lift(s).moves for s in ne_merged)
    assert lifted == sorted(s.moves for s in ne_original)


def test_merge_tie_keeps_lower_terminal_id():
    game = sp_game(
        [1, None, None],
        {(0, 1): (3,), (0, 2): (3,)},
        n_players=1,
        initial=0,
    )
    _, mmap = merge_terminals(game)
    assert mmap.chosen_terminal[0] == 1


def test_merge_preserves_controller_costs_on_terminal_plays():
    from pathgames.play import sp_cost, trace

    rng = random.Random(3)
    checked = 0
    for _ in range(25):
        game = genutil.random_symmetric_positive_sp(rng, max_v=7)
        merged, mmap = merge_terminals(game)
        if oracle.situation_count(merged) > 3000:
            continue
        for situation in oracle.enumerate_situations(merged):
            lifted = mmap.lift(situation)
            for start in merged.graph.nonterminals:
                old_start = mmap.new_to_old[start]
                play_new = trace(merged.graph, situation, start)
                play_old = trace(game.graph, lifted, old_start)
                if not play_new.is_terminal:
                    continue
                checked += 1
                controller_last = merged.graph.owner[play_new.prefix[-1]]
                assert play_old.is_terminal
                assert sp_cost(merged, play_new, controller_last) == sp_cost(
                    game, play_old, controller_last
                )
    assert checked > 100


def test_edge_symmetry_idempotent_under_reverse_completion():
    rng = random.Random(11)
    for _ in range(20):
        game = genutil.random_ciw_terminal(rng, max_v=7)
        g = game.graph
        completed = set(g.edge_set)
        for u, v in g.edge_set:
            if not g.is_terminal(v):
                completed.add((v, u))
        graph2 = GameGraph(
            owner=g.owner,
            edges=tuple(sorted(completed)),
            n_players=g.n_players,
            names=g.names,
        )
        assert is_edge_symmetric(graph2)


def _assert_integer_table(game, lcm_scale=True):
    """The game's integer table is every cost times one positive scale."""
    g = game.graph
    scale, rows = game._int_costs
    assert type(scale) is int and scale > 0
    if lcm_scale:
        assert scale == math.lcm(*(c.denominator for cs in game.edge_cost.values() for c in cs))
    assert len(rows) == g.n_players
    for player in g.players:
        row = rows[player - 1]
        assert set(row) == set(g.edge_set)
        for u, v in g.edge_set:
            assert type(row[(u, v)]) is int
            assert row[(u, v)] == game.cost(u, v, player) * scale
            assert game._int_weight(player)(u, v) == row[(u, v)]
    # built once per game object
    assert game._int_costs is game._int_costs


def test_integer_table_is_costs_times_scale():
    rng = random.Random(73)
    games = [fixtures.BUNDLED[name]() for name in sorted(fixtures.BUNDLED)]
    games = [g for g in games if isinstance(g, SPGame)]
    for _ in range(40):
        games.append(genutil.random_symmetric_positive_sp(rng, max_v=10))
        games.append(genutil.random_positive_cycle_sp(rng, max_v=8))
    games.append(sp_game([1, 2, None], {(0, 1): (0, 3), (1, 0): (2, 1), (1, 2): (5, 7)}, 2))
    loaded = [game_from_dict(json.loads(json.dumps(game_to_dict(g)))) for g in games]
    transformed = 0
    for game in games + loaded:
        _assert_integer_table(game)
        if game.graph.terminals:
            # the merged game carries the input game's scale over
            merged, _ = merge_terminals(game)
            assert merged._int_costs[0] == game._int_costs[0]
            _assert_integer_table(merged, lcm_scale=False)
        if is_positive(game).cycle_positive:
            result = gallai_transform(game)
            _assert_integer_table(result.game)
            transformed += result.game is not game
    assert transformed >= 40
