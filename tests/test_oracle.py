from __future__ import annotations

import copy
import itertools
import math
import random
import re
import sys
from fractions import Fraction

import pytest

import genutil
import oracle_reference
from pathgames import oracle, play
from pathgames.errors import PathgamesError, PreconditionError, TooLarge, ZeroSumMixedCycle
from pathgames.model import ExtCost, SPGame, Situation, sp_game, terminal_game
from pathgames.play import trace
from pathgames.spne import solve_theorem1
from pathgames.terminalne import solve_theorem2
from pathgames.une import solve_theorem3

INF = "+inf"
NEG = "-inf"

# Full published normal form of the mixed-sign example, keyed by the moves
# (s-target, a-target, b-target); values are (player1, player2) costs.
FIG1_PM_CELLS = {
    (2, 0, 0): (INF, INF),
    (2, 0, 1): (INF, NEG),
    (2, 0, 3): ("1", "0"),
    (2, 2, 0): (INF, INF),
    (2, 2, 1): (INF, INF),
    (2, 2, 3): ("1", "0"),
    (1, 0, 0): (NEG, INF),
    (1, 0, 1): (NEG, INF),
    (1, 0, 3): (NEG, INF),
    (1, 2, 0): (INF, INF),
    (1, 2, 1): (INF, INF),
    (1, 2, 3): ("2", "4"),
}

# Same for the nonnegative example, keyed by (s-target, v-target, u-target).
FIG1_P_CELLS = {
    (2, 0, 0): (INF, INF),
    (2, 0, 1): (INF, "0"),
    (2, 0, 3): ("1", "1"),
    (2, 2, 0): (INF, INF),
    (2, 2, 1): (INF, INF),
    (2, 2, 3): ("1", "1"),
    (1, 0, 0): ("0", INF),
    (1, 0, 1): ("0", INF),
    (1, 0, 3): ("0", INF),
    (1, 2, 0): (INF, INF),
    (1, 2, 1): (INF, INF),
    (1, 2, 3): ("2", "3"),
}


def test_enumerate_counts(fig1_pm, g6):
    assert oracle.situation_count(fig1_pm) == 12
    assert len(list(oracle.enumerate_situations(fig1_pm))) == 12
    assert oracle.situation_count(g6) == 64
    single = sp_game([1, None], {(0, 1): (1,)}, n_players=1)
    assert list(oracle.enumerate_situations(single)) == [
        Situation.of(single.graph, {0: 1})
    ]


def test_enumerate_lexicographic_and_unique(fig1_pm):
    seen = [s.moves for s in oracle.enumerate_situations(fig1_pm)]
    assert seen == sorted(seen)
    assert len(set(seen)) == len(seen)


def test_enumeration_cap():
    rng = random.Random(0)
    game = genutil.random_symmetric_positive_sp(rng, max_v=9)
    with pytest.raises(TooLarge):
        list(oracle.enumerate_situations(game, cap=1))


def test_cap_env_override(monkeypatch):
    monkeypatch.setenv(oracle.CAP_ENV_VAR, "3")
    assert oracle.resolve_cap() == 3
    monkeypatch.delenv(oracle.CAP_ENV_VAR)
    assert oracle.resolve_cap() == oracle.DEFAULT_CAP


def test_negative_cap_is_a_precondition(monkeypatch, fig1_pm):
    # zero is a cap that refuses everything; below zero is a mistake
    assert oracle.resolve_cap(0) == 0
    with pytest.raises(TooLarge, match=r"^enumeration of 2 items exceeds cap 0$"):
        oracle.player_strategies(fig1_pm.graph, 1, cap=0)
    situation = Situation.of(fig1_pm.graph, {0: 2, 1: 0, 2: 3})
    for run in (
        lambda: oracle.player_strategies(fig1_pm.graph, 1, cap=-5),
        lambda: list(oracle.enumerate_situations(fig1_pm, cap=-5)),
        lambda: oracle.find_all_ne(fig1_pm, cap=-5),
        lambda: oracle.verify_une(fig1_pm, situation, cap=-5),
    ):
        with pytest.raises(PreconditionError, match=r"^enumeration cap must not be negative, got -5$"):
            run()
    monkeypatch.setenv(oracle.CAP_ENV_VAR, "-1")
    with pytest.raises(PreconditionError, match=rf"^{oracle.CAP_ENV_VAR} must not be negative, got -1$"):
        oracle.find_all_ne(fig1_pm)
    assert oracle.resolve_cap(7) == 7  # an explicit cap still wins over the variable


@pytest.mark.parametrize("fixture,cells", [("fig1_pm", FIG1_PM_CELLS), ("fig1_p", FIG1_P_CELLS)])
def test_published_tables_cell_by_cell(request, fixture, cells):
    game = request.getfixturevalue(fixture)
    for (ms, m1, m2), expected in cells.items():
        situation = Situation.of(game.graph, {0: ms, 1: m1, 2: m2})
        got = tuple(str(c) for c in oracle_reference.cost_vector(game, situation, 0))
        assert got == expected, f"cell {(ms, m1, m2)}"
    assert len(cells) == 12


@pytest.mark.parametrize("fixture", ["fig1_pm", "fig1_p"])
def test_published_tables_have_no_ne(request, fixture):
    game = request.getfixturevalue(fixture)
    nf = oracle.normal_form(game)
    assert nf.ne == frozenset()
    assert oracle.find_all_ne(game) == []


def test_normal_form_example_cells(fig1_pm, fig1_p):
    nf = oracle.normal_form(fig1_pm)
    labels = {
        (i, j): (nf.strategy_label(1, i, fig1_pm.graph),
                 nf.strategy_label(2, j, fig1_pm.graph))
        for (i, j) in nf.cells
    }
    by_label = {v: k for k, v in labels.items()}
    cell = nf.cost(by_label[("s->b", "a->s,b->t")])
    assert tuple(str(c) for c in cell) == ("1", "0")
    cell = nf.cost(by_label[("s->a", "a->s,b->s")])
    assert tuple(str(c) for c in cell) == ("-inf", "+inf")
    nf_p = oracle.normal_form(fig1_p)
    labels_p = {
        (i, j): (nf_p.strategy_label(1, i, fig1_p.graph),
                 nf_p.strategy_label(2, j, fig1_p.graph))
        for (i, j) in nf_p.cells
    }
    by_label_p = {v: k for k, v in labels_p.items()}
    cell = nf_p.cost(by_label_p[("s->u", "v->s,u->t")])
    assert tuple(str(c) for c in cell) == ("1", "1")


def test_find_all_ne_g2_from_vertex_1(g2):
    found = oracle.find_all_ne(g2, start=0)
    assert [s.describe(g2.graph) for s in found] == ["1->a1 2->a2"]


@pytest.mark.parametrize("fixture", ["g2", "g3s", "g6", "g6s"])
def test_une_counterexamples_empty(request, fixture):
    game = request.getfixturevalue(fixture)
    assert oracle.find_all_une(game) == []


def test_verify_ne_sp_rejects_everything_on_fig1_pm(fig1_pm):
    for situation in oracle.enumerate_situations(fig1_pm):
        report = oracle.verify_ne_sp(fig1_pm, situation)
        assert not report.ok
        assert report.deviation is not None
        # the witness really improves the deviating player
        before = oracle_reference.cost_vector(fig1_pm, situation, 0)[report.player - 1]
        after = oracle_reference.cost_vector(fig1_pm, report.deviation, 0)[report.player - 1]
        assert after < before


def test_verify_une_accepts_chain_une(chain):
    une = Situation.of(chain.graph, {0: 1, 1: 2})
    assert oracle.verify_une(chain, une).ok
    locked = Situation.of(chain.graph, {0: 1, 1: 0})
    report = oracle.verify_une(chain, locked)
    assert not report.ok and report.player == 2


def test_find_all_ne_agrees_with_verify():
    rng = random.Random(13)
    checked_games = 0
    for _ in range(20):
        game = genutil.random_symmetric_positive_sp(rng, max_v=6)
        if oracle.situation_count(game) > 500:
            continue
        checked_games += 1
        ne = {s.moves for s in oracle.find_all_ne(game)}
        for situation in oracle.enumerate_situations(game):
            ok = oracle.verify_ne_sp(game, situation).ok
            assert ok == (situation.moves in ne)
    assert checked_games >= 5


def test_equilibrium_situations_equal_the_per_cell_route(g2):
    # find_all_ne and find_all_une fill one moves tuple per cell; the lists
    # equal sorting one Situation.of per cell
    rng = random.Random(53)
    checked = found = 0
    for k in range(120):
        game = ORACLE_SOURCES[k % 5](rng)
        g = game.graph
        if oracle.situation_count(g) > 2000:
            continue
        start = rng.choice(g.nonterminals)
        nf = oracle.normal_form(game, start)
        expected = sorted((nf.situation_at(i, g) for i in nf.ne), key=lambda s: s.moves)
        assert oracle.find_all_ne(game, start) == expected
        uniform = set.intersection(*(
            set(oracle.normal_form(game, v).ne) for v in g.nonterminals
        ))
        expected = sorted((nf.situation_at(i, g) for i in uniform), key=lambda s: s.moves)
        assert oracle.find_all_une(game) == expected
        checked += 1
        found += len(expected)
    assert checked >= 100 and found >= 500, (checked, found)
    # the edge check stays: an axis strategy that is not a move is an error
    axes = ((((0, 3),),), (((1, 3),),))  # one strategy per player; 0 -> 3 is no move of g2
    with pytest.raises(PathgamesError, match=r"chosen move \(0, 3\) is not an edge"):
        oracle._situations_at(g2.graph, axes, [(0, 0)])


def test_normal_form_csv_and_text(fig1_pm):
    nf = oracle.normal_form(fig1_pm)
    csv = nf.to_csv(fig1_pm.graph)
    assert csv.count("\n") == 13  # header + 12 cells
    assert "strategy_p1" in csv.splitlines()[0]
    text = nf.to_text(fig1_pm.graph)
    assert "s->a" in text and "s->b" in text
    assert "[" not in text  # no NE cell to box
    # a game with a NE shows a boxed cell
    g2 = pytest.importorskip("pathgames.fixtures").g2()
    nf2 = oracle.normal_form(g2, start=0)
    assert "[" in nf2.to_text(g2.graph)


def test_trace_consistency_of_normal_form_cells(g3s):
    nf = oracle.normal_form(g3s, start=0)
    for index, costs in nf.cells.items():
        situation = nf.situation_at(index, g3s.graph)
        play = trace(g3s.graph, situation, 0)
        again = tuple(oracle.effective_cost(g3s, play, p) for p in g3s.graph.players)
        assert again == costs


def test_normal_form_propagates_zero_sum_mixed_cycle():
    from pathgames.errors import ZeroSumMixedCycle
    from pathgames.model import sp_game

    game = sp_game(
        [1, 2, None],
        {(0, 1): (1, 1), (1, 0): (-1, 1), (1, 2): (1, 1)},
        n_players=2,
        initial=0,
    )
    with pytest.raises(ZeroSumMixedCycle):
        oracle.normal_form(game)


def test_counterexamples_have_ne_from_every_start_but_no_une(g2, g3s):
    for game in (g2, g3s):
        for start in game.graph.nonterminals:
            assert oracle.find_all_ne(game, start=start)
        assert oracle.find_all_une(game) == []


def test_verify_ne_sp_reports_the_exact_deviation_cost():
    # the polynomial route compares scaled integers but reports rationals
    game = sp_game(
        [1, 1, None],
        {(0, 2): (Fraction(5, 2),), (0, 1): (Fraction(1, 3),), (1, 2): (Fraction(1, 4),)},
        n_players=1,
        initial=0,
    )
    report = oracle.verify_ne_sp(game, Situation.of(game.graph, {0: 2, 1: 2}))
    assert not report.ok
    assert report.note == "player 1 can reach a terminal at cost 7/12"
    assert oracle_reference.cost_vector(game, report.deviation, 0) == (ExtCost.finite(Fraction(7, 12)),)
    assert oracle.verify_ne_sp(game, report.deviation).ok


def test_find_all_une_returns_the_uniform_equilibria(chain):
    # Theorem 3 guarantees a UNE on these games, so the result is non-empty
    rng = random.Random(19)
    games = [chain] + [
        genutil.random_symmetric_terminal(rng, max_v=6, ciw=True) for _ in range(40)
    ]
    for game in games:
        found = oracle.find_all_une(game)
        assert solve_theorem3(game).situation in found, game
        for situation in found:
            assert oracle.verify_une(game, situation).ok, (game, situation)
    assert [s.describe(chain.graph) for s in oracle.find_all_une(chain)] == ["v1->v2 v2->t"]


def test_find_all_une_on_an_all_terminal_game():
    game = terminal_game([None, None], [], {0: (-1, -2), 1: (-2, -1)}, n_players=2)
    found = oracle.find_all_une(game)
    assert found == [Situation((None, None))]
    assert oracle.verify_une(game, found[0]).ok


def _random_situation(rng, graph):
    return Situation.of(graph, {v: rng.choice(graph.out[v]) for v in graph.nonterminals})


def _mixed_sign_sp(rng):
    """Symmetric SP board with costs in {-1, 0, 1}: negative, zero-sum and mixed cycles."""
    board = genutil.random_symmetric_positive_sp(rng, max_v=7)
    cost = {e: tuple(rng.choice((-1, 0, 1)) for _ in cs) for e, cs in board.edge_cost.items()}
    return sp_game(list(board.graph.owner), cost, board.graph.n_players,
                   initial=board.graph.initial)


ORACLE_SOURCES = (
    lambda rng: genutil.random_symmetric_terminal(rng, max_v=7),
    lambda rng: genutil.random_ring_ciw_terminal(rng, max_v=8),
    lambda rng: genutil.random_ciw_terminal(rng, max_v=6),
    lambda rng: genutil.random_positive_cycle_sp(rng, max_v=6),
    lambda rng: genutil.random_symmetric_positive_sp(rng, max_v=7),
    _mixed_sign_sp,
)


def _outcome(run):
    try:
        return run()
    except ZeroSumMixedCycle as exc:
        return f"ZeroSumMixedCycle: {exc}"


def test_costing_once_matches_the_per_cell_reference():
    # normal forms and exhaustive reports equal the loops that re-cost everything
    rng = random.Random(29)
    checked = failing = undefined = 0
    per_source = [0] * len(ORACLE_SOURCES)
    while checked < 720:
        k = checked % len(ORACLE_SOURCES)
        game = ORACLE_SOURCES[k](rng)
        g = game.graph
        checked += 1
        if oracle.situation_count(g) > 2000:
            continue
        per_source[k] += 1
        start = rng.choice(g.nonterminals)
        situation = _random_situation(rng, g)

        def normal_form():
            nf = oracle.normal_form(game, start)
            return nf.axes, {i: tuple(map(str, c)) for i, c in nf.cells.items()}, nf.ne

        def reference_form():
            axes, cells = oracle_reference.normal_form_cells(game, start)
            strs = {i: tuple(map(str, c)) for i, c in cells.items()}
            return tuple(axes), strs, oracle_reference.ne_indices(axes, cells)

        got = _outcome(normal_form)
        assert got == _outcome(reference_form), game
        undefined += isinstance(got, str)
        for where in (start, None):
            report = _outcome(lambda: oracle._verify_exhaustive(game, situation, where, None))
            expected = _outcome(
                lambda: oracle_reference.verify_exhaustive(game, situation, where)
            )
            assert report == expected, (game, situation, where)
            failing += not isinstance(report, str) and not report.ok
    assert sum(per_source[:5]) >= 500 and per_source[5] >= 100, per_source
    assert failing >= 100 and undefined >= 10, (failing, undefined)


def _three_player_sp(rng):
    """3-player SP game on 7-9 vertices, one to three moves per position at
    costs in {-1, 0, 0, 1}: zero-cost moves, self-loops, and zero-sum
    cycles with and without nonzero moves."""
    n = rng.randint(7, 9)
    n_pos = rng.randint(5, n - 1)
    owner = [rng.randint(1, 3) for _ in range(n_pos)] + [None] * (n - n_pos)
    edges = {(v, w) for v in range(n_pos) for w in rng.sample(range(n), rng.choice((1, 1, 2, 2, 3)))}
    cost = {e: tuple(rng.choice((-1, 0, 0, 1)) for _ in range(3)) for e in edges}
    return sp_game(owner, cost, 3)


def test_equilibrium_searches_match_the_reference_without_cells():
    # find_all_ne and find_all_une build no cost cells: their lists, or
    # their ZeroSumMixedCycle messages, equal the reference's, which builds
    # every normal form cell by cell
    rng = random.Random(59)
    checked = three_player = found = undefined = 0
    for k in range(1000):
        game = _three_player_sp(rng) if k % 2 else ORACLE_SOURCES[k // 2 % len(ORACLE_SOURCES)](rng)
        g = game.graph
        if oracle.situation_count(g) > 400:
            continue
        start = rng.choice(g.nonterminals)
        for run, reference in (
            (lambda: oracle.find_all_ne(game, start), (start,)),
            (lambda: oracle.find_all_une(game), g.nonterminals),
        ):
            got = _outcome(run)
            assert got == _outcome(lambda: oracle_reference.equilibria(game, reference)), game
            found += 0 if isinstance(got, str) else len(got)
            undefined += isinstance(got, str)
        checked += 1
        three_player += k % 2
        if checked == 400:
            break
    assert checked == 400 and three_player >= 150, (checked, three_player)
    assert found >= 4000 and undefined >= 150, (found, undefined)
    # past the cap both refuse as the enumeration of situations does
    with pytest.raises(TooLarge) as refused:
        list(oracle.enumerate_situations(game, cap=1))
    for run in (lambda: oracle.find_all_ne(game, start, cap=1), lambda: oracle.find_all_une(game, 1)):
        with pytest.raises(TooLarge, match=f"^{re.escape(str(refused.value))}$"):
            run()
    # with one vertex, a situation's moves are a 1-tuple
    loop = sp_game([1], {(0, 0): (0,)}, 1)
    assert oracle.find_all_ne(loop, 0) == oracle.find_all_une(loop) == [Situation((0,))]


def test_the_mixed_cycle_first_in_cell_order_is_raised():
    # vertex 0 is the only choice, player 1's, so 0 -> 1 is cell 0 and
    # 0 -> 2 cell 1. The walk takes 0 -> 2 first: its cycle 2 -> 4 -> 2 is
    # mixed for player 1. The cycle 1 -> 3 -> 1 of cell 0 is mixed for
    # player 2 only. Cell order wins over walk order and player order.
    game = sp_game(
        [1, 2, 2, 1, 1],
        {(0, 1): (0, 0), (0, 2): (0, 0), (1, 3): (1, 1), (3, 1): (1, -1),
         (2, 4): (1, 1), (4, 2): (-1, 1)},
        n_players=2, initial=0,
    )
    g = game.graph
    with pytest.raises(ZeroSumMixedCycle) as later:
        oracle_reference.cost_vector(game, Situation.of(g, {0: 2, 1: 3, 2: 4, 3: 1, 4: 2}), 0)
    assert (later.value.player, later.value.cycle) == (1, (2, 4))
    with pytest.raises(ZeroSumMixedCycle) as expected:
        oracle_reference.normal_form_cells(game, 0)
    assert (expected.value.player, expected.value.cycle) == (2, (1, 3))
    for run in (
        lambda: oracle.normal_form(game),
        lambda: oracle.find_all_ne(game),
        lambda: oracle.find_all_une(game),
    ):
        with pytest.raises(ZeroSumMixedCycle) as raised:
            run()
        assert (raised.value.player, raised.value.cycle, str(raised.value)) == (
            2, (1, 3), str(expected.value),
        )


def _deviation_trees(g, situation, starts):
    """``(player, first branch, distinct deviation plays)`` per player and
    each distinct first branch of the starts, in start order, by tracing
    every strategy of the player from it."""
    owner, moves = g.owner, situation.moves
    trees = []
    for p in g.players:
        branches = {}
        for v in starts:
            seen = set()
            while owner[v] is not None and v not in seen:
                if owner[v] == p and len(g.out[v]) > 1:
                    branches[v] = None
                    break
                seen.add(v)
                v = moves[v]
        for b in branches:
            plays = {trace(g, situation.replace(s), b) for s in oracle.player_strategies(g, p)}
            trees.append((p, b, len(plays)))
    return trees


def test_enumeration_stays_exhaustive_and_costing_is_shared(monkeypatch):
    # a normal form traces and costs no play: its walk has one leaf per
    # distinct play; a passing deviation check traces nothing, values each
    # start's current play once per player, and walks one tree per player
    # and distinct first branch (the first vertex of a start's current play
    # where the player has a choice) with one leaf per distinct deviation
    # play from it; a failing one traces and exactly costs only its
    # report's two plays
    real_trace = play.trace
    real_leaves = oracle._deviation_leaves
    real_tree = oracle._play_tree
    traces = genutil.count_calls(monkeypatch, play, "trace")
    walks = genutil.count_calls(monkeypatch, play, "_walk_rank")
    sp_costs = genutil.count_calls(monkeypatch, play, "sp_cost")
    terminal_costs = genutil.count_calls(monkeypatch, play, "terminal_cost")
    trees = []

    def leaves(g, moves, row, player, root, *rest):
        found = real_leaves(g, moves, row, player, root, *rest)
        trees.append((player, root, len(found)))
        return found

    monkeypatch.setattr(oracle, "_deviation_leaves", leaves)
    walked = []

    def tree(*args):
        flat, values = real_tree(*args)
        walked.append(len(values))
        return flat, values

    monkeypatch.setattr(oracle, "_play_tree", tree)

    def counted(run):
        for calls in (traces, walks, sp_costs, terminal_costs, trees, walked):
            calls.clear()
        result = run()
        return result, len(traces), len(walks), len(sp_costs), len(terminal_costs)

    rng = random.Random(31)
    passing = failing = terminal_passing = shared = 0
    for k in range(100):
        game = ORACLE_SOURCES[k % 5](rng)
        g = game.graph
        if oracle.situation_count(g) > 2000:
            continue
        n = g.n_players
        start = rng.choice(g.nonterminals)
        nf, n_traces, _, sp_n, terminal_n = counted(lambda: oracle.normal_form(game, start))
        plays = {real_trace(g, nf.situation_at(i, g), start) for i in nf.cells}
        assert (n_traces, sp_n, terminal_n) == (0, 0, 0)
        assert walked == [len(plays)]
        candidates = [(_random_situation(rng, g), start), (_random_situation(rng, g), None)]
        candidates += [(nf.situation_at(i, g), start) for i in sorted(nf.ne)[:2]]
        if isinstance(game, SPGame):
            verify = lambda s, where: oracle._verify_exhaustive(game, s, where, None)
        else:
            verify = lambda s, where: (
                oracle.verify_une(game, s) if where is None
                else oracle.verify_ne_terminal(game, s, where)
            )
        for situation, where in candidates:
            starts = g.nonterminals if where is None else (where,)
            report, n_traces, n_walks, sp_n, terminal_n = counted(lambda: verify(situation, where))
            assert report == oracle_reference.verify_exhaustive(game, situation, where)
            note_costs = 0 if report.ok else 2
            assert n_traces == note_costs
            if isinstance(game, SPGame):
                assert (sp_n, terminal_n) == (note_costs, 0)
            else:
                assert (sp_n, terminal_n) == (0, note_costs)
            expected = _deviation_trees(g, situation, starts)
            if not report.ok:
                failing += 1
                assert n_walks <= len(starts) * report.player
                assert set(trees) <= set(expected)
                continue
            passing += 1
            assert n_walks == len(starts) * n
            assert trees == expected
            shared += len(expected) < len(starts) * n
            terminal_passing += not isinstance(game, SPGame)
    assert passing >= 60 and terminal_passing >= 30 and failing >= 60 and shared >= 100, (
        passing, terminal_passing, failing, shared,
    )


def _forced_prefix_sp(rng):
    """SP game whose forced chain 0 -> 1 -> ... leads to hubs with choices,
    and the chain's length;
    hubs move back into the chain, to each other or to terminals, at costs
    in {-1, 0, 0, 1}: zero-cost moves, long forced prefixes, and cycles
    that close into a prefix."""
    chain, hubs, n_players = rng.randint(1, 5), rng.randint(1, 3), rng.randint(1, 3)
    terminals = rng.randint(1, 2)
    n = chain + hubs + terminals
    owner = [rng.randint(1, n_players) for _ in range(chain + hubs)] + [None] * terminals
    edges = {(v, v + 1) for v in range(chain)}
    for h in range(chain, chain + hubs):
        others = [w for w in range(n) if w != h]
        edges |= {(h, w) for w in rng.sample(others, min(len(others), rng.randint(1, 3)))}
    cost = {e: tuple(rng.choice((-1, 0, 0, 1)) for _ in range(n_players)) for e in edges}
    return sp_game(owner, cost, n_players), chain


def test_shared_deviation_trees_match_the_reference_on_forced_prefixes():
    # each start's events are its first branch's, valued from there: the
    # reports and ZeroSumMixedCycle messages equal the per-start reference
    rng = random.Random(47)
    failing = undefined = into_prefix = 0
    for _ in range(400):
        game, chain = _forced_prefix_sp(rng)
        g = game.graph
        situation = _random_situation(rng, g)
        into_prefix += any(w < chain for v in g.nonterminals[chain:] for w in g.out[v])
        for where in (0, rng.choice(g.nonterminals), None):
            got = _outcome(lambda: oracle._verify_exhaustive(game, situation, where, None))
            assert got == _outcome(
                lambda: oracle_reference.verify_exhaustive(game, situation, where)
            ), (game, situation, where)
            failing += not isinstance(got, str) and not got.ok
            undefined += isinstance(got, str)
    assert failing >= 250 and undefined >= 200 and into_prefix >= 300, (
        failing, undefined, into_prefix,
    )


def test_deviation_checks_walk_a_forced_chain_in_linear_work():
    # a chain of n single-move vertices ending at one vertex with a choice:
    # every start shares that vertex's one tree, and the forced walks share
    # one memo, so the interpreted lines grow linearly with n
    def lines(n):
        owner = [1 + v % 2 for v in range(n)] + [1, None, None]
        edges = [(v, v + 1) for v in range(n)] + [(n, n + 1), (n, n + 2)]
        game = terminal_game(owner, edges, {n + 1: (1, 1), n + 2: (2, 2)}, 2)
        best = Situation(tuple(range(1, n + 1)) + (n + 1, None, None))
        count = [0]

        def tracer(frame, event, arg):
            if frame.f_code.co_filename in (oracle.__file__, play.__file__):
                count[0] += 1
            return tracer

        sys.settrace(tracer)
        try:
            report = oracle.verify_une(game, best)
        finally:
            sys.settrace(None)
        assert report.ok
        return count[0]

    small, large = lines(1500), lines(3000)
    assert large < 2.5 * small, (small, large)


def test_a_check_builds_a_situation_only_for_its_witness(monkeypatch):
    # a passing check builds no situation; a failing one builds its witness
    built = []
    real_init = Situation.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(Situation, "__init__", counting)
    rng = random.Random(37)
    multi_start = failing = 0
    for k in range(40):
        if k % 2:
            game = genutil.random_symmetric_terminal(rng, max_v=8, ciw=True)
        else:
            game = genutil.random_ring_ciw_terminal(rng, max_v=8)
        g = game.graph
        situation = solve_theorem3(game).situation
        other = _random_situation(rng, g)
        built.clear()
        assert oracle.verify_une(game, situation).ok
        assert built == []
        report = oracle.verify_une(game, other)
        assert len(built) == (0 if report.ok else 1)
        failing += not report.ok
        multi_start += len(g.nonterminals) >= 4
    assert multi_start >= 30 and failing >= 20, (multi_start, failing)


def test_the_memoised_walk_values_every_vertex_as_the_play_does():
    # from every non-terminal, in shuffled order so the memo fills from
    # different ends: the play's rank, its outcome's entry, or MIXED exactly
    # where _sp_rank raises
    rng = random.Random(43)
    situations = mixed = 0
    while situations < 360:
        game = ORACLE_SOURCES[situations % len(ORACLE_SOURCES)](rng)
        g = game.graph
        by_play = isinstance(game, SPGame)
        situation = _random_situation(rng, g)
        situations += 1
        for player in g.players:
            row = game._int_costs[1][player - 1]
            order = list(g.nonterminals)
            rng.shuffle(order)
            memo = {}
            for v in order:
                got = play._walk_rank(g.owner, situation.moves, row, v, memo, by_play)
                walked = trace(g, situation, v)
                if not by_play:
                    assert got == row[walked.terminal]
                    continue
                try:
                    expected = play._sp_rank(row, walked, player)
                except ZeroSumMixedCycle:
                    expected = play._MIXED
                    mixed += 1
                assert got is expected if expected is play._MIXED else got == expected
    assert mixed >= 20, mixed


def _event_order_cases():
    # (game, situation, start) in which the first event in the order players,
    # starts, strategies is not the first one a deviation-major scan meets
    zero = (0, 0)
    # (a) the current play from start 2 (vertex 2) cycles 2 <-> 4 at 1 - 1,
    # and player 1's strategy 0 improves from start 1: 1 -> 2 -> 3 costs 2 < 5
    a = sp_game([1, 1, 1, None, 2], {
        (0, 3): zero, (1, 2): (1, 0), (1, 3): (5, 0), (2, 3): (1, 0), (2, 4): (1, 0),
        (4, 2): (-1, 0),
    }, 2)
    yield a, Situation((3, 3, 4, None, 2)), None, (1, 1, (3, 2, 3, None, 2))
    # (b) from start 0, strategy 0 (0 -> 1, 1 -> 2) cycles 1 <-> 2 at 1 - 1
    # before strategies 2 and 3 (0 -> 3 at 2 < 6) improve
    b = sp_game([1, 1, 2, None], {
        (0, 1): (1, 0), (0, 3): (2, 0), (1, 2): (1, 0), (1, 3): (5, 0), (2, 1): (-1, 0),
    }, 2)
    yield b, Situation((1, 3, 1, None)), 0, "ZeroSumMixedCycle"
    yield b, Situation((1, 3, 1, None)), None, "ZeroSumMixedCycle"
    # (c) strategy 0 (0 -> 2, 1 -> 4, 3 -> 6) cycles 1 <-> 4 from start 1, and
    # strategy 5 (0 -> 3 -> 7) is the first to improve from start 0
    c = sp_game([1, 1, None, 1, 2, None, None, None], {
        (0, 2): (5, 0), (0, 3): (1, 0), (1, 4): (1, 0), (1, 5): (1, 0), (3, 6): (5, 0),
        (3, 7): (1, 0), (4, 1): (-1, 0),
    }, 2)
    yield c, Situation((2, 5, None, 6, 1, None, None, None)), None, (
        1, 0, (3, 4, None, 7, 1, None, None, None),
    )


@pytest.mark.parametrize("game, situation, where, expected", list(_event_order_cases()))
def test_the_first_event_in_start_order_wins(game, situation, where, expected):
    run = lambda: oracle._verify_exhaustive(game, situation, where, None)
    got = _outcome(run)
    assert got == _outcome(lambda: oracle_reference.verify_exhaustive(game, situation, where))
    if isinstance(expected, str):
        assert got.startswith(expected)
    else:
        player, index, moves = expected
        starts = game.graph.nonterminals if where is None else (where,)
        assert (got.player, got.start, got.deviation.moves) == (player, starts[index], moves)


def test_a_long_forced_play_needs_no_deep_stack():
    # 3000 single-move vertices in a chain: one situation, walked iteratively
    n = 3000
    game = terminal_game([1 + v % 2 for v in range(n)] + [None],
                         [(v, v + 1) for v in range(n)], {n: (1, 2)}, 2)
    only = Situation(tuple(range(1, n + 1)) + (None,))
    assert oracle.normal_form(game, 0).cells == {(0, 0): (Fraction(1), Fraction(2))}
    assert oracle.find_all_une(game) == [only]
    assert oracle.verify_une(game, only).ok


def test_malformed_situations_are_preconditions(g2, g6s):
    # g2's moves are 0 -> 1, 0 -> 2, 1 -> 0 and 1 -> 3; 2 and 3 are terminals
    for situation, message in (
        (Situation((2, 3, None)), "situation has 3 entries, not 4"),
        (Situation((3, 2, None, None)), "situation entry 3 at vertex 0 is not a move"),
        (Situation((None, 2, None, None)), "situation entry None at vertex 0 is not a move"),
        (Situation((1, 3, None, 0)), "situation entry 0 at vertex 3 is not a move"),
    ):
        for run in (
            lambda: oracle.verify_ne_terminal(g2, situation, 0),
            lambda: oracle.verify_une(g2, situation),
        ):
            with pytest.raises(PreconditionError, match=rf"^{re.escape(message)}$"):
                run()
    g = g6s.graph
    next_id = Situation(tuple(v + 1 if v in g.nonterminals else None for v in range(g.n_vertices)))
    with pytest.raises(PreconditionError, match="is not a move$"):
        oracle.verify_ne_sp(g6s, next_id, g.nonterminals[0])


_GRID_COSTS = (
    [ExtCost.finite(c) for c in (-1, 0, Fraction(1, 2), 1)] + [ExtCost(-1), ExtCost(1)],
    [Fraction(c) for c in (-2, -1, 0, Fraction(3, 2))],
)


def test_equilibrium_scan_matches_the_cell_by_cell_reference():
    # seeded grids with 1-4 players, axes of length 1, ties on a line,
    # infinite costs, and distinct leaves holding equal vectors; each cell
    # names its leaf, as a normal form's play tree does
    rng = random.Random(41)
    with_ne = without_ne = 0
    for k in range(600):
        costs = _GRID_COSTS[k % 2]
        n_players = 1 + k % 4
        shape = tuple(rng.choice((1, 1, 2, 3, 4)) for _ in range(n_players))
        values = [tuple(rng.choice(costs) for _ in range(n_players))
                  for _ in range(rng.randint(1, 6))]
        shared, flat = range(len(values)), []
        for _ in range(math.prod(shape)):
            leaf = rng.choice(shared)
            if rng.random() < 0.3:  # an equal vector on a new leaf
                values.append(tuple(copy.copy(c) for c in values[leaf]))
                leaf = len(values) - 1
            flat.append(leaf)
        cells = dict(zip(itertools.product(*map(range, shape)), map(values.__getitem__, flat)))
        got = oracle._ne_indices(shape, flat, values)
        assert got == oracle_reference.ne_indices(shape, cells), (shape, flat, values)
        with_ne += bool(got)
        without_ne += not got
    assert with_ne >= 300 and without_ne >= 10, (with_ne, without_ne)
    # a player with a vertex and no move there has no strategy at all
    assert oracle._ne_indices((2, 0), [], []) == frozenset()


@pytest.mark.parametrize("start", [-1, 3])
def test_start_outside_the_vertex_range_raises(start):
    # -1 would index from the end and name vertex 2; 3 is past the last vertex
    board = [(1, 0), (1, 2), (2, 1), (2, 0)]
    terminal = terminal_game([None, 1, 2], board, {0: (-1, -2)}, 2)
    sp = sp_game([None, 1, 2], {e: (1, 1) for e in board}, 2)
    situation = Situation((None, 0, 0))
    for run in (
        lambda: solve_theorem1(sp, start),
        lambda: solve_theorem2(terminal, start),
        lambda: oracle.find_all_ne(terminal, start),
        lambda: oracle.normal_form(sp, start),
        lambda: oracle.verify_ne_sp(sp, situation, start),
        lambda: oracle.verify_ne_terminal(terminal, situation, start),
    ):
        with pytest.raises(PreconditionError, match=rf"^start vertex {start} outside 0\.\.2$"):
            run()


def test_a_missing_or_terminal_start_is_a_precondition():
    # the solvers raise PreconditionError for the same condition
    board = [(1, 0), (1, 2), (2, 1), (2, 0)]
    terminal = terminal_game([None, 1, 2], board, {0: (-1, -2)}, 2)
    situation = Situation((None, 0, 0))
    for start, message in (
        (None, "no start vertex given and game has no initial vertex"),
        (0, "start vertex 0 is a terminal"),
    ):
        for run in (
            lambda: oracle.normal_form(terminal, start),
            lambda: oracle.verify_ne_terminal(terminal, situation, start),
        ):
            with pytest.raises(PreconditionError, match=rf"^{message}$"):
                run()
