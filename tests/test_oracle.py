from __future__ import annotations

import random
from fractions import Fraction

import pytest

import genutil
from pathgames import oracle
from pathgames.errors import TooLarge
from pathgames.model import ExtCost, Situation, sp_game, terminal_game
from pathgames.play import trace
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


@pytest.mark.parametrize("fixture,cells", [("fig1_pm", FIG1_PM_CELLS), ("fig1_p", FIG1_P_CELLS)])
def test_published_tables_cell_by_cell(request, fixture, cells):
    game = request.getfixturevalue(fixture)
    for (ms, m1, m2), expected in cells.items():
        situation = Situation.of(game.graph, {0: ms, 1: m1, 2: m2})
        got = tuple(str(c) for c in oracle.cost_vector(game, situation, 0))
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
        before = oracle.cost_vector(fig1_pm, situation, 0)[report.player - 1]
        after = oracle.cost_vector(fig1_pm, report.deviation, 0)[report.player - 1]
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
    assert oracle.cost_vector(game, report.deviation, 0) == (ExtCost.finite(Fraction(7, 12)),)
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
