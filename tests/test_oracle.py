from __future__ import annotations

import random
from fractions import Fraction

import pytest

import genutil
import oracle_reference
from pathgames import oracle, play
from pathgames.errors import PreconditionError, TooLarge, ZeroSumMixedCycle
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
            return tuple(axes), strs, oracle._ne_indices(axes, cells)

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


def test_enumeration_stays_exhaustive_and_costing_is_shared(monkeypatch):
    # as many traces as the reference, but each play or outcome is costed once
    real_trace = play.trace
    traces = genutil.count_calls(monkeypatch, play, "trace")
    sp_costs = genutil.count_calls(monkeypatch, play, "sp_cost")
    terminal_costs = genutil.count_calls(monkeypatch, play, "terminal_cost")
    monkeypatch.setattr(oracle_reference, "trace", oracle.trace)

    def counted(run):
        for calls in (traces, sp_costs, terminal_costs):
            calls.clear()
        result = run()
        plays = {real_trace(*args) for args in traces}
        return result, len(traces), len(plays), len(sp_costs), len(terminal_costs)

    rng = random.Random(31)
    passing = terminal_passing = 0
    for k in range(100):
        game = ORACLE_SOURCES[k % 5](rng)
        g = game.graph
        if oracle.situation_count(g) > 2000:
            continue
        n = g.n_players
        start = rng.choice(g.nonterminals)
        nf, cells, plays, sp_n, terminal_n = counted(lambda: oracle.normal_form(game, start))
        assert cells == len(nf.cells)
        if isinstance(game, SPGame):
            assert 0 < sp_n <= plays * n and terminal_n == 0
        else:
            assert 0 < terminal_n <= (len(g.terminals) + 1) * n and sp_n == 0
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
            report, n_traces, plays, sp_n, terminal_n = counted(lambda: verify(situation, where))
            _, n_reference, *_ = counted(
                lambda: oracle_reference.verify_exhaustive(game, situation, where)
            )
            assert n_traces == n_reference
            assert sp_n <= plays * n
            # a terminal game costs the current play once per player and
            # start, plus the witness's outcome for the report's note
            assert terminal_n <= n * len(starts) + (not report.ok)
            if not report.ok:
                continue
            passing += 1
            per_start = sum(len(oracle.player_strategies(g, p)) for p in g.players)
            assert n_traces == len(starts) * (1 + per_start)
            terminal_passing += not isinstance(game, SPGame)
    assert passing >= 60 and terminal_passing >= 30, (passing, terminal_passing)


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
