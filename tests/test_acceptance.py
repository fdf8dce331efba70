"""Acceptance criteria, one test per criterion.

Each test prints one PASS/FAIL line (run pytest with -s or check captured
output) and enforces both the exact expected results and the wall-clock
budget of its criterion.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

import genutil
from pathgames import fixtures, oracle
from pathgames.model import is_positive
from pathgames.play import sp_cost, terminal_cost, trace
from pathgames.reductions import gallai_transform, terminal_to_sp
from pathgames.spne import solve_theorem1
from pathgames.terminalne import solve_theorem2
from pathgames.une import (
    initial_basic_situation,
    solve_theorem3,
    uniform_best_improvement,
)

INF = "+inf"
NEG = "-inf"


def _run(number: int, description: str, budget_s: float, body) -> None:
    start = time.monotonic()
    try:
        body()
        elapsed = time.monotonic() - start
        assert elapsed < budget_s, f"took {elapsed:.1f}s, budget {budget_s}s"
    except BaseException:
        print(f"criterion {number}: FAIL ({description})")
        raise
    print(f"criterion {number}: PASS ({description}, {elapsed:.1f}s)")


def test_criterion_1_fig2_reproduction():
    def body():
        game = fixtures.fig1_pm()
        expected = {
            (2, 0, 0): (INF, INF), (2, 0, 1): (INF, NEG), (2, 0, 3): ("1", "0"),
            (2, 2, 0): (INF, INF), (2, 2, 1): (INF, INF), (2, 2, 3): ("1", "0"),
            (1, 0, 0): (NEG, INF), (1, 0, 1): (NEG, INF), (1, 0, 3): (NEG, INF),
            (1, 2, 0): (INF, INF), (1, 2, 1): (INF, INF), (1, 2, 3): ("2", "4"),
        }
        nf = oracle.normal_form(game)
        assert len(nf.cells) == 12
        seen = {}
        for index in nf.cells:
            situation = nf.situation_at(index, game.graph)
            key = (situation[0], situation[1], situation[2])
            seen[key] = tuple(str(c) for c in nf.cells[index])
        assert seen == expected
        assert nf.ne == frozenset()
        assert oracle.find_all_ne(game) == []

    _run(1, "mixed-sign 2x6 table matches, no NE", 1.0, body)


def test_criterion_2_fig4_reproduction():
    def body():
        game = fixtures.fig1_p()
        expected = {
            (2, 0, 0): (INF, INF), (2, 0, 1): (INF, "0"), (2, 0, 3): ("1", "1"),
            (2, 2, 0): (INF, INF), (2, 2, 1): (INF, INF), (2, 2, 3): ("1", "1"),
            (1, 0, 0): ("0", INF), (1, 0, 1): ("0", INF), (1, 0, 3): ("0", INF),
            (1, 2, 0): (INF, INF), (1, 2, 1): (INF, INF), (1, 2, 3): ("2", "3"),
        }
        nf = oracle.normal_form(game)
        seen = {}
        for index in nf.cells:
            situation = nf.situation_at(index, game.graph)
            key = (situation[0], situation[1], situation[2])
            seen[key] = tuple(str(c) for c in nf.cells[index])
        assert seen == expected
        assert oracle.find_all_ne(game) == []

    _run(2, "nonnegative 2x6 table matches, no NE", 1.0, body)


def test_criterion_3_une_counterexamples():
    def body():
        cases = [
            ("g2", fixtures.g2(), 4),
            ("g3s", fixtures.g3s(), 27),
            ("g6", fixtures.g6(), 64),
            ("g6s", fixtures.g6s(), 729),
        ]
        for name, game, count in cases:
            assert oracle.situation_count(game) == count, name
            assert oracle.find_all_une(game) == [], name

    _run(3, "all four counterexample games have no uniform NE", 10.0, body)


def test_criterion_4_theorem1_cross_check():
    def body():
        rng = random.Random(2024)
        enumerable = 0
        for _ in range(200):
            game = genutil.random_symmetric_positive_sp(rng, max_v=9, max_players=3)
            situation = solve_theorem1(game)
            assert oracle.verify_ne_sp(game, situation).ok
            if oracle.situation_count(game) <= 20000:
                enumerable += 1
                all_ne = oracle.find_all_ne(game, cap=20000)
                assert any(s.moves == situation.moves for s in all_ne)
        assert enumerable >= 100

    _run(4, "200 random positive symmetric games: constructed NE verified", 60.0, body)


def test_criterion_5_theorem2_cross_check():
    def body():
        rng = random.Random(2025)
        for _ in range(200):
            game = genutil.random_symmetric_terminal(rng, max_v=9, max_players=3)
            situation = solve_theorem2(game)
            assert oracle.verify_ne_terminal(game, situation).ok

    _run(5, "200 random symmetric terminal games: constructed NE verified", 60.0, body)


def test_criterion_6_theorem3_dynamics():
    def body():
        rng = random.Random(2026)
        for k in range(200):
            if k % 2:
                game = genutil.random_symmetric_terminal(rng, max_v=10, ciw=True)
            else:
                game = genutil.random_ring_ciw_terminal(rng, max_v=10)
            result = solve_theorem3(game)
            assert oracle.verify_une(game, result.situation).ok
            wg = result.prep.game.graph
            assert result.rounds <= wg.n_vertices * len(wg.terminals)
            # potential strictly decreases at every improvement from the
            # second one on (the first may trade one player's gain for more
            # opponent pain; the termination argument starts at step 2)
            for j in range(2, len(result.nu_trajectory)):
                assert result.nu_trajectory[j] < result.nu_trajectory[j - 1]
            _replay_and_check_monotonicity(result)

    _run(6, "200 random infinite-averse games: uniform NE, potential and "
            "per-vertex monotonicity", 120.0, body)


def _replay_and_check_monotonicity(result):
    """Independent replay of the improvement sequence on unnormalized costs.

    Per-vertex monotonicity from the second improvement on is an ordinal
    statement, so it must also hold with the original preprocessed costs.
    """
    prep = result.prep
    work = prep.game
    g = work.graph
    sigma = initial_basic_situation(work)
    previous = None
    for step, (player, changed) in enumerate(result.steps, start=1):
        improved = uniform_best_improvement(work, sigma, player)
        assert improved is not None
        got_changed = tuple(
            v for v in g.nonterminals if improved[v] != sigma[v]
        )
        assert got_changed == changed
        if step >= 2:
            for v in g.nonterminals:
                before = terminal_cost(work, trace(g, sigma, v), g.owner[v])
                after = terminal_cost(work, trace(g, improved, v), g.owner[v])
                assert after <= before
        previous, sigma = sigma, improved
    for player in (1, 2):
        assert uniform_best_improvement(work, sigma, player) is None


def test_criterion_7_reduction_sandwich():
    def body():
        rng = random.Random(2027)
        games = 0
        ne_checked = 0
        while games < 100:
            game = genutil.random_ciw_terminal(rng, max_v=6)
            if oracle.situation_count(game) > 500:
                continue
            games += 1
            red = terminal_to_sp(game)
            g = game.graph
            for situation in oracle.enumerate_situations(game):
                for start in g.nonterminals:
                    play = trace(g, situation, start)
                    if not play.is_terminal:
                        continue
                    for p in g.players:
                        scaled = red.scale * game.cost_at(play.terminal, p)
                        lo = red.big_m + scaled
                        value = sp_cost(red.game, play, p)
                        assert value.is_finite
                        assert lo <= value.value < lo + Fraction(1, 2)
            for start in g.nonterminals:
                for ne in oracle.find_all_ne(red.game, start=start):
                    if trace(g, ne, start).is_terminal:
                        ne_checked += 1
                        assert oracle.verify_ne_terminal(game, ne, start=start).ok
        assert ne_checked > 100

    _run(7, "100 random reductions: sandwich inequality and NE transfer", 60.0, body)


def test_criterion_8_gallai_transform():
    def body():
        rng = random.Random(2028)
        games = 0
        while games < 100:
            game = genutil.random_positive_cycle_sp(rng, max_v=7)
            report = is_positive(game)
            assert report.cycle_positive
            if report.edge_positive:
                continue  # need games with some negative edge cost
            games += 1
            result = gallai_transform(game)
            new = result.game
            assert all(c > 0 for cs in new.edge_cost.values() for c in cs)
            g = game.graph
            v0 = g.initial
            for w in g.terminals:
                paths = genutil.all_simple_paths(g.n_vertices, g.edge_set, v0, w)
                for p in g.players:
                    shifts = {
                        sum(new.cost(a, b, p) for a, b in zip(path, path[1:]))
                        - sum(game.cost(a, b, p) for a, b in zip(path, path[1:]))
                        for path in paths
                    }
                    assert len(shifts) <= 1

    _run(8, "100 random reweightings: positivity and constant path shift", 30.0, body)
