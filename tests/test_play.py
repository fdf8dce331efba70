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
from pathgames import graphalg, oracle
from pathgames.errors import InternalCheckFailed, PreconditionError, ZeroSumMixedCycle
from pathgames.model import (
    ExtCost,
    MINUS_INF,
    PLUS_INF,
    Situation,
    sp_game,
    terminal_game,
)
from pathgames.play import outcomes, sp_cost, terminal_cost, trace


def situation(game, **by_name):
    g = game.graph
    index = {g.names[v]: v for v in range(g.n_vertices)}
    return Situation.of(g, {index[a]: index[b] for a, b in by_name.items()})


def test_trace_cycle_from_start(fig1_pm):
    s = situation(fig1_pm, s="a", a="s", b="t")
    play = trace(fig1_pm.graph, s, 0)
    assert play.prefix == (0,)
    assert play.cycle == (0, 1)
    assert not play.is_terminal


def test_trace_terminal(fig1_pm):
    s = situation(fig1_pm, s="b", a="s", b="t")
    play = trace(fig1_pm.graph, s, 0)
    assert play.prefix == (0, 2)
    assert play.terminal == 3


def test_trace_one_step_terminal(fig1_pm):
    s = situation(fig1_pm, s="b", a="b", b="t")
    play = trace(fig1_pm.graph, s, 2)
    assert play.prefix == (2,)
    assert play.terminal == 3


def test_trace_cycle_entered_later(fig1_pm):
    s = situation(fig1_pm, s="b", a="b", b="a")
    play = trace(fig1_pm.graph, s, 0)
    assert play.prefix == (0, 2)
    assert play.cycle == (2, 1)


def test_sp_cost_mixed_sign_cycle(fig1_pm):
    s = situation(fig1_pm, s="a", a="s", b="t")
    play = trace(fig1_pm.graph, s, 0)
    assert sp_cost(fig1_pm, play, 1) == MINUS_INF
    assert sp_cost(fig1_pm, play, 2) == PLUS_INF


def test_sp_cost_all_zero_cycle(fig1_p):
    s = situation(fig1_p, s="v", v="s", u="t")
    play = trace(fig1_p.graph, s, 0)
    assert sp_cost(fig1_p, play, 1) == ExtCost.finite(0)
    assert sp_cost(fig1_p, play, 2) == PLUS_INF


def test_sp_cost_terminal_path(fig1_pm):
    s = situation(fig1_pm, s="a", a="b", b="t")
    play = trace(fig1_pm.graph, s, 0)
    assert sp_cost(fig1_pm, play, 1) == ExtCost.finite(2)
    assert sp_cost(fig1_pm, play, 2) == ExtCost.finite(4)


def test_sp_cost_zero_sum_mixed_cycle_raises():
    game = sp_game(
        [1, 2, None],
        {(0, 1): (1, 1), (1, 0): (-1, 1), (1, 2): (0, 0)},
        n_players=2,
    )
    s = Situation.of(game.graph, {0: 1, 1: 0})
    play = trace(game.graph, s, 0)
    with pytest.raises(ZeroSumMixedCycle):
        sp_cost(game, play, 1)
    assert sp_cost(game, play, 2) == PLUS_INF


def test_terminal_cost_g2(g2):
    g = g2.graph
    s = Situation.of(g, {0: 2, 1: 3})
    play = trace(g, s, 0)
    assert play.terminal == 2
    assert terminal_cost(g2, play, 1) == Fraction(-1)

    s_inf = Situation.of(g, {0: 1, 1: 0})
    play_inf = trace(g, s_inf, 0)
    assert not play_inf.is_terminal
    assert terminal_cost(g2, play_inf, 1) == Fraction(-2)
    assert terminal_cost(g2, play_inf, 2) == Fraction(0)


def test_terminal_cost_g3s_infinite_is_zero(g3s):
    s = Situation.of(g3s.graph, {0: 1, 1: 0, 2: 0})
    play = trace(g3s.graph, s, 0)
    assert not play.is_terminal
    for p in g3s.graph.players:
        assert terminal_cost(g3s, play, p) == 0


def test_trace_bounds_and_terminal_sums():
    rng = random.Random(5)
    for _ in range(30):
        game = genutil.random_symmetric_positive_sp(rng, max_v=8)
        g = game.graph
        if oracle.situation_count(g) > 2000:
            continue
        for s in oracle.enumerate_situations(g):
            for start in g.nonterminals:
                play = trace(g, s, start)
                assert len(play.prefix) <= g.n_vertices
                if play.is_terminal:
                    verts = list(play.prefix) + [play.terminal]
                    for p in g.players:
                        brute = sum(
                            game.cost(u, v, p) for u, v in zip(verts, verts[1:])
                        )
                        assert sp_cost(game, play, p) == ExtCost.finite(brute)
                else:
                    # positive game: every infinite play costs +inf for everyone
                    for p in g.players:
                        assert sp_cost(game, play, p) == PLUS_INF


def test_outcomes_small_cases():
    # 0 -> 1 -> 2 (terminal), 3 <-> 4, 5 loops on itself, 6 -> 3 cannot
    # reach a terminal at all.
    game = terminal_game(
        [1, 2, None, 1, 2, 1, 2],
        [(0, 1), (1, 2), (3, 4), (4, 3), (5, 5), (5, 0), (6, 3)],
        {2: (-1, -1)},
        n_players=2,
    )
    g = game.graph
    s = Situation.of(g, {0: 1, 1: 2, 3: 4, 4: 3, 5: 5, 6: 3})
    assert outcomes(g, s) == [2, 2, 2, None, None, None, None]
    s = s.replace({5: 0})
    assert outcomes(g, s) == [2, 2, 2, None, None, 2, None]


def test_outcomes_match_trace_on_random_situations():
    rng = random.Random(11)
    covered = {"terminal start": 0, "self-loop": 0, "2-cycle": 0, "longer cycle": 0,
               "no terminal reachable": 0}
    for k in range(240):
        if k % 3 == 0:
            game = genutil.random_symmetric_positive_sp(rng, max_v=9)
        elif k % 3 == 1:
            game = genutil.random_symmetric_terminal(rng, max_v=10)
        else:
            game = genutil.random_ring_ciw_terminal(rng, max_v=14)
        g = game.graph
        can_reach = graphalg.tree_toward(g._into, g.terminals, range(g.n_vertices))
        for _ in range(4):
            s = Situation.of(g, {v: rng.choice(g.out[v]) for v in g.nonterminals})
            ends = outcomes(g, s)
            assert len(ends) == g.n_vertices
            for v in range(g.n_vertices):
                play = trace(g, s, v)
                assert ends[v] == play.terminal
                if g.is_terminal(v):
                    covered["terminal start"] += 1
                elif v not in can_reach:
                    covered["no terminal reachable"] += 1
                if play.cycle is not None:
                    kind = {1: "self-loop", 2: "2-cycle"}.get(len(play.cycle), "longer cycle")
                    covered[kind] += 1
    assert min(covered.values()) >= 50, covered


def test_missing_move_raises(g2):
    broken = Situation((1, None, None, None))  # vertex 1 is non-terminal
    with pytest.raises(InternalCheckFailed, match="no move at vertex 1"):
        outcomes(g2.graph, broken)
    with pytest.raises(InternalCheckFailed, match="no move at vertex 1"):
        trace(g2.graph, broken, 0)


@pytest.mark.parametrize("start", [-1, 3])
def test_trace_rejects_a_start_outside_the_vertex_range(start):
    # -1 would name the last vertex from the end, and 3 is past it
    g = terminal_game([None, 1, 2], [(1, 0), (1, 2), (2, 1), (2, 0)], {0: (-1, -2)}, 2).graph
    with pytest.raises(PreconditionError) as exc:
        pathgames.trace(g, Situation((None, 2, 0)), start)
    assert str(exc.value) == f"start vertex {start} outside 0..2"


def test_internal_checks_raise_under_dash_O():
    # These checks must not be plain asserts, which -O strips.
    code = textwrap.dedent(
        """
        import sys
        from pathgames.errors import InternalCheckFailed
        from pathgames.model import Situation, terminal_game
        from pathgames.play import outcomes, trace
        from pathgames.une import response_tables

        game = terminal_game(
            [1, 2, None], [(0, 1), (1, 0), (1, 2)], {2: (-1, -1)}, n_players=2
        )
        broken = Situation((1, None, None))
        exits = Situation((1, 2, None))
        for run in (lambda: outcomes(game.graph, broken),
                    lambda: trace(game.graph, broken, 0),
                    lambda: trace(game.graph, exits, 0).cycle_edges()):
            try:
                run()
            except InternalCheckFailed as exc:
                print(sys.flags.optimize, exc)
        # vertex 0 has no move at all, so neither a route nor a cycle
        stuck = terminal_game([1, 2, None], [(1, 0), (1, 2)], {2: (-1, -1)}, n_players=2)
        try:
            response_tables(stuck, Situation((None, 0, None)), 1)
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
    assert result.stdout.splitlines() == ["1 situation has no move at vertex 1"] * 2 + [
        "1 a terminal play has no cycle",
        "1 vertex 0 has neither a terminal route nor a cycle",
    ]
