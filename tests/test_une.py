from __future__ import annotations

import math
import os
import random
import subprocess
import sys
import textwrap
from collections import Counter
from fractions import Fraction

import pytest

import genutil
import une_reference
import pathgames
from pathgames import graphalg, oracle, play, une
from pathgames.errors import ConditionViolated, PotentialNotDecreased, VerificationFailed
from pathgames.model import Situation, terminal_game
from pathgames.play import terminal_cost, trace
from pathgames.reductions import _check_table_values, une_preprocess
from pathgames.une import (
    _assemble_strategy,
    initial_basic_situation,
    response_tables,
    solve_theorem3,
    uniform_best_improvement,
)


def uniform_best_response(game, situation, player):
    """A strategy minimizing the player's cost from every vertex at once.

    Only the opponent part of ``situation`` is read; the strategy is checked
    at every vertex against the value tables, as the solver checks its own
    improvements.
    """
    tables = response_tables(game, situation, player)
    strategy = _assemble_strategy(game, situation, tables)
    _check_table_values(game, situation.replace(strategy), [tables], game.graph.nonterminals)
    return strategy, game_units(game, tables)


def game_units(game, tables):
    """The table's values as Fractions; the tables hold costs times the game's scale."""
    scale = game._int_costs[0]
    return tuple(Fraction(c, scale) for c in tables.value)


def brute_force_values(game, situation, player):
    """Per-vertex optimum by enumerating all of the player's strategies."""
    g = game.graph
    best = {v: None for v in range(g.n_vertices)}
    for strategy in genutil.enumerate_player_strategies(g, player):
        candidate = situation.replace(strategy)
        for v in range(g.n_vertices):
            c = terminal_cost(game, trace(g, candidate, v), player)
            if best[v] is None or c < best[v]:
                best[v] = c
    return best


def test_response_routes_to_the_only_terminal(chain):
    sigma = Situation.of(chain.graph, {0: 1, 1: 0})
    strategy, values = uniform_best_response(chain, sigma, 2)
    assert strategy == {1: 2}
    assert values[0] == values[1] == Fraction(-1)


def test_response_prefers_terminal_under_ciw():
    game = terminal_game(
        [1, 2, None],
        [(0, 1), (1, 0), (0, 2), (1, 2)],
        {2: (-1, -1)},
        n_players=2,
        initial=0,
    )
    sigma = Situation.of(game.graph, {0: 1, 1: 0})
    strategy, values = uniform_best_response(game, sigma, 1)
    assert strategy[0] == 2
    assert values[0] == Fraction(-1)


def test_response_cycles_when_cycling_is_better():
    game = terminal_game(
        [1, 2, None],
        [(0, 1), (1, 0), (0, 2), (1, 2)],
        {2: (5, -1)},
        n_players=2,
        initial=0,
    )
    sigma = Situation.of(game.graph, {0: 2, 1: 0})
    strategy, values = uniform_best_response(game, sigma, 1)
    assert strategy[0] == 1  # cycle 0 <-> 1 is worth 0, terminal costs 5
    assert values[0] == 0


def random_situation(rng, g):
    return Situation.of(g, {v: rng.choice(g.out[v]) for v in g.nonterminals})


def strategy_count(g, player):
    return math.prod(len(g.out[v]) for v in g.nonterminals if g.owner[v] == player)


def reaches_terminal(g, situation, player, v):
    """Whether some terminal is reachable from v when only player moves freely."""
    seen = {v}
    todo = [v]
    while todo:
        u = todo.pop()
        if g.is_terminal(u):
            return True
        moves = g.out[u] if g.owner[u] == player else (situation[u],)
        for w in moves:
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return False


def test_response_routes_on_a_tie_with_cycling():
    game = terminal_game(
        [1, 2, None],
        [(0, 1), (1, 0), (0, 2), (1, 2)],
        {2: (0, -1)},
        n_players=2,
        initial=0,
    )
    sigma = Situation.of(game.graph, {0: 1, 1: 0})
    tables = response_tables(game, sigma, 1)
    assert tables.value == (0, 0, 0)
    assert tables.layer == (1, 2, 0)  # the route, not the equally good cycle
    strategy, _ = uniform_best_response(game, sigma, 1)
    assert strategy[0] == 2


def test_response_matches_enumeration_on_random_games():
    rng = random.Random(81)
    for _ in range(30):
        game = genutil.random_symmetric_terminal(rng, max_v=8, ciw=True)
        prep = une_preprocess(game)
        work = prep.game
        sigma = initial_basic_situation(work)
        for player in (1, 2):
            _, values = uniform_best_response(work, sigma, player)
            brute = brute_force_values(work, sigma, player)
            for v in range(work.graph.n_vertices):
                assert values[v] == brute[v]
    # Raw boards keep their loops and parallel terminal moves, situations are
    # arbitrary, and infinite-play costs in -2..2 against terminal costs in
    # -5..5 let cycling beat a reachable terminal (the layer-None branch).
    rng = random.Random(91)
    cycling_beats_terminal = 0
    loops = 0
    for k in range(120):
        if k % 3 == 2:
            game = genutil.random_symmetric_terminal(rng, max_v=8, ciw=True)
        else:
            game = genutil.random_symmetric_terminal(rng, max_v=8)
        g = game.graph
        loops += sum(1 for u, v in g.edge_set if u == v)
        sigma = random_situation(rng, g)
        for player in g.players:
            if strategy_count(g, player) > 3000:
                continue
            _, values = uniform_best_response(game, sigma, player)
            tables = response_tables(game, sigma, player)
            brute = brute_force_values(game, sigma, player)
            tabled = game_units(game, tables)
            for v in range(g.n_vertices):
                assert values[v] == tabled[v] == brute[v]
                if tables.layer[v] is None and reaches_terminal(g, sigma, player, v):
                    assert brute[v] == game.cycle_cost(player)
                    cycling_beats_terminal += 1
    assert cycling_beats_terminal >= 100
    assert loops >= 20


def test_improvement_none_when_already_best(chain):
    sigma = Situation.of(chain.graph, {0: 1, 1: 2})
    assert uniform_best_improvement(chain, sigma, 1) is None
    assert uniform_best_improvement(chain, sigma, 2) is None


def test_improvement_switches_exactly_improving_vertices():
    game = terminal_game(
        [1, 2, None, None],
        [(0, 1), (1, 0), (0, 2), (1, 3)],
        {2: (-1, -2), 3: (-3, -1)},
        n_players=2,
        initial=0,
    )
    sigma = Situation.of(game.graph, {0: 2, 1: 3})
    improved = uniform_best_improvement(game, sigma, 1)
    assert improved is not None
    assert improved[0] == 1  # routes through the opponent to the -3 terminal
    assert improved[1] == sigma[1]


def test_improvement_definitional_clauses_random():
    rng = random.Random(83)
    improved_count = 0
    for k in range(30):
        if k % 2:
            game = genutil.random_symmetric_terminal(rng, max_v=7, ciw=True)
        else:
            game = genutil.random_ring_ciw_terminal(rng, max_v=9)
        prep = une_preprocess(game)
        work = prep.game
        g = work.graph
        sigma = initial_basic_situation(work)
        for player in (1, 2):
            result = uniform_best_improvement(work, sigma, player)
            brute = brute_force_values(work, sigma, player)
            if result is None:
                for v in range(g.n_vertices):
                    assert terminal_cost(work, trace(g, sigma, v), player) == brute[v]
                continue
            improved_count += 1
            for v in range(g.n_vertices):
                got = terminal_cost(work, trace(g, result, v), player)
                assert got == brute[v]  # (a) uniform best response
            for v in g.nonterminals:
                if g.owner[v] == player and result[v] != sigma[v]:
                    before = terminal_cost(work, trace(g, sigma, v), player)
                    assert got_value(work, result, v, player) < before  # (b)
    assert improved_count >= 5


def got_value(game, situation, v, player):
    return terminal_cost(game, trace(game.graph, situation, v), player)


def test_initial_basic_star():
    game = terminal_game(
        [1, 2, None],
        [(0, 1), (1, 0), (0, 2), (1, 2)],
        {2: (-1, -1)},
        n_players=2,
    )
    sigma = initial_basic_situation(game)
    assert sigma[0] == 2 and sigma[1] == 2


def test_initial_basic_ring_with_exits(g6):
    sigma = initial_basic_situation(g6)
    for v in range(6):
        assert g6.graph.is_terminal(sigma[v])


def test_initial_basic_chain(chain):
    sigma = initial_basic_situation(chain)
    assert sigma[1] == 2 and sigma[0] == 1


def test_initial_basic_plays_finite_random():
    rng = random.Random(85)
    for _ in range(25):
        game = genutil.random_symmetric_terminal(rng, max_v=9, ciw=True)
        prep = une_preprocess(game)
        sigma = initial_basic_situation(prep.game)
        g = prep.game.graph
        for v in g.nonterminals:
            if v in prep.unreachable:
                continue
            assert trace(g, sigma, v).is_terminal


def _board_with_terminal_choices(rng, n_players, symmetric=False):
    """A terminal board where vertices often hold several terminal moves, so
    a controller's best terminal is often not the lowest id. A symmetric
    board has sparser exits, so some regions cannot reach a terminal."""
    n_pos = rng.randint(2, 10)
    n_term = rng.randint(2, 4)
    owners = [rng.randint(1, n_players) for _ in range(n_pos)] + [None] * n_term
    edges = {(u, v) for u in range(n_pos) for v in range(n_pos) if rng.random() < 0.25}
    for u in range(n_pos):
        if rng.random() < (0.2 if symmetric else 0.4):
            exits = rng.sample(range(n_pos, n_pos + n_term), rng.randint(1, n_term))
            edges.update((u, w) for w in exits)
        if not any(e[0] == u for e in edges):
            edges.add((u, rng.randrange(n_pos + n_term)))
    if symmetric:
        edges |= {(v, u) for u, v in edges if v < n_pos}
    tcost = {w: tuple(rng.randint(-6, -1) for _ in range(n_players))
             for w in range(n_pos, n_pos + n_term)}
    return terminal_game(owners, edges, tcost, n_players)


def _reaches_no_terminal(g):
    """Non-terminals with no path to a terminal, by a fixpoint over the moves."""
    reach = set(g.terminals)
    grew = True
    while grew:
        grew = False
        for v in g.nonterminals:
            if v not in reach and any(w in reach for w in g.out[v]):
                reach.add(v)
                grew = True
    return frozenset(v for v in g.nonterminals if v not in reach)


def test_initial_basic_situation_matches_the_colouring_reference():
    rng = random.Random(17)
    covered = Counter()
    for k in range(1200):
        if k % 3 == 2:
            prep = une_preprocess(_board_with_terminal_choices(rng, 2, symmetric=True))
            game = prep.game
            assert prep.unreachable == _reaches_no_terminal(game.graph)
        else:
            game = _board_with_terminal_choices(rng, 2 + k % 3)
            covered["3 players"] += game.graph.n_players == 3
        g = game.graph
        unreachable = _reaches_no_terminal(g)
        covered["unreachable vertices"] += bool(unreachable)
        covered["best terminal is not the lowest id"] += any(
            game.best_terminal(v) != next((w for w in g.out[v] if g.is_terminal(w)), None)
            for v in g.nonterminals
        )
        got = initial_basic_situation(game)
        assert got == une_reference.initial_basic_situation(game, unreachable)
        covered["two or more layers"] += any(
            not g.is_terminal(got[v]) and not g.is_terminal(got[got[v]])
            for v in g.nonterminals if v not in unreachable
        )
    assert min(covered.values()) >= 200, covered


def _ring_with_terminal_choices(rng):
    """A 2-player infinite-averse ring, alternately owned, on which most
    vertices hold several terminal moves and terminal costs often tie."""
    n_pos, n_term = rng.randint(4, 8), rng.randint(2, 4)
    owners = [1 + v % 2 for v in range(n_pos)] + [None] * n_term
    edges = set()
    for v in range(n_pos):
        edges |= {(v, (v + 1) % n_pos), ((v + 1) % n_pos, v)}
        if rng.random() < 0.8:
            exits = rng.sample(range(n_pos, n_pos + n_term), rng.randint(1, min(3, n_term)))
            edges.update((v, w) for w in exits)
    tcost = {w: (-rng.randint(1, 3), -rng.randint(1, 3)) for w in range(n_pos, n_pos + n_term)}
    return terminal_game(owners, edges, tcost, 2)


def test_theorem3_never_takes_a_dropped_terminal_move():
    # Replays the dynamics as criterion 6 does: no situation of the run, the
    # first one included, takes a move that une_preprocess lists as dropped.
    rng = random.Random(19)
    covered = Counter()
    for _ in range(400):
        game = _ring_with_terminal_choices(rng)
        result = solve_theorem3(game)
        prep = result.prep
        work = prep.game
        g = work.graph
        dropped = set(prep.dropped_edges)
        sigma = initial_basic_situation(work)
        situations = [sigma]
        for player, changed in result.steps:
            improved = uniform_best_improvement(work, sigma, player)
            assert tuple(v for v in g.nonterminals if improved[v] != sigma[v]) == changed
            sigma = improved
            situations.append(sigma)
        for situation in situations:
            assert not any((v, situation[v]) in dropped for v in g.nonterminals)
        row = work._int_costs[1]
        owned = {v: row[g.owner[v] - 1] for v, _ in dropped}
        covered["dropped moves"] += bool(dropped)
        covered["dropped tie"] += any(
            owned[v][w] == owned[v][work.best_terminal(v)] for v, w in dropped
        )
        covered["improvement moves a vertex with dropped moves"] += any(
            v in owned for _, changed in result.steps for v in changed
        )
    assert min(covered.values()) >= 30, covered


def test_solve_chain(chain):
    result = solve_theorem3(chain)
    assert result.situation[0] == 1 and result.situation[1] == 2
    assert result.rounds == 0
    assert oracle.verify_une(chain, result.situation).ok


def test_solve_condition_checks(g6, g2, g3s):
    with pytest.raises(ConditionViolated) as exc:
        solve_theorem3(g6)
    assert exc.value.condition == "SYM"
    with pytest.raises(ConditionViolated) as exc:
        solve_theorem3(g2)
    assert exc.value.condition == "CIW"
    with pytest.raises(ConditionViolated) as exc:
        solve_theorem3(g3s)
    assert exc.value.condition == "TWO"


def test_solve_random_produces_verified_une():
    rng = random.Random(87)
    nontrivial = 0
    for k in range(30):
        if k % 2:
            game = genutil.random_symmetric_terminal(rng, max_v=8, ciw=True)
        else:
            game = genutil.random_ring_ciw_terminal(rng, max_v=10)
        result = solve_theorem3(game)
        assert oracle.verify_une(game, result.situation).ok
        wg = result.prep.game.graph
        assert result.rounds <= wg.n_vertices * len(wg.terminals)
        # potential strictly decreases from the second improvement on
        for k in range(2, len(result.nu_trajectory)):
            assert result.nu_trajectory[k] < result.nu_trajectory[k - 1]
        if result.rounds >= 2:
            nontrivial += 1
    assert nontrivial >= 3


def test_best_response_neighbor_inequality():
    # after a best response by one player, that player likes their own side
    # of every edge at least as much as the opponent's side
    rng = random.Random(89)
    for _ in range(20):
        game = genutil.random_symmetric_terminal(rng, max_v=8, ciw=True)
        prep = une_preprocess(game)
        work = prep.game
        g = work.graph
        sigma = initial_basic_situation(work)
        for player in (1, 2):
            strategy, _ = uniform_best_response(work, sigma, player)
            combined = sigma.replace(strategy)
            for u, v in g.edge_set:
                if g.is_terminal(v) or u == v:
                    continue
                if g.owner[v] == player and g.owner[u] != player:
                    lv = terminal_cost(work, trace(g, combined, v), player)
                    lu = terminal_cost(work, trace(g, combined, u), player)
                    assert lv <= lu


def test_solve_with_unreachable_region():
    game = terminal_game(
        [1, 2, 1, 2, None],
        [(0, 1), (1, 0), (2, 3), (3, 2), (2, 4)],
        {4: (-1, -1)},
        n_players=2,
        initial=0,
    )
    result = solve_theorem3(game)
    assert oracle.verify_une(game, result.situation).ok
    # the isolated 2-cycle keeps its frozen lowest-id moves
    assert result.situation[0] == 1 and result.situation[1] == 0


def test_solve_theorem3_evaluates_all_starts_in_one_pass(monkeypatch):
    traces = genutil.count_calls(monkeypatch, play, "trace")
    sccs = genutil.count_calls(monkeypatch, graphalg, "strongly_connected_components")
    rng = random.Random(93)
    improved = 0
    for k in range(12):
        if k % 2:
            game = genutil.random_symmetric_terminal(rng, max_v=8, ciw=True)
        else:
            game = genutil.random_ring_ciw_terminal(rng, max_v=12)
        traces.clear()
        sccs.clear()
        result = solve_theorem3(game)
        # no play is traced one start at a time; the one SCC pass is the
        # contraction's
        assert traces == []
        assert len(sccs) == 1
        improved += result.rounds > 0
    assert improved >= 3


def test_solve_theorem3_evaluates_each_situation_at_most_twice(monkeypatch):
    # Each round gets the incumbent's outcomes from the caller, and the
    # player who just improved is not asked again, so a solve makes one
    # closing idle round (two when nobody improves) and evaluates the start,
    # each improvement (its check and the potential) and the lifted result.
    rounds = genutil.count_calls(monkeypatch, une, "uniform_best_improvement")
    passes = genutil.count_calls(monkeypatch, play, "outcomes")
    rng = random.Random(95)
    improved = 0
    for k in range(24):
        if k % 2:
            game = genutil.random_symmetric_terminal(rng, max_v=9, ciw=True)
        else:
            game = genutil.random_ring_ciw_terminal(rng, max_v=12)
        rounds.clear()
        passes.clear()
        result = solve_theorem3(game)
        assert len(rounds) == max(result.rounds + 1, 2) <= result.rounds + 2
        assert len(passes) <= 2 * result.rounds + 2
        improved += result.rounds >= 2
    assert improved >= 5


def test_stalled_improvement_breaks_the_potential(monkeypatch):
    # after the first improvement, report the incumbent itself as improved:
    # the potential does not go down, and the message shows its values
    real = une.uniform_best_improvement
    applied = []

    def stalling(game, situation, player, **kwargs):
        if applied:
            return situation
        improved = real(game, situation, player, **kwargs)
        if improved is not None:
            applied.append(improved)
        return improved

    rng = random.Random(99)
    game = genutil.random_ring_ciw_terminal(rng, max_v=12)
    while solve_theorem3(game).rounds < 2:
        game = genutil.random_ring_ciw_terminal(rng, max_v=12)
    nu = solve_theorem3(game).nu_trajectory[1]
    monkeypatch.setattr(une, "uniform_best_improvement", stalling)
    with pytest.raises(PotentialNotDecreased) as exc:
        solve_theorem3(game)
    assert str(exc.value) == f"potential went {nu} -> {nu} on improvement 2"


def test_improvement_must_strictly_improve_every_changed_move(monkeypatch):
    # the re-check reads the old outcomes, so the switch to 2 gains nothing
    game = terminal_game([1, None, None], [(0, 1), (0, 2)], {1: (-1,), 2: (-5,)}, n_players=1)
    before = Situation((1, None, None))
    monkeypatch.setattr(une, "_check_table_values", lambda *args: play.outcomes(game.graph, before))
    with pytest.raises(VerificationFailed,
                       match="^move changed at vertex 0 without strict improvement$"):
        uniform_best_improvement(game, before, 1)


def _two_exits_game():
    """Players 1 and 2 at 0 and 1, each next to the other and to every
    terminal; the players rank terminals 2, 3, 4 in opposite orders."""
    return terminal_game(
        [1, 2, None, None, None],
        [(0, 1), (1, 0)] + [(u, w) for u in (0, 1) for w in (2, 3, 4)],
        {2: (-3, -1), 3: (-2, -2), 4: (-1, -3)},
        n_players=2,
    )


def _scripted(monkeypatch, *moves):
    """Make the improvements return these situations, one per call."""
    script = iter(Situation(m) for m in moves)
    monkeypatch.setattr(une, "uniform_best_improvement", lambda *a, **k: next(script))


def test_theorem3_rejects_an_improvement_that_degrades_a_vertex(monkeypatch):
    # 0 -> 4, 1 -> 3 holds ranks -1 + -2; then 0 -> 2, 1 -> 2 holds -3 + -1:
    # the potential falls from -3 to -4, but vertex 1 goes from -2 to -1
    _scripted(monkeypatch, (4, 3, None, None, None), (2, 2, None, None, None))
    with pytest.raises(PotentialNotDecreased,
                       match="^value at vertex 1 degraded -2 -> -1 on improvement 2$"):
        solve_theorem3(_two_exits_game())


def test_theorem3_rejects_an_improvement_that_makes_a_play_infinite(monkeypatch):
    _scripted(monkeypatch, (1, 0, None, None, None))
    with pytest.raises(VerificationFailed,
                       match="^improvement made the play from vertex 0 infinite$"):
        solve_theorem3(_two_exits_game())


def test_terminal_path_checks_raise_under_dash_O():
    # These checks must not be plain asserts, which -O strips.
    code = textwrap.dedent(
        """
        import sys
        from fractions import Fraction
        from pathgames.errors import InternalCheckFailed
        from pathgames.model import Situation, terminal_game
        from pathgames.reductions import contract_small_game, lift_situation
        from pathgames.une import ResponseTables, _assemble_strategy

        exit_only = terminal_game([1, None], [(0, 1)], {1: (-1,)}, n_players=1)
        no_route = ResponseTables(1, (Fraction(-5), Fraction(-1)), (1, 0))
        chain = terminal_game(
            [1, 2, None], [(0, 1), (1, 0), (1, 2)], {2: (-1, -1)}, n_players=2
        )
        _, cmap = contract_small_game(chain)
        for run in (
            lambda: _assemble_strategy(exit_only, Situation((1, None)), no_route),
            lambda: lift_situation(Situation((None, None, None)), cmap),
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
        "1 no optimal move at vertex 0",
        "1 situation has no move at component 0",
    ]
