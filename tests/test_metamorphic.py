"""Metamorphic properties of the solvers, checked with hypothesis.

Every comparison the Theorem-1 solver makes is between sums of one player's
costs, so scaling all costs by one positive number must leave its output
exactly as it is. Scaling each player's costs separately, or shifting them
by a potential that is zero on the only terminal, changes the output but not
the set of equilibria, so the result must still certify on the input game.

The terminal-game solvers compare single costs of one player on an integer
table scaled by the LCM of the cost denominators. Scaling every cost by one
positive rational with a new denominator changes that scale but no
comparison, so Theorems 2 and 3 must return exactly what they did. Theorem 3
only ever takes a vertex's best terminal move, so giving a vertex one more
terminal move that its controller likes strictly less must not change it
either (Theorem 2's start situation may take such a move, so it is not
checked there).

Renaming the vertex ids changes no cost, so a solution of the relabelled
game, mapped back, must be an equilibrium of the input game. The moves
themselves may differ, because the solvers break ties by lowest id.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import genutil  # noqa: E402
from pathgames import oracle  # noqa: E402
from pathgames.model import SPGame, Situation, TerminalGame, sp_game, terminal_game  # noqa: E402
from pathgames.spne import solve_theorem1  # noqa: E402
from pathgames.terminalne import solve_theorem2  # noqa: E402
from pathgames.une import solve_theorem3  # noqa: E402

SETTINGS = settings(derandomize=True, deadline=None, max_examples=30, database=None)

positive_rationals = st.fractions(
    min_value=Fraction(1, 12), max_value=10, max_denominator=12
)


@st.composite
def symmetric_positive_games(draw, max_terminals=3):
    """Edge-symmetric SP games with rational costs in [1/12, 10]."""
    n_players = draw(st.integers(1, 3))
    n_pos = draw(st.integers(2, 9))
    n_term = draw(st.integers(1, max_terminals))
    owners = draw(st.lists(st.integers(1, n_players), min_size=n_pos, max_size=n_pos))
    all_pairs = [(u, v) for u in range(n_pos) for v in range(u + 1, n_pos)]
    pairs = draw(st.sets(st.sampled_from(all_pairs)))
    exits = draw(st.sets(st.tuples(
        st.integers(0, n_pos - 1), st.integers(n_pos, n_pos + n_term - 1)
    )))
    edges = set(exits) | set(pairs) | {(v, u) for u, v in pairs}
    for u in range(n_pos):
        if not any(e[0] == u for e in edges):
            edges.add((u, n_pos))
    cost = {
        e: tuple(draw(positive_rationals) for _ in range(n_players))
        for e in sorted(edges)
    }
    initial = draw(st.integers(0, n_pos - 1))
    return sp_game(owners + [None] * n_term, cost, n_players, initial=initial)


def _recost(game: SPGame, cost) -> SPGame:
    g = game.graph
    return sp_game(
        g.owner,
        {(u, v): [cost(u, v, p) for p in g.players] for u, v in g.sorted_edges()},
        g.n_players,
        initial=g.initial,
    )


@SETTINGS
@given(symmetric_positive_games(), positive_rationals)
def test_uniform_scaling_keeps_the_solution(game, factor):
    scaled = _recost(game, lambda u, v, p: game.cost(u, v, p) * factor)
    assert solve_theorem1(scaled).moves == solve_theorem1(game).moves


@SETTINGS
@given(symmetric_positive_games(), st.lists(positive_rationals, min_size=3, max_size=3))
def test_per_player_scaling_keeps_equilibria(game, factors):
    scaled = _recost(game, lambda u, v, p: game.cost(u, v, p) * factors[p - 1])
    assert oracle.verify_ne_sp(game, solve_theorem1(scaled)).ok


@SETTINGS
@given(
    symmetric_positive_games(max_terminals=1),
    st.lists(st.integers(-1000, 1000), min_size=27, max_size=27),
)
def test_potential_shift_keeps_equilibria(game, raw):
    # a per-player potential, zero on the terminal; with one terminal every
    # play from a start shifts by the same amount, so equilibria stay
    g = game.graph
    n = g.n_vertices
    pot = [
        [0 if g.is_terminal(v) else Fraction(raw[(p - 1) * 9 + v], 100) for v in range(n)]
        for p in g.players
    ]
    shifted = _recost(
        game, lambda u, v, p: game.cost(u, v, p) + pot[p - 1][u] - pot[p - 1][v]
    )
    assert oracle.verify_ne_sp(game, solve_theorem1(shifted, transform=True)).ok


def _scale_terminal(game: TerminalGame, factor: Fraction) -> TerminalGame:
    g = game.graph
    return terminal_game(
        g.owner,
        g.edges,
        {w: tuple(c * factor for c in cs) for w, cs in game.terminal_cost.items()},
        g.n_players,
        tuple(c * factor for c in game.infinite_cost),
        g.initial,
        g.names,
    )


@SETTINGS
@given(
    st.randoms(use_true_random=False),
    st.booleans(),
    st.sampled_from([Fraction(7, 3), Fraction(5, 7), Fraction(13, 11)]),
)
def test_scaling_terminal_costs_keeps_theorems_2_and_3(rng, ring, factor):
    if ring:
        game = genutil.random_ring_ciw_terminal(rng, max_v=12)
    else:
        game = genutil.random_symmetric_terminal(rng, max_v=9, ciw=True)
    scaled = _scale_terminal(game, factor)
    # the integer table runs on a new scale
    assert scaled._int_costs[0] % factor.denominator == 0
    assert game._int_costs[0] % factor.denominator != 0
    assert solve_theorem2(scaled).moves == solve_theorem2(game).moves
    before, after = solve_theorem3(game), solve_theorem3(scaled)
    assert after.situation == before.situation
    assert after.rounds == before.rounds
    assert after.steps == before.steps
    assert after.nu_trajectory == before.nu_trajectory


@SETTINGS
@given(st.randoms(use_true_random=False), st.booleans())
def test_a_worse_terminal_move_keeps_theorem_3(rng, ring):
    if ring:
        game = genutil.random_ring_ciw_terminal(rng, max_v=12)
    else:
        game = genutil.random_symmetric_terminal(rng, max_v=9, ciw=True)
    g = game.graph
    # (v, w): w is a terminal v cannot move to yet, and v's controller
    # likes it strictly less than v's best terminal move
    extra = [
        (v, w) for v in g.nonterminals
        if (best := game.best_terminal(v)) is not None
        for w in g.terminals
        if w not in g.out[v]
        and game.terminal_cost[w][g.owner[v] - 1] > game.terminal_cost[best][g.owner[v] - 1]
    ]
    assume(extra)
    widened = terminal_game(
        g.owner, g.edges + (rng.choice(extra),), game.terminal_cost, g.n_players,
        game.infinite_cost, g.initial, g.names,
    )
    before, after = solve_theorem3(game), solve_theorem3(widened)
    assert after.situation == before.situation
    assert after.rounds == before.rounds
    assert after.steps == before.steps
    assert after.nu_trajectory == before.nu_trajectory


def _relabel(game, rng):
    """The game with each vertex v renamed ``perm[v]`` for a random
    permutation ``perm``, and ``perm``."""
    g = game.graph
    perm = list(range(g.n_vertices))
    rng.shuffle(perm)
    owner = [None] * g.n_vertices
    for v, o in enumerate(g.owner):
        owner[perm[v]] = o
    initial = perm[g.initial]
    if isinstance(game, SPGame):
        cost = {(perm[u], perm[v]): game.edge_cost[u, v] for u, v in g.edges}
        return sp_game(owner, cost, g.n_players, initial=initial), perm
    return terminal_game(
        owner,
        [(perm[u], perm[v]) for u, v in g.edges],
        {perm[w]: game.terminal_cost[w] for w in g.terminals},
        g.n_players,
        game.infinite_cost,
        initial,
    ), perm


def _map_back(situation: Situation, perm) -> Situation:
    """The relabelled game's situation as one of the input game."""
    back = {new: old for old, new in enumerate(perm)}
    return Situation(tuple(
        None if (t := situation.moves[perm[v]]) is None else back[t] for v in range(len(perm))
    ))


@SETTINGS
@given(symmetric_positive_games(), st.randoms(use_true_random=False))
def test_relabelling_keeps_theorem_1_an_equilibrium(game, rng):
    relabelled, perm = _relabel(game, rng)
    situation = _map_back(solve_theorem1(relabelled), perm)
    assert oracle.verify_ne_sp(game, situation).ok


@SETTINGS
@given(st.randoms(use_true_random=False))
def test_relabelling_keeps_theorem_2_an_equilibrium(rng):
    game = genutil.random_symmetric_terminal(rng, max_v=7)
    assume(oracle.situation_count(game) <= 2000)
    relabelled, perm = _relabel(game, rng)
    situation = _map_back(solve_theorem2(relabelled), perm)
    assert oracle.verify_ne_terminal(game, situation).ok


@SETTINGS
@given(st.randoms(use_true_random=False))
def test_relabelling_keeps_theorem_3_a_uniform_equilibrium(rng):
    game = genutil.random_ring_ciw_terminal(rng, max_v=10)
    assume(oracle.situation_count(game) <= 2000)
    relabelled, perm = _relabel(game, rng)
    situation = _map_back(solve_theorem3(relabelled).situation, perm)
    assert oracle.verify_une(game, situation).ok
