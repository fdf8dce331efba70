"""Uniform NE for 2-person edge-symmetric infinite-averse terminal games.

The solver contracts the game and builds a starting situation in which every
play is finite and every terminal-adjacent vertex takes its controller's best
terminal move. The players then alternate uniform best improvements on the
contracted game, which never take another terminal move. The value tables
and their check live in ``reductions``.

Each step compares one player's costs by order or equality only, as ints on
the game's integer cost table (``TerminalGame._int_costs``: every cost times
one game-wide scale). The termination potential sums every non-terminal's
rank for its controller, which only that order decides: a terminal's rank
in [-|V_T|, -1], or 0 for cycling. It ranges over finitely many integers and
strictly decreases from the second improvement on.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    ConditionViolated,
    InternalCheckFailed,
    PotentialNotDecreased,
    VerificationFailed,
)
from .model import Situation, TerminalGame
from .play import outcomes
from .reductions import (
    ResponseTables,
    UnePrep,
    _check_table_values,
    _ciw_violations,
    _play_costs,
    response_tables,
    une_preprocess,
)


def _assemble_strategy(
    game: TerminalGame,
    situation: Situation,
    tables: ResponseTables,
    keep_at: frozenset[int] = frozenset(),
) -> dict[int, int]:
    """One strategy attaining the table optimum at every vertex at once.

    Vertices listed in ``keep_at`` keep their incumbent move untouched; the
    caller guarantees their current play already attains the optimum. At the
    rest, a move one layer closer to the target class is chosen, preferring
    the incumbent when it qualifies, then the lowest id; vertices whose
    optimum is to cycle pick any same-value successor the same way.
    """
    g = game.graph
    value, layer = tables.value, tables.layer
    strategy: dict[int, int] = {}
    for v in g.nonterminals:
        if g.owner[v] != tables.player:
            continue
        if v in keep_at:
            strategy[v] = situation[v]
            continue
        c = value[v]
        if layer[v] is not None:
            good = [
                w for w in g.out[v]
                if value[w] == c and layer[w] == layer[v] - 1
            ]
        else:
            good = [w for w in g.out[v] if not g.is_terminal(w) and value[w] == c]
        if not good:
            raise InternalCheckFailed(f"no optimal move at vertex {v}")
        incumbent = situation[v]
        strategy[v] = incumbent if incumbent in good else good[0]
    return strategy


def _ranks(game: TerminalGame) -> tuple[dict[int | None, int], ...]:
    """Per player, each outcome's rank: a terminal's in [-|V_T|, -1], cycling 0.

    Terminals rank by the player's cost, equal costs sharing a rank. Only the
    per-player preference order matters to equilibria and to the improvement
    dynamics, and ranks give the potential its integer range.
    """
    g = game.graph
    ranks = []
    for row in game._int_costs[1]:
        distinct = sorted({row[w] for w in g.terminals})
        rank = {c: k - len(distinct) for k, c in enumerate(distinct)}
        ranks.append({w: rank[row[w]] for w in g.terminals} | {None: 0})
    return tuple(ranks)


def uniform_best_improvement(
    game: TerminalGame,
    situation: Situation,
    player: int,
    *,
    ends: list[int | None] | None = None,
) -> Situation | None:
    """The player's uniform best response that changes only improving moves.

    Returns None when the player's current strategy is already a uniform
    best response. Otherwise the returned situation attains the optimal
    value at every vertex while keeping the player's move wherever the value
    does not strictly improve; both clauses are re-checked on the outcomes
    of the plays. A caller that holds the situation's outcomes
    (``play.outcomes``) passes them as ``ends``, so they are not evaluated
    again.
    """
    g = game.graph
    tables = response_tables(game, situation, player)
    if ends is None:
        ends = outcomes(g, situation)
    current = _play_costs(game, ends, player)
    if current == list(tables.value):
        return None
    keep = frozenset(
        v for v in g.nonterminals
        if g.owner[v] == player and current[v] == tables.value[v]
    )
    strategy = _assemble_strategy(game, situation, tables, keep_at=keep)
    improved = situation.replace(strategy)
    after = _check_table_values(game, improved, [tables], g.nonterminals)
    cost = game._int_costs[1][player - 1]
    for v in g.nonterminals:
        if g.owner[v] == player and improved[v] != situation[v]:
            if not cost[after[v]] < current[v]:
                raise VerificationFailed(
                    f"move changed at vertex {v} without strict improvement"
                )
    return improved


def initial_basic_situation(game: TerminalGame) -> Situation:
    """Starting situation with finite plays everywhere that can have them.

    The graph's reverse breadth-first in-tree toward the terminals
    (``GameGraph._toward_terminals``, the search ``une_preprocess`` also
    reads) points each vertex at its lowest-id out-neighbor one layer
    closer; a terminal-adjacent one takes its controller-best terminal move
    instead. Vertices that cannot reach a terminal take their lowest-id
    move and stay out of the dynamics.
    """
    g = game.graph
    choice = dict(g._toward_terminals)
    for v in g.nonterminals:
        if v not in choice:
            choice[v] = g.out[v][0]
        elif g.is_terminal(choice[v]):
            choice[v] = game.best_terminal(v)
    return Situation.of(g, choice)


@dataclass(frozen=True)
class UneSolve:
    """Outcome of the uniform-equilibrium computation.

    ``situation`` lives on the original game. The steps name vertices of
    the contracted game the dynamics ran on (``prep.game``), and the
    trajectory is the rank potential: ``nu_trajectory[0]`` is its starting
    value and each following entry is its value after one applied
    improvement by ``steps[k]``.
    """

    situation: Situation
    prep: UnePrep
    rounds: int
    nu_trajectory: tuple[Fraction, ...]
    steps: tuple[tuple[int, tuple[int, ...]], ...]


def solve_theorem3(game: TerminalGame) -> UneSolve:
    """Compute a uniform NE of a 2-person symmetric infinite-averse game.

    Checks the TWO, SYM and CIW conditions, then alternates uniform best
    improvements starting from player 1 until neither player has one. The
    potential must strictly decrease from the second improvement on and the
    number of improvements can never exceed |V| * |V_T| of the contracted
    game; violations raise PotentialNotDecreased. The lifted result is
    re-verified against per-player value tables on the original game.

    The rounds compare ints on the contracted game's cost table, and
    each round hands the incumbent's outcomes to ``uniform_best_improvement``
    instead of evaluating them again. The player who just improved is not
    asked again before the other player has moved: its reply was certified
    optimal at every vertex against the other player's moves, and its value
    tables depend only on those moves, so the round would rebuild the same
    tables and return None. An improvement therefore counts as the first of
    the two idle rounds that end the dynamics.
    """
    g = game.graph
    prep = une_preprocess(game)  # raises TWO and SYM
    if bad := _ciw_violations(game):
        p, w = bad[0]
        raise ConditionViolated("CIW", (
            f"player {p} infinite-play cost is nonzero" if w is None
            else f"terminal {w} is not better than cycling for player {p}"
        ))

    work = prep.game
    wg = work.graph
    ranks = _ranks(work)

    def owner_ranks(ends: list[int | None]) -> list[int]:
        """The potential's terms: each non-terminal's rank for its controller."""
        return [ranks[wg.owner[v] - 1][ends[v]] for v in wg.nonterminals]

    sigma = initial_basic_situation(work)
    ends = outcomes(wg, sigma)
    held = owner_ranks(ends)
    trajectory = [sum(held)]
    steps: list[tuple[int, tuple[int, ...]]] = []
    bound = wg.n_vertices * len(wg.terminals)

    player = 1
    idle = 0
    while idle < 2:
        improved = uniform_best_improvement(work, sigma, player, ends=ends)
        if improved is None:
            idle += 1
            player = 3 - player
            continue
        idle = 1  # the improver's own next round is certified idle
        ends = outcomes(wg, improved)
        values = owner_ranks(ends)
        nu = sum(values)
        if len(steps) >= 1:
            if not nu < trajectory[-1]:
                raise PotentialNotDecreased(
                    f"potential went {trajectory[-1]} -> {nu} "
                    f"on improvement {len(steps) + 1}"
                )
            for v, before, after in zip(wg.nonterminals, held, values):
                if after > before:
                    raise PotentialNotDecreased(
                        f"value at vertex {v} degraded {before} -> {after} "
                        f"on improvement {len(steps) + 1}"
                    )
        for v in wg.nonterminals:
            if v not in prep.unreachable and ends[v] is None:
                raise VerificationFailed(
                    f"improvement made the play from vertex {v} infinite"
                )
        changed = tuple(
            v for v in wg.nonterminals if improved[v] != sigma[v]
        )
        steps.append((player, changed))
        trajectory.append(nu)
        sigma = improved
        held = values
        if len(steps) > bound:
            raise PotentialNotDecreased(
                f"more than |V|*|V_T| = {bound} improvements"
            )
        player = 3 - player

    lifted = prep.lift(sigma)
    tables = (response_tables(game, lifted, p) for p in g.players)
    _check_table_values(game, lifted, tables, g.nonterminals)
    return UneSolve(
        situation=lifted,
        prep=prep,
        rounds=len(steps),
        nu_trajectory=tuple(map(Fraction, trajectory)),
        steps=tuple(steps),
    )
