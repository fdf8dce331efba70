"""Bundled example games used by tests and the command line.

The two NE-free shortest path games use structural vertex names: ``a`` is
the blue vertex entered from ``s`` at cost (-1, 2) and ``b`` is the blue
vertex adjacent to ``t``.
"""

from __future__ import annotations

from fractions import Fraction

from .model import SPGame, TerminalGame, sp_game, terminal_game

def fig1_pm() -> SPGame:
    """2-person edge-symmetric game, mixed-sign costs, no zero cycle, no NE."""
    return sp_game(
        owner=[1, 2, 2, None],
        edges={
            (0, 1): (-1, 2),
            (0, 2): (1, 0),
            (1, 0): (0, -1),
            (1, 2): (3, 2),
            (2, 0): (1, 1),
            (2, 1): (0, 0),
            (2, 3): (0, 0),
        },
        n_players=2,
        initial=0,
        names=["s", "a", "b", "t"],
    )


def fig1_p() -> SPGame:
    """2-person edge-symmetric game, nonnegative costs, all-zero cycles, no NE."""
    return sp_game(
        owner=[1, 2, 2, None],
        edges={
            (0, 1): (0, 1),
            (0, 2): (1, 0),
            (1, 0): (0, 0),
            (1, 2): (2, 1),
            (2, 0): (1, 1),
            (2, 1): (0, 0),
            (2, 3): (0, 1),
        },
        n_players=2,
        initial=0,
        names=["s", "v", "u", "t"],
    )


def g2() -> TerminalGame:
    """2-person symmetric terminal game without CIW; has NE but no UNE."""
    return terminal_game(
        owner=[1, 2, None, None],
        edges=[(0, 1), (1, 0), (0, 2), (1, 3)],
        terminal_cost={2: (-1, -2), 3: (0, -1)},
        n_players=2,
        infinite_cost=(-2, 0),
        initial=0,
        names=["1", "2", "a1", "a2"],
    )


def g3s() -> TerminalGame:
    """3-person symmetric CIW terminal game; has NE but no UNE."""
    return terminal_game(
        owner=[1, 2, 3, None, None, None],
        edges=[
            (0, 1), (1, 0),
            (0, 2), (2, 0),
            (1, 2), (2, 1),
            (0, 3), (1, 4), (2, 5),
        ],
        terminal_cost={
            3: (-2, -1, -3),
            4: (-3, -2, -1),
            5: (-1, -3, -2),
        },
        n_players=3,
        initial=0,
        names=["1", "2", "3", "a1", "a2", "a3"],
    )


def g6() -> TerminalGame:
    """2-person CIW terminal game on a one-way 6-cycle; no UNE."""
    ring = [(i, (i + 1) % 6) for i in range(6)]
    exits = [(i, 6 + i) for i in range(6)]
    return terminal_game(
        owner=[1, 2, 1, 2, 1, 2] + [None] * 6,
        edges=ring + exits,
        terminal_cost={
            6: (-3, -1),
            7: (-4, -5),
            8: (-2, -6),
            9: (-1, -3),
            10: (-5, -2),
            11: (-6, -4),
        },
        n_players=2,
        initial=0,
        names=["u1", "u2", "u3", "u4", "u5", "u6",
               "a1", "a2", "a3", "a4", "a5", "a6"],
    )


def g6s() -> SPGame:
    """Positive edge-symmetric 2-person shortest path game with no UNE.

    Clockwise ring moves are cheap, counterclockwise ones expensive, and the
    terminal move costs replicate the terminal preferences of :func:`g6`.
    """
    cheap = Fraction(1, 100)
    edges: dict[tuple[int, int], tuple] = {}
    for i in range(6):
        edges[(i, (i + 1) % 6)] = (cheap, cheap)
        edges[((i + 1) % 6, i)] = (7, 7)
    term = {0: (4, 6), 1: (3, 2), 2: (5, 1), 3: (6, 4), 4: (2, 5), 5: (1, 3)}
    for i, costs in term.items():
        edges[(i, 6 + i)] = costs
    return sp_game(
        owner=[1, 2, 1, 2, 1, 2] + [None] * 6,
        edges=edges,
        n_players=2,
        initial=0,
        names=["u1", "u2", "u3", "u4", "u5", "u6",
               "a1", "a2", "a3", "a4", "a5", "a6"],
    )


def chain() -> TerminalGame:
    """Tiny symmetric CIW chain: both players march to the terminal."""
    return terminal_game(
        owner=[1, 2, None],
        edges=[(0, 1), (1, 0), (1, 2)],
        terminal_cost={2: (-1, -1)},
        n_players=2,
        initial=0,
        names=["v1", "v2", "t"],
    )


BUNDLED = {
    "fig1-pm": fig1_pm,
    "fig1-p": fig1_p,
    "g2": g2,
    "g3s": g3s,
    "g6": g6,
    "g6s": g6s,
    "chain": chain,
}
