"""Equivalence-preserving game transformations.

Contains the potential transform that makes positive-cycle games edge
positive, the embedding of infinite-averse terminal games into positive
shortest path games, the contraction of same-player strongly connected
components with its situation lifting, the preprocessing used by the
uniform-equilibrium solver, and the one-player relaxations: for terminal
games, their per-vertex value tables and the one equilibrium check on them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from . import graphalg
from .errors import (
    CIWViolated,
    ConditionViolated,
    InternalCheckFailed,
    NonPositiveCycle,
    VerificationFailed,
)
from .model import (
    GameGraph,
    SPGame,
    Situation,
    TERMINAL,
    TerminalGame,
    _edge_positive,
    is_edge_symmetric,
)
from .play import outcomes


@dataclass(frozen=True)
class Potential:
    """Per-player vertex potentials of a cost reweighting: player i's
    potential at v is ``pi[i - 1][v] / unit[i - 1]``."""

    pi: tuple[tuple[int, ...], ...]
    unit: tuple[int, ...]

    def of(self, player: int, v: int) -> Fraction:
        return Fraction(self.pi[player - 1][v], self.unit[player - 1])


@dataclass(frozen=True)
class GallaiResult:
    game: SPGame
    potential: Potential


def gallai_transform(game: SPGame) -> GallaiResult:
    """Reweight costs so every edge is strictly positive for every player.

    Requires every directed cycle to have a positive cost sum for every
    player. For each player the new cost is l(u,v) + pi(u) - pi(v) where pi
    solves the difference constraints l(u,v) + pi(u) - pi(v) >= eps via
    shortest-path potentials, with eps set to half the minimum cycle mean.
    Every path from u to v changes cost by pi(u) - pi(v), so paths between
    the same endpoints keep their order and a game with a single terminal
    keeps its equilibria. Paths to different terminals t and t' shift by
    different amounts when pi(t) != pi(t'), so with several terminals an
    equilibrium of the reweighted game need not be one of the input game.

    Already-positive games are returned unchanged with a zero potential.
    Potentials stay integers in a per-player unit of the cost table.
    """
    g = game.graph
    n = g.n_vertices
    edges = g.sorted_edges()
    if _edge_positive(game):
        return GallaiResult(game, Potential(((0,) * n,) * g.n_players, (1,) * g.n_players))

    # On the game's integer table (costs times S), a minimum cycle mean
    # num/den makes 2*den*w - num the weight w - eps with eps = mean/2, in
    # units of 1/(2*S*den); an acyclic graph takes eps = 1 (num/den = 2S).
    scale = game._int_costs[0]
    potentials = []
    units = []
    rows = []  # per player: (common factor, reduced unit, new costs in units)
    for player in g.players:
        weight = game._int_weight(player)
        mean, cycle = graphalg.min_cycle_mean(g.out, weight)
        if mean is not None and mean <= 0:
            raise NonPositiveCycle(player, tuple(cycle))
        num, den = (mean.numerator, mean.denominator) if mean is not None else (2 * scale, 1)
        shifted = {(u, v): 2 * den * weight(u, v) - num for u, v in edges}
        pi = graphalg.bellman_ford_potentials(g.out, lambda u, v: shifted[u, v])
        unit = 2 * scale * den
        potentials.append(tuple(pi))
        units.append(unit)
        row = {}
        for (u, v), w in shifted.items():
            # the new cost minus eps, in the same units
            slack = w + pi[u] - pi[v]
            if slack < 0:
                raise InternalCheckFailed("potential failed to make the edge positive")
            row[u, v] = slack + num
        common = math.gcd(unit, *row.values())
        rows.append((common, unit // common, row))
    # the LCM of the reduced units is the LCM of the new costs' denominators
    new_scale = math.lcm(*(reduced for _, reduced, _ in rows))
    tables = tuple(
        {e: c // common * (new_scale // reduced) for e, c in row.items()}
        for common, reduced, row in rows
    )
    transformed = SPGame._from_ints(g, new_scale, tables)
    return GallaiResult(transformed, Potential(tuple(potentials), tuple(units)))


@dataclass(frozen=True)
class SpReduction:
    """A terminal game recast as a positive shortest path game.

    ``scale`` is the integer the terminal costs were multiplied by to make
    them negative integers; ``big_m`` exceeds every scaled magnitude. Any
    terminal NE of ``game`` is a NE of the source terminal game.
    """

    game: SPGame
    scale: int
    big_m: int


def terminal_to_sp(game: TerminalGame) -> SpReduction:
    """Embed an infinite-averse terminal game into a positive SP game.

    Every move not entering a terminal costs 1/(2|E|) for everyone; a move
    into terminal w costs M + L(w) after scaling terminal costs to negative
    integers. Requires zero infinite-play costs and all terminal costs
    negative, and raises CIWViolated otherwise. A game without moves
    becomes the shortest path game without moves.
    """
    g = game.graph
    if bad := _ciw_violations(game):
        raise CIWViolated(bad)

    # with zero infinite-play costs, the game's own scale is the terminals'
    scale, rows = game._int_costs
    big_m = 1 + max((abs(row[w]) for row in rows for w in g.terminals), default=0)
    edges = g.sorted_edges()
    # the new game's scale: 2|E| when some move costs 1/(2|E|), else 1
    steps = any(not g.is_terminal(v) for _, v in edges)
    sp_scale = 2 * len(edges) if steps else 1
    tables = tuple(
        {(u, v): (big_m + row[v]) * sp_scale if g.is_terminal(v) else 1 for u, v in edges}
        for row in rows
    )
    return SpReduction(SPGame._from_ints(g, sp_scale, tables), scale, big_m)


def _ciw_violations(game: TerminalGame) -> list[tuple[int, int | None]]:
    """Each (player, None) with a nonzero infinite-play cost and each
    (player, terminal) no cheaper than cycling, players in order."""
    g = game.graph
    bad: list[tuple[int, int | None]] = []
    for player, row in zip(g.players, game._int_costs[1]):
        if row[None] != 0:
            bad.append((player, None))
        bad.extend((player, w) for w in g.terminals if row[w] >= row[None])
    return bad


@dataclass(frozen=True)
class ResponseTables:
    """Optimal one-player values plus routing layers for one player.

    ``value[v]`` is the best effective cost player i can guarantee from v
    against the fixed opponent moves (the infinite-play cost stands for
    cycling), as an int on the game's cost table: the cost times the game's
    scale S (``TerminalGame._int_costs``). ``layer[v]`` is v's hop distance
    to the terminals of its value class along optimal routes, or None when
    v's optimum is to cycle. The tables depend only on the game and on the
    moves of the other players.
    """

    player: int
    value: tuple[int, ...]
    layer: tuple[int | None, ...]


def response_tables(game: TerminalGame, situation: Situation, player: int) -> ResponseTables:
    """Per-vertex optima for one player against the other's fixed moves."""
    g = game.graph
    n = g.n_vertices
    owner, moves, into = g.owner, situation.moves, g._into
    # The relaxation keeps the player's own moves and the others' fixed ones:
    # u in into[w] is a reverse move of it iff owner[u] == player or
    # moves[u] == w. Testing that where a row is read costs less than
    # building the filtered rows, as each row is read at most twice.
    left = [0] * n
    for v in g.nonterminals:
        if owner[v] == player:
            left[v] = len(g.out[v])
        elif moves[v] is not None:
            left[v] = 1

    # Peel vertices whose every move leads to peeled ones, terminals first.
    # Every walk from a peeled vertex ends, so exactly the vertices left
    # with moves can cycle.
    todo = [v for v in range(n) if not left[v]]
    while todo:
        v = todo.pop()
        for u in into[v]:
            if owner[u] == player or moves[u] == v:
                left[u] -= 1
                if not left[u]:
                    todo.append(u)

    # Reachable-terminal optima as class indices, best class first; the
    # breadth-first layers of each class double as its routing structure.
    cost = game._int_costs[1][player - 1]
    classes = sorted({cost[w] for w in g.terminals})
    rank = {c: k for k, c in enumerate(classes)}
    by_class: list[list[int]] = [[] for _ in classes]
    for w in g.terminals:
        by_class[rank[cost[w]]].append(w)
    best_class = [-1] * n
    layer: list[int | None] = [None] * n
    for k, frontier in enumerate(by_class):
        for w in frontier:
            best_class[w] = k
            layer[w] = 0
        depth = 0
        while frontier:
            depth += 1
            nxt = []
            for v in frontier:
                for u in into[v]:
                    if best_class[u] < 0 and (owner[u] == player or moves[u] == v):
                        best_class[u] = k
                        layer[u] = depth
                        nxt.append(u)
            frontier = nxt

    cycle_value = cost[None]
    cycle_wins = [cycle_value < c for c in classes]
    value: list[int] = []
    for v in range(n):
        k = best_class[v]
        if left[v] and (k < 0 or cycle_wins[k]):
            value.append(cycle_value)
            layer[v] = None  # optimal play is to cycle, not to take a route
        elif k < 0:
            # raised, not asserted: under -O, classes[-1] would pass silently
            raise InternalCheckFailed(f"vertex {v} has neither a terminal route nor a cycle")
        else:
            value.append(classes[k])
    return ResponseTables(player, tuple(value), tuple(layer))


def _play_costs(game: TerminalGame, ends: list[int | None], player: int) -> list[int]:
    """The player's effective cost of the play from every start, times the game's scale."""
    return list(map(game._int_costs[1][player - 1].__getitem__, ends))


def _check_table_values(
    game: TerminalGame,
    situation: Situation,
    tables: Iterable[ResponseTables],
    starts: Sequence[int],
) -> list[int | None]:
    """Raise VerificationFailed unless every play from ``starts`` is optimal.

    Optimal means that the play costs each tabled player exactly the value
    of their one-player relaxation at that start: a situation passes for one
    start iff it is a NE from there, and for every start iff it is uniform.
    Returns the situation's outcomes (``play.outcomes``), evaluated once here.
    The tables must come from ``game``, whose cost table they share; a
    failure reports both costs in game units.
    """
    ends = outcomes(game.graph, situation)
    scale = game._int_costs[0]
    for t in tables:
        got = _play_costs(game, ends, t.player)
        for v in starts:
            if got[v] != t.value[v]:
                raise VerificationFailed(
                    f"player {t.player} from vertex {v}: the play costs "
                    f"{Fraction(got[v], scale)}, the one-player optimum is "
                    f"{Fraction(t.value[v], scale)}"
                )
    return ends


@dataclass(frozen=True)
class ContractionMap:
    """How a terminal game was contracted to its small version.

    ``rep_edge`` holds, for each contracted edge, the lexicographically
    smallest original edge realizing it; lifting roots each component at the
    tail of the representative edge chosen by the situation and routes the
    rest of the component to that root along a reverse breadth-first tree.
    """

    graph: GameGraph
    component: tuple[int, ...]
    members: tuple[tuple[int, ...], ...]
    rep_edge: Mapping[tuple[int, int], tuple[int, int]]
    # (component, root) -> that component's in-tree, built on first use
    _trees: dict[tuple[int, int], dict[int, int]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )


def contract_small_game(game: TerminalGame) -> tuple[TerminalGame, ContractionMap]:
    """Merge same-player strongly connected components into single vertices.

    Components with at least two vertices get a self-loop standing for the
    ability to cycle internally forever; singleton components keep a loop
    only if the original vertex had one. Parallel edges are collapsed and the
    smallest original edge is kept as representative. Built once per game
    and shared by every caller.
    """
    return game._contraction


def _contract(game: TerminalGame) -> tuple[TerminalGame, ContractionMap]:
    g = game.graph
    comps, comp_of = g._player_components
    rep: dict[tuple[int, int], tuple[int, int]] = {}
    for u, v in g.sorted_edges():
        cu, cv = comp_of[u], comp_of[v]
        if cu == cv and u != v and len(comps[cu]) < 2:
            raise InternalCheckFailed("intra-singleton edge between distinct vertices")
        key = (cu, cv)
        if cu == cv and u == v and len(comps[cu]) >= 2:
            continue  # absorbed by the component loop below
        if key not in rep:
            rep[key] = (u, v)
    for cid, comp in enumerate(comps):
        if len(comp) >= 2:
            u = comp[0]
            v = next(
                x for x in g.out[u] if x != u and not g.is_terminal(x) and comp_of[x] == cid
            )
            rep[(cid, cid)] = (u, v)

    owner = tuple(g.owner[comp[0]] for comp in comps)
    names = tuple(
        g.names[comp[0]] if len(comp) == 1 else "+".join(g.names[v] for v in comp)
        for comp in comps
    )
    initial = comp_of[g.initial] if g.initial is not None else None
    small_graph = GameGraph(
        owner=owner,
        edges=tuple(sorted(rep)),
        n_players=g.n_players,
        initial=initial,
        names=names,
    )
    # same costs, so the same scale: re-key the input game's integer table
    scale, rows = game._int_costs
    keys = [(cid, comp[0]) for cid, comp in enumerate(comps) if owner[cid] is TERMINAL]
    tables = tuple({cid: row[w] for cid, w in keys + [(None, None)]} for row in rows)
    small = TerminalGame._from_ints(small_graph, scale, tables)
    cmap = ContractionMap(
        graph=g,
        component=comp_of,
        members=comps,
        rep_edge=rep,
    )
    return small, cmap


def _tree_toward(cmap: ContractionMap, cid: int, root: int) -> dict[int, int]:
    """In-tree over a component: each non-root member's move toward the root.

    Built by ``graphalg.tree_toward`` over the component's own moves, so
    lifted walks are as short as possible; within a layer the lowest-id
    parent wins. Memoised on ``cmap``, so every lift through one contraction
    builds each tree once.
    """
    tree = cmap._trees.get((cid, root))
    if tree is not None:
        return tree
    members = cmap.members[cid]
    tree = graphalg.tree_toward(cmap.graph._into, [root], frozenset(members))
    if len(tree) + 1 < len(members):
        raise InternalCheckFailed(f"component {cid} not strongly connected")
    cmap._trees[cid, root] = tree
    return tree


def lift_situation(situation: Situation, cmap: ContractionMap) -> Situation:
    """Expand a situation of the small game to the original game.

    Inside each component the play follows the in-tree to the root, which
    then takes the representative edge; a loop choice is realized by cycling
    between the representative intra-component edge's endpoints. A singleton
    component is its own root and needs no tree.
    """
    g = cmap.graph
    choice: dict[int, int] = {}
    for cid, members in enumerate(cmap.members):
        if g.is_terminal(members[0]):
            continue
        target = situation[cid]
        if target is None:
            raise InternalCheckFailed(f"situation has no move at component {cid}")
        u, v = cmap.rep_edge[(cid, target)]
        if len(members) > 1:
            choice.update(_tree_toward(cmap, cid, u))
        choice[u] = v  # a singleton's loop choice is its original self-loop
    return Situation.of(g, choice)


@dataclass(frozen=True)
class UnePrep:
    """Preprocessed 2-person symmetric terminal game plus lifting data.

    ``unreachable`` marks vertices of the preprocessed game that cannot reach
    any terminal; solvers give them fixed lowest-id moves and leave them out
    of the improvement dynamics.
    """

    game: TerminalGame
    contraction: ContractionMap
    dropped_edges: tuple[tuple[int, int], ...]
    unreachable: frozenset[int]

    def lift(self, situation: Situation) -> Situation:
        return lift_situation(situation, self.contraction)


def une_preprocess(game: TerminalGame) -> UnePrep:
    """Normalize a 2-person edge-symmetric terminal game for the UNE solver.

    After contraction, non-loop moves join vertices of different players.
    Of several terminal moves at one vertex only the controller's best is
    kept (ties to the lowest terminal id), and vertices that cannot reach a
    terminal at all are marked for exclusion.
    """
    if game.graph.n_players != 2:
        raise ConditionViolated("TWO", f"{game.graph.n_players} players")
    if not is_edge_symmetric(game.graph):
        raise ConditionViolated("SYM")
    small, cmap = contract_small_game(game)
    g = small.graph
    dropped: list[tuple[int, int]] = []
    for v in g.nonterminals:
        best = small.best_terminal(v)
        dropped.extend((v, w) for w in g.out[v] if g.is_terminal(w) and w != best)
    pruned = small.restricted(g.edge_set.difference(dropped))
    pg = pruned.graph
    can_reach = graphalg.tree_toward(pg._into, pg.terminals, range(pg.n_vertices))
    unreachable = frozenset(v for v in pg.nonterminals if v not in can_reach)
    return UnePrep(pruned, cmap, tuple(dropped), unreachable)
