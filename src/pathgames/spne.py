"""NE construction for edge-symmetric positive n-person shortest path games.

Pipeline: merge terminals, decompose the board into per-player strongly
connected components, find a path crossing as few components as possible,
repair it until no single player can undercut it in their own one-player
relaxation, then extend it to a full strategy profile that locks the path
in place. The result is checked against the one-player best-response oracle
before being returned.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from fractions import Fraction

from . import graphalg, oracle
from .errors import (
    InternalCheckFailed,
    MeasureNotDecreased,
    NonPositiveCycle,
    NotPositive,
    NotSymmetric,
    PreconditionError,
    Unreachable,
    VerificationFailed,
)
from .model import (
    GameGraph,
    SPGame,
    Situation,
    _edge_positive,
    is_edge_symmetric,
    lowest_id_situation,
    merge_terminals,
)
from .reductions import gallai_transform, one_player_out

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class ComponentDecomposition:
    """Per-player strongly connected components, one terminal singleton."""

    comp_of: tuple[int, ...]
    members: tuple[tuple[int, ...], ...]
    comp_owner: tuple[int | None, ...]


def decompose(game: SPGame) -> ComponentDecomposition:
    """Decompose a single-terminal game board into components.

    Also checks that edges between distinct components always change owner,
    which is what edge-symmetry guarantees.
    """
    g = game.graph
    if len(g.terminals) != 1:
        raise PreconditionError("decompose expects a single-terminal game (merge first)")
    comps, comp_of = g._player_components
    owners = tuple([g.owner[comp[0]] for comp in comps])  # see GameGraph._player_components
    for u, v in g.edge_set:
        if comp_of[u] != comp_of[v] and not g.is_terminal(v):
            if g.owner[u] == g.owner[v]:
                raise NotSymmetric(
                    f"same-player edge ({u}, {v}) crosses components; "
                    "the graph cannot be edge-symmetric"
                )
    return ComponentDecomposition(comp_of, comps, owners)


@dataclass(frozen=True)
class SpecialPath:
    """A terminal path with its component block structure and cost vector.

    ``blocks`` splits the path into maximal same-component runs; ``r_vector``
    measures each non-final block's outgoing moves with the block owner's
    costs, the quantity that shrinks reverse-lexicographically during
    repair.
    """

    vertices: tuple[int, ...]
    block_comp: tuple[int, ...]
    blocks: tuple[tuple[int, ...], ...]
    r_vector: tuple[Fraction, ...]

    @property
    def q(self) -> int:
        return len(self.blocks)


def _split_blocks(path: list[int], dec: ComponentDecomposition):
    blocks: list[list[int]] = []
    comps: list[int] = []
    for v in path:
        c = dec.comp_of[v]
        if comps and comps[-1] == c:
            blocks[-1].append(v)
        else:
            comps.append(c)
            blocks.append([v])
    return blocks, comps


def _path_cost(game: SPGame, path: list[int], player: int) -> int:
    """The path's cost to the player on the game's integer table."""
    row = game._int_costs[1][player - 1]
    return sum(row[e] for e in zip(path, path[1:]))


def _make_special_path(game: SPGame, dec: ComponentDecomposition, path: list[int]) -> SpecialPath:
    blocks, comps = _split_blocks(path, dec)
    if len(set(comps)) != len(comps):
        raise InternalCheckFailed("path re-enters a component it left")
    # each block's moves plus its exit, in the block owner's costs
    scale = game._int_costs[0]
    r = []
    end = 0
    for c, block in zip(comps, blocks[:-1]):
        end += len(block)
        total = _path_cost(game, path[end - len(block) : end + 1], dec.comp_owner[c])
        r.append(Fraction(total, scale))
    return SpecialPath(
        vertices=tuple(path),
        block_comp=tuple(comps),
        blocks=tuple(tuple(b) for b in blocks),
        r_vector=tuple(r),
    )


def _check_no_forward_jumps(g: GameGraph, dec: ComponentDecomposition, sp: SpecialPath) -> None:
    """No vertex of block j may see a component of block j+2 or later."""
    later_than = {c: j for j, c in enumerate(sp.block_comp)}
    for j, c in enumerate(sp.block_comp[:-2]):
        for v in dec.members[c]:
            for w in g.out[v]:
                k = later_than.get(dec.comp_of[w])
                if k is not None and k >= j + 2:
                    raise InternalCheckFailed(
                        f"edge ({v}, {w}) jumps from block {j} to block {k}"
                    )


def lambda_shortest(game: SPGame, dec: ComponentDecomposition, v0: int) -> SpecialPath:
    """Terminal path minimizing the number of component crossings.

    Crossing edges cost one, intra-component edges nothing; among optimal
    paths the canonical fewest-hop lowest-id one is returned. Raises
    Unreachable when no terminal path exists.
    """
    g = game.graph
    vt = g.terminals[0]
    lam = lambda u, v: int(dec.comp_of[u] != dec.comp_of[v])
    dist = graphalg.lex_dist_to(g.n_vertices, g.edge_set, lam, [vt])
    if dist[v0] is None:
        raise Unreachable(f"terminal not reachable from vertex {v0}")
    path = graphalg.canonical_path(v0, g.out, lam, dist)
    sp = _make_special_path(game, dec, path)
    if sp.q != dist[v0][0] + 1:
        raise InternalCheckFailed("block count disagrees with crossing distance")
    return sp


def _entry_distances(
    game: SPGame, dec: ComponentDecomposition, comp: int, source: int
) -> dict[int, int]:
    """Shortest cost from ``source`` to every member of its component.

    Only moves inside the component count, in its owner's integer costs.
    """
    members = dec.members[comp]
    if len(members) == 1:  # also the terminal's component, which has no owner
        return {source: 0}
    g = game.graph
    owner = dec.comp_owner[comp]
    inside = set(members)
    edges = [(a, b) for a in members for b in g.out[a] if b in inside]
    dist = graphalg.lex_dist_from(g.n_vertices, edges, game._int_weight(owner), [source])
    if any(dist[m] is None for m in members):
        raise InternalCheckFailed("component is not strongly connected")
    return {m: dist[m][0] for m in members}


def intra_component_distance(
    game: SPGame, dec: ComponentDecomposition, comp: int, u: int, v: int
) -> Fraction:
    """Shortest u -> v cost inside one component, in its owner's costs."""
    return Fraction(_entry_distances(game, dec, comp, u)[v], game._int_costs[0])


def _speciality_gap(
    game: SPGame, sp: SpecialPath, player: int
) -> tuple[int, list[list[int]], list[tuple[int, int] | None]]:
    """Best cost player i can get in their relaxation, minus the path cost.

    The relaxation keeps the path moves plus all of i's moves; its
    adjacency and (integer) distance table come back with the gap.
    """
    g = game.graph
    path = sp.vertices
    on_path: list[int | None] = [None] * g.n_vertices
    for u, v in zip(path, path[1:]):
        on_path[u] = v
    adj = one_player_out(g, player, on_path)
    dist = graphalg.lex_dist_to(
        g.n_vertices,
        ((u, v) for u, row in enumerate(adj) for v in row),
        game._int_weight(player),
        [g.terminals[0]],
    )
    if dist[path[0]] is None:
        raise InternalCheckFailed("path start cannot reach the terminal in its relaxation")
    gap = dist[path[0]][0] - _path_cost(game, list(path), player)
    if gap > 0:
        raise InternalCheckFailed("path cost exceeds its own relaxation")
    return gap, adj, dist


def _best_splice(
    game: SPGame, dec: ComponentDecomposition, sp: SpecialPath, player: int
) -> list[int] | None:
    """Cheapest single-deviation improvement of the path by one player.

    Deviations leave the path at one of the player's vertices, wander inside
    that vertex's component through the player's own vertices, and rejoin the
    path in the same or the next block. The best strictly improving splice
    (then earliest, then lowest ids) is returned, or None.
    """
    g = game.graph
    weight = game._int_weight(player)
    path = list(sp.vertices)
    pos_block = []
    for j, block in enumerate(sp.blocks):
        pos_block.extend([j] * len(block))
    best = None  # (delta, a, b, splice vertices)
    for a, v in enumerate(path[:-1]):
        if g.owner[v] != player:
            continue
        j = pos_block[a]
        comp_members = set(dec.members[sp.block_comp[j]])
        for b in range(a + 1, len(path)):
            if pos_block[b] > j + 1:
                break
            w = path[b]
            segment_cost = _path_cost(game, path[a : b + 1], player)
            banned = set(path[: a + 1]) | set(path[b:])
            interior = (comp_members - banned) | {w}
            edges = []
            for x in [v] + sorted(interior - {w}):
                for y in g.out[x]:
                    if y in interior:
                        edges.append((x, y))
            dist = graphalg.lex_dist_to(g.n_vertices, edges, weight, [w])
            if dist[v] is None or dist[v][0] >= segment_cost:
                continue
            key = (dist[v][0] - segment_cost, a, b)
            if best is None or key < best[0]:
                adj = graphalg.out_adjacency(g.n_vertices, edges)
                splice = graphalg.canonical_path(v, adj, weight, dist)
                best = (key, path[:a] + splice + path[b + 1 :])
    return best[1] if best else None


def make_special(game: SPGame, dec: ComponentDecomposition, start_path: SpecialPath) -> SpecialPath:
    """Repair a minimum-crossing path until it is special for every player.

    Each round finds a player whose relaxation beats the path and splices in
    their cheapest deviation; the per-block cost vector must then shrink in
    reverse-lexicographic order, which is asserted. Raises
    MeasureNotDecreased if an improvement fails to shrink it, which would
    indicate a bug rather than a property of the input.
    """
    sp = start_path
    _check_no_forward_jumps(game.graph, dec, sp)
    rounds = 0
    while True:
        improved = False
        for player in game.graph.players:
            gap, gip_adj, gip_dist = _speciality_gap(game, sp, player)
            if gap == 0:
                continue
            rounds += 1
            candidate = _best_splice(game, dec, sp, player)
            if candidate is None:
                # Improvements decompose into single splices; fall back to
                # the full relaxation optimum if that ever fails to hold.
                candidate = graphalg.canonical_path(
                    sp.vertices[0], gip_adj, game._int_weight(player), gip_dist
                )
            new_sp = _make_special_path(game, dec, candidate)
            # the measure must shrink in reverse-lexicographic order
            if new_sp.q != sp.q or not new_sp.r_vector[::-1] < sp.r_vector[::-1]:
                raise MeasureNotDecreased(
                    f"improvement for player {player} did not shrink the measure"
                )
            _check_no_forward_jumps(game.graph, dec, new_sp)
            sp = new_sp
            improved = True
            break
        if not improved:
            log.debug("path became special after %d improvement rounds", rounds)
            return sp


def extend_to_situation(
    game: SPGame, dec: ComponentDecomposition, sp: SpecialPath
) -> Situation:
    """Extend a special path to a full strategy profile.

    On-path vertices follow the path. An off-path vertex adjacent to any
    component the path visits aims at the earliest such block, entering it
    as close (in the block owner's metric, from the block's first path
    vertex) as possible; everyone else takes their lowest-id move.
    """
    g = game.graph
    path = sp.vertices
    choice: dict[int, int] = {v: w for v, w in zip(path, path[1:])}
    block_of_comp = {c: j for j, c in enumerate(sp.block_comp)}
    entry_dist: dict[int, dict[int, int]] = {}
    for v in g.nonterminals:
        if v in choice:
            continue
        hits = [
            (block_of_comp[dec.comp_of[w]], w)
            for w in g.out[v]
            if dec.comp_of[w] in block_of_comp
        ]
        if hits:
            k = min(j for j, _ in hits)
            if k not in entry_dist:
                entry_dist[k] = _entry_distances(game, dec, sp.block_comp[k], sp.blocks[k][0])
            dist = entry_dist[k]
            choice[v] = min((w for j, w in hits if j == k), key=lambda w: (dist[w], w))
        else:
            choice[v] = g.out[v][0]
    return Situation.of(g, choice)


def solve_theorem1(
    game: SPGame, start: int | None = None, transform: bool = False
) -> Situation:
    """Construct a NE of an edge-symmetric positive shortest path game.

    With ``transform`` set, a game whose costs are not all positive but whose
    cycle sums are is first reweighted by :func:`gallai_transform`, and the
    returned situation is an equilibrium of the reweighted game. It is one
    of the input game too when the game has a single terminal. With several
    terminals it need not be: the reweighting shifts a player's path costs
    by an amount that depends on the terminal reached, which can reorder
    terminals. If no terminal is reachable from the start every play is
    infinitely bad for everyone, so the all-lowest-id situation is returned.
    """
    g = game.graph
    if start is None:
        start = g.initial
    if start is None or g.is_terminal(start):
        raise PreconditionError("a non-terminal start vertex is required")
    if not is_edge_symmetric(g):
        raise NotSymmetric("the graph is not edge-symmetric")
    working = game
    if not _edge_positive(game):
        # The reweighting runs the one cycle pass of the solve; without
        # ``transform`` it only tells the two refusals apart.
        try:
            working = gallai_transform(game).game
        except NonPositiveCycle as exc:
            raise NotPositive(
                "edge costs are not all positive and neither are cycle sums"
            ) from exc
        if not transform:
            raise NotPositive("edge costs are not all positive")
    if not g.terminals:
        return lowest_id_situation(g)

    merged, mmap = merge_terminals(working)
    dec = decompose(merged)
    v0 = mmap.old_to_new[start]
    try:
        base = lambda_shortest(merged, dec, v0)
    except Unreachable:
        return lowest_id_situation(g)
    sp = make_special(merged, dec, base)
    situation = mmap.lift(extend_to_situation(merged, dec, sp))
    check = oracle.verify_ne_sp(working, situation, start)
    if not check.ok:
        raise VerificationFailed(
            f"constructed situation admits a deviation: {check.note}"
        )
    return situation
