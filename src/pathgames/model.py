"""Core game data model: graphs, costs, situations, and structural checks.

Vertices are dense integers 0..|V|-1. Players are numbered 1..n; a vertex
owner of ``None`` marks a terminal. All cost values at the API are exact
``fractions.Fraction`` numbers so comparisons and ties are deterministic.
Inside, every game keeps one integer table of its costs: each cost times
one game-wide scale, which the graph kernels and the terminal-game value
tables run on. Both game classes are built from that table alone, whether
loaded from a file, made by ``sp_game`` or ``terminal_game``, or derived
from another game; ``edge_cost`` and ``terminal_cost`` are exact read-only
views over it. Every type here is immutable value data and safe to share
between threads; a view only caches what it has built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Any, Iterable, Iterator, Mapping, Sequence

from . import graphalg
from .errors import PathgamesError, PreconditionError

TERMINAL = None


@dataclass(frozen=True, order=True)
class ExtCost:
    """A rational cost extended by -infinity and +infinity.

    Ordering is total: MINUS_INF < any finite value < PLUS_INF, with finite
    values ordered as rationals. The (rank, value) field order makes the
    generated dataclass comparison do exactly that.
    """

    rank: int
    value: Fraction = Fraction(0)

    @staticmethod
    def finite(value) -> "ExtCost":
        return ExtCost(0, Fraction(value))

    @property
    def is_finite(self) -> bool:
        return self.rank == 0

    def __str__(self) -> str:
        if self.rank < 0:
            return "-inf"
        if self.rank > 0:
            return "+inf"
        return str(self.value)

    def __repr__(self) -> str:
        return f"ExtCost({self})"


MINUS_INF = ExtCost(-1)
PLUS_INF = ExtCost(1)


@dataclass(frozen=True)
class GameGraph:
    """Directed game board: ownership partition plus moves.

    ``owner[v]`` is the controlling player (1..n_players) or None for a
    terminal. ``edges`` keeps the raw edge tuple as constructed; validation
    reports duplicates rather than silently dropping them. Each graph caches
    one adjacency per direction: ``out`` (sorted out-neighbors) and
    ``_into`` (sorted in-neighbors), which every backward search reads.
    """

    owner: tuple[int | None, ...]
    edges: tuple[tuple[int, int], ...]
    n_players: int
    initial: int | None = None
    names: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.names:
            object.__setattr__(self, "names", tuple(str(v) for v in range(len(self.owner))))
        n = len(self.owner)
        if len(self.names) != n:
            raise PathgamesError("names table length mismatch")
        for p in self.owner:
            if p is not None and not (1 <= p <= self.n_players):
                raise PathgamesError(f"owner {p} outside 1..{self.n_players}")
        for u, v in self.edges:
            if not (0 <= u < n and 0 <= v < n):
                raise PathgamesError(f"edge ({u}, {v}) outside vertex range")
        if self.initial is not None and not (0 <= self.initial < n):
            raise PathgamesError(f"initial vertex {self.initial} out of range")

    @property
    def n_vertices(self) -> int:
        return len(self.owner)

    @property
    def players(self) -> range:
        return range(1, self.n_players + 1)

    def is_terminal(self, v: int) -> bool:
        return self.owner[v] is None

    @cached_property
    def terminals(self) -> tuple[int, ...]:
        return tuple(v for v in range(self.n_vertices) if self.owner[v] is None)

    @cached_property
    def nonterminals(self) -> tuple[int, ...]:
        return tuple(v for v in range(self.n_vertices) if self.owner[v] is not None)

    @cached_property
    def edge_set(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.edges)

    @cached_property
    def out(self) -> tuple[tuple[int, ...], ...]:
        adj = graphalg.out_adjacency(self.n_vertices, self.edge_set)
        return tuple([tuple(row) for row in adj])  # from a list: see _player_components

    @cached_property
    def _edge_symmetric(self) -> bool:
        """Every move into a non-terminal has its reverse: each non-terminal's
        in-neighbors are among its out-neighbors (equal rows are the common
        case)."""
        out, into = self.out, self._into
        return all(
            into[v] == out[v] or set(out[v]).issuperset(into[v]) for v in self.nonterminals
        )

    @cached_property
    def _into(self) -> tuple[tuple[int, ...], ...]:
        """Each vertex's in-neighbors in increasing id order, computed once
        per graph from the sorted ``out`` rows, so no row is sorted again."""
        rows: list[list[int]] = [[] for _ in range(self.n_vertices)]
        for v, row in enumerate(self.out):
            for w in row:
                rows[w].append(v)
        return tuple([tuple(row) for row in rows])

    @cached_property
    def _toward_terminals(self) -> dict[int, int]:
        """The reverse search toward the terminals (``graphalg.tree_toward``)
        joining every vertex, run once per graph; a caller that edits it
        copies it."""
        return graphalg.tree_toward(self._into, self.terminals, range(self.n_vertices))

    @cached_property
    def _player_components(self) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
        """SCCs of each player-induced subgraph and every vertex's SCC index.

        Terminals are singletons. Computed once per graph.
        """
        owner = self.owner
        intra = [
            [v for v in row if owner[v] is not None and owner[v] == owner[u]]
            for u, row in enumerate(self.out)
        ]
        comps = graphalg.strongly_connected_components(intra)
        comp_of = [0] * self.n_vertices
        for cid, comp in enumerate(comps):
            for v in comp:
                comp_of[v] = cid
        # Built from a list, a tuple is allocated at its final size. One
        # built from a generator is allocated at a guess and resized, and
        # CPython files it under the final size when it is freed; per-graph
        # tuples like these then pile up in the tuple free lists, which
        # only a full garbage collection empties.
        return tuple([tuple(c) for c in comps]), tuple(comp_of)

    def sorted_edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u, row in enumerate(self.out) for v in row]

    def name(self, v: int) -> str:
        return self.names[v]


def _scaled_rows(
    costs: Iterable[tuple[Any, Sequence[tuple[int, int]]]], n_players: int
) -> tuple[int, tuple[dict, ...]]:
    """S, the LCM of the denominators of keyed cost vectors, and per player
    each key's cost times S: sums, comparisons and ties match the rationals'.

    Each cost is a ``(numerator, denominator)`` pair in lowest terms with a
    positive denominator; ``costs`` is iterated once per player and once
    for the denominators.
    """
    scale = math.lcm(*{d for _, cs in costs for _, d in cs})
    return scale, tuple(
        {key: cs[i][0] * (scale // cs[i][1]) for key, cs in costs}
        for i in range(n_players)
    )


def _pairs(what: str, costs: Iterable, n_players: int) -> list[tuple[int, int]]:
    """Exact costs as ``_scaled_rows``'s pairs; a wrong-length vector raises."""
    pairs = [Fraction(c).as_integer_ratio() for c in costs]
    if len(pairs) != n_players:
        raise PathgamesError(f"{what} cost vector has wrong arity")
    return pairs


class _CostView(Mapping):
    """Read-only edge or terminal -> cost-vector mapping over a cost table.

    A terminal game's None entry, its infinite-play cost, is not a key. A
    key's ``Fraction`` vector is built on its first read and then cached.
    Keys, their order, lookups, equality and ``repr`` are those of the dict
    the vectors would form.
    """

    __slots__ = ("_scale", "_rows", "_built")

    def __init__(self, scale: int, rows: tuple[dict, ...]):
        self._scale = scale
        self._rows = rows
        self._built: dict[Any, tuple[Fraction, ...]] = {}

    def __getitem__(self, key) -> tuple[Fraction, ...]:
        costs = self._built.get(key)
        if costs is None:
            if key is None:
                raise KeyError(key)
            scale = self._scale
            costs = self._built[key] = tuple(Fraction(row[key], scale) for row in self._rows)
        return costs

    def __contains__(self, key: object) -> bool:
        return key is not None and key in self._rows[0]

    def __iter__(self) -> Iterator:
        return (key for key in self._rows[0] if key is not None)

    def __len__(self) -> int:
        return len(self._rows[0]) - (None in self._rows[0])

    def __repr__(self) -> str:
        return repr(dict(self.items()))


@dataclass(frozen=True)
class SPGame:
    """Shortest path game: per-player cost on every move.

    A game is built by ``_from_ints`` from its integer cost table
    (``_int_costs``): one game-wide scale S > 0 and, per player, every
    move's cost times S. ``edge_cost`` is an exact read-only view over it.
    """

    graph: GameGraph
    edge_cost: Mapping[tuple[int, int], tuple[Fraction, ...]]
    _int_costs: tuple[int, tuple[dict, ...]] = field(repr=False, compare=False)

    @classmethod
    def _from_ints(
        cls, graph: GameGraph, scale: int, rows: tuple[dict[tuple[int, int], int], ...]
    ) -> "SPGame":
        """The game whose cost table is ``scale`` and, per player, every
        move's cost times ``scale``; the rows must share their keys."""
        return cls(graph, _CostView(scale, rows), (scale, rows))

    def cost(self, u: int, v: int, player: int) -> Fraction:
        return self.edge_cost[(u, v)][player - 1]

    def _int_weight(self, player: int) -> graphalg.Weight:
        """The player's scaled integer costs as a graph kernel weight."""
        row = self._int_costs[1][player - 1]
        return lambda u, v: row[u, v]


@dataclass(frozen=True)
class TerminalGame:
    """Terminal game: only the reached terminal (or cycling forever) pays.

    ``infinite_cost`` is the per-player cost of any infinite play. A game
    is built by ``_from_ints`` from its integer cost table (``_int_costs``):
    every cost times one game-wide scale S, so the solvers compare ints.
    ``terminal_cost`` is an exact read-only view over the table.
    """

    graph: GameGraph
    terminal_cost: Mapping[int, tuple[Fraction, ...]]
    infinite_cost: tuple[Fraction, ...]
    _int_costs: tuple[int, tuple[dict, ...]] = field(repr=False, compare=False)

    @classmethod
    def _from_ints(
        cls, graph: GameGraph, scale: int, rows: tuple[dict[int | None, int], ...]
    ) -> "TerminalGame":
        """The game whose cost table is ``scale`` and, per player, each
        outcome's cost times ``scale``, keyed as ``play.outcomes`` reports
        it (None for infinite play); the rows must share their keys."""
        infinite = tuple(Fraction(row[None], scale) for row in rows)
        return cls(graph, _CostView(scale, rows), infinite, (scale, rows))

    def cost_at(self, terminal: int, player: int) -> Fraction:
        return self.terminal_cost[terminal][player - 1]

    def cycle_cost(self, player: int) -> Fraction:
        return self.infinite_cost[player - 1]

    def best_terminal(self, v: int) -> int | None:
        """Cheapest terminal move of v's controller, lowest id on ties.

        None when v has no terminal move, or is a terminal.
        """
        return self._best_terminals[v]

    @cached_property
    def _best_terminals(self) -> tuple[int | None, ...]:
        """Every vertex's ``best_terminal``, from one pass over the ``out``
        rows; a row is sorted, so a strict improvement keeps the lowest id."""
        owner, rows = self.graph.owner, self._int_costs[1]
        best: list[int | None] = [None] * len(owner)
        for v, out in enumerate(self.graph.out):
            if owner[v] is None:
                continue
            row = rows[owner[v] - 1]
            for w in out:
                if owner[w] is None and (best[v] is None or row[w] < row[best[v]]):
                    best[v] = w
        return tuple(best)

    @cached_property
    def _contraction(self):
        """``reductions.contract_small_game``'s result, built once per game."""
        from .reductions import _contract  # reductions imports this module
        return _contract(self)


Game = SPGame | TerminalGame


@dataclass(frozen=True)
class Situation:
    """One chosen out-edge per non-terminal vertex (a strategy profile)."""

    moves: tuple[int | None, ...]

    @staticmethod
    def of(graph: GameGraph, choice: Mapping[int, int]) -> "Situation":
        moves: list[int | None] = [None] * graph.n_vertices
        for v in graph.nonterminals:
            if v not in choice:
                raise PathgamesError(f"no move chosen at vertex {v}")
            target = choice[v]
            if (v, target) not in graph.edge_set:
                raise PathgamesError(f"chosen move ({v}, {target}) is not an edge")
            moves[v] = target
        return Situation(tuple(moves))

    def __getitem__(self, v: int) -> int | None:
        return self.moves[v]

    def items(self) -> Iterator[tuple[int, int]]:
        for v, t in enumerate(self.moves):
            if t is not None:
                yield v, t

    def replace(self, changes: Mapping[int, int]) -> "Situation":
        moves = list(self.moves)
        for v, t in changes.items():
            moves[v] = t
        return Situation(tuple(moves))

    def describe(self, graph: GameGraph) -> str:
        return " ".join(
            f"{graph.name(v)}->{graph.name(t)}" for v, t in self.items()
        )


def _start_or_initial(graph: GameGraph, start: int | None) -> int | None:
    """``start``, or the graph's initial vertex when ``start`` is None.

    A start outside 0..|V|-1 raises PreconditionError before anything
    indexes with it: a negative id would silently name a vertex from the end.
    """
    if start is None:
        return graph.initial
    if not 0 <= start < graph.n_vertices:
        raise PreconditionError(f"start vertex {start} outside 0..{graph.n_vertices - 1}")
    return start


def one_player_out(
    graph: GameGraph, player: int, fixed: Sequence[int | None]
) -> list[list[int]]:
    """Adjacency rows of one player's relaxation.

    The player keeps every move; any other vertex keeps only ``fixed[v]``,
    or no move when that is None. Rows stay sorted, as the graph kernels
    require.
    """
    return [
        list(out) if owner == player else ([] if move is None else [move])
        for owner, out, move in zip(graph.owner, graph.out, fixed)
    ]


def lowest_id_situation(graph: GameGraph) -> Situation:
    """Every non-terminal vertex takes its lowest-id out-neighbor."""
    return Situation.of(graph, {v: graph.out[v][0] for v in graph.nonterminals if graph.out[v]})


def validate(game: Game) -> list[str]:
    """Check all structural invariants; returns human-readable violations.

    An empty list means the game is well formed. Violations are data, not
    exceptions: each entry names the offending vertex or edge and the rule.
    """
    g = game.graph
    violations = []
    seen_edges = set()
    for u, v in g.edges:
        if (u, v) in seen_edges:
            violations.append(f"parallel edge ({u}, {v}) listed more than once")
        seen_edges.add((u, v))
        if g.is_terminal(u):
            violations.append(f"terminal vertex {u} ({g.name(u)}) has outgoing edge ({u}, {v})")
        if u == v and isinstance(game, SPGame):
            violations.append(f"self-loop ({u}, {u}) is not allowed in a shortest path game")
    for v in g.nonterminals:
        if not g.out[v]:
            violations.append(f"non-terminal vertex {v} ({g.name(v)}) has no outgoing edge")
    if g.initial is not None and g.is_terminal(g.initial):
        violations.append(f"initial vertex {g.initial} is a terminal")
    # every cost vector has one entry per player: the table has one row each
    if isinstance(game, SPGame):
        violations += [
            f"edge ({u}, {v}) has no cost vector"
            for u, v in sorted(seen_edges) if (u, v) not in game.edge_cost
        ]
    else:
        violations += [
            f"terminal {w} ({g.name(w)}) has no cost vector"
            for w in g.terminals if w not in game.terminal_cost
        ]
    return violations


def is_edge_symmetric(g: GameGraph) -> bool:
    """True iff every move has its reverse, except moves entering terminals.

    Computed once per graph.
    """
    return g._edge_symmetric


@dataclass(frozen=True)
class PositivityReport:
    """Outcome of the positivity check on a shortest path game.

    ``edge_positive`` is the defining condition (every cost > 0);
    ``cycle_positive`` is the weaker cycle-sum condition. On a cycle failure,
    the lowest such player and one cycle of sum <= 0 are reported, not
    necessarily of minimum mean.
    """

    edge_positive: bool
    cycle_positive: bool
    witness_player: int | None = None
    witness_cycle: tuple[int, ...] | None = None

    def __bool__(self) -> bool:
        return self.edge_positive


def _edge_positive(game: SPGame) -> bool:
    """True iff every move costs every player a positive amount."""
    return all(min(row.values(), default=1) > 0 for row in game._int_costs[1])


def is_positive(game: SPGame) -> PositivityReport:
    # Positive edges make every cycle sum positive, so the cycle pass is
    # needed only when some edge cost is not positive.
    if _edge_positive(game):
        return PositivityReport(True, True)
    g = game.graph
    for player in g.players:
        cycle = graphalg.nonpositive_cycle(g.out, game._int_weight(player))
        if cycle is not None:
            return PositivityReport(False, False, player, tuple(cycle))
    return PositivityReport(False, True)


@dataclass(frozen=True)
class TerminalMerge:
    """Vertex and edge bookkeeping for merging all terminals into one.

    ``chosen_terminal`` maps each new-game source vertex that kept a
    re-targeted terminal edge back to the original terminal it points at, so
    situations of the merged game lift to the original game.
    """

    old_to_new: tuple[int, ...]
    new_to_old: tuple[int | None, ...]
    merged_terminal: int
    chosen_terminal: Mapping[int, int]

    def lift(self, situation: Situation) -> Situation:
        moves: list[int | None] = [None] * len(self.old_to_new)
        for v_new, t_new in situation.items():
            if t_new == self.merged_terminal:
                moves[self.new_to_old[v_new]] = self.chosen_terminal[v_new]
            else:
                moves[self.new_to_old[v_new]] = self.new_to_old[t_new]
        return Situation(tuple(moves))


def merge_terminals(game: SPGame) -> tuple[SPGame, TerminalMerge]:
    """Collapse all terminals into a single one, keeping one edge per source.

    When a vertex had moves to several terminals, the edge kept is the one
    cheapest for the vertex's controller; equal-cost ties keep the lowest
    terminal id. The returned map lifts merged situations back.
    """
    g = game.graph
    if not g.terminals:
        raise PathgamesError("game has no terminal vertices")
    nonterm = list(g.nonterminals)
    old_to_new = [0] * g.n_vertices
    for i, v in enumerate(nonterm):
        old_to_new[v] = i
    vt = len(nonterm)
    for w in g.terminals:
        old_to_new[w] = vt
    new_to_old: list[int | None] = list(nonterm) + [None]

    scale, rows = game._int_costs
    source: dict[tuple[int, int], tuple[int, int]] = {}
    chosen: dict[int, int] = {}
    for u in nonterm:
        u_new = old_to_new[u]
        row = rows[g.owner[u] - 1]
        best_terminal = None
        for v in g.out[u]:
            if g.is_terminal(v):
                key = (row[u, v], v)
                if best_terminal is None or key < best_terminal:
                    best_terminal = key
            else:
                source[(u_new, old_to_new[v])] = (u, v)
        if best_terminal is not None:
            w = best_terminal[1]
            chosen[u_new] = w
            source[(u_new, vt)] = (u, w)

    owner = tuple(g.owner[v] for v in nonterm) + (TERMINAL,)
    names = tuple(g.names[v] for v in nonterm) + ("T",)
    initial = old_to_new[g.initial] if g.initial is not None else None
    merged_graph = GameGraph(
        owner=owner,
        edges=tuple(sorted(source)),
        n_players=g.n_players,
        initial=initial,
        names=names,
    )
    # same costs, so the same scale: re-key the input game's integer table
    tables = tuple({e: row[old] for e, old in source.items()} for row in rows)
    merged = SPGame._from_ints(merged_graph, scale, tables)
    merge_map = TerminalMerge(
        old_to_new=tuple(old_to_new),
        new_to_old=tuple(new_to_old),
        merged_terminal=vt,
        chosen_terminal=chosen,
    )
    return merged, merge_map


def sp_game(
    owner: Iterable[int | None],
    edges: Mapping[tuple[int, int], Iterable],
    n_players: int,
    initial: int | None = None,
    names: Iterable[str] = (),
) -> SPGame:
    """Convenience constructor taking an edge -> cost-vector mapping."""
    costs = [(e, _pairs(f"edge {e}", cs, n_players)) for e, cs in edges.items()]
    graph = GameGraph(
        owner=tuple(owner),
        edges=tuple(sorted(edges)),
        n_players=n_players,
        initial=initial,
        names=tuple(names),
    )
    return SPGame._from_ints(graph, *_scaled_rows(costs, n_players))


def terminal_game(
    owner: Iterable[int | None],
    edges: Iterable[tuple[int, int]],
    terminal_cost: Mapping[int, Iterable],
    n_players: int,
    infinite_cost: Iterable = (),
    initial: int | None = None,
    names: Iterable[str] = (),
) -> TerminalGame:
    """Convenience constructor; infinite play costs zero unless given.

    A ``terminal_cost`` key that is not a terminal vertex raises.
    """
    graph = GameGraph(
        owner=tuple(owner),
        edges=tuple(sorted(set(edges))),
        n_players=n_players,
        initial=initial,
        names=tuple(names),
    )
    terminals = set(graph.terminals)
    if bad := [w for w in terminal_cost if w not in terminals]:
        raise PathgamesError(f"terminal_cost key {bad[0]!r} does not name a terminal vertex")
    costs = [(w, _pairs(f"terminal {w}", cs, n_players)) for w, cs in terminal_cost.items()]
    infinite = tuple(infinite_cost) or (0,) * n_players
    costs.append((None, _pairs("infinite-play", infinite, n_players)))
    return TerminalGame._from_ints(graph, *_scaled_rows(costs, n_players))
