"""Command line front end.

Exit codes: 0 success, 2 parse or usage error, 3 violated precondition,
4 enumeration too large, 5 internal error (a failed self-check or a stray
ValueError, both library bugs).
"""

from __future__ import annotations

import argparse
import sys

from . import gamefiles, oracle
from .errors import (
    GameFormatError,
    InternalCheckFailed,
    PathgamesError,
    PreconditionError,
    TooLarge,
)
from .fixtures import BUNDLED
from .model import Game, SPGame, Situation, TerminalGame, validate
from .play import Play, trace
from .spne import solve_theorem1
from .terminalne import solve_theorem2
from .une import solve_theorem3

EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_TOO_LARGE = 4
EXIT_INTERNAL = 5
# Flags that only some kinds read: refused on the others before any file is loaded.
_KIND_FLAGS = {
    "solve": {"--start": ("sp-ne", "terminal-ne"), "--transform": ("sp-ne",), "--trace": ("une",)},
    "oracle": {"--start": ("normal-form", "ne"), "--csv": ("normal-form",)},
}


def _resolve_vertex(game: Game, label: str | None) -> int | None:
    if label is None:
        return None
    g = game.graph
    if label in g.names:
        return g.names.index(label)
    if label.isdecimal() or (label.startswith("-") and label[1:].isdecimal()):
        v = int(label)
        if 0 <= v < g.n_vertices:
            return v
        raise GameFormatError(f"vertex id {v} out of range")
    raise GameFormatError(f"no vertex named {label!r}")


def _format_play(game: Game, play: Play) -> str:
    g = game.graph
    parts = [g.names[v] for v in play.prefix]
    if play.is_terminal:
        parts.append(g.names[play.terminal])
        return " -> ".join(parts)
    loop = " -> ".join(g.names[v] for v in play.cycle)
    head = " -> ".join(parts)
    return f"{head} -> (cycle: {loop} -> {g.names[play.cycle[0]]})"


def _print_outcome(game: Game, situation: Situation, start: int) -> None:
    play = trace(game.graph, situation, start)
    print(f"situation: {situation.describe(game.graph)}")
    print(f"play: {_format_play(game, play)}")
    for p in game.graph.players:
        print(f"cost player {p}: {oracle.effective_cost(game, play, p)}")


def _write_out(path: str, text: str) -> int:
    """Write an output file; a path that cannot be written is a usage error."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_PARSE
    print(f"wrote {path}")
    return 0


def _cmd_validate(args) -> int:
    game = gamefiles.load_game(args.file)
    violations = validate(game)
    if not violations:
        print("no violations")
        return 0
    for line in violations:
        print(line)
    return EXIT_PRECONDITION


def _load_valid(path: str) -> Game:
    """Load a game file that must pass `validate`; exits 3 with the violations."""
    game = gamefiles.load_game(path)
    if violations := validate(game):
        raise PreconditionError("invalid game: " + "; ".join(violations))
    return game


def _cmd_solve(args) -> int:
    game = _load_valid(args.file)
    start = _resolve_vertex(game, args.start)
    sp = args.kind == "sp-ne"
    if not isinstance(game, SPGame if sp else TerminalGame):
        kind = "a shortest path" if sp else "a terminal"
        raise GameFormatError(f"{args.kind} expects {kind} game file")
    if args.kind != "une":
        if sp:
            situation = solve_theorem1(game, start, transform=args.transform)
        else:
            situation = solve_theorem2(game, start)
        _print_outcome(game, situation, start if start is not None else game.graph.initial)
        return 0
    result = solve_theorem3(game)
    print(f"situation: {result.situation.describe(game.graph)}")
    print(f"rounds: {result.rounds}")
    if args.trace:
        print(f"nu: {' '.join(str(x) for x in result.nu_trajectory)}")
        names = result.prep.game.graph.names
        for k, (player, changed) in enumerate(result.steps, start=1):
            moved = ",".join(names[v] for v in changed)
            print(f"step {k}: player {player} nu={result.nu_trajectory[k]} changed={moved}")
    return 0


def _cmd_oracle(args) -> int:
    game = _load_valid(args.file)
    start = _resolve_vertex(game, args.start)
    if args.kind == "normal-form":
        nf = oracle.normal_form(game, start)
        if args.csv:
            return _write_out(args.csv, nf.to_csv(game.graph))
        grid = nf.to_text if game.graph.n_players == 2 else nf.to_csv
        print(grid(game.graph), end="")
        return 0
    found = oracle.find_all_ne(game, start) if args.kind == "ne" else oracle.find_all_une(game)
    print(f"{len(found)} {args.kind.upper()} found")
    for situation in found:
        print(situation.describe(game.graph))
    return 0


def _cmd_examples(args) -> int:
    if args.name not in BUNDLED:
        raise GameFormatError(
            f"unknown example {args.name!r}; choose from {', '.join(sorted(BUNDLED))}"
        )
    game = BUNDLED[args.name]()
    return _write_out(args.out or f"{args.name}.json", gamefiles.dump_game(game))


def _parse_situation(game: Game, text: str) -> Situation:
    """The listed moves, each an edge; unlisted vertices choose no move."""
    g = game.graph
    moves: list[int | None] = [None] * g.n_vertices
    for part in text.split(","):
        if not part:
            continue
        try:
            u, v = part.split(":")
        except ValueError as exc:
            raise GameFormatError(f"bad situation entry {part!r}; use from:to") from exc
        u, v = _resolve_vertex(game, u.strip()), _resolve_vertex(game, v.strip())
        if (u, v) not in g.edge_set:
            raise GameFormatError(f"situation entry {part!r} is not a move")
        moves[u] = v
    return Situation(tuple(moves))


def _cmd_export_dot(args) -> int:
    game = gamefiles.load_game(args.file)
    situation = _parse_situation(game, args.situation) if args.situation else None
    text = gamefiles.to_dot(game, situation)
    if args.out:
        return _write_out(args.out, text)
    print(text, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pathgames",
        description="Solvers and brute-force analysis for shortest path and terminal games.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check structural invariants of a game file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("solve", help="run a constructive equilibrium solver")
    p.add_argument("kind", choices=["sp-ne", "terminal-ne", "une"])
    p.add_argument("file")
    p.add_argument("--start", help="start vertex: a name first, else an id "
                        "(default: the file's initial; not une)")
    p.add_argument("--transform", action="store_true",
                   help="apply the positivity reweighting first (sp-ne only)")
    p.add_argument("--trace", action="store_true",
                   help="print the improvement trajectory (une only)")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("oracle", help="exhaustive enumeration analyses")
    p.add_argument("kind", choices=["normal-form", "ne", "une"])
    p.add_argument("file")
    p.add_argument("--start", help="start vertex: a name first, else an id "
                        "(normal-form and ne only)")
    p.add_argument("--csv", help="write the normal form as CSV to this path")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("examples", help="write a bundled example game to a file")
    p.add_argument("name", help=", ".join(sorted(BUNDLED)))
    p.add_argument("--out", help="output path (default: <name>.json)")
    p.set_defaults(func=_cmd_examples)

    p = sub.add_parser("export-dot", help="render a game as Graphviz DOT")
    p.add_argument("file")
    p.add_argument("--situation", help="bold these moves, e.g. \"s:a,a:b\"; "
                        "each vertex is a name first, else an id")
    p.add_argument("--out", help="output path (default: stdout)")
    p.set_defaults(func=_cmd_export_dot)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for flag, kinds in _KIND_FLAGS.get(args.command, {}).items():
            if getattr(args, flag[2:]) not in (None, False) and args.kind not in kinds:
                raise GameFormatError(f"{flag} applies only to {' and '.join(kinds)}")
        return args.func(args)
    except GameFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except TooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TOO_LARGE
    except InternalCheckFailed as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except PathgamesError as exc:  # ZeroSumMixedCycle included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except ValueError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
