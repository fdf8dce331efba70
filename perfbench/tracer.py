"""Span tracing of the pathgames modules from outside the library.

``Tracer.install`` wraps each function named in ``TARGETS`` and rebinds the
wrapper under every name, in every loaded ``pathgames`` module, that holds
the original function object: ``spne`` and ``oracle`` import
``is_positive`` by name, ``une``, ``oracle`` and ``terminalne`` import
``trace``, and the package re-exports most of them. ``uninstall`` puts the
originals back, so untraced runs execute the unmodified program.

A span is ``(name, start, end, parent, op, status, info)``: ``parent`` is
the index of the enclosing span of the same op (-1 at the top), ``status``
is the name of the exception that escaped (or ""), and ``info`` is a count
read off the result for the few spans that carry one. Self time is a span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

TARGETS = {
    "spne": (
        "solve_theorem1", "decompose", "lambda_shortest", "make_special",
        "extend_to_situation", "intra_component_distance",
    ),
    "graphalg": (
        "lex_dist_from", "lex_dist_to", "canonical_path", "min_cycle_mean",
        "strongly_connected_components", "bellman_ford_potentials",
    ),
    "model": ("is_positive", "merge_terminals", "is_edge_symmetric"),
    "reductions": (
        "gallai_transform", "contract_small_game", "une_preprocess", "lift_situation",
    ),
    "play": ("trace", "terminal_cost", "sp_cost"),
    "une": (
        "solve_theorem3", "response_tables", "uniform_best_improvement",
        "initial_basic_situation",
    ),
    "terminalne": ("solve_theorem2",),
    "oracle": (
        "verify_ne_sp", "verify_ne_terminal", "verify_une", "find_all_ne",
        "player_strategies",
    ),
    "gamefiles": ("game_from_dict",),
}

# Counts read off a result: strategies enumerated, improvement found, rounds.
INFO = {
    "oracle.player_strategies": len,
    "une.uniform_best_improvement": lambda r: int(r is not None),
    "une.solve_theorem3": lambda r: r.rounds,
}

# Roadmap phases as (phase, span name, parent span name); a phase's time is
# the inclusive duration of those spans per op.
PHASES = (
    ("phase.t1.positivity_ms", "model.is_positive", "spne.solve_theorem1"),
    ("phase.t1.transform_ms", "reductions.gallai_transform", "spne.solve_theorem1"),
    ("phase.t1.merge_ms", "model.merge_terminals", "spne.solve_theorem1"),
    ("phase.t1.decompose_ms", "spne.decompose", "spne.solve_theorem1"),
    ("phase.t1.crossing_path_ms", "spne.lambda_shortest", "spne.solve_theorem1"),
    ("phase.t1.repair_ms", "spne.make_special", "spne.solve_theorem1"),
    ("phase.t1.extend_ms", "spne.extend_to_situation", "spne.solve_theorem1"),
    ("phase.t1.verify_ms", "oracle.verify_ne_sp", "spne.solve_theorem1"),
    ("phase.t2.contract_ms", "reductions.contract_small_game", "terminalne.solve_theorem2"),
    ("phase.t2.lift_ms", "reductions.lift_situation", "terminalne.solve_theorem2"),
    ("phase.t2.check_ms", "oracle.verify_ne_terminal", "terminalne.solve_theorem2"),
    ("phase.t2.check_ms", "une.response_tables", "terminalne.solve_theorem2"),
    ("phase.t3.preprocess_ms", "reductions.une_preprocess", "une.solve_theorem3"),
    ("phase.t3.initial_ms", "une.initial_basic_situation", "une.solve_theorem3"),
    ("phase.t3.rounds_ms", "une.uniform_best_improvement", "une.solve_theorem3"),
    ("phase.t3.lift_ms", "reductions.lift_situation", "une.solve_theorem3"),
    ("phase.t3.final_check_ms", "une.response_tables", "une.solve_theorem3"),
)

_PHASE_OF = {(span, parent): phase for phase, span, parent in PHASES}

SELF_MS = (
    "spne.solve_theorem1", "spne.decompose", "spne.lambda_shortest",
    "spne.make_special", "spne.extend_to_situation",
    "graphalg.lex_dist_from", "graphalg.lex_dist_to", "graphalg.canonical_path",
    "graphalg.min_cycle_mean", "graphalg.strongly_connected_components",
    "graphalg.bellman_ford_potentials",
    "model.is_positive", "model.merge_terminals", "model.is_edge_symmetric",
    "reductions.gallai_transform", "reductions.contract_small_game",
    "reductions.une_preprocess", "reductions.lift_situation",
    "play.trace", "play.sp_cost",
    "une.solve_theorem3", "une.response_tables", "une.uniform_best_improvement",
    "une.initial_basic_situation",
    "terminalne.solve_theorem2",
    "oracle.verify_ne_sp", "oracle.verify_ne_terminal", "oracle.verify_une",
    "oracle.find_all_ne",
    "gamefiles.game_from_dict",
)

CALLS = (
    "spne.intra_component_distance", "graphalg.lex_dist_from",
    "graphalg.lex_dist_to", "model.is_positive", "play.trace",
    "play.terminal_cost", "une.response_tables",
)


def layer_metrics() -> list[tuple[str, str]]:
    """Every per-layer metric name with its unit, in output order."""
    out = [(f"{n}.self_ms", "ms/op") for n in SELF_MS]
    out += [(f"{n}.calls", "calls/op") for n in CALLS]
    out += [
        ("terminalne.check_exhaustive.calls", "calls/op"),
        ("terminalne.check_value_table.calls", "calls/op"),
        ("oracle.strategies_enumerated", "strategies/op"),
        ("une.rounds", "rounds/op"),
        ("une.improvement_hit_ratio", "ratio"),
    ]
    seen = set()
    for phase, _, _ in PHASES:
        if phase not in seen:
            seen.add(phase)
            out.append((phase, "ms/op"))
    out.append(("trace.overhead_ratio", "ratio"))
    return out


class Tracer:
    """Collects spans of one op at a time and folds them into totals."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.kept: list[list] = []
        self.keep = True
        self.op = 0
        self.ops = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.info: dict[str, int] = defaultdict(int)
        self.phase_s: dict[str, float] = defaultdict(float)
        self.check_routes = {"exhaustive": 0, "value_table": 0}

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        info = INFO.get(name)

        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.op, "", 0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[5] = type(exc).__name__
                raise
            finally:
                rec[2] = clock()
                stack.pop()
            if info is not None:
                rec[6] = info(result)
            return result

        return traced

    def install(self) -> None:
        loaded = [m for k, m in sys.modules.items() if k == "pathgames" or k.startswith("pathgames.")]
        for mod_name, funcs in TARGETS.items():
            module = sys.modules[f"pathgames.{mod_name}"]
            for func in funcs:
                original = getattr(module, func)
                wrapper = self._wrap(f"{mod_name}.{func}", original)
                for holder in loaded:
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            self._patched.append((holder, attr, original))
                            setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patched):
            setattr(holder, attr, original)
        self._patched.clear()

    def end_op(self) -> None:
        """Fold the finished op's spans into the totals and clear them."""
        spans = self.spans
        child = [0.0] * len(spans)
        for rec in spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
        for i, (name, start, end, parent, _, status, info) in enumerate(spans):
            self.calls[name] += 1
            self.self_s[name] += end - start - child[i]
            self.info[name] += info
            pname = spans[parent][0] if parent >= 0 else None
            if name == "oracle.verify_ne_terminal" and pname == "terminalne.solve_theorem2":
                route = "value_table" if status == "TooLarge" else "exhaustive"
                self.check_routes[route] += 1
            phase = _PHASE_OF.get((name, pname))
            if phase is not None:
                self.phase_s[phase] += end - start
        if self.keep:
            self.kept.extend(spans)
        spans.clear()
        self.ops += 1
        self.op += 1

    def metrics(self, overhead_ratio: float) -> dict[str, float]:
        n = self.ops
        values = {f"{k}.self_ms": self.self_s[k] * 1000 / n for k in SELF_MS}
        values.update({f"{k}.calls": self.calls[k] / n for k in CALLS})
        values["terminalne.check_exhaustive.calls"] = self.check_routes["exhaustive"] / n
        values["terminalne.check_value_table.calls"] = self.check_routes["value_table"] / n
        values["oracle.strategies_enumerated"] = self.info["oracle.player_strategies"] / n
        values["une.rounds"] = self.info["une.solve_theorem3"] / n
        tries = self.calls["une.uniform_best_improvement"]
        hits = self.info["une.uniform_best_improvement"]
        values["une.improvement_hit_ratio"] = hits / tries if tries else 0.0
        for phase, _, _ in PHASES:
            values[phase] = self.phase_s[phase] * 1000 / n
        values["trace.overhead_ratio"] = overhead_ratio
        return values

    def write_spans(self, path, header: str) -> None:
        """Kept spans as tab-separated rows; times in microseconds."""
        if not self.kept:
            return
        t0 = self.kept[0][1]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(header + "\n")
            fh.write("op\tindex\tparent\tname\tstart_us\tend_us\tstatus\tinfo\n")
            op, index = None, 0
            for name, start, end, parent, rec_op, status, info in self.kept:
                index = index + 1 if rec_op == op else 0
                op = rec_op
                fh.write(
                    f"{op}\t{index}\t{parent}\t{name}\t{(start - t0) * 1e6:.1f}\t"
                    f"{(end - t0) * 1e6:.1f}\t{status}\t{info}\n"
                )
