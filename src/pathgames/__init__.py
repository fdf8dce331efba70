"""Solvers and exhaustive analysis for shortest path and terminal games.

Deterministic n-person games on directed graphs: constructive Nash
equilibria for edge-symmetric positive shortest path games and for
edge-symmetric terminal games, uniform equilibria for 2-person
infinite-averse terminal games, and a brute-force normal-form oracle.
"""

from .errors import (
    CIWViolated,
    ConditionViolated,
    GameFormatError,
    InternalCheckFailed,
    MeasureNotDecreased,
    NonPositiveCycle,
    NotPositive,
    NotSymmetric,
    PathgamesError,
    PotentialNotDecreased,
    PreconditionError,
    TooLarge,
    Unreachable,
    VerificationFailed,
    ZeroSumMixedCycle,
)
from .gamefiles import dump_game, game_from_dict, game_to_dict, load_game, save_game, to_dot
from .model import (
    ExtCost,
    GameGraph,
    MINUS_INF,
    PLUS_INF,
    PositivityReport,
    SPGame,
    Situation,
    TerminalGame,
    TerminalMerge,
    is_edge_symmetric,
    is_positive,
    merge_terminals,
    sp_game,
    terminal_game,
    validate,
)
from .oracle import (
    NormalForm,
    VerifyReport,
    enumerate_situations,
    find_all_ne,
    find_all_une,
    normal_form,
    situation_count,
    verify_ne_sp,
    verify_ne_terminal,
    verify_une,
)
from .play import Play, outcomes, sp_cost, terminal_cost, trace
from .reductions import (
    ContractionMap,
    GallaiResult,
    Potential,
    SpReduction,
    UnePrep,
    contract_small_game,
    gallai_transform,
    lift_situation,
    terminal_to_sp,
    une_preprocess,
)
from .spne import (
    ComponentDecomposition,
    SpecialPath,
    decompose,
    extend_to_situation,
    intra_component_distance,
    lambda_shortest,
    make_special,
    solve_theorem1,
)
from .terminalne import solve_theorem2
from .une import (
    UneSolve,
    initial_basic_situation,
    solve_theorem3,
    uniform_best_improvement,
)

__version__ = "0.1.0"
