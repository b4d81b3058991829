"""Partition vertex cover: pick cheap vertices so that every edge group
reaches its coverage target.

The package pairs a knapsack-cover-strengthened LP relaxation (solved by lazy
cut generation over a small dense simplex) with randomized threshold rounding
over a logarithmic number of rounds, plus an exact branch-and-bound oracle
and a greedy baseline for context.
"""

from .constants import EPS_FEAS, EPS_OPT, ROUNDING_SCALE, ROUNDING_THRESHOLD
from .errors import (
    CutLimitExceeded,
    InputError,
    LpIterationLimit,
    PvcoverError,
    RoundingFailure,
    SolverError,
)
from .exact import DEFAULT_LIMIT, ExactResult, exact_solve
from .greedy import greedy_solve
from .instance import (
    Edge,
    GeneratorConfig,
    Group,
    Instance,
    SetCoverInstance,
    VertexSelection,
    check_strict_partition,
    coverage,
    generate_random,
    generate_star,
    is_feasible,
    parse_instance,
    parse_set_cover,
    reduce_set_cover,
    serialize_instance,
    serialize_set_cover,
    with_overlapping_groups,
)
from .lp import LinearProgram, LpOutcome, lp_solve
from .relaxation import (
    CappedCoverageCut,
    FractionalSolution,
    KnapsackCoverConstraint,
    build_kc_constraint,
    capped_coverage_cut,
    separate,
    solve_natural_lp,
    solve_relaxation,
    threshold_set,
)
from .rounding import (
    GroupRate,
    RoundingConfig,
    RoundSamples,
    SolveReport,
    expected_round_cost,
    precondition_margins,
    round_once,
    rounds_for,
    simulate_rounds,
    single_round_success,
    solve_rounded,
)

__version__ = "0.1.0"

__all__ = [
    "EPS_FEAS",
    "EPS_OPT",
    "ROUNDING_SCALE",
    "ROUNDING_THRESHOLD",
    "PvcoverError",
    "InputError",
    "SolverError",
    "LpIterationLimit",
    "CutLimitExceeded",
    "RoundingFailure",
    "Edge",
    "Group",
    "Instance",
    "SetCoverInstance",
    "GeneratorConfig",
    "parse_instance",
    "serialize_instance",
    "parse_set_cover",
    "serialize_set_cover",
    "check_strict_partition",
    "generate_star",
    "generate_random",
    "with_overlapping_groups",
    "reduce_set_cover",
    "coverage",
    "is_feasible",
    "LinearProgram",
    "LpOutcome",
    "lp_solve",
    "KnapsackCoverConstraint",
    "CappedCoverageCut",
    "FractionalSolution",
    "threshold_set",
    "build_kc_constraint",
    "capped_coverage_cut",
    "separate",
    "solve_relaxation",
    "solve_natural_lp",
    "VertexSelection",
    "RoundingConfig",
    "SolveReport",
    "GroupRate",
    "RoundSamples",
    "rounds_for",
    "round_once",
    "solve_rounded",
    "simulate_rounds",
    "single_round_success",
    "expected_round_cost",
    "precondition_margins",
    "ExactResult",
    "exact_solve",
    "DEFAULT_LIMIT",
    "greedy_solve",
]
