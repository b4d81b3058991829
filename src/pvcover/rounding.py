"""Randomized threshold rounding with a logarithmic round schedule.

One round takes every vertex at or above the threshold 1/6 outright and
each other vertex independently with probability 6 * x_v.  A single round
covers any fixed group with probability at least 5/8 whenever the clean
point satisfies the normalized cover row of its threshold set, so a union
of O(log r) independent rounds is feasible with high probability at cost
O(log r) times the fractional objective.  The threshold is the one the
separation oracle checks (constants.ROUNDING_THRESHOLD); the bound holds
only because the two sides share it.

Randomness is pinned: every stream is instance._rng's, and every pick is
_draw's.  Rounding attempt a draws its rounds as the rows of the stream
keyed (seed, a), that is SeedSequence(seed, spawn_key=(a,)), which equals
SeedSequence(seed).spawn(8)[a].  A round takes one uniform draw per
below-threshold vertex of positive pick probability, in vertex id order; a
vertex with x_v = 0 is never picked, so it takes no draw, and a solve with
no such vertex builds no stream at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress
from operator import ge

import numpy as np

from .constants import EPS_OPT, ROUNDING_SCALE
from .errors import RoundingFailure, SolverError
from .instance import CoverCounts, Instance, VertexSelection, _rng, covered_weights, is_feasible
from .relaxation import FractionalSolution, threshold_rows, threshold_set

__all__ = [
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
]

Z99 = 2.5758293035489004  # two-sided 99% normal quantile

# Rounds per doubling of r + 1.  A round misses a group with probability at
# most 3/8, and (3/8)^4 < 2^-5, so a union of ROUNDS_CONSTANT * ceil(log2(r + 1))
# rounds misses some group with probability below r / (r + 1)^5.
ROUNDS_CONSTANT = 4

# Attempts (each a fresh union of rounds) before solve_rounded gives up.
MAX_RESTARTS = 8


@dataclass(frozen=True)
class RoundingConfig:
    """The rounding seed; the round schedule is fixed by rounds_for."""

    seed: int = 0


@dataclass(frozen=True)
class SolveReport:
    """What rounding decided in one solve; the CLI and the bench harness read it.

    Every field is deterministic for a fixed seed; callers time the solve.
    """

    rounds: int
    restarts: int
    cost: int
    feasible: bool
    pruned_cost: int | None = None
    pruned_chosen: tuple[int, ...] | None = None


def rounds_for(r: int) -> int:
    """Round budget: ROUNDS_CONSTANT * ceil(log2(r + 1)) rounds for r >= 1 groups."""
    if r < 1:
        raise ValueError("need at least one group")
    return ROUNDS_CONSTANT * math.ceil(math.log2(r + 1))


def _plan(x):
    """Threshold set, the vertices a round can pick, and their pick probabilities.

    The pickable vertices are those below the threshold with x_v > 0, in
    id order, each picked with probability 6 * x_v.  A uniform draw in
    [0, 1) is never below 0, so leaving out the rest changes no round.
    """
    sure = threshold_set(x)
    taken = set(sure)
    rest = [v for v in range(len(x)) if v not in taken and x[v] > 0]
    return sure, rest, ROUNDING_SCALE * np.array([x[v] for v in rest])


def _draw(plan, trials: int, rng: np.random.Generator):
    """A (trials, k) mask of picks of _plan's k pickable vertices.

    Row t consumes the same doubles as the t-th rng.random(k) call: one
    uniform draw per pickable vertex, in vertex id order.
    """
    _, rest, probs = plan
    return rng.random((trials, len(rest))) < probs


def round_once(inst: Instance, x, rng: np.random.Generator) -> VertexSelection:
    """One independent rounding round.

    Consumes exactly one uniform draw per below-threshold vertex with
    x_v > 0, in vertex id order, so a round can be replayed from its seed
    alone.
    """
    plan = sure, rest, _ = _plan(x)
    return VertexSelection.from_set(inst, sure + tuple(compress(rest, _draw(plan, 1, rng)[0])))


@dataclass(frozen=True)
class RoundSamples:
    """Vectorized independent rounds: per-trial cost and per-group success."""

    costs: np.ndarray  # shape (trials,)
    success: np.ndarray  # shape (trials, r), boolean


def _rounds(inst: Instance, x, trials: int, rng: np.random.Generator):
    """A vertex-major (n, trials) pick mask of independent rounds and their
    (trials, r) per-group success.

    Round t is the threshold set plus row t of _draw's mask; a group succeeds
    where covered_weights, the evaluator behind coverage, reaches its target.
    Every round holds the threshold set and coverage only grows with the
    picks, so when the threshold set alone meets every target each round
    succeeds everywhere and the rounds are not evaluated.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    plan = sure, rest, _ = _plan(x)
    picked = _draw(plan, trials, rng)
    # vertex-major, the layout covered_weights gathers from
    by_vertex = np.zeros((inst.n, trials), dtype=bool)
    by_vertex[list(sure)] = True
    targets = np.array([g.target for g in inst.groups], dtype=np.int64)
    # column 0 holds the threshold set alone until the picks are written
    sure_meets_all = (covered_weights(inst, by_vertex[:, 0]) >= targets).all()
    by_vertex[rest] = picked.T
    if sure_meets_all:
        return by_vertex, np.ones((trials, inst.r), dtype=bool)
    return by_vertex, covered_weights(inst, by_vertex.T) >= targets


def simulate_rounds(inst: Instance, x, trials: int, rng: np.random.Generator) -> RoundSamples:
    """Draw many independent rounds at once.

    Row t of the draw matrix consumes the same stream round_once would in
    its t-th call on the same generator, so the two agree sample for sample.
    Costs are the pick mask times the vertex costs.
    """
    by_vertex, success = _rounds(inst, x, trials, rng)
    costs = np.array(inst.costs, dtype=np.int64) @ by_vertex
    return RoundSamples(costs=costs, success=success)


@dataclass(frozen=True)
class GroupRate:
    frequency: float
    radius: float  # 99% normal-approximation confidence radius


def single_round_success(inst: Instance, x, trials: int, seed: int) -> tuple[GroupRate, ...]:
    """Monte Carlo estimate of each group's single-round success probability."""
    _, success = _rounds(inst, x, trials, _rng(seed))
    rates = []
    for gi in range(inst.r):
        p = float(success[:, gi].mean())
        radius = Z99 * math.sqrt(max(p * (1.0 - p), 0.0) / trials)
        rates.append(GroupRate(frequency=p, radius=radius))
    return tuple(rates)


def expected_round_cost(inst: Instance, x) -> float:
    """Closed-form expected cost of one round: sum of min(1, 6 * x_v) * cost_v."""
    return float(sum(c * min(1.0, ROUNDING_SCALE * xv) for c, xv in zip(inst.costs, x)))


def precondition_margins(inst: Instance, x) -> tuple[tuple[int, float], ...]:
    """Normalized cover-row values for groups still unsatisfied by the threshold set.

    Entry (group, margin) with margin = sum over outside vertices of
    a_v / d * x_v, where d is the demand the threshold set leaves and a_v is
    the weight v can still add, capped at d.  A clean point keeps every
    margin at least 1 up to tolerance; the rounding driver refuses to start
    otherwise.
    """
    return tuple(
        (row.group, sum(a / row.rhs * x[v] for v, a in row.coefficients))
        for row in threshold_rows(inst, x)
    )


def _prune(inst, union: VertexSelection) -> tuple[int, ...]:
    """Drop redundant vertices of a feasible union, most expensive first, lower id on ties.

    One CoverCounts holds the kept set.  Each vertex in turn is unmarked and
    stays dropped if every group still meets its target, else it is marked
    again; each step walks v's edges and compares the r group weights.
    """
    counts = CoverCounts(inst)
    for v in union.chosen:
        counts.mark(v)
    targets = [g.target for g in inst.groups]
    kept = set(union.chosen)
    for v in sorted(union.chosen, key=lambda v: (-inst.costs[v], v)):
        counts.unmark(v)
        if all(map(ge, counts.weights, targets)):
            kept.remove(v)
        else:
            counts.mark(v)
    return tuple(sorted(kept))


def solve_rounded(
    inst: Instance,
    frac: FractionalSolution,
    cfg: RoundingConfig = RoundingConfig(),
    prune: bool = False,
) -> tuple[VertexSelection, SolveReport]:
    """Union rounds_for(r) independent rounds; restart on the rare failure.

    Attempt a draws its rounds as the rows of _rng(cfg.seed, a), which is
    SeedSequence(cfg.seed).spawn(MAX_RESTARTS)[a]'s stream, one uniform per
    pickable vertex (see _plan) per round; with no pickable vertex the union
    is the threshold set and no stream is built.

    Requires a clean fractional point: every still-unsatisfied group must
    have a normalized cover-row margin of at least 1, which is what makes a
    single round succeed with probability at least 5/8 per group.
    """
    for gi, margin in precondition_margins(inst, frac.x):
        if margin < 1.0 - EPS_OPT:
            raise SolverError(
                f"rounding precondition violated: group {gi} margin {margin:.9g} < 1"
            )
    rounds = rounds_for(inst.r)
    plan = sure, rest, _ = _plan(frac.x)
    for attempt in range(MAX_RESTARTS):
        chosen = set(sure)
        # with no pickable vertex no round can add one, so no stream is built
        if rest:
            # row t is round t; a vertex joins the union if any round picks it
            picked = _draw(plan, rounds, _rng(cfg.seed, attempt))
            chosen.update(compress(rest, picked.any(axis=0)))
        union = VertexSelection.from_set(inst, chosen)
        if is_feasible(inst, union.chosen):
            pruned_cost = None
            pruned_chosen = None
            if prune:
                pruned_chosen = _prune(inst, union)
                pruned_cost = sum(inst.costs[v] for v in pruned_chosen)
            report = SolveReport(
                rounds=rounds,
                restarts=attempt,
                cost=union.cost,
                feasible=True,
                pruned_cost=pruned_cost,
                pruned_chosen=pruned_chosen,
            )
            return union, report
    raise RoundingFailure(
        f"no feasible union after {MAX_RESTARTS} attempts of {rounds} rounds"
    )
