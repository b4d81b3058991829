"""Covering relaxations over vertex variables: cover rows, separation, cutting planes.

For a group with residual demand left after removing a vertex set, each
outside vertex can contribute at most min(residual, its remaining weighted
degree).  Those truncated rows close the integrality gap of the natural
relaxation; only the row induced by the rounding threshold ever needs to be
checked, which keeps separation polynomial and the master LP tiny.

Capped-coverage rows bound each edge's contribution to a group's demand by
its own weight, and one pass over a group's edges separates them exactly.
Untruncated, they are the natural relaxation projected onto the vertex
variables, which the same cutting-plane loop solves; truncated like the
cover rows, they pin the strengthened value at or above the natural one.
The strengthened loop appends one row per solve: the first violated cover
row by group index, else the capped row of the group whose demand is
relatively furthest from met (the deepest capped cut).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .constants import EPS_FEAS, ROUNDING_THRESHOLD
from .errors import CutLimitExceeded, InputError, SolverError
from .instance import Instance
from .lp import LinearProgram, lp_solve

__all__ = [
    "KnapsackCoverConstraint",
    "CappedCoverageCut",
    "FractionalSolution",
    "threshold_set",
    "threshold_rows",
    "build_kc_constraint",
    "capped_coverage_cut",
    "separate",
    "solve_relaxation",
    "solve_natural_lp",
]

# Cap on generated cuts, per group, before the loop gives up.
CUTS_PER_GROUP = 200


class _CoverRow:
    """Shared evaluation of a row sum of coefficients[v] * x_v >= rhs."""

    def lhs_at(self, x) -> float:
        """Row sum of coefficients[v] * x_v, summed in coefficient order."""
        return sum(a * x[v] for v, a in self.coefficients)

    def satisfied_by(self, x, tol: float = EPS_FEAS) -> bool:
        return self.lhs_at(x) >= self.rhs - tol


@dataclass(frozen=True)
class KnapsackCoverConstraint(_CoverRow):
    """One truncated cover row: sum of coefficients[v] * x_v >= rhs.

    suppressed is the vertex set assumed already picked; rhs is the group's
    residual demand with that set removed; every coefficient is a positive
    integer capped at rhs.
    """

    group: int
    suppressed: tuple[int, ...]
    coefficients: tuple[tuple[int, int], ...]
    rhs: int


def _cover_row(inst, group, covered):
    """Demand left and kept members of a group's cover row, or None when no
    demand is left.

    covered(u, v) marks a member edge as already covered: its weight comes
    off the target.  Every other ("kept") member is listed as its
    (edge id, u, v, weight) entry of inst.group_members, in membership order.
    """
    left = inst.groups[group].target
    kept = []
    for member in inst.group_members(group):
        _, u, v, w = member
        if not covered(u, v):
            kept.append(member)
        else:
            left -= w
            if left <= 0:
                return None
    return (left, kept) if left > 0 else None


def _coefficients(left, kept, truncate=True):
    """Row coefficients of kept members, sorted by vertex: each kept member
    adds its weight to both endpoints, each sum capped at left when truncate."""
    acc: dict[int, int] = {}
    for _, u, v, w in kept:
        acc[u] = acc.get(u, 0) + w
        acc[v] = acc.get(v, 0) + w
    return tuple((v, min(left, w) if truncate else w) for v, w in sorted(acc.items()))


def _touches(suppressed):
    """covered(u, v) for _cover_row: an edge with an end in the suppressed set."""
    picked = frozenset(suppressed)
    return lambda u, v: u in picked or v in picked


def _kc_row(inst, group, picked, covered):
    """Cover row of the group with the sorted vertex set picked suppressed, or
    None when no demand is left; covered is _touches(picked)."""
    walk = _cover_row(inst, group, covered)
    if walk is None:
        return None
    return KnapsackCoverConstraint(group, picked, _coefficients(*walk), walk[0])


def build_kc_constraint(inst, group, suppressed):
    """Truncated cover row for (group, suppressed), or None when satisfied already."""
    picked = tuple(sorted(set(suppressed)))
    return _kc_row(inst, group, picked, _touches(picked))


@dataclass(frozen=True)
class CappedCoverageCut(_CoverRow):
    """Capped-demand row for one group: sum of coefficients[v] * x_v >= rhs.

    An edge supplies a group's demand at most its own weight, however large
    x_u + x_v is.  Fixing the set of edges whose cap binds at some point and
    discounting the demand by their total weight leaves a linear row in the
    remaining ("kept") edges that every covering vertex set satisfies: a
    kept edge the cover touches has a chosen endpoint, so its x_u + x_v is
    at least 1.  Coefficients are truncated at rhs like the cover rows,
    except in the natural relaxation (truncation is valid for covers only).
    """

    group: int
    kept: tuple[int, ...]  # edge ids whose cap was not binding
    coefficients: tuple[tuple[int, int], ...]
    rhs: int


def _capped_supply(inst, group, x, tol):
    """Demand left, kept members and their supply at x for the group's capped
    row, or None when the capped edges alone meet the demand.

    The split treats an edge as capped once x_u + x_v >= 1 - tol, so a point
    that wobbles by round-off around a sum of 1 picks the same row.  The
    supply sums w_e * (x_u + x_v) over the kept members in membership order.
    """
    split = 1.0 - tol
    walk = _cover_row(inst, group, lambda u, v: x[u] + x[v] >= split)
    if walk is None:
        return None
    left, kept = walk
    supply = 0.0
    for _, u, v, w in kept:
        supply += w * (x[u] + x[v])
    return left, kept, supply


def capped_coverage_cut(inst, group, x, tol: float = EPS_FEAS, truncate=True):
    """Capped-demand row for the group, induced by and violated at x, or None.

    The row is built from the edges _capped_supply keeps, and it falls short
    at x by more than tol whenever it is returned.  A None return certifies
    the group's capped demand within tol: sum of w_e * min(1, x_u + x_v) >=
    target - tol * (1 + W), W being the total weight of the capped edges.
    """
    walk = _capped_supply(inst, group, x, tol)
    if walk is None:
        return None
    left, kept, supply = walk
    if supply >= left - tol:
        return None
    return CappedCoverageCut(
        group=group,
        kept=tuple(eid for eid, _, _, _ in kept),
        coefficients=_coefficients(left, kept, truncate),
        rhs=left,
    )


def _deepest_capped_cut(inst, x, tol):
    """The truncated capped row of largest relative shortfall at x, or None.

    A group's shortfall is (left - supply) / left over the groups whose
    capped row is violated (supply < left - tol); ties go to the lower group
    index.  Only the winning group's row is built.
    """
    best, depth = None, 0.0
    for gi in range(inst.r):
        walk = _capped_supply(inst, gi, x, tol)
        if walk is not None:
            left, _, supply = walk
            shortfall = (left - supply) / left
            if supply < left - tol and shortfall > depth:
                best, depth = gi, shortfall
    return None if best is None else capped_coverage_cut(inst, best, x, tol)


def threshold_set(x) -> tuple[int, ...]:
    """Vertices at or above the rounding threshold (less a feasibility slack)."""
    return tuple(v for v, xv in enumerate(x) if xv >= ROUNDING_THRESHOLD - EPS_FEAS)


def threshold_rows(inst, x):
    """Yield, in group order, each group's cover row at x's threshold set.

    Groups the threshold set already satisfies have no row and are skipped.
    """
    picked = threshold_set(x)
    covered = _touches(picked)
    for gi in range(inst.r):
        row = _kc_row(inst, gi, picked, covered)
        if row is not None:
            yield row


def separate(inst, x, tol: float = EPS_FEAS) -> KnapsackCoverConstraint | None:
    """The first threshold-induced cover row violated at x, by group index, or None.

    Only the suppressed set induced by the rounding threshold is ever
    examined, and the walk stops at the first violated row.
    """
    return next((row for row in threshold_rows(inst, x) if not row.satisfied_by(x, tol)), None)


@dataclass(frozen=True)
class FractionalSolution:
    """A clean fractional point with the rows it was verified against.

    objectives traces the master objective after each LP solve; cost_cap is
    the smallest integer budget the relaxation admits, set in delta mode
    only (None in direct mode).
    """

    x: tuple[float, ...]
    objective: float
    certificate: tuple[KnapsackCoverConstraint, ...]
    objectives: tuple[float, ...] = ()
    cost_cap: int | None = None


def _certificate(inst, x, pool):
    """The cover rows of pool, then x's threshold rows not among them, each
    checked at x."""
    rows = dict.fromkeys(row for row in pool if isinstance(row, KnapsackCoverConstraint))
    rows.update(dict.fromkeys(threshold_rows(inst, x)))
    cert = tuple(rows)
    for row in cert:
        if not row.satisfied_by(x, 10.0 * EPS_FEAS):
            raise SolverError(
                f"certificate row for group {row.group} is violated at the returned point"
            )
    return cert


def _log_cut(cut_log, cut, x):
    if cut_log is not None:
        shape = (
            f"suppressed={len(cut.suppressed)}"
            if isinstance(cut, KnapsackCoverConstraint)
            else f"kept={len(cut.kept)}"
        )
        cut_log.append(
            f"group={cut.group} {shape} rhs={cut.rhs} lhs={cut.lhs_at(x):.9g}"
        )


def _cut_loop(inst, pool, cut_log, violated):
    """Minimize costs . x over the rows of pool, appending violated rows until clean.

    pool is an insertion-ordered dict whose keys are the master's rows; rows
    compare by value, so a rebuilt row is found in it.  violated(x, tol) lists the rows to append at x, none when x is clean;
    appended rows grow pool in place, and at most CUTS_PER_GROUP * r rows
    are appended beyond the rows pool starts with.  The master keeps the
    basis of its last solve, so each round's solve resumes from the previous
    optimum.  Returns (x, value, value trace).
    """
    lp = LinearProgram(inst.costs)
    for row in pool:
        lp.add_row(row.coefficients, row.rhs)
    cut_limit = CUTS_PER_GROUP * max(1, inst.r)
    added = 0
    trace = []
    while True:
        out = lp_solve(lp)
        if out.status != "optimal":
            raise SolverError(
                "master LP reported infeasible; the all-ones point should always fit"
            )
        trace.append(out.value)
        cuts = violated(out.x, EPS_FEAS)
        fresh = [cut for cut in cuts if cut not in pool]
        if not fresh:
            # every violated row is already in the master: numerical stall
            if not cuts or not violated(out.x, 10.0 * EPS_FEAS):
                return out.x, out.value, trace
            raise SolverError(
                "cutting-plane loop stalled on a duplicate cut that stays violated"
            )
        added += len(fresh)
        if added > cut_limit:
            raise CutLimitExceeded(f"more than {cut_limit} cuts generated")
        for cut in fresh:
            pool[cut] = None
            lp.add_row(cut.coefficients, cut.rhs)
            _log_cut(cut_log, cut, out.x)


def _strengthened(inst):
    """The strengthened separation, one row per round: the first violated
    threshold cover row by group index, else the deepest violated truncated
    capped-coverage row, else nothing."""
    def violated(x, tol):
        row = separate(inst, x, tol=tol) or _deepest_capped_cut(inst, x, tol)
        return [] if row is None else [row]
    return violated


def solve_relaxation(inst: Instance, mode: str = "direct", cut_log=None) -> FractionalSolution:
    """Solve the strengthened relaxation by lazy row generation.

    The pool starts with each group's unsuppressed cover row; the
    cutting-plane loop minimizes the true cost over it, adding violated rows
    until the point is clean.  Clean means the threshold separation passes
    and every group's capped demand is met, so the point is both roundable
    and at least as expensive as the natural relaxation's optimum; its
    certificate re-verifies at it.  Both modes return that point.

    mode "delta" also reports cost_cap, the relaxation's feasibility form:
    the smallest integer budget delta such that some clean point of the
    final master costs at most delta.  The master's optimum settles it: no
    point of the master costs less than the optimal value, and the optimal
    point is clean, so delta is that value rounded up (less a feasibility
    slack).
    """
    if mode not in ("direct", "delta"):
        raise InputError(f"unknown relaxation mode {mode!r}")
    # the zero point's threshold set is empty: each group's unsuppressed row
    pool = dict.fromkeys(threshold_rows(inst, [0.0] * inst.n))
    x, value, trace = _cut_loop(inst, pool, cut_log, _strengthened(inst))
    return FractionalSolution(
        x=x,
        objective=value,
        certificate=_certificate(inst, x, pool),
        objectives=tuple(trace),
        cost_cap=max(0, math.ceil(value - EPS_FEAS)) if mode == "delta" else None,
    )


def solve_natural_lp(inst: Instance) -> FractionalSolution:
    """Natural relaxation, solved as its projection onto the vertex variables.

    The cutting-plane loop appends, each round, every group's untruncated
    capped-coverage row violated at the current point; a clean point meets
    sum of w_e * min(1, x_u + x_v) >= target in every group, which is the
    natural relaxation's edge-variable LP with the edge variables projected
    out.  On stars it pays 1/degree while any integral cover pays a full
    vertex, which is the gap the strengthened relaxation closes.  The first
    solve of an empty master is the zero point, where every group's row is
    violated, so the master starts with those rows instead.
    """
    def violated(x, tol):
        rows = (capped_coverage_cut(inst, gi, x, tol, truncate=False) for gi in range(inst.r))
        return [row for row in rows if row is not None]

    pool = dict.fromkeys(violated([0.0] * inst.n, EPS_FEAS))
    x, value, _ = _cut_loop(inst, pool, None, violated)
    return FractionalSolution(x=x, objective=value, certificate=())
