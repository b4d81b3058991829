"""Covering relaxations over vertex variables: cover rows, separation, cutting planes.

The paper's two row families.  Capped-coverage rows bound each edge's
contribution to a group's demand by its own weight, and one pass over a
group's edges separates them exactly; they are the natural relaxation
projected onto the vertex variables, which the same cutting-plane loop
solves.  Cover rows: for a group with residual demand left after removing a
vertex set, each outside vertex can contribute at most min(residual, its
remaining weighted degree).  Those truncated rows close the integrality gap
of the natural relaxation; only the row induced by the rounding threshold
ever needs to be checked, which keeps separation polynomial and the master
LP tiny.  Only cover rows are truncated.

Some cover rows are known before any solve.  A vertex pair (u, v) is
forced in a group when its member edges between u and v weigh more than the
group's total weight less its target: every cover then takes u or v, and
the cover row of the suppressed set V - {u, v} says so.  Both loops start
from a pool that holds those rows: the strengthened loop the truncated
cover row of each forced pair, the natural loop its untruncated capped row,
which every natural point meets.  With one group that asks for every edge
(weighted vertex cover) every edge is forced, and the first solve is the
vertex cover LP's optimum.

The strengthened loop then appends one row per solve: the capped row of
the group whose demand is relatively furthest from met (the deepest capped
cut), else the first violated cover row by group index.

Both families come from one member walk, _split(inst, group, y, split): it
removes the edges with y_u + y_v >= split and keeps the rest.  A cover row
passes the suppressed set's 0/1 indicator with split 1 (an edge touches the
set); a capped row passes x with split 1 - tol (the edge's cap binds).
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


def _split(inst, group, y, split):
    """Demand left, kept members and their supply at y for one group, or None
    when no demand is left.

    A member edge (u, v) with y_u + y_v >= split is removed: its weight comes
    off the group's target.  Every other ("kept") member is listed as its
    (edge id, u, v, weight) entry of inst.incidence.group_members, in
    membership order, and supplies w * (y_u + y_v), summed in that order.
    """
    left = inst.groups[group].target
    kept = []
    supply = 0.0
    for member in inst.incidence.group_members[group]:
        _, u, v, w = member
        both = y[u] + y[v]
        if both >= split:
            left -= w
            if left <= 0:
                return None
        else:
            kept.append(member)
            supply += w * both
    return (left, kept, supply) if left > 0 else None


def _coefficients(kept):
    """Row coefficients of kept members, sorted by vertex: each kept member
    adds its weight to both endpoints."""
    acc: dict[int, int] = {}
    for _, u, v, w in kept:
        acc[u] = acc.get(u, 0) + w
        acc[v] = acc.get(v, 0) + w
    return tuple(sorted(acc.items()))


def _kc_rows(inst, groups, picked):
    """Cover rows of groups, in order, with the sorted vertex set picked
    suppressed; a group left no demand has no row and is skipped.

    The walk gets picked's 0/1 indicator with split 1, so it removes exactly
    the members with an end in picked; a kept member supplies 0.  The
    indicator is a float tuple, as the LP's x is, so the walk's indexing and
    arithmetic see one type.
    """
    indicator = [0.0] * inst.n
    for v in picked:
        indicator[v] = 1.0
    y = tuple(indicator)
    for gi in groups:
        walk = _split(inst, gi, y, 1.0)
        if walk is not None:
            left, kept, _ = walk
            row = tuple((v, min(left, a)) for v, a in _coefficients(kept))
            yield KnapsackCoverConstraint(gi, picked, row, left)


def build_kc_constraint(inst, group, suppressed):
    """Truncated cover row for (group, suppressed), or None when satisfied already."""
    picked = tuple(sorted(set(suppressed)))
    if picked and not (0 <= picked[0] and picked[-1] < inst.n):
        raise InputError(f"suppressed vertex ids must lie in 0..{inst.n - 1}, got {picked}")
    return next(_kc_rows(inst, (group,), picked), None)


@dataclass(frozen=True)
class CappedCoverageCut(_CoverRow):
    """Capped-demand row for one group: sum of coefficients[v] * x_v >= rhs.

    An edge supplies a group's demand at most its own weight, however large
    x_u + x_v is.  Fixing the set of edges whose cap binds at some point and
    discounting the demand by their total weight leaves a linear row in the
    remaining ("kept") edges that every covering vertex set satisfies: a
    kept edge the cover touches has a chosen endpoint, so its x_u + x_v is
    at least 1.  Coefficients are the natural relaxation's, untruncated.
    """

    group: int
    kept: tuple[int, ...]  # edge ids whose cap was not binding
    coefficients: tuple[tuple[int, int], ...]
    rhs: int


def capped_coverage_cut(inst, group, x, tol: float = EPS_FEAS):
    """Capped-demand row for the group, induced by and violated at x, or None.

    The row is built from the edges _split(inst, group, x, 1 - tol) keeps,
    so an edge whose x_u + x_v wobbles by round-off around 1 is capped.  The
    row falls short at x by more than tol whenever it is returned.  A None
    return certifies the group's capped demand within tol: sum of
    w_e * min(1, x_u + x_v) >= target - tol * (1 + W), W being the total
    weight of the capped edges.
    """
    walk = _split(inst, group, x, 1.0 - tol)
    if walk is None:
        return None
    left, kept, supply = walk
    if supply >= left - tol:
        return None
    return CappedCoverageCut(
        group=group,
        kept=tuple(eid for eid, _, _, _ in kept),
        coefficients=_coefficients(kept),
        rhs=left,
    )


def _forced_pairs(inst):
    """Every forced vertex pair, once, as (group, u, v, kept, weight, left), u < v.

    A pair is forced in group i when the weight of i's members between u and
    v, weight, exceeds W_i - k_i, W_i being the group's total weight and k_i
    its target: every cover then takes u or v, and left = k_i - (W_i -
    weight) is the demand the pair alone must meet.  kept lists the pair's
    member edge ids in membership order.  Each pair comes from the
    lowest-indexed group that forces it.  A pair is skipped when u or v
    alone meets the group's target: the group's unsuppressed cover row then
    gives that vertex the whole target as its coefficient, and a full-target
    star keeps that one row instead of one row per edge.
    """
    seen = set()
    for gi, members in enumerate(inst.incidence.group_members):
        target = inst.groups[gi].target
        degree: dict[int, int] = {}
        for _, u, v, w in members:
            degree[u] = degree.get(u, 0) + w
            degree[v] = degree.get(v, 0) + w
        slack = sum(degree.values()) // 2 - target
        pairs: dict[tuple[int, int], list[int]] = {}
        for eid, u, v, _ in members:
            # a pair weighs at most either end's degree
            if slack < degree[u] < target and slack < degree[v] < target:
                pairs.setdefault((u, v) if u < v else (v, u), []).append(eid)
        for (u, v), kept in pairs.items():
            w = sum(inst.edges[eid].weight for eid in kept)
            if w > slack and (u, v) not in seen:
                seen.add((u, v))
                yield gi, u, v, tuple(kept), w, w - slack


def _forced_cover_rows(inst):
    """The truncated cover row of each forced pair (u, v): the suppressed set
    is every other vertex, so the row reads left * x_u + left * x_v >= left."""
    others = tuple(range(inst.n))
    for gi, u, v, _, _, left in _forced_pairs(inst):
        suppressed = others[:u] + others[u + 1:v] + others[v + 1:]
        yield KnapsackCoverConstraint(gi, suppressed, ((u, left), (v, left)), left)


def _forced_capped_rows(inst):
    """The untruncated capped row of each forced pair (u, v), with the pair's
    member edges kept: weight * x_u + weight * x_v >= left."""
    for gi, u, v, kept, w, left in _forced_pairs(inst):
        yield CappedCoverageCut(gi, kept, ((u, w), (v, w)), left)


def _deepest_capped_cut(inst, x, tol):
    """The capped row of largest relative shortfall at x, or None.

    A group's shortfall is (left - supply) / left over the groups whose
    capped row is violated (supply < left - tol); ties go to the lower group
    index.  Only the winning group's row is built.
    """
    best, depth = None, 0.0
    for gi in range(inst.r):
        walk = _split(inst, gi, x, 1.0 - tol)
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
    return _kc_rows(inst, range(inst.r), threshold_set(x))


def separate(inst, x, tol: float = EPS_FEAS) -> KnapsackCoverConstraint | None:
    """The first threshold-induced cover row violated at x, by group index, or None.

    Only the suppressed set induced by the rounding threshold is ever
    examined: the rows of threshold_rows are built in group order until one
    fails satisfied_by(x, tol).
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
    compare by value, so a rebuilt row is found in it.  The rows pool starts
    with are the formulation: they are not logged, and the cut budget does
    not count them.  violated(x, tol) lists the rows to append at x, none
    when x is clean; appended rows grow pool in place, are logged, and at
    most CUTS_PER_GROUP * r of them are appended.  The master keeps the
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
    """The strengthened separation, one row per round: the deepest violated
    capped-coverage row, else the first violated threshold cover row by group
    index, else nothing, which comes only once every capped row holds."""
    def violated(x, tol):
        row = _deepest_capped_cut(inst, x, tol) or separate(inst, x, tol=tol)
        return [] if row is None else [row]
    return violated


def solve_relaxation(inst: Instance, mode: str = "direct", cut_log=None) -> FractionalSolution:
    """Solve the strengthened relaxation by lazy row generation.

    The pool starts with each group's unsuppressed cover row, then the
    truncated cover row of each forced pair (_forced_pairs); the
    cutting-plane loop minimizes the true cost over it, adding violated rows
    until the point is clean.  Clean means every group's capped demand is
    met, which makes the point at least as expensive as the natural
    relaxation's optimum, and the threshold separation passes, which makes
    it roundable; its certificate re-verifies at it.  Both modes return it.

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
    pool = dict.fromkeys([*threshold_rows(inst, [0.0] * inst.n), *_forced_cover_rows(inst)])
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

    The cutting-plane loop appends, each round, every group's
    capped-coverage row violated at the current point; a clean point meets
    sum of w_e * min(1, x_u + x_v) >= target in every group, which is the
    natural relaxation's edge-variable LP with the edge variables projected
    out.  On stars it pays 1/degree while any integral cover pays a full
    vertex, which is the gap the strengthened relaxation closes.  The first
    solve of an empty master is the zero point, where every group's row is
    violated, so the master starts with those rows instead, followed by the
    capped row of each forced pair (_forced_pairs), which keeps only the
    pair's member edges: every point that meets the group's capped demand
    meets it, so the value is the natural one.
    """
    def violated(x, tol):
        rows = (capped_coverage_cut(inst, gi, x, tol) for gi in range(inst.r))
        return [row for row in rows if row is not None]

    pool = dict.fromkeys([*violated([0.0] * inst.n, EPS_FEAS), *_forced_capped_rows(inst)])
    x, value, _ = _cut_loop(inst, pool, None, violated)
    return FractionalSolution(x=x, objective=value, certificate=())
