"""Strengthened covering relaxation: cover inequalities, separation, cutting planes.

For a group with residual demand left after removing a vertex set, each
outside vertex can contribute at most min(residual, its remaining weighted
degree).  Those truncated rows close the integrality gap of the natural
relaxation; only the row induced by the rounding threshold ever needs to be
checked, which keeps separation polynomial and the master LP tiny.

The solver enforces a second, independent family alongside the cover rows:
capped-coverage rows, which bound each edge's contribution to a group's
demand by its own weight (an edge is covered at most once no matter how
large x_u + x_v grows).  They are the vertex-variable shadow of the natural
relaxation, separable exactly in one pass over the group's edges, and they
pin the solved value at or above the natural relaxation's — so the two
relaxations always report in the expected order even though the lazy cover
rows alone could drift below it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .constants import EPS_FEAS, ROUNDING_THRESHOLD
from .errors import CutLimitExceeded, InputError, SolverError
from .instance import Instance
from .lp import GE, LE, LinearProgram, lp_solve

__all__ = [
    "KnapsackCoverConstraint",
    "CappedCoverageCut",
    "Separation",
    "FractionalSolution",
    "threshold_set",
    "threshold_rows",
    "residual",
    "wdeg",
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

    def key(self):
        return (self.group, self.suppressed)


def residual(inst: Instance, group: int, suppressed) -> int:
    """Demand of the group left uncovered once the suppressed set is picked."""
    g = inst.groups[group]
    picked = set(suppressed)
    covered = 0
    for eid in g.edges:
        e = inst.edges[eid]
        if e.u in picked or e.v in picked:
            covered += e.weight
    return max(0, g.target - covered)


def wdeg(inst: Instance, group: int, v: int, suppressed) -> int:
    """Weight v can still add to the group once the suppressed set is picked."""
    picked = set(suppressed)
    if v in picked:
        raise ValueError(f"vertex {v} is in the suppressed set")
    g = inst.groups[group]
    total = 0
    for eid in g.edges:
        e = inst.edges[eid]
        if e.u in picked or e.v in picked:
            continue
        if e.u == v or e.v == v:
            total += e.weight
    return total


def _cover_row(inst, group, covered):
    """Demand left, kept edge ids and truncated coefficients of a group's cover row.

    covered(e) marks a member edge as already covered: its weight comes off
    the target.  Every other ("kept") member edge adds its weight to both
    endpoints' coefficients, each capped at the demand left.
    """
    g = inst.groups[group]
    left = g.target
    kept = []
    acc: dict[int, int] = {}
    for eid in g.edges:
        e = inst.edges[eid]
        if covered(e):
            left -= e.weight
        else:
            kept.append(eid)
            acc[e.u] = acc.get(e.u, 0) + e.weight
            acc[e.v] = acc.get(e.v, 0) + e.weight
    return left, kept, tuple((v, min(left, w)) for v, w in sorted(acc.items()))


def build_kc_constraint(inst, group, suppressed):
    """Truncated cover row for (group, suppressed), or None when satisfied already."""
    picked = frozenset(suppressed)
    left, _, coefficients = _cover_row(inst, group, lambda e: e.u in picked or e.v in picked)
    if left <= 0:
        return None
    return KnapsackCoverConstraint(
        group=group,
        suppressed=tuple(sorted(picked)),
        coefficients=coefficients,
        rhs=left,
    )


@dataclass(frozen=True)
class CappedCoverageCut(_CoverRow):
    """Capped-demand row for one group: sum of coefficients[v] * x_v >= rhs.

    An edge supplies a group's demand at most its own weight, however large
    x_u + x_v is.  Fixing the set of edges whose cap binds at some point and
    discounting the demand by their total weight leaves a linear row in the
    remaining ("kept") edges that every covering vertex set satisfies: a
    kept edge the cover touches has a chosen endpoint, so its x_u + x_v is
    at least 1.  Coefficients are truncated at rhs like the cover rows.
    """

    group: int
    kept: tuple[int, ...]  # edge ids whose cap was not binding
    coefficients: tuple[tuple[int, int], ...]
    rhs: int

    def key(self):
        return ("cap", self.group, self.kept)


def capped_coverage_cut(inst, group, x, tol: float = EPS_FEAS):
    """Capped-demand row for the group, induced by and violated at x, or None.

    The separating split is exact: the row built from the edges with
    x_u + x_v < 1 is violated at x by precisely the shortfall of
    sum of w_e * min(1, x_u + x_v) against the group target, so a None
    return certifies the group's capped demand is met at x.
    """
    left, kept, coefficients = _cover_row(inst, group, lambda e: x[e.u] + x[e.v] >= 1.0)
    supply = 0.0
    for eid in kept:
        e = inst.edges[eid]
        supply += e.weight * (x[e.u] + x[e.v])
    if left <= 0 or supply >= left - tol:
        return None
    return CappedCoverageCut(
        group=group,
        kept=tuple(kept),
        coefficients=coefficients,
        rhs=left,
    )


def _first_capped_violation(inst, x, tol: float = EPS_FEAS):
    for gi in range(inst.r):
        cut = capped_coverage_cut(inst, gi, x, tol)
        if cut is not None:
            return cut
    return None


def threshold_set(x) -> tuple[int, ...]:
    """Vertices at or above the rounding threshold (less a feasibility slack)."""
    return tuple(v for v, xv in enumerate(x) if xv >= ROUNDING_THRESHOLD - EPS_FEAS)


def threshold_rows(inst, x):
    """Yield, in group order, each group's cover row at x's threshold set.

    Groups the threshold set already satisfies have no row and are skipped.
    """
    picked = threshold_set(x)
    for gi in range(inst.r):
        row = build_kc_constraint(inst, gi, picked)
        if row is not None:
            yield row


@dataclass(frozen=True)
class Separation:
    kind: str  # "clean", "violated" or "cost_cap"
    constraint: KnapsackCoverConstraint | None


def separate(inst, x, cost_cap=None, tol: float = EPS_FEAS) -> Separation:
    """Check the cost cap, then each group's threshold-induced cover row.

    Returns the first violated row by group index, or a clean verdict.  Only
    the suppressed set induced by the rounding threshold is ever examined.
    """
    if cost_cap is not None:
        spend = sum(c * xv for c, xv in zip(inst.costs, x))
        if spend > cost_cap + tol:
            return Separation("cost_cap", None)
    for row in threshold_rows(inst, x):
        if not row.satisfied_by(x, tol):
            return Separation("violated", row)
    return Separation("clean", None)


@dataclass(frozen=True)
class FractionalSolution:
    """A clean fractional point with the rows it was verified against.

    objectives traces the master objective after each direct-mode LP solve
    (empty in cost-cap search mode); cost_cap is the smallest feasible
    integer budget found by that search, None in direct mode.
    """

    x: tuple[float, ...]
    objective: float
    certificate: tuple[KnapsackCoverConstraint, ...]
    objectives: tuple[float, ...] = ()
    cost_cap: int | None = None


def _certificate(inst, x, pool):
    rows = dict(pool)
    for row in threshold_rows(inst, x):
        rows.setdefault(row.key(), row)
    cert = tuple(rows.values())
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


def _cut_loop(inst, objective, pool, caps, cut_log, cap=None):
    """Minimize objective over the pooled rows, appending violated rows until clean.

    Grows pool (cover rows) and caps (capped-coverage rows) in place.  With a
    cost cap the master's first row is costs . x <= cap, and an infeasible
    master returns None; otherwise returns (x, value, value trace).  Clean
    means the threshold separation passes and every group's capped demand is
    met.
    """
    lp = LinearProgram(objective)
    if cap is not None:
        lp.add_row(enumerate(inst.costs), cap, LE)
    for row in list(pool.values()) + list(caps.values()):
        lp.add_row(row.coefficients, row.rhs, GE)
    cut_limit = CUTS_PER_GROUP * max(1, inst.r)
    trace = []
    while True:
        out = lp_solve(lp)
        if out.status != "optimal":
            if cap is not None:
                return None
            raise SolverError(
                "master LP reported infeasible; the all-ones point should always fit"
            )
        trace.append(out.value)
        sep = separate(inst, out.x, cost_cap=cap)
        if sep.kind == "cost_cap":
            raise SolverError("LP point violates the cost cap row it was solved with")
        cut = sep.constraint
        store = pool
        if cut is None:
            cut = _first_capped_violation(inst, out.x)
            store = caps
        if cut is None:
            return out.x, out.value, trace
        if cut.key() in store:
            # the violated row is already in the master: numerical stall
            if (
                separate(inst, out.x, cost_cap=cap, tol=10.0 * EPS_FEAS).kind == "clean"
                and _first_capped_violation(inst, out.x, 10.0 * EPS_FEAS) is None
            ):
                return out.x, out.value, trace
            raise SolverError(
                "cutting-plane loop stalled on a duplicate cut that stays violated"
            )
        if len(trace) > cut_limit:  # every earlier solve added one cut
            raise CutLimitExceeded(f"more than {cut_limit} cuts generated")
        store[cut.key()] = cut
        lp.add_row(cut.coefficients, cut.rhs, GE)
        _log_cut(cut_log, cut, out.x)


def solve_relaxation(inst: Instance, mode: str = "direct", cut_log=None) -> FractionalSolution:
    """Solve the strengthened relaxation by lazy row generation.

    Both modes seed the pool with each group's unsuppressed cover row and run
    the cutting-plane loop on the true cost objective, adding violated rows
    until the point is clean; mode "direct" returns that point.  mode "delta"
    then binary-searches the smallest integer cost cap whose capped
    feasibility program admits a clean point; each probe reuses every row
    pooled so far (the direct loop's, then earlier probes') and appends the
    new cuts it finds.  Clean means the threshold separation passes and every
    group's capped demand is met, so a returned point is both roundable and
    at least as expensive as the natural relaxation's optimum.  Both modes
    return a FractionalSolution whose certificate re-verifies at that point.
    """
    if mode not in ("direct", "delta"):
        raise InputError(f"unknown relaxation mode {mode!r}")
    zero = [0.0] * inst.n
    # the zero point's threshold set is empty: each group's unsuppressed row
    pool = {row.key(): row for row in threshold_rows(inst, zero)}
    caps: dict = {}
    x, value, trace = _cut_loop(inst, inst.costs, pool, caps, cut_log)
    if mode == "direct":
        return FractionalSolution(
            x=x,
            objective=value,
            certificate=_certificate(inst, x, pool),
            objectives=tuple(trace),
        )
    # Every pooled row is valid for the instance independent of any cap, so
    # probes may reuse the direct loop's rows; sharing its pool keeps the
    # search's budget from undercutting the direct objective, which keeps the
    # two modes' reports adjacent.
    lo, hi = 0, inst.total_cost
    while lo < hi:
        mid = (lo + hi) // 2
        if _cut_loop(inst, zero, pool, caps, cut_log, mid) is None:
            lo = mid + 1
        else:
            hi = mid
    # rows discovered by later probes may retroactively kill the winning cap,
    # and a cap once infeasible stays infeasible as the pool grows, so walk
    # upward until the final pool admits a clean point
    while lo <= inst.total_cost:
        found = _cut_loop(inst, zero, pool, caps, cut_log, lo)
        if found is not None:
            x = found[0]
            return FractionalSolution(
                x=x,
                objective=float(sum(c * xv for c, xv in zip(inst.costs, x))),
                certificate=_certificate(inst, x, pool),
                cost_cap=lo,
            )
        lo += 1
    raise SolverError("no cost cap up to the full budget admits a clean point")


def solve_natural_lp(inst: Instance) -> FractionalSolution:
    """Natural relaxation with one variable per edge; weak but cheap.

    Edge e may count toward its groups only up to x_u + x_v; on stars this
    pays 1/degree while any integral cover pays a full vertex, which is the
    gap the strengthened relaxation closes.  Returns the vertex part only.
    """
    n, m = inst.n, inst.m
    lp = LinearProgram(list(inst.costs) + [0.0] * m)
    for eid, e in enumerate(inst.edges):
        lp.add_row({e.u: 1.0, e.v: 1.0, n + eid: -1.0}, 0.0, GE)
    for g in inst.groups:
        lp.add_row({n + eid: float(inst.edges[eid].weight) for eid in g.edges},
                   float(g.target), GE)
    out = lp_solve(lp)
    if out.status != "optimal":
        raise SolverError("natural relaxation reported infeasible on a valid instance")
    return FractionalSolution(
        x=out.x[:n],
        objective=out.value,
        certificate=(),
    )
