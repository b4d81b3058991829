"""Small dense LP kernel: min c.x over rows a.x >= b or a.x <= b with 0 <= x <= 1.

Bounded-variable primal simplex, Bland's anti-cycling rule, two phases with
artificial variables, and a fresh basis factorization every iteration.  Every
lower bound is 0: structurals live in [0, 1], slacks and artificials in
[0, inf).  Built for tiny cutting-plane masters where determinism matters more
than speed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import EPS_FEAS
from .errors import InputError, LpIterationLimit, SolverError

__all__ = ["GE", "LE", "Row", "LinearProgram", "LpOutcome", "lp_solve"]

GE = ">="
LE = "<="

_PIVOT_EPS = 1e-9  # entries smaller than this never price or pivot
_RATIO_TIE = 1e-9  # ratio-test ties within this pick the smallest variable index


@dataclass(frozen=True)
class Row:
    coeffs: tuple[tuple[int, float], ...]
    rhs: float
    sense: str


@dataclass(frozen=True)
class LpOutcome:
    status: str  # "optimal" or "infeasible"
    value: float | None
    x: tuple[float, ...] | None


class LinearProgram:
    """An objective plus an append-only row list over [0, 1]-boxed variables."""

    def __init__(self, objective):
        self.objective = [float(c) for c in objective]
        if not self.objective:
            raise InputError("linear program needs at least one variable")
        self.rows: list[Row] = []

    @property
    def nvars(self) -> int:
        return len(self.objective)

    def add_row(self, coeffs, rhs, sense: str = GE) -> "LinearProgram":
        """Append one constraint; coeffs is a {var: coef} map or (var, coef) pairs."""
        if sense not in (GE, LE):
            raise InputError(f"row sense must be {GE!r} or {LE!r}, got {sense!r}")
        items = coeffs.items() if isinstance(coeffs, dict) else coeffs
        cleaned = sorted((int(j), float(a)) for j, a in items)
        seen = set()
        for j, _ in cleaned:
            if not (0 <= j < self.nvars):
                raise InputError(f"row references unknown variable {j}")
            if j in seen:
                raise InputError(f"row repeats variable {j}")
            seen.add(j)
        self.rows.append(Row(tuple(cleaned), float(rhs), sense))
        return self


def _simplex(A, b, upper, cost, basis, at_upper, cap, tag):
    """Run bounded-variable simplex until optimal for the given cost vector.

    Every variable lies in [0, upper].  basis lists the basic variables (one
    per row) and at_upper marks nonbasic variables at their upper bound; both
    are updated in place and returned with the optimal basic point.
    """
    m = A.shape[0]
    movable = upper > 0
    for _ in range(cap):
        x = np.where(at_upper, upper, 0.0)
        x[basis] = 0.0
        B = A[:, basis]
        try:
            xb = np.linalg.solve(B, b - A @ x)
            y = np.linalg.solve(B.T, cost[basis])
        except np.linalg.LinAlgError:
            raise SolverError("singular working basis in simplex") from None
        x[basis] = xb
        d = cost - y @ A
        d[basis] = 0.0  # basic variables never price
        eligible = movable & (
            (~at_upper & (d < -_PIVOT_EPS)) | (at_upper & (d > _PIVOT_EPS))
        )
        candidates = np.flatnonzero(eligible)
        if candidates.size == 0:
            return basis, at_upper, x
        j = int(candidates[0])  # Bland: smallest eligible index enters
        sign = -1.0 if at_upper[j] else 1.0
        w = np.linalg.solve(B, A[:, j])

        # step t moves x_j by sign*t and each basic value by -sign*w*t
        step = upper[j]
        leave = -1
        leave_at_upper = False
        for k in range(m):
            delta = -sign * w[k]
            if delta < -_PIVOT_EPS:
                t = max(xb[k], 0.0) / -delta
                hits_upper = False
            elif delta > _PIVOT_EPS:
                ub = upper[basis[k]]
                if not np.isfinite(ub):
                    continue
                t = max(ub - xb[k], 0.0) / delta
                hits_upper = True
            else:
                continue
            if t < step - _RATIO_TIE:
                step = t
                leave = k
                leave_at_upper = hits_upper
            elif t <= step + _RATIO_TIE and leave >= 0 and basis[k] < basis[leave]:
                step = min(step, t)
                leave = k
                leave_at_upper = hits_upper
        if leave < 0 and not np.isfinite(step):
            raise SolverError("unbounded improving direction in simplex")
        if leave < 0:
            at_upper[j] = not at_upper[j]
        else:
            gone = basis[leave]
            at_upper[gone] = leave_at_upper
            basis[leave] = j
            at_upper[j] = False
    raise LpIterationLimit(f"simplex exceeded {cap} iterations in {tag}")


def lp_solve(lp: LinearProgram) -> LpOutcome:
    """Solve lp to proven optimality or report infeasibility.

    Structural variables live in [0, 1]; the returned point is clamped to the
    box.  Raises LpIterationLimit past 50 * (variables + rows) + 200 pivots
    per phase, and SolverError on internal numerical failures.
    """
    n = lp.nvars
    m = len(lp.rows)
    c_struct = np.array(lp.objective, dtype=float)
    # columns: structural | slack per row | artificial per row
    nn = n + 2 * m
    A = np.zeros((m, nn))
    b = np.zeros(m)
    for i, row in enumerate(lp.rows):
        for j, a in row.coeffs:
            A[i, j] = a
        A[i, n + i] = 1.0 if row.sense == LE else -1.0
        b[i] = row.rhs
    art = n + m + np.arange(m)
    A[np.arange(m), art] = np.where(b >= 0.0, 1.0, -1.0)

    upper = np.full(nn, np.inf)
    upper[:n] = 1.0
    cap = 50 * (n + m) + 200

    phase1 = np.zeros(nn)
    phase1[art] = 1.0
    basis, at_upper, x = _simplex(
        A, b, upper, phase1, list(art), np.zeros(nn, dtype=bool), cap, "phase1"
    )
    if float(phase1 @ x) > EPS_FEAS * (1.0 + float(np.abs(b).sum())):
        return LpOutcome("infeasible", None, None)

    upper[art] = 0.0  # artificials are locked at zero from here on
    cost = np.zeros(nn)
    cost[:n] = c_struct
    _, _, x = _simplex(A, b, upper, cost, basis, at_upper, cap, "phase2")
    xs = np.clip(x[:n], 0.0, 1.0)
    _audit_rows(lp, xs, b)
    return LpOutcome("optimal", float(c_struct @ xs), tuple(float(v) for v in xs))


def _audit_rows(lp, xs, b):
    tol = 10.0 * EPS_FEAS * (1.0 + float(np.abs(b).sum()))
    for row in lp.rows:
        lhs = sum(a * xs[j] for j, a in row.coeffs)
        bad = lhs < row.rhs - tol if row.sense == GE else lhs > row.rhs + tol
        if bad:
            raise SolverError(
                f"optimal point failed the feasibility audit on a row "
                f"(lhs={lhs!r}, rhs={row.rhs!r}, sense={row.sense})"
            )
