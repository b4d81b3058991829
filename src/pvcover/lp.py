"""Small dense LP kernel: min c.x over rows a.x >= b or a.x <= b with 0 <= x <= 1.

Bounded dual simplex with Bland's rule on both sides and an explicit basis
inverse.  Columns are the n structurals, in [0, 1], and one slack per row, in
[0, inf): a.x - s = b for a GE row, a.x + s = b for an LE row; there are no
artificials and no phase 1.  A first solve starts from the slack basis with
every structural at the bound its cost favours, which is dual feasible.  A
LinearProgram keeps the basis of its last solve; rows are only appended,
never changed, and the objective stays fixed, so that basis plus the new
rows' slacks stays dual feasible and the next solve resumes from it.
Built for tiny cutting-plane masters where determinism matters more than
speed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import EPS_FEAS
from .errors import InputError, LpIterationLimit, SolverError

__all__ = ["GE", "LE", "Row", "LinearProgram", "LpOutcome", "lp_solve"]

GE = ">="
LE = "<="

_PIVOT_EPS = 1e-9  # entries and reduced costs smaller than this never price or pivot
_BOUND_TOL = 1e-9  # basic values this far outside their bounds must leave
_RATIO_TIE = 1e-9  # ratio-test ties within this pick the smallest variable index
_REFACTOR = 32  # pivots between fresh factorizations of the basis inverse


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
    pivots: int  # simplex pivots this solve took


class LinearProgram:
    """An objective plus an append-only row list over [0, 1]-boxed variables.

    It keeps the basis its last lp_solve ended on for the next to resume from.
    """

    def __init__(self, objective):
        self.objective = [float(c) for c in objective]
        if not self.objective:
            raise InputError("linear program needs at least one variable")
        self.rows: list[Row] = []
        self._basis = None  # (basic columns, at-upper flags) of the last solve

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


def lp_solve(lp: LinearProgram) -> LpOutcome:
    """Solve lp to proven optimality or report infeasibility.

    Resumes from the basis lp kept, with the slacks of rows appended since
    basic, or starts from the slack basis.  Each pivot, the out-of-bounds
    basic variable of smallest index leaves and the minimum-ratio column
    |d_j| / |alpha_rj| enters, ties going to the smallest index.  B^-1 is
    carried by rank-1 updates and refactored every _REFACTOR pivots and
    before every verdict.  The returned point is clamped to the box.  Raises
    LpIterationLimit past 50 * (variables + rows) + 200 pivots, and
    SolverError on internal numerical failures.
    """
    n = lp.nvars
    m = len(lp.rows)
    A = np.zeros((m, n + m))
    b = np.zeros(m)
    for i, row in enumerate(lp.rows):
        for j, a in row.coeffs:
            A[i, j] = a
        A[i, n + i] = 1.0 if row.sense == LE else -1.0
        b[i] = row.rhs
    upper = np.full(n + m, np.inf)
    upper[:n] = 1.0
    cost = np.zeros(n + m)
    cost[:n] = lp.objective
    # round-off in a slack's reduced cost grows with the costs' scale
    slack_tol = _PIVOT_EPS * max(1.0, float(np.abs(cost).max()))

    basis, at_upper = lp._basis or (np.zeros(0, dtype=int), np.zeros(n, dtype=bool))
    basis = np.concatenate([basis, np.arange(n + len(basis), n + m)])
    at_upper = np.concatenate([at_upper, np.zeros(n + m - at_upper.size, dtype=bool)])
    nonbasic = np.ones(n + m, dtype=bool)
    nonbasic[basis] = False

    cap = 50 * (n + m) + 200
    pivots = 0
    since = _REFACTOR  # pivots since B^-1 was factored; _REFACTOR asks for a fresh one
    while True:
        if since >= _REFACTOR:
            try:
                Binv = np.linalg.inv(A[:, basis])
            except np.linalg.LinAlgError:
                raise SolverError("singular working basis in simplex") from None
            since = 0
        d = cost - (cost[basis] @ Binv) @ A
        d[basis] = 0.0  # basic variables never price
        if since == 0:
            # seat each nonbasic structural at the bound its reduced cost
            # favours: on a first solve that is the bound its cost favours,
            # later it only mends round-off; a slack has no upper bound to take
            at_upper[:n] = (d[:n] < -_PIVOT_EPS) | (at_upper[:n] & (d[:n] <= _PIVOT_EPS))
            if np.any(d[n:] < -slack_tol):
                raise SolverError("unbounded improving direction in simplex")
        x = np.where(at_upper, upper, 0.0)
        x[basis] = 0.0
        xb = Binv @ (b - A @ x)
        ub = upper[basis]
        out = np.flatnonzero((xb < -_BOUND_TOL) | (xb > ub + _BOUND_TOL))
        if out.size == 0:
            if since:
                since = _REFACTOR
                continue
            x[basis] = xb
            break
        r = int(out[np.argmin(basis[out])])  # Bland: smallest variable index leaves
        to_upper = bool(xb[r] > ub[r])
        alpha = Binv[r] @ A
        # > 0 where moving column j off its bound raises x_Br
        raises = np.where(at_upper, alpha, -alpha)
        eligible = nonbasic & ((-raises if to_upper else raises) > _PIVOT_EPS)
        candidates = np.flatnonzero(eligible)
        if candidates.size == 0:
            if since:
                since = _REFACTOR
                continue
            # x_Br cannot reach its bound: row r of B^-1 is a Farkas ray
            lp._basis = (basis, at_upper)
            return LpOutcome("infeasible", None, None, pivots)
        ratio = np.abs(d[candidates]) / np.abs(alpha[candidates])
        q = int(candidates[np.argmax(ratio <= ratio.min() + _RATIO_TIE)])
        pivots += 1
        if pivots > cap:
            raise LpIterationLimit(f"simplex exceeded {cap} pivots")
        col = Binv @ A[:, q]
        pivot_row = Binv[r] / col[r]
        Binv -= np.outer(col, pivot_row)
        Binv[r] = pivot_row
        gone = basis[r]
        at_upper[gone] = to_upper
        nonbasic[gone] = True
        basis[r] = q
        at_upper[q] = False
        nonbasic[q] = False
        since += 1

    lp._basis = (basis, at_upper)
    xs = np.clip(x[:n], 0.0, 1.0)
    _audit_rows(lp, A, b, xs)
    return LpOutcome("optimal", float(cost[:n] @ xs), tuple(float(v) for v in xs), pivots)


def _audit_rows(lp, A, b, xs):
    """Raise unless the clamped point meets every row within the tolerance.

    A's slack column for row i is +1 on an LE row and -1 on a GE row, so
    slack sign times (lhs - rhs) is the row's violation.
    """
    n = lp.nvars
    tol = 10.0 * EPS_FEAS * (1.0 + float(np.abs(b).sum()))
    lhs = A[:, :n] @ xs
    sign = A[:, n:].diagonal()
    bad = np.flatnonzero(sign * (lhs - b) > tol)
    if bad.size:
        i = int(bad[0])
        row = lp.rows[i]
        raise SolverError(
            f"optimal point failed the feasibility audit on a row "
            f"(lhs={float(lhs[i])!r}, rhs={row.rhs!r}, sense={row.sense})"
        )
