"""Small dense LP kernel: min c.x over rows a.x >= b with 0 <= x <= 1.

Bounded dual simplex over a carried tableau.  The basic variable with the
largest bound violation leaves, and the minimum-ratio column enters; after
a run of degenerate pivots Bland's rule picks the leaving row until the
next nondegenerate pivot, so the method cannot cycle.  Columns are the n
structurals, in [0, 1], and one slack per row, in [0, inf), with
a.x - s = b, so every slack column is -e_i; there are no artificials and no
phase 1.  A <= row is the >= row -a.x >= -b.  A LinearProgram keeps its rows
once, densely, as they are appended, and with them the state its last solve
ended on: the basis, the tableau T = B^-1 [A | -I], the reduced costs d and
the basic values x_B.  A solve holds the last three in one bordered array,
T with d as its last row and x_B as its last column, so each pivot is one
rank-1 update.  Rows are only appended, never changed, and the objective
stays fixed, so that basis plus the new rows' slacks stays dual feasible:
the next solve borders the tableau with the new rows and resumes from it.  A
first solve borders an empty tableau, which gives the slack basis with
every structural at the bound its cost favours.  Both verdicts are
certified without a basis: an optimal one by weak duality, the duals read
off the slacks' reduced costs giving a lower bound on every feasible
point's cost that the value must meet within a tolerance, and an infeasible
one by its Farkas ray, the leaving row of B^-1, whose zero-objective bound
must be positive.  The basis is factored only when a certificate fails on a
pivoted tableau: the tableau is dense and updated explicitly, so there is
no eta file whose growth a refactor every so many pivots would bound.  Built
for tiny cutting-plane masters where determinism matters more than speed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import EPS_FEAS
from .errors import InputError, LpIterationLimit, SolverError

__all__ = ["Row", "LinearProgram", "LpOutcome", "lp_solve"]

_PIVOT_EPS = 1e-9  # entries and reduced costs smaller than this never price or pivot
_BOUND_TOL = 1e-9  # basic values this far outside their bounds must leave
_RATIO_TIE = 1e-9  # ratio-test ties within this pick the smallest index, leaving-row ties the first row
_BLAND_AFTER = 50  # consecutive degenerate pivots after which Bland's rule picks the leaving row
_CERT_TOL = 1e-9  # an optimal value may exceed its dual bound by this times 1 + |value|


@dataclass(frozen=True)
class Row:
    """One appended row, coeffs . x >= rhs; only perfbench/tracing.py reads LinearProgram.rows."""

    coeffs: tuple[tuple[int, float], ...]
    rhs: float
    sense = ">="  # a class constant, not a field: read only by the tracer


@dataclass(frozen=True)
class LpOutcome:
    status: str  # "optimal" or "infeasible"
    value: float | None
    x: tuple[float, ...] | None
    pivots: int  # simplex pivots this solve took
    duals: tuple[float, ...] | None = None  # one per row, each >= 0
    # an infeasible verdict's Farkas ray, one entry >= 0 per row:
    # b.ray > sum_j max(0, (A^T ray)_j), so no box point meets every row
    ray: tuple[float, ...] | None = None


class LinearProgram:
    """An objective plus an append-only list of >= rows over [0, 1]-boxed variables.

    Each row is also written once into the buffers the kernel reads: the
    constraint matrix with its slacks [A | -I], row i's slack coefficient -1
    at column n + i, and the rhs vector.  The buffers double when full.  The
    zero-padded cost vector and the slack reduced-cost tolerance depend on
    the objective alone and are set once.
    The tableau state of the last lp_solve is kept for the next to resume from.
    """

    def __init__(self, objective):
        self.objective = [float(c) for c in objective]
        if not self.objective:
            raise InputError("linear program needs at least one variable")
        if not all(map(math.isfinite, self.objective)):
            raise InputError("objective has a non-finite cost")
        self.rows: list[Row] = []
        n = self.nvars
        cost = np.array(self.objective)
        # round-off in a slack's reduced cost grows with the costs' scale
        self._slack_tol = _PIVOT_EPS * max(1.0, float(np.abs(cost).max()))
        self._grow(16)
        # (T, d, x_B, basis, side, since) of the last verdict, side being +1
        # on a nonbasic column at its upper bound, -1 at its lower and 0 on a
        # basic one, and since counting the pivots after the last
        # factorization; with no rows every structural sits at the bound its
        # cost favours
        self._tableau = (
            np.zeros((0, n)), cost, np.zeros(0), np.zeros(0, dtype=int),
            np.where(cost < -_PIVOT_EPS, 1.0, -1.0), 0,
        )

    @property
    def nvars(self) -> int:
        return len(self.objective)

    def _grow(self, cap: int) -> None:
        """Reallocate the row buffers for cap rows, keeping the rows written so far."""
        n, m = self.nvars, len(self.rows)
        K = np.zeros((cap, n + cap))
        b, cost = np.zeros(cap), np.zeros(n + cap)
        if m:
            K[:m, :n + m] = self._K[:m, :n + m]
            b[:m] = self._b[:m]
        cost[:n] = self.objective
        self._K, self._b, self._cost = K, b, cost

    def _arrays(self):
        """Views of [A | -I], the rhs and the padded costs."""
        n, m = self.nvars, len(self.rows)
        return self._K[:m, :n + m], self._b[:m], self._cost[:n + m]

    def add_row(self, coeffs, rhs) -> "LinearProgram":
        """Append the row coeffs . x >= rhs; coeffs is a {var: coef} map or (var, coef) pairs."""
        items = coeffs.items() if isinstance(coeffs, dict) else coeffs
        cleaned = sorted((int(j), float(a)) for j, a in items)
        rhs = float(rhs)
        if not math.isfinite(rhs):
            raise InputError(f"row has non-finite rhs {rhs!r}")
        n = self.nvars
        seen = set()
        for j, a in cleaned:
            if not (0 <= j < n):
                raise InputError(f"row references unknown variable {j}")
            if j in seen:
                raise InputError(f"row repeats variable {j}")
            if not math.isfinite(a):
                raise InputError(f"row has non-finite coefficient {a!r} on variable {j}")
            seen.add(j)
        i = len(self.rows)
        if i == len(self._b):
            self._grow(2 * i)
        row = self._K[i]
        for j, a in cleaned:
            row[j] = a
        row[n + i] = -1.0
        self._b[i] = rhs
        self.rows.append(Row(tuple(cleaned), rhs))
        return self


def lp_solve(lp: LinearProgram) -> LpOutcome:
    """Solve lp to proven optimality or report infeasibility.

    Resumes from the tableau lp kept, bordered with the rows appended since,
    whose slacks enter the basis; no factorization happens at the start.
    Each pivot, the basic variable with the largest bound violation leaves,
    max(-x_B, x_B - 1 on structurals), and the minimum-ratio column
    |d_j| / |alpha_rj| enters.  Violations within _RATIO_TIE of the largest
    count as ties and go to the first row, so round-off cannot choose
    between rows that violate equally; ratio ties go to the smallest index.
    After _BLAND_AFTER consecutive degenerate pivots (dual step at most
    _RATIO_TIE) the out-of-bounds basic variable of smallest index leaves
    instead, Bland's rule, until the next nondegenerate pivot; so no basis
    repeats.  T, d and x_B live in one bordered array, T with d as its last
    row and x_B as its last column, and each pivot moves all three with one
    rank-1 update.  An optimal verdict stands when its value is within
    _CERT_TOL * (1 + |value|) of the weak-duality bound of its duals (see
    _dual_bound); an infeasible verdict stands when the leaving row of B^-1
    is a Farkas ray (see _farkas_ray), which the outcome returns.  The basis
    is factored only when a certificate fails on a tableau pivoted since its
    last factorization, and the solve goes on from the fresh one; a failure
    on a fresh factorization raises SolverError.  The returned point is
    clamped to the box.  Raises LpIterationLimit past 50 * (variables +
    rows) + 200 pivots, and SolverError on internal numerical failures; lp
    keeps its state only from a verdict.
    """
    n = lp.nvars
    K, b, cost = lp._arrays()
    m = b.size
    slack_tol = lp._slack_tol

    M, basis, side, since = _border(lp._tableau, K, b)
    T, d, xb = M[:m, :-1], M[m, :-1], M[:m, -1]
    # only structurals have an upper bound
    ub = np.where(basis < n, 1.0, np.inf)

    cap = 50 * (n + m) + 200
    pivots = degenerate = 0
    while True:
        excess = np.maximum(-xb, xb - ub)
        out = (excess > _BOUND_TOL).nonzero()[0]
        if out.size == 0:
            xs = _point(xb, basis, side)[:n].clip(0.0, 1.0)
            value = float(cost[:n] @ xs)
            # row i's slack column is -e_i, so y_i = d[n + i], clipped to >= 0
            y = np.maximum(d[n:], 0.0)
            if value - _dual_bound(K, b, cost[:n], y) <= _CERT_TOL * (1.0 + abs(value)):
                break
            if not since:
                raise SolverError("optimal value fails its dual bound on a fresh factorization")
            _factor(M, K, b, cost, basis, side, slack_tol)
            since = 0
            continue
        if degenerate < _BLAND_AFTER:
            # an extreme read through argmax (here) or argmin (the ratio test)
            # costs less than .max() or .min() on arrays this small
            viol = excess[out]
            r = out[(viol >= viol[viol.argmax()] - _RATIO_TIE).argmax()]
        else:
            r = out[basis[out].argmin()]  # Bland: smallest variable index leaves
        to_upper = bool(xb[r] > 0.0)
        alpha = T[r]
        raises = alpha * side  # > 0 where moving column j off its bound raises x_Br
        eligible = (raises < -_PIVOT_EPS) if to_upper else (raises > _PIVOT_EPS)
        candidates = eligible.nonzero()[0]
        if candidates.size == 0:
            # x_Br cannot reach its bound: row r of B^-1 should be a Farkas ray
            ray = _farkas_ray(K, b, T[r, n:], to_upper)
            if ray is not None:
                lp._tableau = (T, d, xb, basis, side, since)
                return LpOutcome("infeasible", None, None, pivots, ray=tuple(ray.tolist()))
            if not since:
                raise SolverError("infeasible row fails its Farkas certificate on a fresh factorization")
            _factor(M, K, b, cost, basis, side, slack_tol)
            since = 0
            continue
        ratio = np.abs(d[candidates] / alpha[candidates])
        step = ratio[ratio.argmin()]
        q = candidates[(ratio <= step + _RATIO_TIE).argmax()]
        degenerate = degenerate + 1 if step <= _RATIO_TIE else 0
        pivots += 1
        if pivots > cap:
            raise LpIterationLimit(f"simplex exceeded {cap} pivots")
        # x_q moves off its bound until x_Br reaches the bound it broke:
        # shifted by that bound, x_Br's row divided by the pivot holds x_q's
        # move, the rank-1 update moves every other x_B with it, and x_q's
        # own bound is then added back
        if to_upper:
            xb[r] -= 1.0
        col = M[:, q].copy()
        pivot_row = M[r] / col[r]
        M -= col[:, None] * pivot_row
        M[r] = pivot_row
        if side[q] > 0.0:
            xb[r] += 1.0
        side[basis[r]] = 1.0 if to_upper else -1.0
        side[q] = 0.0
        basis[r] = q
        ub[r] = 1.0 if q < n else np.inf
        since += 1

    lp._tableau = (T, d, xb, basis, side, since)
    _audit_rows(lp, xs)
    return LpOutcome("optimal", value, tuple(xs.tolist()), pivots, tuple(y.tolist()))


def _dual_bound(K, b, c, y):
    """Weak-duality lower bound on c.x over the box points meeting every row.

    With every y_i >= 0, y_i * a_i.x >= y_i * b_i on each row, and
    c.x = y.Ax + (c - A^T y).x >= b.y - sum_j max(0, (A^T y)_j - c_j)
    for each x in [0, 1]^n.  No basis enters.
    """
    return float(b @ y) - float(np.maximum(y @ K[:, :c.size] - c, 0.0).sum())


def _farkas_ray(K, b, slack_row, to_upper):
    """The Farkas ray of a basic variable that cannot reach its bound, or None.

    slack_row is the leaving row r of T's slack block, -B^-1, so row r of
    B^-1 is -slack_row.  The ray is that row, negated when x_Br lies below 0,
    so that like the duals it is >= 0; a row with no entering candidate
    breaks that only by round-off, and such entries are clipped to 0.  The
    ray proves infeasibility when the zero objective's weak-duality bound
    b.ray - sum_j max(0, (A^T ray)_j) exceeds _BOUND_TOL (see _dual_bound);
    that bound is read off [A | -I] and b, so no basis enters.
    """
    signed = slack_row if to_upper else -slack_row  # -ray_i, <= 0 on a ray
    ray = -np.minimum(signed, 0.0)
    if _dual_bound(K, b, np.zeros(K.shape[1] - b.size), ray) <= _BOUND_TOL:
        return None
    return ray


def _point(xb, basis, side):
    """The basic solution: nonbasic columns at their bounds, basic ones at x_B."""
    x = (side > 0.0).astype(float)
    x[basis] = xb
    return x


def _border(tableau, K, b):
    """A fresh bordered array of the kept tableau state, with rows len(basis).. of K.

    Returns (M, basis, side, since).  M is [[T, x_B], [d, 0]]: T = B^-1 [A | -I]
    with d as its last row and x_B as its last column; its corner entry is
    never read.  A new row's slack is basic.  Its tableau row is its row of
    K with the basic columns eliminated by the rows of T where they are
    basic, negated since the slack's coefficient is -1; reduced costs are
    unchanged (a slack costs nothing), and the slack's value is the row's
    residual at the current point.  basis and side are copies, and the count of pivots since the
    last factorization carries over unchanged.
    """
    T, d, xb, basis, side, since = tableau
    m0, m = basis.size, K.shape[0]
    n = side.size - m0
    M = np.zeros((m + 1, n + m + 1))
    M[:m0, :n + m0] = T
    M[m, :n + m0] = d
    M[:m0, -1] = xb
    if m > m0:
        new = K[m0:]
        M[m0:m, :-1] = -(new - new[:, basis] @ M[:m0, :-1])
        M[m0:m, -1] = -(b[m0:] - new[:, :n + m0] @ _point(xb, basis, side))
    basis = np.concatenate([basis, np.arange(n + m0, n + m)])
    side = np.concatenate([side, np.zeros(m - m0)])
    return M, basis, side, since


def _factor(M, K, b, cost, basis, side, slack_tol):
    """Write fresh T, d and x_B into the bordered array M from an inverse of the basis.

    Reseats each nonbasic structural at the bound its reduced cost favours,
    which only mends round-off, and raises if a slack prices negative.
    """
    try:
        Binv = np.linalg.inv(K[:, basis])
    except np.linalg.LinAlgError:
        raise SolverError("singular working basis in simplex") from None
    d = cost - (cost[basis] @ Binv) @ K
    d[basis] = 0.0  # basic variables never price
    m = basis.size
    n = side.size - m
    dn = d[:n]
    at_upper = (dn < -_PIVOT_EPS) | ((side[:n] > 0.0) & (dn <= _PIVOT_EPS))
    side[:n] = np.where(at_upper, 1.0, -1.0)
    side[basis] = 0.0
    if (d[n:] < -slack_tol).any():
        raise SolverError("unbounded improving direction in simplex")
    x = (side > 0.0).astype(float)
    M[:m, :-1] = Binv @ K
    M[m, :-1] = d
    M[:m, -1] = Binv @ (b - K @ x)


def _audit_rows(lp, xs):
    """Raise unless the clamped point meets every >= row within the tolerance.

    A row's violation is rhs - lhs.
    """
    n = lp.nvars
    K, b, _ = lp._arrays()
    tol = 10.0 * EPS_FEAS * (1.0 + float(np.abs(b).sum()))
    lhs = K[:, :n] @ xs
    bad = np.flatnonzero(b - lhs > tol)
    if bad.size:
        i = int(bad[0])
        raise SolverError(
            f"optimal point failed the feasibility audit on a row "
            f"(lhs={float(lhs[i])!r}, rhs={float(b[i])!r})"
        )
