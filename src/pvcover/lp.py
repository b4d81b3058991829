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
the basic values x_B.  The last three live in one bordered array,
[[T, x_B], [d, .]], T with d as its last row and x_B as its last column,
kept contiguous at the front of a flat buffer that doubles with the row
buffers, so each pivot is one rank-1 update of a view of it.  Rows are
only appended, never changed, and the objective stays fixed, so that basis
plus the new rows' slacks stays dual feasible: the next solve borders the
tableau in place, laying the kept rows out again at the wider row stride
and writing the new rows after them, and resumes from it.  A first solve
borders an empty tableau, which gives the slack basis with every
structural at the bound its cost favours.  Both verdicts are certified
without a basis: an optimal one by weak duality, the duals read
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
_ABOVE_BOUND_TOL = math.nextafter(_BOUND_TOL, math.inf)  # the least excess past _BOUND_TOL


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
    at column n + i, the rhs vector and the running sum of |rhs| the audit
    scales its tolerance by.  The zero-padded cost vector and the slack
    reduced-cost tolerance depend on the objective alone and are set once.
    The state the last lp_solve ended on stays in place for the next to
    resume from: the bordered array [[T, x_B], [d, .]] over the k rows it
    has seen, row by row in the leading (k + 1) * (n + k + 1) entries of the
    flat buffer _tab, so that it is one contiguous array (see _bordered),
    and the basis, each column's side and each basic variable's upper
    bound, in the leading k, n + k and k entries of _basis, _side and _ub.
    Every buffer doubles, with the row buffers, when full, and is zero past
    what has been written.
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
        self._rhs_abs = 0.0
        # the tableau of no rows: d is the cost vector and every structural
        # sits at the bound its cost favours; side is +1 on a nonbasic column
        # at its upper bound, -1 at its lower and 0 on a basic one.  k counts
        # the rows the tableau holds, and since the pivots after the last
        # factorization; broken marks a solve that raised part-way
        self._K, self._b = np.zeros((0, n)), np.zeros(0)
        self._tab = np.zeros(n + 1)
        self._tab[:n] = cost
        self._basis, self._ub = np.zeros(0, dtype=int), np.zeros(0)
        self._side = np.where(cost < -_PIVOT_EPS, 1.0, -1.0)
        self._k = self._since = 0
        self._broken = False
        self._grow(16)

    @property
    def nvars(self) -> int:
        return len(self.objective)

    def _grow(self, cap: int) -> None:
        """Reallocate every buffer for cap rows, keeping what is written so far."""
        n, m, k = self.nvars, len(self.rows), self._k
        K = np.zeros((cap, n + cap))
        K[:m, :n + m] = self._K[:m, :n + m]
        b = np.zeros(cap)
        b[:m] = self._b[:m]
        cost = np.zeros(n + cap)
        cost[:n] = self.objective
        tab = np.zeros((cap + 1) * (n + cap + 1))
        tab[:(k + 1) * (n + k + 1)] = self._tab[:(k + 1) * (n + k + 1)]
        basis, side, ub = np.zeros(cap, dtype=int), np.zeros(n + cap), np.zeros(cap)
        basis[:k] = self._basis[:k]
        side[:n + k] = self._side[:n + k]
        ub[:k] = self._ub[:k]
        self._K, self._b, self._cost = K, b, cost
        self._tab, self._basis, self._side, self._ub = tab, basis, side, ub

    def _bordered(self, k: int):
        """The bordered array over k rows, a contiguous (k + 1) x (n + k + 1) view of _tab.

        Contiguous, a rank-1 update of it runs as one flat loop, which on
        large tableaux is markedly faster than over a strided block.
        """
        n = self.nvars
        return self._tab[:(k + 1) * (n + k + 1)].reshape(k + 1, n + k + 1)

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
        self._rhs_abs += abs(rhs)
        self.rows.append(Row(tuple(cleaned), rhs))
        return self


def lp_solve(lp: LinearProgram) -> LpOutcome:
    """Solve lp to proven optimality or report infeasibility.

    Resumes in place from the tableau lp kept, bordered with the rows
    appended since, whose slacks enter the basis; no factorization happens
    at the start.  Each pivot, the basic variable with the largest bound
    violation leaves, max(-x_B, x_B - 1 on structurals), and the
    minimum-ratio column |d_j| / |alpha_rj| enters.  Violations within
    _RATIO_TIE of the largest count as ties and go to the first row, so
    round-off cannot choose between rows that violate equally; ratio ties go
    to the smallest index.  After _BLAND_AFTER consecutive degenerate pivots
    (dual step at most _RATIO_TIE) the out-of-bounds basic variable of
    smallest index leaves instead, Bland's rule, until the next
    nondegenerate pivot; so no basis repeats.  T, d and x_B live in one
    bordered array, T with d as its last row and x_B as its last column,
    which is a view of lp's buffer, so each pivot moves all three in place
    with one rank-1 update.  An optimal verdict stands when its value is
    within _CERT_TOL * (1 + |value|) of the weak-duality bound of its duals
    (see _dual_bound); an infeasible verdict stands when the leaving row of
    B^-1 is a Farkas ray (see _farkas_ray), which the outcome returns.  The
    basis is factored only when a certificate fails on a tableau pivoted
    since its last factorization, and the solve goes on from the fresh one;
    a failure on a fresh factorization raises SolverError.  The returned
    point is clamped to the box.  Raises LpIterationLimit past
    50 * (variables + rows) + 200 pivots, and SolverError on internal
    numerical failures.  A solve that raises leaves the tableau part-way,
    so every later solve of lp raises SolverError.
    """
    if lp._broken:
        raise SolverError("an earlier solve of this LP raised; its tableau cannot be resumed")
    lp._broken = True
    n = lp.nvars
    K, b, cost = lp._arrays()
    m = b.size
    slack_tol = lp._slack_tol

    _border(lp, K, b)
    M = lp._bordered(m)
    T, d, xb = M[:m, :-1], M[m, :-1], M[:m, -1]
    basis, side, ub = lp._basis[:m], lp._side[:n + m], lp._ub[:m]
    since = lp._since

    cap = 50 * (n + m) + 200
    pivots = degenerate = 0
    while True:
        excess = np.maximum(-xb, xb - ub)
        top = excess.item(excess.argmax()) if m else 0.0
        if not top > _BOUND_TOL:
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
            # the first row whose excess is both past _BOUND_TOL and within
            # _RATIO_TIE of the largest; an extreme read through argmax (here)
            # or argmin (the ratio test) costs less than .max() or .min() on
            # arrays this small
            r = (excess >= max(top - _RATIO_TIE, _ABOVE_BOUND_TOL)).argmax()
        else:
            out = (excess > _BOUND_TOL).nonzero()[0]
            r = out[basis[out].argmin()]  # Bland: smallest variable index leaves
        to_upper = xb.item(r) > 0.0
        alpha = T[r]
        raises = alpha * side  # > 0 where moving column j off its bound raises x_Br
        eligible = (raises < -_PIVOT_EPS) if to_upper else (raises > _PIVOT_EPS)
        candidates = eligible.nonzero()[0]
        if candidates.size == 0:
            # x_Br cannot reach its bound: row r of B^-1 should be a Farkas ray
            ray = _farkas_ray(K, b, T[r, n:], to_upper)
            if ray is not None:
                lp._since = since
                lp._broken = False
                return LpOutcome("infeasible", None, None, pivots, ray=tuple(ray.tolist()))
            if not since:
                raise SolverError("infeasible row fails its Farkas certificate on a fresh factorization")
            _factor(M, K, b, cost, basis, side, slack_tol)
            since = 0
            continue
        ratio = np.abs(d[candidates] / alpha[candidates])
        step = ratio.item(ratio.argmin())
        q = candidates.item((ratio <= step + _RATIO_TIE).argmax())
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
        if side.item(q) > 0.0:
            xb[r] += 1.0
        side[basis.item(r)] = 1.0 if to_upper else -1.0
        side[q] = 0.0
        basis[r] = q
        ub[r] = 1.0 if q < n else np.inf
        since += 1

    lp._since = since
    _audit_rows(K[:, :n], b, lp._rhs_abs, xs)
    lp._broken = False
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


def _border(lp, K, b):
    """Border lp's kept tableau state in place with rows lp._k.. of K.

    The bordered array M is [[T, x_B], [d, .]]: T = B^-1 [A | -I] with d as
    its last row and x_B as its last column; its corner entry is never
    read.  Over k kept rows and m rows in all, the kept T, x_B and d are
    laid out again at the wider row stride of the m-row array, within the
    same buffer, and only the new rows are written besides.  A new row's
    slack is basic.  Its tableau row is its row of K with the basic columns
    eliminated by the rows of T where they are basic, negated since the
    slack's coefficient is -1; reduced costs are unchanged (a slack costs
    nothing), and the slack's value is the row's residual at the current
    point.  The old rows are zero on the new slack columns, and the count
    of pivots since the last factorization carries over unchanged.
    """
    k, m = lp._k, b.size
    if m == k:
        return
    n = lp.nvars
    old, M = lp._bordered(k), lp._bordered(m)
    xb = old[:k, -1].copy()
    # d's new row lies past the old array's end, so it is written first,
    # before T, whose copy numpy stages through a temporary as the two overlap
    M[m, :n + k] = old[k, :n + k]
    M[:k, :n + k] = old[:k, :n + k]
    M[:k, n + k:-1] = 0.0
    M[:k, -1] = xb
    basis = lp._basis[:k]
    new = K[k:]
    M[k:m, :-1] = -(new - new[:, basis] @ M[:k, :-1])
    M[k:m, -1] = -(b[k:] - new[:, :n + k] @ _point(xb, basis, lp._side[:n + k]))
    lp._basis[k:m] = np.arange(n + k, n + m)
    lp._ub[k:m] = np.inf  # only structurals have an upper bound
    lp._k = m


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


def _audit_rows(A, b, rhs_abs, xs):
    """Raise unless the clamped point meets every >= row A x >= b within the tolerance.

    The tolerance scales with rhs_abs, the sum of |b|.  A row's violation
    is rhs - lhs, and the first row past the tolerance is named.
    """
    tol = 10.0 * EPS_FEAS * (1.0 + rhs_abs)
    lhs = A @ xs
    bad = (b - lhs > tol).nonzero()[0]
    if bad.size:
        i = bad.item(0)
        raise SolverError(
            f"optimal point failed the feasibility audit on a row "
            f"(lhs={lhs.item(i)!r}, rhs={b.item(i)!r})"
        )
