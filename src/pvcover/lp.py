"""Small dense LP kernel: min c.x over rows a.x >= b or a.x <= b with 0 <= x <= 1.

Bounded dual simplex with Bland's rule on both sides over a carried tableau.
Columns are the n structurals, in [0, 1], and one slack per row, in
[0, inf): a.x - s = b for a GE row, a.x + s = b for an LE row; there are no
artificials and no phase 1.  A LinearProgram keeps its rows once, densely, as
they are appended, and with them the state its last solve ended on: the
basis, the tableau T = B^-1 [A | +-I], the reduced costs d and the basic
values x_B.  Rows are only appended, never changed, and the objective stays
fixed, so that basis plus the new rows' slacks stays dual feasible: the next
solve borders the tableau with the new rows and resumes from it.  A first
solve borders an empty tableau, which gives the slack basis with every
structural at the bound its cost favours.  An optimal verdict is certified
by weak duality: the duals read off the slacks' reduced costs give a lower
bound on every feasible point's cost that needs no basis, and the value
must meet it within a tolerance.  Built for tiny cutting-plane masters
where determinism matters more than speed.
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
_REFACTOR = 32  # pivots between fresh factorizations of the basis
_CERT_TOL = 1e-9  # an optimal value may exceed its dual bound by this times 1 + |value|


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
    duals: tuple[float, ...] | None = None  # one per row; >= 0 on GE rows, <= 0 on LE rows


class LinearProgram:
    """An objective plus an append-only row list over [0, 1]-boxed variables.

    Each row is also written once into the buffers the kernel reads: the
    constraint matrix with its slacks [A | +-I], row i's slack sign (+1 on an
    LE row, -1 on a GE row) at column n + i, and the rhs and sign vectors.
    The buffers double when full.  The zero-padded cost vector and the slack
    reduced-cost tolerance depend on the objective alone and are set once.
    The tableau state of the last lp_solve is kept for the next to resume from.
    """

    def __init__(self, objective):
        self.objective = [float(c) for c in objective]
        if not self.objective:
            raise InputError("linear program needs at least one variable")
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
        sign, b, cost = np.zeros(cap), np.zeros(cap), np.zeros(n + cap)
        if m:
            K[:m, :n + m] = self._K[:m, :n + m]
            sign[:m], b[:m] = self._sign[:m], self._b[:m]
        cost[:n] = self.objective
        self._K, self._sign, self._b, self._cost = K, sign, b, cost

    def _arrays(self):
        """Views of [A | +-I], the slack signs, the rhs and the padded costs."""
        n, m = self.nvars, len(self.rows)
        return self._K[:m, :n + m], self._sign[:m], self._b[:m], self._cost[:n + m]

    def add_row(self, coeffs, rhs, sense: str = GE) -> "LinearProgram":
        """Append one constraint; coeffs is a {var: coef} map or (var, coef) pairs."""
        if sense not in (GE, LE):
            raise InputError(f"row sense must be {GE!r} or {LE!r}, got {sense!r}")
        items = coeffs.items() if isinstance(coeffs, dict) else coeffs
        cleaned = sorted((int(j), float(a)) for j, a in items)
        n = self.nvars
        seen = set()
        for j, _ in cleaned:
            if not (0 <= j < n):
                raise InputError(f"row references unknown variable {j}")
            if j in seen:
                raise InputError(f"row repeats variable {j}")
            seen.add(j)
        i = len(self.rows)
        if i == len(self._b):
            self._grow(2 * i)
        row = self._K[i]
        for j, a in cleaned:
            row[j] = a
        self._sign[i] = row[n + i] = 1.0 if sense == LE else -1.0
        self._b[i] = float(rhs)
        self.rows.append(Row(tuple(cleaned), float(rhs), sense))
        return self


def lp_solve(lp: LinearProgram) -> LpOutcome:
    """Solve lp to proven optimality or report infeasibility.

    Resumes from the tableau lp kept, bordered with the rows appended since,
    whose slacks enter the basis; no factorization happens at the start.
    Each pivot, the out-of-bounds basic variable of smallest index leaves and
    the minimum-ratio column |d_j| / |alpha_rj| enters, ties going to the
    smallest index; T, d and x_B then take one rank-1 update.  The basis is
    factored afresh once _REFACTOR pivots have passed since its last
    factorization, a count carried across solves.  An optimal verdict stands
    when its value is within _CERT_TOL * (1 + |value|) of the weak-duality
    bound of its duals (see _dual_bound); when it is not, the basis is
    factored afresh and the solve goes on, and on a fresh factorization
    SolverError is raised.  An infeasible verdict stands only on a fresh
    factorization.  The returned point is clamped to the box.  Raises
    LpIterationLimit past 50 * (variables + rows) + 200 pivots, and
    SolverError on internal numerical failures; lp keeps its state only from
    a verdict.
    """
    n = lp.nvars
    K, sign, b, cost = lp._arrays()
    m = b.size
    slack_tol = lp._slack_tol

    T, d, xb, basis, side, since = _border(lp._tableau, K, sign, b)
    # a basic value above hi must leave; only structurals have an upper bound
    hi = np.where(basis < n, 1.0 + _BOUND_TOL, np.inf)

    cap = 50 * (n + m) + 200
    pivots = 0
    while True:
        if since >= _REFACTOR:
            T, d, xb = _factor(K, b, cost, basis, side, slack_tol)
            since = 0
        out = ((xb < -_BOUND_TOL) | (xb > hi)).nonzero()[0]
        if out.size == 0:
            xs = _point(xb, basis, side)[:n].clip(0.0, 1.0)
            value = float(cost[:n] @ xs)
            # row i's slack column is sign_i * e_i, so y_i = -sign_i * d[n + i],
            # clipped to >= 0 on a GE row and <= 0 on an LE row
            y = -sign * np.maximum(d[n:], 0.0)
            if value - _dual_bound(K, b, cost[:n], y) <= _CERT_TOL * (1.0 + abs(value)):
                break
            if not since:
                raise SolverError("optimal value fails its dual bound on a fresh factorization")
            since = _REFACTOR
            continue
        r = out[basis[out].argmin()]  # Bland: smallest variable index leaves
        to_upper = bool(xb[r] > 0.0)
        alpha = T[r]
        raises = alpha * side  # > 0 where moving column j off its bound raises x_Br
        eligible = (raises < -_PIVOT_EPS) if to_upper else (raises > _PIVOT_EPS)
        candidates = eligible.nonzero()[0]
        if candidates.size == 0:
            if since:
                since = _REFACTOR
                continue
            # x_Br cannot reach its bound: row r of B^-1 is a Farkas ray
            lp._tableau = (T, d, xb, basis, side, since)
            return LpOutcome("infeasible", None, None, pivots)
        ratio = np.abs(d[candidates] / alpha[candidates])
        q = candidates[(ratio <= ratio.min() + _RATIO_TIE).argmax()]
        pivots += 1
        if pivots > cap:
            raise LpIterationLimit(f"simplex exceeded {cap} pivots")
        # x_q moves off its bound until x_Br reaches the bound it broke
        col = T[:, q].copy()
        step = (xb[r] - (1.0 if to_upper else 0.0)) / col[r]
        xb -= step * col
        xb[r] = (1.0 if side[q] > 0.0 else 0.0) + step
        pivot_row = alpha / col[r]
        T -= col[:, None] * pivot_row
        T[r] = pivot_row
        d -= d[q] * pivot_row
        side[basis[r]] = 1.0 if to_upper else -1.0
        side[q] = 0.0
        basis[r] = q
        hi[r] = 1.0 + _BOUND_TOL if q < n else np.inf
        since += 1

    lp._tableau = (T, d, xb, basis, side, since)
    _audit_rows(lp, xs)
    return LpOutcome("optimal", value, tuple(xs.tolist()), pivots, tuple(y.tolist()))


def _dual_bound(K, b, c, y):
    """Weak-duality lower bound on c.x over the box points meeting every row.

    With y_i >= 0 on GE rows and <= 0 on LE rows, y_i * a_i.x >= y_i * b_i,
    and c.x = y.Ax + (c - A^T y).x >= b.y - sum_j max(0, (A^T y)_j - c_j)
    for each x in [0, 1]^n.  No basis enters.
    """
    return float(b @ y) - float(np.maximum(y @ K[:, :c.size] - c, 0.0).sum())


def _point(xb, basis, side):
    """The basic solution: nonbasic columns at their bounds, basic ones at x_B."""
    x = np.where(side > 0.0, 1.0, 0.0)
    x[basis] = xb
    return x


def _border(tableau, K, sign, b):
    """Copies of the kept tableau state, bordered with rows len(basis).. of K.

    A new row's slack is basic.  Its tableau row is its row of K with the
    basic columns eliminated by the rows of T where they are basic, times
    the slack sign; reduced costs are unchanged (a slack costs nothing), and
    the slack's value is the row's residual at the current point.  The count
    of pivots since the last factorization carries over unchanged.
    """
    T, d, xb, basis, side, since = tableau
    m0, m = basis.size, K.shape[0]
    if m == m0:
        return T.copy(), d.copy(), xb.copy(), basis.copy(), side.copy(), since
    n = side.size - m0
    new = K[m0:]
    bordered = np.zeros((m, n + m))
    bordered[:m0, :n + m0] = T
    bordered[m0:] = sign[m0:, None] * (new - new[:, basis] @ bordered[:m0])
    x = _point(xb, basis, side)
    fresh = np.zeros(m - m0)
    return (
        bordered,
        np.concatenate([d, fresh]),
        np.concatenate([xb, sign[m0:] * (b[m0:] - new[:, :n + m0] @ x)]),
        np.concatenate([basis, np.arange(n + m0, n + m)]),
        np.concatenate([side, fresh]),
        since,
    )


def _factor(K, b, cost, basis, side, slack_tol):
    """Fresh (T, d, x_B) from an inverse of the basis matrix.

    Reseats each nonbasic structural at the bound its reduced cost favours,
    which only mends round-off, and raises if a slack prices negative.
    """
    try:
        Binv = np.linalg.inv(K[:, basis])
    except np.linalg.LinAlgError:
        raise SolverError("singular working basis in simplex") from None
    d = cost - (cost[basis] @ Binv) @ K
    d[basis] = 0.0  # basic variables never price
    n = side.size - basis.size
    dn = d[:n]
    at_upper = (dn < -_PIVOT_EPS) | ((side[:n] > 0.0) & (dn <= _PIVOT_EPS))
    side[:n] = np.where(at_upper, 1.0, -1.0)
    side[basis] = 0.0
    if (d[n:] < -slack_tol).any():
        raise SolverError("unbounded improving direction in simplex")
    x = np.where(side > 0.0, 1.0, 0.0)
    return Binv @ K, d, Binv @ (b - K @ x)


def _audit_rows(lp, xs):
    """Raise unless the clamped point meets every row within the tolerance.

    A row's violation is its slack sign (+1 on LE, -1 on GE) times lhs - rhs.
    """
    n = lp.nvars
    K, sign, b, _ = lp._arrays()
    tol = 10.0 * EPS_FEAS * (1.0 + float(np.abs(b).sum()))
    lhs = K[:, :n] @ xs
    bad = np.flatnonzero(sign * (lhs - b) > tol)
    if bad.size:
        i = int(bad[0])
        row = lp.rows[i]
        raise SolverError(
            f"optimal point failed the feasibility audit on a row "
            f"(lhs={float(lhs[i])!r}, rhs={row.rhs!r}, sense={row.sense})"
        )
