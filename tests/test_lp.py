"""LP kernel against a brute-force vertex-enumeration oracle.

Variables live in [0, 1], so the feasible region is a polytope and the
optimum (when one exists) is attained at an intersection of n active
constraints drawn from the rows and the box bounds.  Enumerating all those
intersections is exponential but fine at four variables and six rows, and
it is a genuinely independent code path: no simplex, no pivoting.  The
kernel takes >= rows only, so each <= row a.x <= b the tests want is
written as its negation -a.x >= -b, which over the box loses nothing.
"""

import itertools
from fractions import Fraction

import numpy as np
import pytest

import pvcover as pv
from pvcover import lp as lp_module
from pvcover import relaxation
from pvcover.lp import _CERT_TOL, LinearProgram, _audit_rows, lp_solve

FEAS_TOL = 1e-7


def enumerate_optimum(objective, rows):
    """(status, value) by checking every candidate basic point.

    rows: list of (coeffs array, rhs), each coeffs . x >= rhs.
    """
    n = len(objective)
    planes = []
    for coeffs, rhs in rows:
        planes.append((np.asarray(coeffs, dtype=float), float(rhs)))
    for j in range(n):
        unit = np.zeros(n)
        unit[j] = 1.0
        planes.append((unit.copy(), 0.0))  # lower bound
        planes.append((unit.copy(), 1.0))  # upper bound
    best = None
    for combo in itertools.combinations(range(len(planes)), n):
        A = np.array([planes[i][0] for i in combo])
        b = np.array([planes[i][1] for i in combo])
        try:
            x = np.linalg.solve(A, b)
        except np.linalg.LinAlgError:
            continue
        if np.any(x < -FEAS_TOL) or np.any(x > 1 + FEAS_TOL):
            continue
        if all(float(coeffs @ x) >= rhs - FEAS_TOL for coeffs, rhs in rows):
            value = float(np.dot(objective, x))
            if best is None or value < best:
                best = value
    if best is None:
        return "infeasible", None
    return "optimal", best


def random_lp(rng, n_max=4, rows_max=6):
    n = int(rng.integers(1, n_max + 1))
    nrows = int(rng.integers(1, rows_max + 1))
    objective = rng.integers(-5, 9, size=n).astype(float)
    rows = []
    for _ in range(nrows):
        coeffs = rng.integers(-4, 5, size=n).astype(float)
        if not coeffs.any():
            coeffs[int(rng.integers(0, n))] = 1.0
        rhs = float(rng.integers(-4, 7))
        if rng.random() >= 0.7:  # a <= row, written as its negation
            coeffs, rhs = -coeffs, -rhs
        rows.append((coeffs, rhs))
    return objective, rows


def solve_both(objective, rows):
    lp = LinearProgram(list(objective))
    for coeffs, rhs in rows:
        lp.add_row(dict(enumerate(coeffs)), rhs)
    got = lp_solve(lp)
    want_status, want_value = enumerate_optimum(objective, rows)
    return got, want_status, want_value


def exact_dual_bound(objective, rows, duals):
    """b.y - sum_j max(0, (A^T y)_j - c_j) in exact arithmetic, after checking
    that every dual is >= 0."""
    y = [Fraction(v) for v in duals]
    assert len(y) == len(rows)
    assert all(yi >= 0 for yi in y)
    bound = sum(yi * Fraction(rhs) for yi, (_, rhs) in zip(y, rows))
    for j, cj in enumerate(objective):
        reduced = sum(yi * Fraction(coeffs[j]) for yi, (coeffs, _) in zip(y, rows)) - Fraction(cj)
        bound -= max(Fraction(0), reduced)
    return bound


def test_lp_solve_matches_enumeration_on_random_lps():
    # an optimal verdict carries duals whose weak-duality bound, rebuilt
    # exactly, is at most the oracle's optimum and within the kernel's
    # certificate tolerance of the reported value
    rng = np.random.default_rng(20240817)
    feasible = 0
    infeasible = 0
    for _ in range(100):
        objective, rows = random_lp(rng)
        got, want_status, want_value = solve_both(objective, rows)
        assert got.status == want_status
        if want_status == "optimal":
            feasible += 1
            assert got.value == pytest.approx(want_value, abs=1e-6)
            assert all(-1e-9 <= xv <= 1 + 1e-9 for xv in got.x)
            bound = exact_dual_bound(objective, rows, got.duals)
            assert bound <= Fraction(want_value) + Fraction(1, 10**12)
            assert Fraction(got.value) - bound <= Fraction(_CERT_TOL * (1.0 + abs(got.value)))
        else:
            infeasible += 1
    # the generator must actually exercise both outcomes
    assert feasible >= 30
    assert infeasible >= 10


def test_lp_solve_pinned_cases():
    # min x0 + x1 with x0 + x1 >= 1 on the unit box
    lp = LinearProgram([1.0, 1.0]).add_row({0: 1.0, 1: 1.0}, 1.0)
    out = lp_solve(lp)
    assert out.status == "optimal"
    assert out.value == pytest.approx(1.0, abs=1e-9)

    # negative costs drive variables to the upper bound
    lp = LinearProgram([-2.0, 3.0]).add_row({0: 1.0, 1: 1.0}, 1.0)
    out = lp_solve(lp)
    assert out.value == pytest.approx(-2.0, abs=1e-9)
    assert out.x[0] == pytest.approx(1.0, abs=1e-9)

    # x0 >= 2 cannot hold inside the box
    lp = LinearProgram([1.0]).add_row({0: 1.0}, 2.0)
    assert lp_solve(lp).status == "infeasible"

    # equality pair 4 x0 >= 1, 4 x0 <= 1 selects the unique point (0.25 here)
    lp = LinearProgram([1.0])
    lp.add_row({0: 4.0}, 1.0)
    lp.add_row({0: -4.0}, -1.0)
    out = lp_solve(lp)
    assert out.x[0] == pytest.approx(0.25, abs=1e-9)

    # with no rows every negative-cost variable sits at its upper bound
    out = lp_solve(LinearProgram([1.0, -2.0, 0.0, -0.5]))
    assert out.status == "optimal"
    assert out.x == (0.0, 1.0, 0.0, 1.0)
    assert out.value == pytest.approx(-2.5, abs=1e-9)


def test_lp_objective_constant_shift_free():
    # zero objective reports value 0 on any feasible system
    lp = LinearProgram([0.0, 0.0]).add_row({0: 1.0, 1: 2.0}, 1.0)
    out = lp_solve(lp)
    assert out.status == "optimal"
    assert out.value == pytest.approx(0.0, abs=1e-12)


def test_lp_resolve_after_each_appended_row():
    # one LinearProgram re-solved after every appended row resumes from its
    # last basis; each answer must still match the oracle on the rows so far,
    # and solving it once more unchanged takes no pivot
    rng = np.random.default_rng(20240817)
    checked = 0
    for _ in range(60):
        objective, rows = random_lp(rng)
        lp = LinearProgram(list(objective))
        for k, (coeffs, rhs) in enumerate(rows, start=1):
            lp.add_row(dict(enumerate(coeffs)), rhs)
            got = lp_solve(lp)
            want_status, want_value = enumerate_optimum(objective, rows[:k])
            assert got.status == want_status
            if want_status == "optimal":
                assert got.value == pytest.approx(want_value, abs=1e-6)
            again = lp_solve(lp)
            assert again.pivots == 0
            assert (again.status, again.value, again.x) == (got.status, got.value, got.x)
            checked += 1
    assert checked >= 150


def test_lp_ladder_values():
    # values of the 40/80/8 and 80/200/16 natural LPs and of the
    # cutting-plane masters of their strengthened relaxations
    inst = pv.generate_random(40, 80, 8, 1, pv.GeneratorConfig(weight_range=(1, 3)))
    assert pv.solve_natural_lp(inst).objective == pytest.approx(39.125, abs=1e-6)
    assert pv.solve_relaxation(inst).objective == pytest.approx(40.0, abs=1e-6)
    inst = pv.generate_random(80, 200, 16, 1, pv.GeneratorConfig(weight_range=(1, 3)))
    assert pv.solve_natural_lp(inst).objective == pytest.approx(79.878655, abs=1e-6)
    assert pv.solve_relaxation(inst).objective == pytest.approx(79.893000, abs=1e-6)


def ladder_work(monkeypatch, cells):
    """(LP solves, total pivots) of the natural and strengthened loops on each cell."""
    pivots = []

    def counting(lp):
        out = lp_solve(lp)
        pivots.append(out.pivots)
        return out

    monkeypatch.setattr(relaxation, "lp_solve", counting)
    got = []
    for n, m, r in cells:
        inst = pv.generate_random(n, m, r, 1, pv.GeneratorConfig(weight_range=(1, 3)))
        for solve in (pv.solve_natural_lp, pv.solve_relaxation):
            pivots.clear()
            solve(inst)
            got.append((len(pivots), sum(pivots)))
    return got


def test_lp_work_counters_pinned(monkeypatch):
    # LP solves and total pivots of the natural and strengthened loops on the
    # ladder cells above, on 150/400/30 and on 250/700/50, where the largest-
    # violation leaving rule takes a fifth of Bland's natural pivots; a kernel
    # change that keeps every pivot choice keeps them, and a separation change
    # that picks shallower capped rows shows in the strengthened solve counts
    got = ladder_work(monkeypatch, ((40, 80, 8), (80, 200, 16), (150, 400, 30), (250, 700, 50)))
    assert got == [
        (6, 54), (14, 68), (12, 216), (42, 282), (15, 1021), (127, 2511), (16, 2561), (212, 5379),
    ]


def test_ladder_loops_carry_their_tableau_without_drift(monkeypatch):
    # the natural and strengthened loops on 150/400/30 carry over a thousand
    # pivots each with no factorization; the last master the loop solved,
    # rebuilt cold from the nonzeros of its row buffers, must give the same
    # value and point
    factored = []
    inv = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda a: factored.append(1) or inv(a))
    last = []

    def capturing(lp):
        out = lp_solve(lp)
        last[:] = [lp, out]
        return out

    monkeypatch.setattr(relaxation, "lp_solve", capturing)
    inst = pv.generate_random(150, 400, 30, 1, pv.GeneratorConfig(weight_range=(1, 3)))
    for solve in (pv.solve_natural_lp, pv.solve_relaxation):
        solve(inst)
        assert not factored
        lp, warm = last
        assert lp._since > 1000  # pivots carried since the empty tableau
        K, b, _ = lp._arrays()
        cold = LinearProgram(lp.objective)
        for a, rhs in zip(K[:, :lp.nvars], b):
            cold.add_row({int(j): a[j] for j in a.nonzero()[0]}, rhs)
        want = lp_solve(cold)
        scale = 1.0 + float(np.abs(lp.objective).sum())
        assert warm.status == want.status == "optimal"
        assert abs(warm.value - want.value) <= 1e-9 * scale
        assert np.max(np.abs(np.subtract(warm.x, want.x))) <= 1e-9 * scale


def test_bland_fallback_from_the_first_pivot_gives_blands_counts(monkeypatch):
    # with the fallback taking over before any degenerate run, every leaving
    # row is the out-of-bounds basic variable of smallest index: the counts
    # are those of the kernel that used Bland's rule alone
    monkeypatch.setattr(lp_module, "_BLAND_AFTER", 0)
    got = ladder_work(monkeypatch, ((40, 80, 8), (80, 200, 16), (150, 400, 30)))
    assert got == [(6, 92), (11, 68), (12, 488), (42, 452), (15, 3827), (125, 5507)]


def test_largest_violation_and_bland_take_different_paths(monkeypatch):
    # min x0 + 2 x1 with x0 + 2 x1 >= 1 and 2 x1 >= 2: the second row's slack
    # (-2) is the most violated, and x1 entering there meets both rows at
    # once; Bland's rule lets the first row's slack (-1) leave first, x0
    # enters on the ratio tie, and two more pivots take it out again
    def solve():
        lp = LinearProgram([1.0, 2.0]).add_row({0: 1.0, 1: 2.0}, 1.0).add_row({1: 2.0}, 2.0)
        return lp_solve(lp)

    largest = solve()
    monkeypatch.setattr(lp_module, "_BLAND_AFTER", 0)
    bland = solve()
    assert (largest.pivots, bland.pivots) == (1, 3)
    assert largest.value == bland.value == pytest.approx(2.0, abs=1e-12)
    assert largest.x == bland.x == (0.0, 1.0)


def batched_lp(rng):
    """An objective and 2-6 batches of (coeffs, rhs) rows, up to n rows each.

    Costs are generic reals, so an optimum is a unique point.  Most rows ask
    for at most two thirds of their coefficient sum; the rest are <= rows,
    written negated, that allow at least half of it, so some sequences turn
    infeasible partway.
    """
    n = int(rng.integers(4, 61))
    objective = rng.uniform(-0.5, 2.0, size=n)
    batches = []
    for _ in range(int(rng.integers(2, 7))):
        batch = []
        for _ in range(int(rng.integers(1, n + 1))):
            idx = rng.choice(n, size=int(rng.integers(1, min(n, 6) + 1)), replace=False)
            coeffs = {int(j): float(rng.integers(1, 4)) for j in idx}
            total = int(sum(coeffs.values()))
            if rng.random() < 0.8:
                batch.append((coeffs, float(rng.integers(1, max(1, 2 * total // 3) + 1))))
            else:
                negated = {j: -a for j, a in coeffs.items()}
                batch.append((negated, -float(rng.integers(total // 2, total + 1))))
        batches.append(batch)
    return objective, batches


def test_warm_solve_after_batched_appends_matches_a_cold_solve(monkeypatch):
    # the natural loop appends many rows per round; after each batch the
    # carried tableau must give what a fresh LinearProgram with the same rows
    # gives, also after an infeasible verdict and after long runs of carried
    # pivots.  The basis is factored only when a verdict's certificate (dual
    # bound or Farkas ray) fails, which these well-scaled rows never give, so
    # no solve of a sequence factors anything.
    factored = []
    inv = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda a: factored.append(1) or inv(a))
    rng = np.random.default_rng(5)
    after_infeasible = long_warm = past_32 = 0
    for _ in range(40):
        objective, batches = batched_lp(rng)
        scale = 1.0 + float(np.abs(objective).sum())
        lp = LinearProgram(list(objective))
        rows = []
        infeasible = False
        for batch in batches:
            for coeffs, rhs in batch:
                lp.add_row(coeffs, rhs)
            rows += batch
            factored.clear()
            warm = lp_solve(lp)
            assert not factored
            # pivots carried since the empty tableau, with no factorization
            past_32 += lp._since >= 32
            cold = LinearProgram(list(objective))
            for coeffs, rhs in rows:
                cold.add_row(coeffs, rhs)
            want = lp_solve(cold)
            assert warm.status == want.status
            if want.status == "optimal":
                assert abs(warm.value - want.value) <= 1e-9 * scale
                assert np.max(np.abs(np.subtract(warm.x, want.x))) <= 1e-9 * scale
            after_infeasible += infeasible
            infeasible = infeasible or warm.status == "infeasible"
            long_warm += warm.pivots > 32 and len(rows) > len(batch)
    # every case is exercised
    assert after_infeasible >= 10
    assert long_warm >= 3
    assert past_32 >= 10


def test_corrupt_carried_slack_reduced_cost_is_caught_and_refactored(monkeypatch):
    # min x0 + x1 with x0 + x1 >= 1 takes one pivot, so its tableau is one
    # pivot past a factorization; a wrong carried reduced cost on the row's
    # slack gives a dual y = 2 whose bound, 2 - 2 * (2 - 1) = 0, is short of
    # the value 1, so the next solve factors the basis and certifies afresh
    factored = []
    inv = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda a: factored.append(1) or inv(a))
    lp = LinearProgram([1.0, 1.0]).add_row({0: 1.0, 1: 1.0}, 1.0)
    first = lp_solve(lp)
    assert (first.pivots, factored, first.duals) == (1, [], (1.0,))
    lp._bordered(1)[1, 2] = 2.0  # the reduced cost of row 0's slack
    again = lp_solve(lp)
    assert factored == [1]
    assert again.pivots == 0
    assert again.value == pytest.approx(first.value, abs=1e-12)
    assert again.duals == (1.0,)


def test_singular_basis_on_refactor_raises_and_marks_the_lp(monkeypatch):
    # the corrupt tableau of the test above, but the factorization finds the
    # basis singular: the solve raises, and the LP is marked so no later
    # solve resumes from the tableau it left
    lp = LinearProgram([1.0, 1.0]).add_row({0: 1.0, 1: 1.0}, 1.0)
    assert lp_solve(lp).pivots == 1
    lp._bordered(1)[1, 2] = 2.0

    def singular(a):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "inv", singular)
    with pytest.raises(pv.SolverError, match="^singular working basis in simplex$"):
        lp_solve(lp)
    with pytest.raises(pv.SolverError, match="an earlier solve of this LP raised"):
        lp_solve(lp)


def test_failed_certificate_on_a_fresh_factorization_raises(monkeypatch):
    # with a tolerance no bound can meet, the stale tableau is factored once
    # and the fresh factorization's failure is an error, not a verdict
    monkeypatch.setattr(lp_module, "_CERT_TOL", -1.0)
    factored = []
    inv = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda a: factored.append(1) or inv(a))
    lp = LinearProgram([1.0, 1.0]).add_row({0: 1.0, 1: 1.0}, 1.0)
    with pytest.raises(pv.SolverError, match="fresh factorization"):
        lp_solve(lp)
    assert factored == [1]


def test_warm_solves_across_buffer_doublings_match_cold_solves(monkeypatch):
    # rows appended in batches past 16, 32 and 64 rows, so the buffers double
    # before a first solve, between solves with rows not yet bordered and
    # after long runs of carried pivots; every buffer keeps the kept tableau
    # through the copy, so each warm outcome equals a cold rebuild's and
    # nothing is factored
    factored = []
    inv = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda a: factored.append(1) or inv(a))
    rng = np.random.default_rng(29)
    caps = set()
    carried = 0
    for _ in range(8):
        n = int(rng.integers(8, 40))
        objective = rng.uniform(-0.5, 2.0, size=n)
        scale = 1.0 + float(np.abs(objective).sum())
        lp = LinearProgram(list(objective))
        rows = []
        for total in (20, 30, 40, 66, 80):
            while len(rows) < total:
                idx = rng.choice(n, size=int(rng.integers(1, min(n, 6) + 1)), replace=False)
                coeffs = {int(j): float(rng.integers(1, 4)) for j in idx}
                rhs = float(rng.integers(1, max(1, 2 * int(sum(coeffs.values())) // 3) + 1))
                lp.add_row(coeffs, rhs)
                rows.append((coeffs, rhs))
            warm = lp_solve(lp)
            caps.add(len(lp._b))
            carried += lp._since > 0
            cold = LinearProgram(list(objective))
            for coeffs, rhs in rows:
                cold.add_row(coeffs, rhs)
            want = lp_solve(cold)
            assert warm.status == want.status == "optimal"
            assert abs(warm.value - want.value) <= 1e-9 * scale
            assert np.max(np.abs(np.subtract(warm.x, want.x))) <= 1e-9 * scale
    assert not factored
    assert caps == {32, 64, 128}
    assert carried >= 30


def test_a_solve_that_raised_is_never_resumed(monkeypatch):
    # a solve that raises leaves the tableau part-way through; the LP is
    # marked, so the next solve raises too instead of resuming from it, even
    # once the cause is gone
    lp = LinearProgram([1.0, 1.0]).add_row({0: 1.0, 1: 1.0}, 1.0)
    with monkeypatch.context() as m:
        m.setattr(lp_module, "_CERT_TOL", -1.0)
        with pytest.raises(pv.SolverError, match="fresh factorization"):
            lp_solve(lp)
    assert lp_module._CERT_TOL == _CERT_TOL
    with pytest.raises(pv.SolverError, match="cannot be resumed"):
        lp_solve(lp)
    lp.add_row({0: 1.0}, 0.5)
    with pytest.raises(pv.SolverError, match="cannot be resumed"):
        lp_solve(lp)
    fresh = LinearProgram([1.0, 1.0]).add_row({0: 1.0, 1: 1.0}, 1.0).add_row({0: 1.0}, 0.5)
    assert lp_solve(fresh).value == pytest.approx(1.0, abs=1e-12)


def ray_test_sequences():
    """(objective, batches of dense rows) to re-solve after each batch: single
    rows of small integer LPs, then the batched sequences of the warm test."""
    rng = np.random.default_rng(7)
    for _ in range(150):
        objective, rows = random_lp(rng, n_max=6, rows_max=8)
        yield objective, [[row] for row in rows]
    rng = np.random.default_rng(5)
    for _ in range(20):
        objective, batches = batched_lp(rng)
        dense = []
        for batch in batches:
            dense.append([])
            for coeffs, rhs in batch:
                row = np.zeros(objective.size)
                row[list(coeffs)] = list(coeffs.values())
                dense[-1].append((row, rhs))
        yield objective, dense


def test_infeasible_verdicts_carry_an_exact_farkas_ray():
    # each infeasible verdict's ray, rebuilt exactly, is >= 0 like the duals
    # and has a positive zero-objective bound b.ray - sum_j max(0, (A^T ray)_j), which
    # no box point meeting every row allows.  Re-solving after each appended
    # row or batch gives verdicts on tableaux pivoted since their last
    # factorization, whose rows of B^-1 carry round-off of the wrong sign
    infeasible = feasible = pivoted = 0
    for objective, batches in ray_test_sequences():
        lp = LinearProgram(list(objective))
        rows = []
        for batch in batches:
            for coeffs, rhs in batch:
                lp.add_row(dict(enumerate(coeffs)), rhs)
                rows.append((coeffs, rhs))
            got = lp_solve(lp)
            if got.status == "infeasible":
                assert exact_dual_bound([0.0] * len(objective), rows, got.ray) > 0
                infeasible += 1
                pivoted += lp._since > 0
            else:
                assert got.ray is None
                feasible += 1
    assert infeasible >= 100
    assert feasible >= 100
    assert pivoted >= 100


def test_failed_farkas_ray_on_a_fresh_factorization_raises(monkeypatch):
    # x0 >= 2 leaves x0 above 1 after one pivot with no column to bring it
    # back; with no ray accepted, the pivoted tableau is factored once and
    # the fresh factorization's failure is an error, not a verdict
    monkeypatch.setattr(lp_module, "_farkas_ray", lambda *args: None)
    factored = []
    inv = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda a: factored.append(1) or inv(a))
    lp = LinearProgram([1.0]).add_row({0: 1.0}, 2.0)
    with pytest.raises(pv.SolverError, match="Farkas certificate on a fresh factorization"):
        lp_solve(lp)
    assert factored == [1]


def test_add_row_validation():
    lp = LinearProgram([1.0, 1.0])
    with pytest.raises(TypeError):  # every row is a >= row; there is no sense argument
        lp.add_row({0: 1.0}, 1.0, "<=")
    with pytest.raises(pv.InputError):
        lp.add_row({7: 1.0}, 1.0)
    with pytest.raises(pv.InputError):
        lp.add_row([(0, 1.0), (0, 2.0)], 1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_input_is_an_input_error(bad):
    # a NaN defeats every comparison the certificates make, and an infinity
    # turns the kernel's arithmetic into NaNs: both are refused on entry,
    # before a rejected row writes anything
    with pytest.raises(pv.InputError, match="non-finite cost"):
        LinearProgram([1.0, bad])
    lp = LinearProgram([1.0, 1.0])
    for coeffs, rhs in (
        ({0: bad, 1: 1.0}, 1.0),
        ({0: -1.0, 1: -bad}, -1.0),
        ({0: 1.0, 1: 1.0}, bad),
        ({0: -1.0, 1: -1.0}, -bad),
    ):
        with pytest.raises(pv.InputError, match="non-finite"):
            lp.add_row(coeffs, rhs)
    assert lp.rows == [] and not lp._K.any()
    assert lp_solve(lp.add_row({0: 1.0, 1: 1.0}, 1.0)).value == pytest.approx(1.0, abs=1e-12)


def test_solution_satisfies_rows_it_was_solved_with():
    rng = np.random.default_rng(7)
    for _ in range(25):
        objective, rows = random_lp(rng)
        lp = LinearProgram(list(objective))
        for coeffs, rhs in rows:
            lp.add_row(dict(enumerate(coeffs)), rhs)
        out = lp_solve(lp)
        if out.status != "optimal":
            continue
        x = np.array(out.x)
        for coeffs, rhs in rows:
            assert float(coeffs @ x) >= rhs - 1e-6


def audit(lp, xs):
    """_audit_rows on the row buffers and |rhs| sum lp_solve hands it."""
    K, b, _ = lp._arrays()
    _audit_rows(K[:, :lp.nvars], b, lp._rhs_abs, xs)


def _first_bad_row(rows, xs):
    """Row-by-row reference for the audit: the first violated row and its lhs."""
    tol = 10.0 * pv.EPS_FEAS * (1.0 + sum(abs(rhs) for _, rhs in rows))
    for i, (coeffs, rhs) in enumerate(rows):
        lhs = sum(a * xs[j] for j, a in enumerate(coeffs))
        if lhs < rhs - tol:
            return i, lhs
    return None


def test_audit_names_the_first_violated_row():
    # x0 + x1 >= 1 and x0 <= 0.5, the latter written -x0 >= -0.5
    lp = LinearProgram([1.0, 1.0]).add_row({0: 1.0, 1: 1.0}, 1.0).add_row({0: -1.0}, -0.5)
    audit(lp, np.array([0.5, 0.5]))  # both rows tight
    with pytest.raises(pv.SolverError, match=r"lhs=0\.75, rhs=1\.0\)"):
        audit(lp, np.array([0.5, 0.25]))
    with pytest.raises(pv.SolverError, match=r"lhs=-0\.75, rhs=-0\.5\)"):
        audit(lp, np.array([0.75, 0.5]))
    with pytest.raises(pv.SolverError, match=r"lhs=0\.75, rhs=1\.0\)"):
        audit(lp, np.array([0.75, 0.0]))  # both rows fail; the first is named


def test_audit_agrees_with_the_row_by_row_reference():
    rng = np.random.default_rng(11)
    flagged = 0
    for _ in range(300):
        objective, rows = random_lp(rng)
        lp = LinearProgram(list(objective))
        for coeffs, rhs in rows:
            lp.add_row(dict(enumerate(coeffs)), rhs)
        xs = rng.random(lp.nvars)
        want = _first_bad_row(rows, xs)
        if want is None:
            audit(lp, xs)
            continue
        flagged += 1
        i, lhs = want
        with pytest.raises(pv.SolverError) as err:
            audit(lp, xs)
        got = float(str(err.value).split("lhs=")[1].split(",")[0])
        assert got == pytest.approx(lhs, abs=1e-12)
        assert f"rhs={rows[i][1]!r})" in str(err.value)
    assert 20 <= flagged <= 280  # both verdicts are exercised
