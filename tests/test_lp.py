"""LP kernel against a brute-force vertex-enumeration oracle.

Variables live in [0, 1], so the feasible region is a polytope and the
optimum (when one exists) is attained at an intersection of n active
constraints drawn from the rows and the box bounds.  Enumerating all those
intersections is exponential but fine at four variables and six rows, and
it is a genuinely independent code path: no simplex, no pivoting.
"""

import itertools

import numpy as np
import pytest

import pvcover as pv
from pvcover.lp import GE, LE, LinearProgram, lp_solve

FEAS_TOL = 1e-7


def enumerate_optimum(objective, rows):
    """(status, value) by checking every candidate basic point.

    rows: list of (coeffs array, rhs, sense).
    """
    n = len(objective)
    planes = []
    for coeffs, rhs, sense in rows:
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
        ok = True
        for coeffs, rhs, sense in rows:
            lhs = float(coeffs @ x)
            if sense == GE and lhs < rhs - FEAS_TOL:
                ok = False
                break
            if sense == LE and lhs > rhs + FEAS_TOL:
                ok = False
                break
        if ok:
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
        sense = GE if rng.random() < 0.7 else LE
        rows.append((coeffs, rhs, sense))
    return objective, rows


def solve_both(objective, rows):
    lp = LinearProgram(list(objective))
    for coeffs, rhs, sense in rows:
        lp.add_row(dict(enumerate(coeffs)), rhs, sense)
    got = lp_solve(lp)
    want_status, want_value = enumerate_optimum(objective, rows)
    return got, want_status, want_value


def test_lp_solve_matches_enumeration_on_random_lps():
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
        else:
            infeasible += 1
    # the generator must actually exercise both outcomes
    assert feasible >= 30
    assert infeasible >= 10


def test_lp_solve_pinned_cases():
    # min x0 + x1 with x0 + x1 >= 1 on the unit box
    lp = LinearProgram([1.0, 1.0]).add_row({0: 1.0, 1: 1.0}, 1.0, GE)
    out = lp_solve(lp)
    assert out.status == "optimal"
    assert out.value == pytest.approx(1.0, abs=1e-9)

    # negative costs drive variables to the upper bound
    lp = LinearProgram([-2.0, 3.0]).add_row({0: 1.0, 1: 1.0}, 1.0, GE)
    out = lp_solve(lp)
    assert out.value == pytest.approx(-2.0, abs=1e-9)
    assert out.x[0] == pytest.approx(1.0, abs=1e-9)

    # x0 >= 2 cannot hold inside the box
    lp = LinearProgram([1.0]).add_row({0: 1.0}, 2.0, GE)
    assert lp_solve(lp).status == "infeasible"

    # equality pair selects the unique point (0.25 here)
    lp = LinearProgram([1.0])
    lp.add_row({0: 4.0}, 1.0, GE)
    lp.add_row({0: 4.0}, 1.0, LE)
    out = lp_solve(lp)
    assert out.x[0] == pytest.approx(0.25, abs=1e-9)

    # with no rows every negative-cost variable sits at its upper bound
    out = lp_solve(LinearProgram([1.0, -2.0, 0.0, -0.5]))
    assert out.status == "optimal"
    assert out.x == (0.0, 1.0, 0.0, 1.0)
    assert out.value == pytest.approx(-2.5, abs=1e-9)


def test_lp_objective_constant_shift_free():
    # zero objective reports value 0 on any feasible system
    lp = LinearProgram([0.0, 0.0]).add_row({0: 1.0, 1: 2.0}, 1.0, GE)
    out = lp_solve(lp)
    assert out.status == "optimal"
    assert out.value == pytest.approx(0.0, abs=1e-12)


def test_lp_ladder_values():
    # the longest pivot sequences in the suite: a 40/80/8 natural LP and the
    # cutting-plane masters of its strengthened relaxation
    inst = pv.generate_random(40, 80, 8, 1, pv.GeneratorConfig(weight_range=(1, 3)))
    assert pv.solve_natural_lp(inst).objective == pytest.approx(39.125, abs=1e-6)
    assert pv.solve_relaxation(inst).objective == pytest.approx(40.0, abs=1e-6)


def test_add_row_validation():
    lp = LinearProgram([1.0, 1.0])
    with pytest.raises(pv.InputError):
        lp.add_row({0: 1.0}, 1.0, "==")
    with pytest.raises(pv.InputError):
        lp.add_row({7: 1.0}, 1.0, GE)
    with pytest.raises(pv.InputError):
        lp.add_row([(0, 1.0), (0, 2.0)], 1.0, GE)


def test_solution_satisfies_rows_it_was_solved_with():
    rng = np.random.default_rng(7)
    for _ in range(25):
        objective, rows = random_lp(rng)
        lp = LinearProgram(list(objective))
        for coeffs, rhs, sense in rows:
            lp.add_row(dict(enumerate(coeffs)), rhs, sense)
        out = lp_solve(lp)
        if out.status != "optimal":
            continue
        x = np.array(out.x)
        for coeffs, rhs, sense in rows:
            lhs = float(np.asarray(coeffs) @ x)
            if sense == GE:
                assert lhs >= rhs - 1e-6
            else:
                assert lhs <= rhs + 1e-6
