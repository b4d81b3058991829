"""Cover rows, separation, capped-coverage rows, and the cutting-plane solver.

The oracle style throughout: every structured row the solver builds in one
fused pass is re-derived here from the small reference loops below (residual,
wdeg, plain loops over edges), and solver outputs are checked against the
exact branch-and-bound optimum and the natural relaxation.
"""

import dataclasses
import itertools
import math
import re

import numpy as np
import pytest

import pvcover as pv
import pvcover.relaxation as relaxation
from conftest import random_instances
from pvcover.constants import EPS_FEAS, ROUNDING_THRESHOLD


# ---------------------------------------------------------------- primitives


def residual(inst: pv.Instance, group: int, suppressed) -> int:
    """Demand of the group left uncovered once the suppressed set is picked."""
    g = inst.groups[group]
    picked = set(suppressed)
    covered = 0
    for eid in g.edges:
        e = inst.edges[eid]
        if e.u in picked or e.v in picked:
            covered += e.weight
    return max(0, g.target - covered)


def wdeg(inst: pv.Instance, group: int, v: int, suppressed) -> int:
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


# Per-edge reference builders: each row family re-derived by walking
# inst.edges through a predicate on the Edge, apart from the member table the
# builders read; the builders must return equal dataclasses.


def ref_cover_row(inst, group, covered, truncate=True):
    g = inst.groups[group]
    left = g.target
    kept = []
    acc = {}
    for eid in g.edges:
        e = inst.edges[eid]
        if covered(e):
            left -= e.weight
        else:
            kept.append(eid)
            acc[e.u] = acc.get(e.u, 0) + e.weight
            acc[e.v] = acc.get(e.v, 0) + e.weight
    return left, kept, tuple((v, min(left, w) if truncate else w) for v, w in sorted(acc.items()))


def ref_build_kc_constraint(inst, group, suppressed):
    picked = frozenset(suppressed)
    left, _, coefficients = ref_cover_row(inst, group, lambda e: e.u in picked or e.v in picked)
    if left <= 0:
        return None
    return relaxation.KnapsackCoverConstraint(group, tuple(sorted(picked)), coefficients, left)


def ref_capped_coverage_cut(inst, group, x, tol=EPS_FEAS, truncate=True):
    left, kept, coefficients = ref_cover_row(
        inst, group, lambda e: x[e.u] + x[e.v] >= 1.0 - tol, truncate
    )
    supply = 0.0
    for eid in kept:
        e = inst.edges[eid]
        supply += e.weight * (x[e.u] + x[e.v])
    if left <= 0 or supply >= left - tol:
        return None
    return relaxation.CappedCoverageCut(group, tuple(kept), coefficients, left)


def ref_threshold_rows(inst, x):
    picked = tuple(v for v, xv in enumerate(x) if xv >= ROUNDING_THRESHOLD - EPS_FEAS)
    rows = (ref_build_kc_constraint(inst, gi, picked) for gi in range(inst.r))
    return [row for row in rows if row is not None]


def ref_separate(inst, x, tol=EPS_FEAS):
    for row in ref_threshold_rows(inst, x):
        if not row.satisfied_by(x, tol):
            return row
    return None


def test_residual_hand_values(star5, path3):
    assert residual(star5, 0, ()) == 1
    assert residual(star5, 0, (3,)) == 0  # one leaf already covers target 1
    assert residual(path3, 0, ()) == 2
    assert residual(path3, 0, (1,)) == 0  # middle vertex covers both edges
    assert residual(path3, 0, (0,)) == 1


def test_wdeg_hand_values(star5):
    assert wdeg(star5, 0, 0, ()) == 5
    assert wdeg(star5, 0, 0, (1, 2)) == 3
    assert wdeg(star5, 0, 3, ()) == 1
    with pytest.raises(ValueError):
        wdeg(star5, 0, 2, (2,))


def test_build_kc_constraint_star_and_path(star5, path3):
    row = pv.build_kc_constraint(star5, 0, ())
    assert row.rhs == 1
    assert dict(row.coefficients) == {v: 1 for v in range(6)}

    row = pv.build_kc_constraint(path3, 0, ())
    assert row.rhs == 2
    assert dict(row.coefficients) == {0: 1, 1: 2, 2: 1}

    # a suppressed set that meets the target makes the row vacuous
    assert pv.build_kc_constraint(star5, 0, (4,)) is None
    assert pv.build_kc_constraint(path3, 0, (1,)) is None


def test_build_kc_constraint_rejects_ids_outside_the_vertices(star5):
    """The walk reads an indicator list, where -1 would stand for vertex n - 1."""
    for bad in (-1, star5.n):
        with pytest.raises(pv.InputError, match="suppressed vertex ids"):
            pv.build_kc_constraint(star5, 0, (1, bad))


def test_build_kc_constraint_matches_primitive_recomputation():
    """The fused builder against residual()/wdeg() called one vertex at a time."""
    rng = np.random.default_rng(42)
    for inst in random_instances(10, n=8, m=12, r=3, weight_max=4):
        for gi in range(inst.r):
            picked = tuple(v for v in range(inst.n) if rng.random() < 0.3)
            row = pv.build_kc_constraint(inst, gi, picked)
            left = residual(inst, gi, picked)
            if left == 0:
                assert row is None
                continue
            want = {}
            for v in range(inst.n):
                if v in picked:
                    continue
                d = wdeg(inst, gi, v, picked)
                if d > 0:
                    want[v] = min(left, d)
            assert row.rhs == left
            assert dict(row.coefficients) == want
            assert row.suppressed == tuple(sorted(picked))


def test_truncation_agrees_with_untruncated_at_integral_points():
    rng = np.random.default_rng(3)
    for inst in random_instances(8, n=7, m=10, r=2, weight_max=3):
        for _ in range(6):
            picked = tuple(v for v in range(inst.n) if rng.random() < 0.25)
            row = pv.build_kc_constraint(inst, 0, picked)
            if row is None:
                continue
            x01 = [1.0 if rng.random() < 0.5 else 0.0 for _ in range(inst.n)]
            untrunc = sum(
                wdeg(inst, 0, v, picked) * x01[v]
                for v in range(inst.n)
                if v not in picked
            )
            assert row.satisfied_by(x01, tol=1e-9) == (untrunc >= row.rhs - 1e-9)


@pytest.mark.parametrize("degree", [7, 12, 20])
def test_truncation_cuts_the_star_gap_point(degree):
    """x_center = 1/D satisfies the untruncated demand row but not the
    truncated one, which is the whole reason the rows are truncated."""
    star = pv.generate_star(degree)
    x = [1.0 / degree] + [0.0] * degree
    untrunc = sum(wdeg(star, 0, v, ()) * x[v] for v in range(star.n))
    assert untrunc >= 1.0 - 1e-9
    row = pv.build_kc_constraint(star, 0, ())
    assert not row.satisfied_by(x)


# ---------------------------------------------------------------- separation


def test_threshold_set_boundary():
    x = [0.0, 1 / 6, 1 / 6 - 1e-9, 0.99, 0.1]
    assert pv.threshold_set(x) == (1, 2, 3)


def test_separate_star_scaled_points(star5):
    # center at 1/5 crosses the threshold, its residual vanishes: clean
    x = [0.2, 0.0, 0.0, 0.0, 0.0, 0.0]
    out = pv.separate(star5, x)
    assert out is None
    # the same point scaled below the threshold leaves the no-suppression
    # row exposed and violated
    x = [0.1, 0.0, 0.0, 0.0, 0.0, 0.0]
    out = pv.separate(star5, x)
    assert out is not None
    assert out.suppressed == ()
    assert out.group == 0
    assert not pv.build_kc_constraint(star5, 0, ()).satisfied_by(x)


def test_separate_zero_and_one_points(path3):
    out = pv.separate(path3, [0.0, 0.0, 0.0])
    assert out is not None
    assert out.suppressed == ()
    assert pv.separate(path3, [1.0, 1.0, 1.0]) is None


def test_separate_returns_lowest_violated_group():
    inst = pv.parse_instance(
        "p pvc 4 2 2\nv 0 1\nv 1 1\nv 2 1\nv 3 1\n"
        "e 0 0 1 1\ne 1 2 3 1\ng 0 0\ng 1 1\nk 0 1\nk 1 1\n"
    )
    out = pv.separate(inst, [0.0, 0.0, 0.0, 0.0])
    assert out is not None
    assert out.group == 0


def test_separate_agrees_with_bruteforce_on_its_threshold_set():
    """separate() checks exactly the threshold suppressed set; a brute-force
    evaluation over all suppressed sets confirms the verdict for that set."""
    rng = np.random.default_rng(11)
    for inst in random_instances(6, n=7, m=10, r=2):
        x = rng.random(inst.n) * 0.4
        picked = pv.threshold_set(x)
        out = pv.separate(inst, x)
        violated = None
        for gi in range(inst.r):
            row = pv.build_kc_constraint(inst, gi, picked)
            if row is not None and row.lhs_at(x) < row.rhs - 1e-7:
                violated = gi
                break
        if violated is None:
            assert out is None
        else:
            assert out is not None
            assert out.group == violated


# ------------------------------------------------------- capped-coverage rows


def test_capped_coverage_cut_detects_exactly_the_capped_shortfall():
    rng = np.random.default_rng(5)
    for inst in random_instances(10, n=8, m=12, r=3, weight_max=4):
        x = rng.random(inst.n)
        for gi in range(inst.r):
            g = inst.groups[gi]
            supply = sum(
                inst.edges[eid].weight
                * min(1.0, x[inst.edges[eid].u] + x[inst.edges[eid].v])
                for eid in g.edges
            )
            cut = pv.capped_coverage_cut(inst, gi, x)
            if supply >= g.target - 1e-7:
                assert cut is None
            else:
                assert cut is not None
                assert cut.lhs_at(x) < cut.rhs - 1e-7


def test_capped_coverage_cut_valid_at_every_feasible_subset():
    rng = np.random.default_rng(17)
    for inst in random_instances(6, n=7, m=11, r=2, weight_max=3):
        cuts = []
        for _ in range(5):
            x = rng.random(inst.n) * rng.choice([0.3, 1.0])
            for gi in range(inst.r):
                cut = pv.capped_coverage_cut(inst, gi, x)
                if cut is not None:
                    cuts.append(cut)
        for mask in range(1 << inst.n):
            chosen = [v for v in range(inst.n) if mask >> v & 1]
            if not pv.is_feasible(inst, chosen):
                continue
            point = [1.0 if v in chosen else 0.0 for v in range(inst.n)]
            for cut in cuts:
                assert cut.satisfied_by(point, tol=1e-9)


def test_capped_coverage_cut_vacuous_when_everything_capped(path3):
    assert pv.capped_coverage_cut(path3, 0, [1.0, 0.0, 1.0]) is None


TWO_EDGES_TEXT = """\
p pvc 4 2 1
v 0 1
v 1 1
v 2 1
v 3 1
e 0 0 1 2
e 1 2 3 2
g 0 0 1
k 0 4
"""


@pytest.mark.parametrize("truncate", [True, False])
def test_capped_coverage_cut_split_ignores_a_one_ulp_wobble(truncate):
    # edge 0's endpoints sum to exactly 1 at one point and one ulp below 1 at
    # the other; the split must cap the edge at both and pick the same row
    inst = pv.parse_instance(TWO_EDGES_TEXT)
    exact = [0.5, 0.5, 0.1, 0.1]
    wobbled = [0.5, 0.5 - 2.0**-53, 0.1, 0.1]
    assert wobbled[0] + wobbled[1] == np.nextafter(1.0, 0.0)
    want = pv.capped_coverage_cut(inst, 0, exact, truncate=truncate)
    got = pv.capped_coverage_cut(inst, 0, wobbled, truncate=truncate)
    assert want is not None and want.kept == (1,) and want.rhs == 2
    assert got == want


TWO_GROUPS_TEXT = """\
p pvc 4 2 2
v 0 1
v 1 1
v 2 1
v 3 1
e 0 0 1 4
e 1 2 3 1
g 0 0
g 1 1
k 0 4
k 1 1
"""


@pytest.mark.parametrize(
    "x0, want",
    [
        # group 0 falls short by 1.6 of 4, group 1 by 0.5 of 1: the relatively
        # deeper row wins over the first violated and the absolutely deeper one
        (0.6, 1),
        # both fall short by half their demand: the lower index wins
        (0.5, 0),
    ],
)
def test_strengthened_appends_the_deepest_capped_row(x0, want):
    inst = pv.parse_instance(TWO_GROUPS_TEXT)
    x = [x0, 0.0, 0.5, 0.0]
    # every threshold cover row is vacuous, so the capped step decides
    assert pv.separate(inst, x) is None
    assert all(pv.capped_coverage_cut(inst, gi, x) is not None for gi in range(inst.r))
    rows = relaxation._strengthened(inst)(x, EPS_FEAS)
    assert rows == [pv.capped_coverage_cut(inst, want, x)]


def test_row_sums_keep_their_summation_order():
    # star leaves summing to one ulp below 1 - EPS_FEAS in leaf order: the
    # four tiny leaves vanish one at a time into the large partial sum, but
    # added together first, as in the reverse order, they reach the bound
    star = pv.generate_star(11)
    bound = 1.0 - EPS_FEAS
    x = [0.0] + [0.14285712] * 6
    x.append(math.nextafter(bound, 0.0) - sum(x))
    x += [0.4 * math.ulp(bound)] * 4
    leaves = x[1:]
    assert sum(leaves) < bound <= sum(reversed(leaves))
    assert pv.threshold_set(x) == ()
    # the cover row's lhs is summed in vertex order
    row = pv.separate(star, x)
    assert row is not None and row.suppressed == ()
    # the capped supply is summed in membership order (edge i is leaf i + 1)
    cut = pv.capped_coverage_cut(star, 0, x)
    assert cut is not None and cut.kept == tuple(range(11))


# --------------------------------------------- builders against the reference


def _assert_rows_match_reference(inst, x, suppressed_sets=()):
    """Every row builder at x equals its per-edge reference, dataclass for dataclass."""
    assert pv.separate(inst, x) == ref_separate(inst, x)
    assert pv.separate(inst, x, 10 * EPS_FEAS) == ref_separate(inst, x, 10 * EPS_FEAS)
    assert list(relaxation.threshold_rows(inst, x)) == ref_threshold_rows(inst, x)
    for gi in range(inst.r):
        for truncate in (True, False):
            got = pv.capped_coverage_cut(inst, gi, x, truncate=truncate)
            assert got == ref_capped_coverage_cut(inst, gi, x, truncate=truncate)
        for picked in (pv.threshold_set(x), *suppressed_sets):
            assert pv.build_kc_constraint(inst, gi, picked) == ref_build_kc_constraint(
                inst, gi, picked
            )


def _boundary_points(inst, rng):
    """Points on both sides of the two splits the builders make.

    Entries sit exactly at the rounding threshold less its slack and one ulp
    below it; an edge's endpoint sum is exactly 1 - EPS_FEAS, where the
    capped split lies, or one ulp to either side of it.
    """
    at = ROUNDING_THRESHOLD - EPS_FEAS
    below = math.nextafter(at, 0.0)
    for edge in rng.choice(inst.m, size=min(inst.m, 4), replace=False):
        e = inst.edges[edge]
        split = 1.0 - EPS_FEAS
        for total in (math.nextafter(split, 0.0), split, math.nextafter(split, 2.0)):
            x = (rng.random(inst.n) * 0.3).tolist()
            x[rng.integers(inst.n)] = at
            x[rng.integers(inst.n)] = below
            x[e.u], x[e.v] = 0.5, total - 0.5
            assert x[e.u] + x[e.v] == total
            yield x


def _lp_points(inst, monkeypatch):
    """Every master LP point both relaxations' cutting-plane loops visit."""
    points = []
    solve = relaxation.lp_solve

    def recording(lp):
        out = solve(lp)
        points.append(out.x)
        return out

    with monkeypatch.context() as m:
        m.setattr(relaxation, "lp_solve", recording)
        pv.solve_relaxation(inst)
        pv.solve_natural_lp(inst)
    return points


def test_row_builders_match_the_per_edge_reference(monkeypatch):
    """Random instances with overlapping groups and parallel edges, at random
    points, points on both splits and the LP points of both relaxations."""
    rng = np.random.default_rng(23)
    insts = random_instances(8, n=6, m=18, r=3, weight_max=4, overlap=0.3)
    parallel = shared = rows = 0
    for inst in insts:
        ends = [(e.u, e.v) for e in inst.edges]
        parallel += len(set(ends)) < len(ends)
        shared += sum(len(g.edges) for g in inst.groups) > inst.m
        points = [rng.random(inst.n).tolist() for _ in range(6)]
        points += [(rng.random(inst.n) * rng.choice([0.2, 0.5])).tolist() for _ in range(6)]
        points += list(_boundary_points(inst, rng))
        points += _lp_points(inst, monkeypatch)
        for x in points:
            suppressed = [
                tuple(v for v in range(inst.n) if rng.random() < 0.3) for _ in range(2)
            ]
            _assert_rows_match_reference(inst, x, suppressed)
            rows += pv.separate(inst, x) is not None
    assert parallel == len(insts) and shared
    assert rows  # some points are cut, so whole rows are compared


def edge_sum_separate(inst, x, tol=EPS_FEAS):
    """separate summed straight from inst.edges: per group, in order, the
    demand the threshold set leaves and each outside vertex's weight at the
    untouched members, capped at that demand; the first group whose lhs at x
    falls below demand - tol gives the row."""
    picked = tuple(v for v, xv in enumerate(x) if xv >= ROUNDING_THRESHOLD - EPS_FEAS)
    inside = set(picked)
    for gi, g in enumerate(inst.groups):
        left = g.target
        deg = {}
        for eid in g.edges:
            e = inst.edges[eid]
            if e.u in inside or e.v in inside:
                left -= e.weight
            else:
                deg[e.u] = deg.get(e.u, 0) + e.weight
                deg[e.v] = deg.get(e.v, 0) + e.weight
        if left <= 0:
            continue
        coefficients = tuple((v, min(left, d)) for v, d in sorted(deg.items()))
        if sum(a * x[v] for v, a in coefficients) < left - tol:
            return relaxation.KnapsackCoverConstraint(gi, picked, coefficients, left)
    return None


def closure_capped_supply(inst, group, x, tol):
    """The capped split as a member walk with a per-member closure, then a
    second pass that sums the kept members' supply."""
    split = 1.0 - tol
    capped = lambda u, v: x[u] + x[v] >= split
    left = inst.groups[group].target
    kept = []
    for member in inst.incidence.group_members[group]:
        _, u, v, w = member
        if not capped(u, v):
            kept.append(member)
        else:
            left -= w
            if left <= 0:
                return None
    if left <= 0:
        return None
    supply = 0.0
    for _, u, v, w in kept:
        supply += w * (x[u] + x[v])
    return left, kept, supply


def _tie_points(inst, rng, tol):
    """Points with an edge's endpoint sum exactly 1 - tol or 1 + tol (or an
    ulp off) and vertices exactly at the rounding threshold, at the
    threshold less its slack, and an ulp below that."""
    at = ROUNDING_THRESHOLD - EPS_FEAS
    for total in (1.0 - tol, math.nextafter(1.0 - tol, 0.0), 1.0 + tol, 1.0):
        for scale in (0.2, 0.6):
            x = (rng.random(inst.n) * scale).tolist()
            for v, xv in zip(rng.choice(inst.n, size=3, replace=False),
                             (ROUNDING_THRESHOLD, at, math.nextafter(at, 0.0))):
                x[v] = xv
            e = inst.edges[int(rng.integers(inst.m))]
            x[e.u], x[e.v] = 0.5, total - 0.5
            assert x[e.u] + x[e.v] == total
            yield x


def test_one_pass_walks_match_the_row_building_walks(monkeypatch):
    """separate against a reference summed from the edges, and the capped
    _split against a walk through a closure: the same row, or None, and the
    same demand left, kept members and supply, float for float, at random
    points, on both ties and at the LP points of both relaxations."""
    rng = np.random.default_rng(31)
    insts = random_instances(6, n=9, m=16, r=3, weight_max=3)
    insts += random_instances(6, n=8, m=14, r=3, weight_max=4, overlap=0.3)
    rows = none = capped = ties = 0
    for inst in insts:
        points = [(rng.random(inst.n) * rng.choice([0.2, 0.5, 1.0])).tolist() for _ in range(8)]
        points += _lp_points(inst, monkeypatch)
        for tol in (EPS_FEAS, 10 * EPS_FEAS):
            for x in points + list(_tie_points(inst, rng, tol)):
                got = pv.separate(inst, x, tol)
                assert got == edge_sum_separate(inst, x, tol)
                rows += got is not None
                none += got is None
                for gi in range(inst.r):
                    walk = relaxation._split(inst, gi, x, 1 - tol)
                    assert walk == closure_capped_supply(inst, gi, x, tol)
                    capped += walk is not None
        below = [(rng.random(inst.n) * ROUNDING_THRESHOLD * 0.99).tolist() for _ in range(8)]
        for x in points + below:
            # a tolerance that puts a row's lhs exactly at rhs - tol, which
            # satisfies the row; rhs - lhs is exact within a factor of 2
            for row in relaxation.threshold_rows(inst, x):
                lhs = row.lhs_at(x)
                if row.rhs / 2 <= lhs < row.rhs:
                    tol = row.rhs - lhs
                    assert row.rhs - tol == lhs
                    assert pv.separate(inst, x, tol) == edge_sum_separate(inst, x, tol)
                    ties += 1
    assert rows >= 50 and none >= 50 and capped >= 200 and ties >= 20


def test_row_builders_keep_exact_python_ints_near_2_61():
    """Weights near 2**61, each group's total below 2**63: coefficients and
    rhs stay exact Python ints and equal the reference.  Group 2 has target
    0, so no point leaves it a row."""
    big = 2**61
    text = (
        "p pvc 5 6 3\n"
        + "".join(f"v {v} 1\n" for v in range(5))
        + f"e 0 0 1 {big - 1}\ne 1 1 2 {big - 3}\ne 2 2 3 {big - 5}\n"
        + f"e 3 3 4 {big - 7}\ne 4 0 4 {big + 9}\ne 5 1 2 11\n"
        + "g 0 0 1 2 5\ng 1 2 3 4\ng 2 5\n"
        + f"k 0 {3 * big - 20}\nk 1 {2 * big + 1}\nk 2 0\n"
    )
    inst = pv.parse_instance(text)
    assert all(sum(inst.edges[eid].weight for eid in g.edges) < 2**63 for g in inst.groups)
    rng = np.random.default_rng(3)
    points = [rng.random(inst.n).tolist() for _ in range(30)] + [[0.0] * inst.n]
    built = []
    for x in points:
        _assert_rows_match_reference(inst, x, [(1,), (0, 4), (2, 3)])
        built += list(relaxation.threshold_rows(inst, x))
        built += [pv.build_kc_constraint(inst, gi, (1,)) for gi in range(inst.r)]
        built += [
            pv.capped_coverage_cut(inst, gi, x, truncate=t) for gi in range(inst.r)
            for t in (True, False)
        ]
    built = [row for row in built if row is not None]
    assert any(isinstance(row, relaxation.CappedCoverageCut) for row in built)
    assert any(row.rhs > 2**62 for row in built)
    for row in built:
        assert type(row.rhs) is int
        assert all(type(v) is int and type(a) is int for v, a in row.coefficients)


# ------------------------------------------------------------------- solving


def test_solve_relaxation_star_value_one(star5):
    frac = pv.solve_relaxation(star5)
    assert frac.objective == pytest.approx(1.0, abs=1e-6)
    assert pv.separate(star5, frac.x) is None


def test_solve_relaxation_lopsided_edge(lopsided_edge):
    frac = pv.solve_relaxation(lopsided_edge)
    assert frac.objective == pytest.approx(3.0, abs=1e-6)
    assert frac.x[0] == pytest.approx(1.0, abs=1e-6)
    delta = pv.solve_relaxation(lopsided_edge, mode="delta")
    assert delta.cost_cap == 3
    assert delta.objective == pytest.approx(3.0, abs=1e-6)


def test_solve_relaxation_rejects_unknown_mode(star5):
    with pytest.raises(pv.InputError):
        pv.solve_relaxation(star5, mode="both")


def test_direct_trace_is_monotone_and_certificate_reverifies():
    for inst in random_instances(10, n=9, m=14, r=3, weight_max=3):
        frac = pv.solve_relaxation(inst)
        trace = frac.objectives
        assert trace, "direct mode must record its objective trace"
        assert all(b >= a - 1e-6 for a, b in zip(trace, trace[1:]))
        assert frac.objective == pytest.approx(trace[-1])
        for row in frac.certificate:
            lhs = sum(coef * frac.x[v] for v, coef in row.coefficients)
            assert lhs >= row.rhs - 1e-6
            # certificate rows rebuild bit-for-bit from their (group, set) key
            again = pv.build_kc_constraint(inst, row.group, row.suppressed)
            assert again == row


def test_returned_point_is_clean_and_meets_capped_demands():
    for mode in ("direct", "delta"):
        for inst in random_instances(6, n=8, m=12, r=3):
            frac = pv.solve_relaxation(inst, mode=mode)
            assert pv.separate(inst, frac.x) is None
            for gi in range(inst.r):
                assert pv.capped_coverage_cut(inst, gi, frac.x, tol=1e-5) is None
            assert all(-1e-9 <= xv <= 1 + 1e-9 for xv in frac.x)


def _sandwich_family(instances):
    for inst in instances:
        low = pv.solve_natural_lp(inst).objective
        mid = pv.solve_relaxation(inst).objective
        high = pv.exact_solve(inst).cost
        assert low <= mid + 1e-6, f"natural {low} above strengthened {mid}"
        assert mid <= high + 1e-6, f"strengthened {mid} above optimum {high}"


def test_value_sandwich_unweighted():
    _sandwich_family(random_instances(20, n=8, m=12, r=3))


def test_value_sandwich_weighted():
    _sandwich_family(random_instances(10, n=8, m=12, r=3, weight_max=5))


def test_value_sandwich_overlapping_groups():
    _sandwich_family(random_instances(10, n=8, m=12, r=3, overlap=0.35))


def test_modes_agree_within_one_unit():
    """Delta mode reports the direct optimum and its smallest integer budget.

    No point of the master costs less than the direct optimum, so every
    budget below its ceiling is infeasible, and the direct point is clean,
    so it witnesses that ceiling.  The pinned overlapping case has direct
    value 3 against an exact optimum of 4: its budget must be 3.
    """
    cfg = pv.GeneratorConfig(weight_range=(1, 3))
    pinned = pv.with_overlapping_groups(pv.generate_random(11, 17, 2, 33, cfg), 0.2, 33)
    for inst in random_instances(15, n=10, m=14, r=3) + [pinned]:
        direct = pv.solve_relaxation(inst, mode="direct")
        delta = pv.solve_relaxation(inst, mode="delta")
        exact = pv.exact_solve(inst).cost
        assert (delta.x, delta.objective) == (direct.x, direct.objective)
        assert delta.cost_cap == max(0, math.ceil(direct.objective - 1e-7))
        assert delta.cost_cap <= exact
        assert pv.separate(inst, delta.x) is None
    assert direct.objective == pytest.approx(3.0, abs=1e-9)
    assert (delta.cost_cap, exact) == (3, 4)


def test_delta_cost_cap_is_minimal_for_its_row_family():
    """The reported budget covers the returned point's spend, and one unit
    less does not: the returned point is the master optimum, so no point of
    the full row family fits under cost_cap - 1."""
    for inst in random_instances(5, n=8, m=12, r=2):
        delta = pv.solve_relaxation(inst, mode="delta")
        if delta.cost_cap == 0:
            continue
        spend = sum(c * xv for c, xv in zip(inst.costs, delta.x))
        assert spend <= delta.cost_cap + 1e-6
        assert spend > delta.cost_cap - 1 + 1e-9
        assert spend == pytest.approx(delta.objective, abs=1e-6)


def test_cut_log_records_generated_rows():
    log: list[str] = []
    inst = random_instances(1, n=9, m=14, r=3, seed0=4)[0]
    frac = pv.solve_relaxation(inst, cut_log=log)
    assert len(frac.objectives) == len(log) + 1  # one LP solve per appended cut
    pattern = re.compile(
        r"^group=\d+ (suppressed|kept)=\d+ rhs=\d+ lhs=[-0-9.e+]+$"
    )
    for line in log:
        assert pattern.match(line), line


def test_cut_limit_error(monkeypatch):
    monkeypatch.setattr(relaxation, "CUTS_PER_GROUP", 0)
    tripped = 0
    for inst in random_instances(10, n=8, m=12, r=3):
        try:
            pv.solve_relaxation(inst)
        except pv.CutLimitExceeded:
            tripped += 1
    assert tripped > 0  # at least one instance in the family needs a lazy cut


@pytest.mark.parametrize("kind", ["cover", "capped"])
def test_duplicate_cut_stalls_only_while_it_stays_violated(star5, kind):
    """A violated row the master already holds appends nothing: the loop
    returns when the row passes at 10 * EPS_FEAS and raises when it does not.

    The duplicate is rebuilt, not the table's own object, so the table must
    recognise equal rows of either class."""
    zero = [0.0] * star5.n
    if kind == "cover":
        pool = dict.fromkeys(relaxation.threshold_rows(star5, zero))
        again = pv.build_kc_constraint(star5, 0, ())
    else:
        pool = dict.fromkeys([pv.capped_coverage_cut(star5, 0, zero, truncate=False)])
        again = pv.capped_coverage_cut(star5, 0, zero, truncate=False)
    assert list(pool) == [again]
    start = list(pool)

    def shortfall_of(depth):
        # the row reads short by depth at every point, whatever the master says
        return lambda x, tol: [again] if depth > tol else []

    log: list[str] = []
    x, value, trace = relaxation._cut_loop(star5, pool, log, shortfall_of(5 * EPS_FEAS))
    assert list(pool) == start and log == [] and len(trace) == 1
    assert value == pytest.approx(1.0 / 5 if kind == "capped" else 1.0, abs=1e-9)
    with pytest.raises(pv.SolverError, match="stalled on a duplicate cut"):
        relaxation._cut_loop(star5, pool, log, shortfall_of(20 * EPS_FEAS))
    assert list(pool) == start and log == []


def test_certificate_holds_the_cover_rows_only():
    """Capped rows steer the strengthened loop but never enter the certificate:
    it is the r starting rows plus one row per appended cover cut, which is
    what solve's cuts: line reports."""
    cfg = pv.GeneratorConfig(weight_range=(1, 3))
    with_capped = 0
    for seed in range(50, 60):
        inst = pv.generate_random(14, 22, 4, seed, cfg)
        log: list[str] = []
        cert = pv.solve_relaxation(inst, cut_log=log).certificate
        assert all(isinstance(row, pv.KnapsackCoverConstraint) for row in cert), seed
        assert len(set(cert)) == len(cert), seed
        cover_cuts = sum(" suppressed=" in line for line in log)
        assert len(cert) - inst.r == cover_cuts, seed
        with_capped += any(" kept=" in line for line in log)
    assert with_capped >= 5  # the capped step runs on most of the family


def test_scaling_costs_scales_the_value():
    inst = random_instances(1, n=8, m=12, r=3, seed0=6)[0]
    scaled = pv.Instance(
        costs=tuple(7 * c for c in inst.costs), edges=inst.edges, groups=inst.groups
    )
    a = pv.solve_relaxation(inst).objective
    b = pv.solve_relaxation(scaled).objective
    assert b == pytest.approx(7 * a, rel=1e-9)


def test_large_costs_keep_the_sandwich_and_a_clean_point():
    """Costs times 10^6: the kernel's tolerances must not be absolute in c."""
    cfg = pv.GeneratorConfig(weight_range=(1, 3))
    for seed in range(30):
        inst = pv.generate_random(14, 22, 4, seed, cfg)
        inst = dataclasses.replace(inst, costs=tuple(c * 10**6 for c in inst.costs))
        natural = pv.solve_natural_lp(inst).objective
        direct = pv.solve_relaxation(inst)
        delta = pv.solve_relaxation(inst, mode="delta")
        exact = pv.exact_solve(inst).cost
        assert natural <= direct.objective * (1 + 1e-9), seed
        assert direct.objective <= exact * (1 + 1e-9), seed
        assert pv.separate(inst, direct.x) is None, seed
        for gi in range(inst.r):
            assert pv.capped_coverage_cut(inst, gi, direct.x, tol=1e-5) is None, seed
        assert delta.cost_cap <= exact, seed


# ---------------------------------------------------------- natural relaxation


def test_natural_lp_star_values():
    for degree in (2, 5, 20, 1000):
        star = pv.generate_star(degree)
        assert pv.solve_natural_lp(star).objective == pytest.approx(
            1.0 / degree, abs=1e-6
        )


def _edge_variable_natural_lp(inst):
    """Reference: the natural relaxation with one variable z_e per edge,
    x_u + x_v >= z_e per edge and sum of w_e * z_e >= target per group,
    everything boxed in [0, 1]."""
    n = inst.n
    lp = pv.LinearProgram(list(inst.costs) + [0.0] * inst.m)
    for eid, e in enumerate(inst.edges):
        lp.add_row({e.u: 1.0, e.v: 1.0, n + eid: -1.0}, 0.0)
    for g in inst.groups:
        lp.add_row({n + eid: float(inst.edges[eid].weight) for eid in g.edges},
                   float(g.target))
    out = pv.lp_solve(lp)
    assert out.status == "optimal"
    return out.value


def test_natural_lp_matches_edge_variable_formulation():
    """The vertex projection solved by the cut loop against the edge LP."""
    cfg = pv.GeneratorConfig(weight_range=(1, 3))
    family = []
    for s in range(30):
        inst = pv.generate_random(16, 24, 4, seed=s, config=cfg)
        family.append(pv.with_overlapping_groups(inst, 0.2, s) if s % 2 else inst)
    family += [pv.generate_star(d) for d in (2, 5, 20, 100)]
    for inst in family:
        frac = pv.solve_natural_lp(inst)
        assert len(frac.x) == inst.n
        assert frac.objective == pytest.approx(_edge_variable_natural_lp(inst), abs=1e-9)


def test_natural_lp_single_edge(lopsided_edge):
    assert pv.solve_natural_lp(lopsided_edge).objective == pytest.approx(3.0, abs=1e-6)


def test_natural_lp_uses_edge_weights(path3):
    heavy = pv.parse_instance(
        "p pvc 3 2 1\nv 0 1\nv 1 1\nv 2 1\n"
        "e 0 0 1 4\ne 1 1 2 1\ng 0 0 1\nk 0 4\n"
    )
    # middle vertex at 4/5 feeds both edges: 4*(4/5) + 4/5 meets the target
    assert pv.solve_natural_lp(heavy).objective == pytest.approx(0.8, abs=1e-6)
    # the unweighted path just takes the middle vertex outright
    assert pv.solve_natural_lp(path3).objective == pytest.approx(1.0, abs=1e-6)
