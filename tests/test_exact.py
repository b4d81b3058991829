"""Branch and bound against full subset enumeration, tie rule included."""

import numpy as np
import pytest

import pvcover as pv
from pvcover.instance import covered_weights
from conftest import brute_force_optimum, random_instances


def test_exact_pinned_examples(star5, path3, lopsided_edge):
    assert pv.exact_solve(star5) == pv.ExactResult(1, (0,), pv.exact_solve(star5).nodes)
    assert pv.exact_solve(path3).cost == 1
    assert pv.exact_solve(path3).chosen == (1,)
    res = pv.exact_solve(lopsided_edge)
    assert res.cost == 3 and res.chosen == (0,)
    assert res.nodes >= 1


def test_exact_matches_enumeration_unweighted():
    for inst in random_instances(20, n=8, m=12, r=3):
        want_cost, want_chosen = brute_force_optimum(inst)
        got = pv.exact_solve(inst)
        assert got.cost == want_cost
        assert got.chosen == want_chosen


def test_exact_matches_enumeration_weighted_and_overlapping():
    for inst in random_instances(8, n=8, m=12, r=3, weight_max=5):
        want_cost, want_chosen = brute_force_optimum(inst)
        got = pv.exact_solve(inst)
        assert (got.cost, got.chosen) == (want_cost, want_chosen)
    for inst in random_instances(8, n=8, m=12, r=3, overlap=0.4, seed0=50):
        want_cost, want_chosen = brute_force_optimum(inst)
        got = pv.exact_solve(inst)
        assert (got.cost, got.chosen) == (want_cost, want_chosen)


def test_exact_tie_break_prefers_lexicographically_smallest():
    """Zero-cost vertices keep many optima alive; the reported one must be
    the smallest sorted tuple, exactly like the enumeration oracle's."""
    cfg = pv.GeneratorConfig(cost_range=(0, 3))
    for s in range(12):
        inst = pv.generate_random(8, 12, 3, seed=s, config=cfg)
        want_cost, want_chosen = brute_force_optimum(inst)
        got = pv.exact_solve(inst)
        assert (got.cost, got.chosen) == (want_cost, want_chosen)


def test_exact_tie_break_hand_case():
    # both endpoints cost the same; the smaller id must win
    inst = pv.parse_instance(
        "p pvc 2 1 1\nv 0 2\nv 1 2\ne 0 0 1 1\ng 0 0\nk 0 1\n"
    )
    assert pv.exact_solve(inst).chosen == (0,)


def test_exact_scaling_costs():
    inst = random_instances(1, n=9, m=14, r=3, seed0=31)[0]
    scaled = pv.Instance(
        costs=tuple(4 * c for c in inst.costs), edges=inst.edges, groups=inst.groups
    )
    a = pv.exact_solve(inst)
    b = pv.exact_solve(scaled)
    assert b.cost == 4 * a.cost
    assert b.chosen == a.chosen


def test_exact_size_limit():
    inst = pv.generate_random(12, 16, 2, seed=0)
    with pytest.raises(pv.InputError, match="capped"):
        pv.exact_solve(inst, limit=10)
    assert pv.exact_solve(inst, limit=12).cost >= 0


def test_exact_deep_search_needs_no_recursion():
    # one decision level per vertex: a 1001-vertex star is deeper than
    # CPython's default recursion limit
    res = pv.exact_solve(pv.generate_star(1000), limit=1001)
    assert res == pv.ExactResult(cost=1, chosen=(0,), nodes=2003)


def test_exact_prunes_but_stays_correct():
    # the greedy incumbent and the one-vertex bound prune from the first
    # node: a search pruning only on its own incumbent visits 831 nodes here
    inst = random_instances(1, n=12, m=20, r=4, seed0=8)[0]
    res = pv.exact_solve(inst)
    assert res.nodes == 109
    assert (res.cost, res.chosen) == brute_force_optimum(inst)


def _enumerated_optimum(inst):
    """Every vertex mask at once through covered_weights; the cheapest
    feasible mask wins and ties go to the smallest sorted tuple."""
    n = inst.n
    picked = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1 == 1
    targets = np.array([g.target for g in inst.groups])
    feasible = np.all(covered_weights(inst, picked) >= targets, axis=1)
    costs = picked.astype(np.int64) @ np.array(inst.costs)
    cost = int(costs[feasible].min())
    tied = picked[feasible & (costs == cost)]
    return cost, min(tuple(np.flatnonzero(row).tolist()) for row in tied)


def test_exact_matches_vectorised_enumeration_with_free_vertices():
    """Zero costs, weights 1..3 and overlap keep many equal-cost optima alive
    at sizes the per-subset oracle is too slow for; every prune must still
    leave the lexicographically smallest optimum reachable."""
    cfg = pv.GeneratorConfig(cost_range=(0, 3), weight_range=(1, 3))
    for s in range(60):
        n = 12 + s % 3
        inst = pv.generate_random(n, round(1.5 * n), 3, seed=s, config=cfg)
        inst = pv.with_overlapping_groups(inst, 0.2, seed=s + 104729)
        got = pv.exact_solve(inst)
        assert (got.cost, got.chosen) == _enumerated_optimum(inst), s
