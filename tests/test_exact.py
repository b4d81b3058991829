"""Branch and bound against full subset enumeration, tie rule included."""

import numpy as np
import pytest

import pvcover as pv
from pvcover.exact import _knapsack_exceeds, _knapsack_items
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
    # the greedy incumbent, the cheapest-vertex bound and the per-group
    # knapsack bounds prune from the first node: a search pruning only on
    # its own incumbent visits 831 nodes here, and one with the
    # cheapest-vertex bound alone 109
    inst = random_instances(1, n=12, m=20, r=4, seed0=8)[0]
    res = pv.exact_solve(inst)
    assert res.nodes == 53
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
    leave the lexicographically smallest optimum reachable.  The second
    family (costs 1..10, weights 1..4, overlap 0.5, r 1..5) spreads the
    per-unit prices the knapsack bounds sort by."""
    free = pv.GeneratorConfig(cost_range=(0, 3), weight_range=(1, 3))
    wide = pv.GeneratorConfig(cost_range=(1, 10), weight_range=(1, 4))
    for s in range(60):
        n = 12 + s % 3
        inst = pv.generate_random(n, round(1.5 * n), 3, seed=s, config=free)
        inst = pv.with_overlapping_groups(inst, 0.2, seed=s + 104729)
        got = pv.exact_solve(inst)
        assert (got.cost, got.chosen) == _enumerated_optimum(inst), s
    for s in range(60):
        n = 12 + s % 3
        inst = pv.generate_random(n, round(1.5 * n), 1 + s % 5, seed=s, config=wide)
        inst = pv.with_overlapping_groups(inst, 0.5, seed=s + 104729)
        got = pv.exact_solve(inst)
        assert (got.cost, got.chosen) == _enumerated_optimum(inst), ("wide", s)


def _cheapest_completion(inst, included, undecided, gi):
    """Least cost of a subset of undecided that lifts group gi to its target
    together with included; None when no subset does."""
    u = len(undecided)
    picked = np.zeros((1 << u, inst.n), dtype=bool)
    picked[:, list(included)] = True
    picked[:, undecided] = (np.arange(1 << u)[:, None] >> np.arange(u)) & 1 == 1
    ok = covered_weights(inst, picked)[:, gi] >= inst.groups[gi].target
    if not ok.any():
        return None
    return int((picked[:, undecided].astype(np.int64) @ np.array(inst.costs)[undecided])[ok].min())


def test_knapsack_bound_never_exceeds_the_cheapest_completion():
    """On random prefixes of the decision order, each unmet group's
    fractional knapsack never prices its deficit above the cheapest
    completion that meets it, so a prune at room = that cost never fires;
    one below it usually does."""
    rng = np.random.default_rng(5)
    cfgs = (
        pv.GeneratorConfig(cost_range=(0, 3), weight_range=(1, 3)),
        pv.GeneratorConfig(cost_range=(1, 10), weight_range=(1, 4)),
    )
    checked = tight = 0
    for s in range(80):
        n = 6 + s % 5
        inst = pv.generate_random(n, 2 * n, 1 + s % 4, seed=s, config=cfgs[s % 2])
        if s % 3:
            inst = pv.with_overlapping_groups(inst, 0.4, seed=s + 104729)
        order = sorted(range(n), key=lambda v: (-inst.costs[v], v))
        pos = {v: i for i, v in enumerate(order)}
        for _ in range(4):
            idx = int(rng.integers(0, n + 1))
            included = [v for v in order[:idx] if rng.random() < 0.5]
            picked = np.zeros(n, dtype=bool)
            picked[included] = True
            covered = covered_weights(inst, picked)
            for gi, g in enumerate(inst.groups):
                deficit = g.target - int(covered[gi])
                if deficit <= 0:
                    continue
                cost = _cheapest_completion(inst, included, order[idx:], gi)
                if cost is None:
                    continue
                items = _knapsack_items(inst, gi, pos)
                assert not _knapsack_exceeds(items, idx, deficit, cost), (s, idx, gi)
                checked += 1
                tight += cost > 0 and _knapsack_exceeds(items, idx, deficit, cost - 1)
    assert checked >= 200 and tight >= checked // 4


def test_knapsack_bound_equal_to_room_does_not_prune():
    # centre 0 costs 29 and holds all 7 unit edges of the group: the bound
    # is 29/7 per unit times 7 = 29 exactly, which a float product puts above
    # 29, so only the integer comparison keeps a room of 29 searchable
    leaves = "".join(f"v {v} 30\n" for v in range(1, 8))
    edges = "".join(f"e {v - 1} 0 {v} 1\n" for v in range(1, 8))
    inst = pv.parse_instance(
        f"p pvc 8 7 1\nv 0 29\n{leaves}{edges}g 0 0 1 2 3 4 5 6\nk 0 7\n"
    )
    assert 29 / 7 * 7 > 29
    # decision order: the leaves (cost 30) at positions 0..6, the centre last
    items = _knapsack_items(inst, 0, {v: v - 1 for v in range(1, 8)} | {0: 7})
    for idx in (0, 7):
        assert not _knapsack_exceeds(items, idx, 7, 29)
        assert _knapsack_exceeds(items, idx, 7, 28)
        # the partial last item: 4 of the centre's 7 units cost 29 * 4 / 7
        assert not _knapsack_exceeds(items, idx, 4, 17)
        assert _knapsack_exceeds(items, idx, 4, 16)
    # with every vertex decided nothing can supply the deficit
    assert _knapsack_exceeds(items, 8, 1, 10**6)
    assert pv.exact_solve(inst) == pv.ExactResult(29, (0,), pv.exact_solve(inst).nodes)
