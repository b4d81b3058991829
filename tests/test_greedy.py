"""Greedy baseline: determinism, feasibility, and the stated selection rule."""

import pvcover as pv
from pvcover.errors import SolverError
from pvcover.instance import CoverCounts
from conftest import random_instances


def test_greedy_pinned_examples(star5, lopsided_edge):
    assert pv.greedy_solve(star5).chosen == (0,)
    assert pv.greedy_solve(star5).cost == 1
    assert pv.greedy_solve(lopsided_edge).chosen == (0,)


def test_greedy_tie_goes_to_lower_id():
    inst = pv.parse_instance(
        "p pvc 4 2 2\nv 0 1\nv 1 1\nv 2 1\nv 3 1\n"
        "e 0 0 1 1\ne 1 2 3 1\ng 0 0\ng 1 1\nk 0 1\nk 1 1\n"
    )
    assert pv.greedy_solve(inst).chosen == (0, 2)


def test_greedy_gain_caps_at_remaining_demand():
    # vertex 1 touches weight 6 in the group but only 2 is still needed, so
    # the cheap low-degree vertex 3 (gain 2, cost 1) must beat it on ratio
    inst = pv.parse_instance(
        "p pvc 4 3 1\n"
        "v 0 0\nv 1 3\nv 2 9\nv 3 1\n"
        "e 0 0 1 4\ne 1 1 2 2\ne 2 2 3 2\n"
        "g 0 0 1 2\nk 0 6\n"
    )
    sel = pv.greedy_solve(inst)
    # the free vertex covers weight 4 first, then 3 finishes the job
    assert sel.chosen == (0, 3)
    assert sel.cost == 1


def test_greedy_zero_cost_prepass():
    inst = pv.parse_instance(
        "p pvc 3 2 1\nv 0 0\nv 1 5\nv 2 0\n"
        "e 0 0 1 1\ne 1 1 2 1\ng 0 0 1\nk 0 2\n"
    )
    sel = pv.greedy_solve(inst)
    assert sel.chosen == (0, 2)
    assert sel.cost == 0


def test_greedy_always_feasible_and_never_beats_exact():
    fams = (
        random_instances(15, n=9, m=14, r=3),
        random_instances(8, n=9, m=14, r=3, weight_max=5),
        random_instances(8, n=9, m=14, r=3, overlap=0.35),
    )
    for fam in fams:
        for inst in fam:
            sel = pv.greedy_solve(inst)
            assert pv.is_feasible(inst, sel.chosen)
            assert sel.cost >= pv.exact_solve(inst).cost


def test_greedy_deterministic():
    inst = random_instances(1, n=10, m=16, r=4, seed0=3)[0]
    assert pv.greedy_solve(inst) == pv.greedy_solve(inst)


def _reference_greedy(inst):
    """greedy_solve as it stood on CoverCounts: each step recounts every
    candidate's gain from the edges at it with no chosen end."""
    costs = inst.costs
    inc = inst.incidence
    targets = [g.target for g in inst.groups]
    counts = CoverCounts(inst)
    covered = counts.weights
    chosen: set[int] = set()

    while any(w < t for w, t in zip(covered, targets)):
        best_v = -1
        best_gain = 0
        for v in range(inst.n):
            if v in chosen:
                continue
            moved: dict[int, int] = {}
            for eid in inc.vertex_edges[v]:
                e = inst.edges[eid]
                if e.u not in chosen and e.v not in chosen:
                    for gi in inc.edge_groups[eid]:
                        moved[gi] = moved.get(gi, 0) + e.weight
            g = sum(min(w, max(0, targets[gi] - covered[gi])) for gi, w in moved.items())
            if g <= 0:
                continue
            if best_v < 0 or g * costs[best_v] > best_gain * costs[v]:
                best_v, best_gain = v, g
        if best_v < 0:
            raise SolverError("greedy found no vertex with positive gain on an unmet group")
        chosen.add(best_v)
        counts.mark(best_v)

    picked = tuple(sorted(chosen))
    return pv.VertexSelection(
        chosen=picked, cost=sum(costs[v] for v in picked), covered=tuple(covered)
    )


def test_greedy_matches_cover_counts_reference():
    """The open-weight table picks exactly what per-candidate recounting
    picked: free vertices, wide costs, weights 1..4, overlapping groups,
    r 1..6 and dense families with parallel edges."""
    parallel = 0
    for s in range(320):
        n = 6 + s % 11
        r = 1 + s % 6
        dense = s % 5 == 0  # few vertices, many edges: parallel edges appear
        cfg = pv.GeneratorConfig(
            cost_range=((0, 3), (1, 10))[s % 2], weight_range=(1, 1 + s // 2 % 4)
        )
        inst = pv.generate_random(n, 3 * n if dense else max(r, round(1.5 * n)), r, s, cfg)
        if s % 3 == 1:
            inst = pv.with_overlapping_groups(inst, 0.3, seed=s + 104729)
        parallel += len({(e.u, e.v) for e in inst.edges}) < inst.m
        assert pv.greedy_solve(inst) == _reference_greedy(inst), s
    assert parallel >= 20
