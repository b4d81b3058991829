"""Cost-effectiveness greedy baseline.  No approximation guarantee is claimed.

Each step takes the vertex maximizing (sum over groups of min(new weight it
covers, remaining demand)) per unit cost, comparing ratios in exact integer
arithmetic, so a free vertex with positive gain ranks first; ties go to the
lower vertex id.  An n x r table holds each vertex's still-uncovered
incident weight per group: a gain is one pass over the vertex's row, and
taking a vertex walks its edges once, taking each newly covered edge's
weight off both endpoints' rows.
"""

from __future__ import annotations

from .errors import SolverError
from .instance import Instance, VertexSelection

__all__ = ["greedy_solve"]


def greedy_solve(inst: Instance) -> VertexSelection:
    """Deterministic greedy cover; always feasible since all vertices are."""
    costs = inst.costs
    edges = inst.edges
    inc = inst.incidence
    vertex_edges, edge_groups = inc.vertex_edges, inc.edge_groups
    targets = [g.target for g in inst.groups]
    r = inst.r
    covered = [0] * r
    # open_weight[v][g]: weight of group g's uncovered member edges at v
    open_weight = [[0] * r for _ in range(inst.n)]
    for e, groups in zip(edges, edge_groups):
        row_u, row_v = open_weight[e.u], open_weight[e.v]
        for gi in groups:
            row_u[gi] += e.weight
            row_v[gi] += e.weight
    is_covered = [False] * inst.m
    chosen: list[int] = []

    while True:
        demand = [max(0, t - w) for w, t in zip(covered, targets)]
        if not any(demand):
            break
        best_v = -1
        best_gain = 0
        # a chosen vertex has no open weight left, so its gain is 0
        for v, row in enumerate(open_weight):
            g = sum(map(min, row, demand))
            if g <= 0:
                continue
            # a free vertex with positive gain outranks every priced one;
            # strict cross-multiplied comparison keeps the earliest id on ties
            if best_v < 0 or g * costs[best_v] > best_gain * costs[v]:
                best_v, best_gain = v, g
        if best_v < 0:
            raise SolverError("greedy found no vertex with positive gain on an unmet group")
        chosen.append(best_v)
        for eid in vertex_edges[best_v]:
            if is_covered[eid]:
                continue
            is_covered[eid] = True
            e = edges[eid]
            row_u, row_v = open_weight[e.u], open_weight[e.v]
            for gi in edge_groups[eid]:
                row_u[gi] -= e.weight
                row_v[gi] -= e.weight
                covered[gi] += e.weight

    picked = tuple(sorted(chosen))
    return VertexSelection(
        chosen=picked, cost=sum(costs[v] for v in picked), covered=tuple(covered)
    )
