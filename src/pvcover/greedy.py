"""Cost-effectiveness greedy baseline.  No approximation guarantee is claimed.

Each step takes the vertex maximizing (sum over groups of min(new weight it
covers, remaining demand)) per unit cost, comparing ratios in exact integer
arithmetic, so a free vertex with positive gain ranks first; ties go to the
lower vertex id.
"""

from __future__ import annotations

from .errors import SolverError
from .instance import Instance
from .rounding import VertexSelection

__all__ = ["greedy_solve"]


def greedy_solve(inst: Instance) -> VertexSelection:
    """Deterministic greedy cover; always feasible since all vertices are."""
    n, m = inst.n, inst.m
    costs = inst.costs
    inc = inst.incidence
    incident, edge_groups = inc.vertex_edges, inc.edge_groups
    weight = [e.weight for e in inst.edges]

    chosen: set[int] = set()
    edge_covered = [False] * m
    remaining = [g.target for g in inst.groups]

    def gain(v) -> int:
        fresh: dict[int, int] = {}
        for eid in incident[v]:
            if edge_covered[eid]:
                continue
            for gi in edge_groups[eid]:
                fresh[gi] = fresh.get(gi, 0) + weight[eid]
        return sum(min(w, remaining[gi]) for gi, w in fresh.items())

    def take(v):
        chosen.add(v)
        for eid in incident[v]:
            if edge_covered[eid]:
                continue
            edge_covered[eid] = True
            for gi in edge_groups[eid]:
                remaining[gi] = max(0, remaining[gi] - weight[eid])

    while any(remaining):
        best_v = -1
        best_gain = 0
        for v in range(n):
            if v in chosen:
                continue
            g = gain(v)
            if g <= 0:
                continue
            # a free vertex with positive gain outranks every priced one;
            # strict cross-multiplied comparison keeps the earliest id on ties
            if best_v < 0 or g * costs[best_v] > best_gain * costs[v]:
                best_v, best_gain = v, g
        if best_v < 0:
            raise SolverError("greedy found no vertex with positive gain on an unmet group")
        take(best_v)

    return VertexSelection.from_set(inst, chosen)
