"""Cost-effectiveness greedy baseline.  No approximation guarantee is claimed.

Each step takes the vertex maximizing (sum over groups of min(new weight it
covers, remaining demand)) per unit cost, comparing ratios in exact integer
arithmetic, so a free vertex with positive gain ranks first; ties go to the
lower vertex id.  The covered weights are kept by one CoverCounts, which
also hands them to the returned selection.
"""

from __future__ import annotations

from .errors import SolverError
from .instance import CoverCounts, Instance, VertexSelection

__all__ = ["greedy_solve"]


def greedy_solve(inst: Instance) -> VertexSelection:
    """Deterministic greedy cover; always feasible since all vertices are."""
    costs = inst.costs
    targets = [g.target for g in inst.groups]
    counts = CoverCounts(inst, 1)
    covered = counts.weights
    chosen: set[int] = set()

    while any(w < t for w, t in zip(covered, targets)):
        best_v = -1
        best_gain = 0
        for v in range(inst.n):
            if v in chosen:
                continue
            g = sum(
                min(w, max(0, targets[gi] - covered[gi])) for gi, w in counts.delta(v).items()
            )
            if g <= 0:
                continue
            # a free vertex with positive gain outranks every priced one;
            # strict cross-multiplied comparison keeps the earliest id on ties
            if best_v < 0 or g * costs[best_v] > best_gain * costs[v]:
                best_v, best_gain = v, g
        if best_v < 0:
            raise SolverError("greedy found no vertex with positive gain on an unmet group")
        chosen.add(best_v)
        counts.mark(best_v)

    picked = tuple(sorted(chosen))
    return VertexSelection(
        chosen=picked, cost=sum(costs[v] for v in picked), covered=tuple(covered)
    )
