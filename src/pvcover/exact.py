"""Exact optimum by branch and bound, for desk-scale instances.

Vertices are decided in descending cost order (include branch first).  The
greedy cover seeds the incumbent, so the search prunes from its first node:
a node costing more than the incumbent is dropped, and so is a node that is
not yet feasible when even the cheapest vertex still to decide would lift it
above the incumbent (it must take at least one more).  A group whose
remaining reachable weight drops below its target prunes the subtree too.
Every prune is strict, so each subtree that could hold an equal-cost optimum
is still searched, and among equal-cost optima the lexicographically
smallest chosen set (as a sorted tuple) wins, which keeps fixtures
reproducible.

Two CoverCounts follow the path: one marks the included vertices (need 1:
the weight they cover), the other the excluded ones (need 2: the weight
of edges with both ends excluded, which no completion can cover).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import ge, le

from .errors import InputError
from .greedy import greedy_solve
from .instance import CoverCounts, Instance, VertexSelection

__all__ = ["ExactResult", "exact_solve", "DEFAULT_LIMIT"]

DEFAULT_LIMIT = 24


@dataclass(frozen=True)
class ExactResult:
    cost: int
    chosen: tuple[int, ...]
    nodes: int


def exact_solve(inst: Instance, limit: int = DEFAULT_LIMIT) -> ExactResult:
    """Provable optimum; refuses instances with more than limit vertices."""
    n = inst.n
    if n > limit:
        raise InputError(f"instance has {n} vertices, exact mode is capped at {limit}")
    return _search(inst, greedy_solve(inst))


def _search(inst: Instance, greedy: VertexSelection) -> ExactResult:
    """The search itself, with greedy_solve(inst)'s cover as the first incumbent.

    The greedy cover is feasible (Instance rejects targets above group
    weight), so the search prunes from its first node.
    """
    n = inst.n
    costs = inst.costs
    order = sorted(range(n), key=lambda v: (-costs[v], v))
    targets = [g.target for g in inst.groups]
    # weight each group can lose and still reach its target
    slack = [inst.group_weight(gi) - targets[gi] for gi in range(inst.r)]

    covered = CoverCounts(inst, 1)  # marks the included vertices
    lost = CoverCounts(inst, 2)  # marks the excluded vertices

    best = [greedy.cost, greedy.chosen]  # cost, sorted chosen tuple
    cheapest = costs[order[-1]]  # least any vertex still to decide can add
    nodes = 0

    def settle(cur_cost, picked, idx):
        # picked is already feasible; the only completions worth a look add
        # free vertices, and those improve the tie key exactly when they sit
        # below the current maximum id
        cand = sorted(picked)
        if cand:
            top = cand[-1]
            extras = [v for v in order[idx:] if costs[v] == 0 and v < top]
            if extras:
                cand = sorted(cand + extras)
        key = (cur_cost, tuple(cand))
        if key < (best[0], best[1]):
            best[0], best[1] = key

    # Depth-first over the decisions on order[0], order[1], ...: path[i] is
    # True while order[i] is included (tried first) and False once excluded.
    path: list[bool] = []
    cur_cost = 0
    while True:
        nodes += 1
        idx = len(path)
        descend = cur_cost <= best[0] and all(map(le, lost.weights, slack))
        if descend and all(map(ge, covered.weights, targets)):
            settle(cur_cost, [order[i] for i in range(idx) if path[i]], idx)
            descend = False
        # not yet feasible: some vertex still to decide must be taken
        if descend and idx < n and cur_cost + cheapest <= best[0]:
            v = order[idx]
            covered.mark(v)
            cur_cost += costs[v]
            path.append(True)
            continue
        # backtrack to the deepest include decision and flip it to exclude
        while path and not path[-1]:
            lost.unmark(order[len(path) - 1])
            path.pop()
        if not path:
            break
        v = order[len(path) - 1]
        covered.unmark(v)
        cur_cost -= costs[v]
        lost.mark(v)
        path[-1] = False

    return ExactResult(cost=best[0], chosen=best[1], nodes=nodes)
