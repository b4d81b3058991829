"""Exact optimum by branch and bound, for desk-scale instances.

Vertices are decided in descending cost order (include branch first).  The
greedy cover seeds the incumbent, so the search prunes from its first node:
a node costing more than the incumbent is dropped, and so is a node that is
not yet feasible when buying what it still lacks would lift it above the
incumbent.  Two bounds price that: the cheapest vertex still to decide (it
must take at least one more), and per unmet group the fractional knapsack
that buys the group's deficit from the undecided vertices, each supplying
its weighted degree in the group, cheapest per unit first (the LP of the
group's knapsack-cover row).  A group whose reachable weight, the weight of
its member edges with an end not yet excluded, drops below its target
prunes the subtree too.  Every prune is strict and every
bound is compared in integers, so each subtree that could hold an
equal-cost optimum is still searched, and among equal-cost optima the
lexicographically smallest chosen set (as a sorted tuple) wins, which keeps
fixtures reproducible.

Two CoverCounts follow the path: one marks the included vertices (the
weight they cover), the other the vertices not yet excluded (the weight
some completion can still cover).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cmp_to_key
from operator import ge

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
    pos = {v: i for i, v in enumerate(order)}
    items = [_knapsack_items(inst, gi, pos) for gi in range(inst.r)]

    covered = CoverCounts(inst)  # marks the included vertices
    reach = CoverCounts(inst)  # marks the vertices not yet excluded
    for v in range(n):
        reach.mark(v)

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
        room = best[0] - cur_cost
        descend = room >= 0 and all(map(ge, reach.weights, targets))
        if descend and all(map(ge, covered.weights, targets)):
            settle(cur_cost, [order[i] for i in range(idx) if path[i]], idx)
            descend = False
        # not yet feasible: some vertex still to decide must be taken, and
        # each unmet group's deficit must be bought from them
        if descend and idx < n and cheapest <= room:
            for gi, w in enumerate(covered.weights):
                if w < targets[gi] and _knapsack_exceeds(items[gi], idx, targets[gi] - w, room):
                    break
            else:  # no bound overshoots: include order[idx]
                v = order[idx]
                covered.mark(v)
                cur_cost += costs[v]
                path.append(True)
                continue
        # backtrack to the deepest include decision and flip it to exclude
        while path and not path[-1]:
            reach.mark(order[len(path) - 1])
            path.pop()
        if not path:
            break
        v = order[len(path) - 1]
        covered.unmark(v)
        cur_cost -= costs[v]
        reach.unmark(v)
        path[-1] = False

    return ExactResult(cost=best[0], chosen=best[1], nodes=nodes)


# orders (position, cost, supply) items by cost per unit of supply, exactly
_per_unit = cmp_to_key(lambda a, b: a[1] * b[2] - b[1] * a[2])


def _knapsack_items(inst: Instance, gi: int, pos: dict[int, int]) -> list[tuple[int, int, int]]:
    """Group gi's (position, cost, supply) items, cheapest per unit of supply first.

    An item is a vertex touching the group: pos[v] is its place in the
    decision order and its supply the weight of gi's member edges at it.
    """
    deg: dict[int, int] = {}
    for _, u, v, w in inst.incidence.group_members[gi]:
        deg[u] = deg.get(u, 0) + w
        deg[v] = deg.get(v, 0) + w
    return sorted(((pos[v], inst.costs[v], s) for v, s in deg.items()), key=_per_unit)


def _knapsack_exceeds(items, idx: int, deficit: int, room: int) -> bool:
    """Whether supplying deficit > 0 from the items at positions >= idx costs
    more than room, even fractionally.

    items are (position, cost, supply) tuples, cheapest per unit first; the
    fractional knapsack takes them whole in that order and the last one in
    part.  Every comparison is in integers, so a bound exactly equal to room
    does not prune.
    """
    spent = 0
    for p, c, s in items:
        if p < idx:
            continue
        if s >= deficit:
            # the last item enters partly: spent + c * deficit / s > room
            return spent * s + c * deficit > room * s
        spent += c
        deficit -= s
        if spent > room:
            return True
    return True  # the undecided vertices cannot supply the deficit at all
