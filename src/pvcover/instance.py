"""Data model for partition vertex cover: validation, text format, generators.

It also owns the coverage rule: a group counts a member edge's weight once
either end is picked.  coverage and covered_weights evaluate it for whole
vertex sets; CoverCounts keeps it up to date one vertex at a time.  Branch
and bound marks the included vertices with one counter and the vertices
not yet excluded with another (the weight still reachable); pruning marks
the kept set.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from itertools import islice

import numpy as np

from .errors import InputError

__all__ = [
    "Edge",
    "Group",
    "Instance",
    "SetCoverInstance",
    "GeneratorConfig",
    "Incidence",
    "parse_instance",
    "serialize_instance",
    "parse_set_cover",
    "serialize_set_cover",
    "check_strict_partition",
    "generate_star",
    "generate_random",
    "with_overlapping_groups",
    "reduce_set_cover",
    "covered_weights",
    "coverage",
    "VertexSelection",
    "is_feasible",
]

# Covered weights and round costs are summed in int64 arrays; every such sum
# is bounded by the total vertex cost or a group's total member weight.
_INT64_MAX = 2**63 - 1


@dataclass(frozen=True)
class Edge:
    """Undirected edge with a positive integer weight."""

    u: int
    v: int
    weight: int


@dataclass(frozen=True)
class Group:
    """Member edge indices (sorted, duplicate-free) plus the coverage target."""

    edges: tuple[int, ...]
    target: int


@dataclass(frozen=True)
class Instance:
    """A covering instance over an undirected graph.

    Vertex ids are dense 0..n-1 and costs[v] is the non-negative integer cost
    of vertex v.  Groups reference edges by index; they may overlap and need
    not exhaust the edge set; there is at least one group.  A group target
    never exceeds the total weight of its members, so picking every vertex
    is always feasible.  The total vertex cost and each group's total member
    weight fit in int64.  Instances are immutable and hashable.
    """

    costs: tuple[int, ...]
    edges: tuple[Edge, ...]
    groups: tuple[Group, ...]

    def __post_init__(self):
        n = len(self.costs)
        if n == 0:
            raise InputError("instance needs at least one vertex")
        for v, c in enumerate(self.costs):
            if c < 0:
                raise InputError(f"vertex {v}: cost must be non-negative, got {c}")
        if self.total_cost > _INT64_MAX:
            raise InputError("total vertex cost exceeds 2**63 - 1")
        if not self.groups:
            raise InputError("instance needs at least one group")
        for eid, e in enumerate(self.edges):
            if not (0 <= e.u < n and 0 <= e.v < n):
                raise InputError(f"edge {eid}: endpoint out of range for n={n}")
            if e.u == e.v:
                raise InputError(f"edge {eid}: self-loop at vertex {e.u}")
            if e.weight < 1:
                raise InputError(f"edge {eid}: weight must be a positive integer, got {e.weight}")
        for gi, g in enumerate(self.groups):
            if not g.edges:
                raise InputError(f"group {gi}: empty membership")
            if list(g.edges) != sorted(set(g.edges)):
                raise InputError(f"group {gi}: members must be sorted and duplicate-free")
            for eid in g.edges:
                if not (0 <= eid < len(self.edges)):
                    raise InputError(f"group {gi}: unknown edge index {eid}")
            total = sum(self.edges[eid].weight for eid in g.edges)
            if total > _INT64_MAX:
                raise InputError(f"group {gi}: total member weight exceeds 2**63 - 1")
            if g.target < 0:
                raise InputError(f"group {gi}: target must be non-negative, got {g.target}")
            if g.target > total:
                raise InputError(
                    f"group {gi}: target {g.target} exceeds total member weight {total}"
                )

    @property
    def n(self) -> int:
        return len(self.costs)

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def r(self) -> int:
        return len(self.groups)

    @property
    def total_cost(self) -> int:
        return sum(self.costs)

    @cached_property
    def incidence(self) -> Incidence:
        """Adjacency index, built on first use and kept on this object (not a field)."""
        vertex_edges: list[list[int]] = [[] for _ in range(self.n)]
        for eid, e in enumerate(self.edges):
            vertex_edges[e.u].append(eid)
            vertex_edges[e.v].append(eid)
        edge_groups: list[list[int]] = [[] for _ in range(self.m)]
        group_members = []
        group_arrays = []
        for gi, g in enumerate(self.groups):
            members = []
            for eid in g.edges:
                edge_groups[eid].append(gi)
                e = self.edges[eid]
                members.append((eid, e.u, e.v, e.weight))
            group_members.append(tuple(members))
            ends = np.array(list(zip(*members))[1:], dtype=np.int64)
            ends.setflags(write=False)
            group_arrays.append(tuple(ends))
        return Incidence(
            vertex_edges=tuple(map(tuple, vertex_edges)),
            edge_groups=tuple(map(tuple, edge_groups)),
            group_members=tuple(group_members),
            group_arrays=tuple(group_arrays),
        )


def check_strict_partition(inst: Instance) -> None:
    """Require the groups to be pairwise disjoint and to cover every edge."""
    seen: dict[int, int] = {}
    for gi, g in enumerate(inst.groups):
        for eid in g.edges:
            if eid in seen:
                raise InputError(
                    f"strict partition violated: edge {eid} is in groups {seen[eid]} and {gi}"
                )
            seen[eid] = gi
    if len(seen) < inst.m:
        missing = _name_ids(eid for eid in range(inst.m) if eid not in seen)
        raise InputError(f"strict partition violated: edges {missing} belong to no group")


# ----------------------------------------------------------------------
# text format
# ----------------------------------------------------------------------

def _parse_int(tok: str, lineno: int, what: str) -> int:
    try:
        return int(tok, 10)
    except ValueError:
        raise InputError(f"line {lineno}: {what} must be an integer, got {tok!r}") from None


def _parse_count(tok: str, lineno: int, what: str) -> int:
    count = _parse_int(tok, lineno, what)
    if count < 0:
        raise InputError(f"line {lineno}: {what} must be non-negative, got {count}")
    return count


def _parse_gid(tok: str, lineno: int) -> int:
    # group ids may be written bare ("0") or tagged ("g0")
    if tok[:1] == "g" and tok[1:].isdigit():
        tok = tok[1:]
    return _parse_int(tok, lineno, "group id")


# Error messages name at most this many ids.  Header counts are untrusted, so
# missing ids come from a lazy scan of 0..count-1: the k-th missing id turns up
# within len(present) + k steps, which the file's length bounds.
_NAMED_IDS = 5


def _name_ids(ids) -> str:
    """The first few ids of an iterable as '[a, b, ...]', drawing at most one more."""
    head = list(islice(ids, _NAMED_IDS + 1))
    more = ", ..." if len(head) > _NAMED_IDS else ""
    return "[" + ", ".join(map(str, head[:_NAMED_IDS])) + more + "]"


def _check_ids(found, count: int, what: str) -> None:
    """Require the record ids in found to be exactly 0..count-1."""
    extra = sorted(i for i in found if not 0 <= i < count)
    if len(found) == count and not extra:
        return
    missing = _name_ids(i for i in range(count) if i not in found)
    raise InputError(
        f"{what} records do not cover 0..{count - 1}: missing {missing}, extra {_name_ids(extra)}"
    )


def _records(text: str | bytes, what: str):
    """The first record of a text file and an iterator over the rest.

    A record is (line number, tokens) for a line that is not blank once its
    "#" comment is cut.  Bytes must be UTF-8; a file with no record is empty.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise InputError(f"{what} file is not valid UTF-8: {exc}") from None
    lines = (
        (lineno, line.split())
        for lineno, raw in enumerate(text.splitlines(), 1)
        if (line := raw.split("#", 1)[0].strip())
    )
    first = next(lines, None)
    if first is None:
        raise InputError(f"empty {what} file")
    return first, lines


def parse_instance(text: str | bytes, strict_partition: bool = False) -> Instance:
    """Parse the line-oriented instance format.

    Records: header "p pvc n m r", vertex lines "v id cost", edge lines
    "e id u v weight", membership lines "g gid eid..." (a group may span
    several), target lines "k gid target".  "#" starts a comment.  Raises
    InputError on malformed or incomplete input: with the line number for a
    bad or repeated record, and for the whole file when ids are missing or
    out of range.  Time is linear in the file size.
    """
    (lineno, toks), lines = _records(text, "instance")
    if len(toks) != 5 or toks[0] != "p" or toks[1] != "pvc":
        raise InputError(f"line {lineno}: expected header 'p pvc <n> <m> <r>'")
    n = _parse_count(toks[2], lineno, "vertex count")
    m = _parse_count(toks[3], lineno, "edge count")
    r = _parse_count(toks[4], lineno, "group count")

    costs: dict[int, int] = {}
    edges: dict[int, Edge] = {}
    # each group's members as an insertion-ordered dict: O(1) repeat check
    members: dict[int, dict[int, None]] = {}
    targets: dict[int, int] = {}

    for lineno, toks in lines:
        kind = toks[0]
        if kind == "v":
            if len(toks) != 3:
                raise InputError(f"line {lineno}: vertex record needs 'v <id> <cost>'")
            vid = _parse_int(toks[1], lineno, "vertex id")
            if vid in costs:
                raise InputError(f"line {lineno}: duplicate vertex id {vid}")
            costs[vid] = _parse_int(toks[2], lineno, "vertex cost")
        elif kind == "e":
            if len(toks) != 5:
                raise InputError(f"line {lineno}: edge record needs 'e <id> <u> <v> <weight>'")
            eid = _parse_int(toks[1], lineno, "edge id")
            if eid in edges:
                raise InputError(f"line {lineno}: duplicate edge id {eid}")
            edges[eid] = Edge(
                _parse_int(toks[2], lineno, "endpoint"),
                _parse_int(toks[3], lineno, "endpoint"),
                _parse_int(toks[4], lineno, "edge weight"),
            )
        elif kind == "g":
            if len(toks) < 3:
                raise InputError(f"line {lineno}: membership record needs 'g <gid> <eid>...'")
            gid = _parse_gid(toks[1], lineno)
            bucket = members.setdefault(gid, {})
            for tok in toks[2:]:
                eid = _parse_int(tok, lineno, "edge index")
                if eid in bucket:
                    raise InputError(f"line {lineno}: duplicate edge {eid} in group {gid}")
                bucket[eid] = None
        elif kind == "k":
            if len(toks) != 3:
                raise InputError(f"line {lineno}: target record needs 'k <gid> <target>'")
            gid = _parse_gid(toks[1], lineno)
            if gid in targets:
                raise InputError(f"line {lineno}: duplicate target for group {gid}")
            targets[gid] = _parse_int(toks[2], lineno, "group target")
        elif kind == "p":
            raise InputError(f"line {lineno}: duplicate header")
        else:
            raise InputError(f"line {lineno}: unknown record type {kind!r}")

    _check_ids(costs, n, "vertex")
    _check_ids(edges, m, "edge")
    _check_ids(members, r, "group membership")
    _check_ids(targets, r, "group target")

    inst = Instance(
        costs=tuple(costs[v] for v in range(n)),
        edges=tuple(edges[e] for e in range(m)),
        groups=tuple(Group(tuple(sorted(members[g])), targets[g]) for g in range(r)),
    )
    if strict_partition:
        check_strict_partition(inst)
    return inst


def serialize_instance(inst: Instance) -> str:
    """Canonical text form: records in id order, single spaces, one trailing newline."""
    out = [f"p pvc {inst.n} {inst.m} {inst.r}"]
    for v, c in enumerate(inst.costs):
        out.append(f"v {v} {c}")
    for eid, e in enumerate(inst.edges):
        out.append(f"e {eid} {e.u} {e.v} {e.weight}")
    for gi, g in enumerate(inst.groups):
        out.append("g " + str(gi) + " " + " ".join(str(eid) for eid in g.edges))
    for gi, g in enumerate(inst.groups):
        out.append(f"k {gi} {g.target}")
    return "\n".join(out) + "\n"


@dataclass(frozen=True)
class SetCoverInstance:
    """Weighted set cover: n_elements ground elements, sets with member tuples."""

    n_elements: int
    sets: tuple[tuple[int, ...], ...]
    costs: tuple[int, ...]

    def __post_init__(self):
        if self.n_elements < 1:
            raise InputError("set cover needs at least one element")
        if len(self.sets) != len(self.costs):
            raise InputError("set cover: one cost per set required")
        if not self.sets:
            raise InputError("set cover needs at least one set")
        covered = set()
        for si, members in enumerate(self.sets):
            if list(members) != sorted(set(members)):
                raise InputError(f"set {si}: members must be sorted and duplicate-free")
            for el in members:
                if not (0 <= el < self.n_elements):
                    raise InputError(f"set {si}: unknown element {el}")
            if self.costs[si] < 0:
                raise InputError(f"set {si}: cost must be non-negative")
            covered.update(members)
        if len(covered) < self.n_elements:
            missing = _name_ids(e for e in range(self.n_elements) if e not in covered)
            raise InputError(f"elements {missing} are not covered by any set")


def parse_set_cover(text: str | bytes) -> SetCoverInstance:
    """Parse 'p sc <elements> <sets>' followed by 's <sid> <cost> <elem>...' lines."""
    (lineno, toks), lines = _records(text, "set cover")
    if len(toks) != 4 or toks[0] != "p" or toks[1] != "sc":
        raise InputError(f"line {lineno}: expected header 'p sc <elements> <sets>'")
    r = _parse_count(toks[2], lineno, "element count")
    m = _parse_count(toks[3], lineno, "set count")
    sets: dict[int, tuple[int, ...]] = {}
    costs: dict[int, int] = {}
    for lineno, toks in lines:
        if toks[0] != "s":
            raise InputError(f"line {lineno}: unknown record type {toks[0]!r}")
        if len(toks) < 3:
            raise InputError(f"line {lineno}: set record needs 's <sid> <cost> <elem>...'")
        sid = _parse_int(toks[1], lineno, "set id")
        if sid in sets:
            raise InputError(f"line {lineno}: duplicate set id {sid}")
        costs[sid] = _parse_int(toks[2], lineno, "set cost")
        sets[sid] = tuple(sorted(_parse_int(t, lineno, "element") for t in toks[3:]))
    _check_ids(sets, m, "set")
    return SetCoverInstance(
        n_elements=r,
        sets=tuple(sets[s] for s in range(m)),
        costs=tuple(costs[s] for s in range(m)),
    )


def serialize_set_cover(sc: SetCoverInstance) -> str:
    out = [f"p sc {sc.n_elements} {len(sc.sets)}"]
    for sid, members in enumerate(sc.sets):
        out.append(f"s {sid} {sc.costs[sid]} " + " ".join(str(el) for el in members))
    return "\n".join(out) + "\n"


# ----------------------------------------------------------------------
# operations
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Incidence:
    """Adjacency of an instance, built once per instance object (Instance.incidence).

    vertex_edges[v] lists the edges at v and edge_groups[e] the groups that
    hold e, in id order and as Python ints (CoverCounts and greedy walk them
    in Python).  group_members[g] lists group g's member edges as Python-int
    tuples (edge id, u, v, weight) in membership order, for the cover-row
    walk in relaxation and the per-group degrees in exact; group_arrays[g]
    holds the same u, v and weight as read-only int64 arrays.
    """

    vertex_edges: tuple[tuple[int, ...], ...]
    edge_groups: tuple[tuple[int, ...], ...]
    group_members: tuple[tuple[tuple[int, int, int, int], ...], ...]
    group_arrays: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]


def covered_weights(inst: Instance, picked: np.ndarray) -> np.ndarray:
    """Per-group covered weight of a boolean pick mask: shape (n,) to int64 (r,),
    or a batch of masks, shape (trials, n) to int64 (trials, r).

    An edge counts once toward each group that holds it when either endpoint
    is picked.
    """
    # vertex axis first, so each endpoint gather copies whole rows
    by_vertex = picked.T
    out = np.empty(picked.shape[:-1] + (inst.r,), dtype=np.int64)
    for gi, (u, v, w) in enumerate(inst.incidence.group_arrays):
        out[..., gi] = w @ (by_vertex[u] | by_vertex[v])
    return out


def coverage(inst: Instance, chosen) -> tuple[int, ...]:
    """Per-group weight of member edges touched by the chosen vertex set.

    Each edge counts once per group that holds it, whichever endpoints are
    chosen; the weights are Python ints.
    """
    picked = np.zeros(inst.n, dtype=bool)
    picked[list(chosen)] = True
    return tuple(int(w) for w in covered_weights(inst, picked))


@dataclass(frozen=True)
class VertexSelection:
    """A chosen vertex set with its exact cost and per-group covered weight."""

    chosen: tuple[int, ...]
    cost: int
    covered: tuple[int, ...]

    @classmethod
    def from_set(cls, inst: Instance, chosen) -> "VertexSelection":
        picked = tuple(sorted(set(chosen)))
        return cls(
            chosen=picked,
            cost=sum(inst.costs[v] for v in picked),
            covered=coverage(inst, picked),
        )


def is_feasible(inst: Instance, chosen) -> bool:
    """True when every group's covered weight reaches its target."""
    got = coverage(inst, chosen)
    return all(w >= g.target for w, g in zip(got, inst.groups))


class CoverCounts:
    """Covered weight of a marked vertex set, kept up to date one vertex at a time.

    weights[g] is the weight of group g's member edges with at least one
    marked end, so it equals coverage of the marked set.  It counts the
    marked ends of each edge; mark and unmark expect v unmarked and marked
    respectively, and each walks v's edges once.
    """

    def __init__(self, inst: Instance):
        inc = inst.incidence
        self._vertex_edges = inc.vertex_edges
        self._edge_groups = inc.edge_groups
        self._weight = [e.weight for e in inst.edges]
        self._ends = [0] * inst.m
        self.weights = [0] * inst.r

    def mark(self, v: int) -> None:
        ends, weights, weight = self._ends, self.weights, self._weight
        edge_groups = self._edge_groups
        for eid in self._vertex_edges[v]:
            ends[eid] += 1
            if ends[eid] == 1:
                for gi in edge_groups[eid]:
                    weights[gi] += weight[eid]

    def unmark(self, v: int) -> None:
        ends, weights, weight = self._ends, self.weights, self._weight
        edge_groups = self._edge_groups
        for eid in self._vertex_edges[v]:
            ends[eid] -= 1
            if ends[eid] == 0:
                for gi in edge_groups[eid]:
                    weights[gi] -= weight[eid]


# ----------------------------------------------------------------------
# generators
# ----------------------------------------------------------------------

def _rng(seed: int, *key: int) -> np.random.Generator:
    """The package's only stream: Philox on SeedSequence(seed, spawn_key=key).

    A key (a,) is SeedSequence(seed).spawn(a + 1)[a], so keyed streams are
    independent children of the seed and each can be built on its own.
    """
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=key)))


def generate_star(degree: int) -> Instance:
    """Star with unit costs and weights: center 0, leaves 1..degree, one group, target 1.

    The canonical family where the natural LP pays only 1/degree while the
    strengthened relaxation and the integral optimum both pay 1.
    """
    if degree < 1:
        raise InputError(f"star degree must be at least 1, got {degree}")
    edges = tuple(Edge(0, leaf, 1) for leaf in range(1, degree + 1))
    return Instance(
        costs=(1,) * (degree + 1),
        edges=edges,
        groups=(Group(tuple(range(degree)), 1),),
    )


@dataclass(frozen=True)
class GeneratorConfig:
    """Cost and weight ranges for generate_random.

    cost_range and weight_range are inclusive integer ranges; weights must
    stay positive.  Each group gets one edge and the rest land uniformly;
    targets are drawn uniformly from 1..group weight, so generated instances
    are never degenerate.
    """

    cost_range: tuple[int, int] = (1, 10)
    weight_range: tuple[int, int] = (1, 1)

    def __post_init__(self):
        lo, hi = self.cost_range
        if lo < 0 or hi < lo:
            raise InputError(f"bad cost_range {self.cost_range}")
        lo, hi = self.weight_range
        if lo < 1 or hi < lo:
            raise InputError(f"bad weight_range {self.weight_range}")


def generate_random(
    n: int,
    m: int,
    r: int,
    seed: int,
    config: GeneratorConfig = GeneratorConfig(),
) -> Instance:
    """Random instance with n vertices, m edges, r nonempty groups.

    Deterministic for a fixed (n, m, r, seed, config).  Parallel edges may
    occur; self-loops never do.
    """
    if n < 2:
        raise InputError(f"need at least two vertices to place an edge, got n={n}")
    if not (m >= r >= 1):
        raise InputError(f"need m >= r >= 1, got m={m}, r={r}")
    rng = _rng(seed)
    clo, chi = config.cost_range
    wlo, whi = config.weight_range
    costs = tuple(int(c) for c in rng.integers(clo, chi + 1, size=n))
    edges = []
    for _ in range(m):
        u, v = sorted(int(x) for x in rng.choice(n, size=2, replace=False))
        edges.append(Edge(u, v, int(rng.integers(wlo, whi + 1))))
    owner = [0] * m
    perm = [int(x) for x in rng.permutation(m)]
    for gi, eid in enumerate(perm[:r]):
        owner[eid] = gi
    for eid in perm[r:]:
        owner[eid] = int(rng.integers(r))
    members: list[list[int]] = [[] for _ in range(r)]
    for eid, gi in enumerate(owner):
        members[gi].append(eid)
    groups = []
    for gi in range(r):
        total = sum(edges[eid].weight for eid in members[gi])
        target = int(rng.integers(1, total + 1))
        groups.append(Group(tuple(sorted(members[gi])), target))
    return Instance(costs=costs, edges=tuple(edges), groups=tuple(groups))


def with_overlapping_groups(inst: Instance, extra_prob: float, seed: int) -> Instance:
    """Copy of inst where each edge additionally joins each other group with
    probability extra_prob.  Targets carry over unchanged; they stay valid
    because group weights only grow."""
    if not (0.0 <= extra_prob <= 1.0):
        raise InputError(f"extra_prob must be in [0, 1], got {extra_prob}")
    rng = _rng(seed)
    members = [set(g.edges) for g in inst.groups]
    for eid in range(inst.m):
        for gi in range(inst.r):
            if eid not in members[gi] and rng.random() < extra_prob:
                members[gi].add(eid)
    groups = tuple(
        replace(g, edges=tuple(sorted(members[gi]))) for gi, g in enumerate(inst.groups)
    )
    return replace(inst, groups=groups)


def reduce_set_cover(sc: SetCoverInstance) -> Instance:
    """Encode weighted set cover as a covering instance on a bipartite graph.

    Left vertex i carries set i's cost; right vertex (m + u) stands for
    element u and carries a sentinel cost high enough that no optimal
    solution ever takes it (1 + total left cost).  Element u
    becomes a group over its incident unit-weight edges with target 1,
    so the groups form a strict partition and optima coincide exactly.
    """
    m = len(sc.sets)
    edges = []
    incident: list[list[int]] = [[] for _ in range(sc.n_elements)]
    for si, members in enumerate(sc.sets):
        for el in members:
            incident[el].append(len(edges))
            edges.append(Edge(si, m + el, 1))
    groups = tuple(Group(tuple(hits), 1) for hits in incident)
    return Instance(
        costs=tuple(sc.costs) + (1 + sum(sc.costs),) * sc.n_elements,
        edges=tuple(edges),
        groups=groups,
    )
