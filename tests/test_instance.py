"""Instance model: parsing, canonical serialization, generators, reductions."""

import random
import time

import numpy as np
import pytest

import pvcover as pv
import pvcover.cli as cli
from conftest import PATH_TEXT, random_instances
from pvcover.instance import CoverCounts, covered_weights


def test_parse_basic_fields(path3):
    assert path3.n == 3
    assert path3.m == 2
    assert path3.r == 1
    assert path3.costs == (1, 1, 1)
    assert path3.edges[0] == pv.Edge(0, 1, 1)
    assert path3.groups[0].edges == (0, 1)
    assert path3.groups[0].target == 2
    assert path3.total_cost == 3
    assert sum(path3.edges[eid].weight for eid in path3.groups[0].edges) == 2


def test_parse_accepts_comments_blank_lines_and_any_record_order():
    text = (
        "# partition cover fixture\n"
        "p pvc 2 1 1\n"
        "\n"
        "k 0 1\n"
        "g 0 0\n"
        "e 0 0 1 2\n"
        "v 1 5\n"
        "v 0 3\n"
    )
    inst = pv.parse_instance(text)
    assert inst.costs == (3, 5)
    assert inst.edges[0].weight == 2
    assert inst.groups[0].target == 1


def test_parse_accepts_g_prefixed_group_ids():
    text = PATH_TEXT.replace("g 0 0 1", "g g0 0 1").replace("k 0 2", "k g0 2")
    inst = pv.parse_instance(text)
    assert inst.groups[0].target == 2


@pytest.mark.parametrize(
    "mutation, needle",
    [
        (lambda t: t.replace("p pvc 3 2 1", "p pvc 3 2"), "line 1"),
        (lambda t: t.replace("v 1 1", "v 1 -1"), "non-negative"),
        (lambda t: t.replace("e 0 0 1 1", "e 0 0 0 1"), "self-loop"),
        (lambda t: t.replace("e 1 1 2 1", "e 1 1 2 0"), "weight"),
        (lambda t: t.replace("e 1 1 2 1", "e 1 1 9 1"), "out of range"),
        (lambda t: t.replace("k 0 2", "k 0 3"), "target"),
        (lambda t: t.replace("k 0 2\n", ""), "missing [0]"),
        (lambda t: t.replace("g 0 0 1\n", ""), "missing [0]"),
        (lambda t: t + "g 1 0\n", "extra [1]"),
        (lambda t: t + "k 1 1\n", "extra [1]"),
        (lambda t: t.replace("v 2 1\n", ""), "missing [2]"),
        (lambda t: t + "x 1 2\n", "line 9"),
        (lambda t: t.replace("g 0 0 1", "g 0 0 0 1"), "duplicate"),
        (lambda t: t.encode() + b"# \xff\n", "instance file is not valid UTF-8"),
    ],
)
def test_parse_rejects_malformed_input(mutation, needle):
    with pytest.raises(pv.InputError) as err:
        pv.parse_instance(mutation(PATH_TEXT))
    assert needle in str(err.value)


def _instance(*groups):
    """Two vertices, two unit edges between them, and the given groups."""
    return pv.Instance(costs=(1, 1), edges=(pv.Edge(0, 1, 1),) * 2, groups=groups)


@pytest.mark.parametrize(
    "build, needle",
    [
        (lambda: pv.Instance(costs=(), edges=(), groups=(pv.Group((0,), 1),)),
         "at least one vertex"),
        (lambda: _instance(pv.Group((), 0)), "empty membership"),
        (lambda: _instance(pv.Group((1, 0), 1)), "sorted and duplicate-free"),
        (lambda: _instance(pv.Group((0, 0), 1)), "sorted and duplicate-free"),
        (lambda: _instance(pv.Group((0, 5), 1)), "unknown edge index 5"),
        (lambda: _instance(pv.Group((0,), -1)), "target must be non-negative"),
        (lambda: pv.GeneratorConfig(cost_range=(-1, 3)), "bad cost_range"),
        (lambda: pv.GeneratorConfig(cost_range=(5, 2)), "bad cost_range"),
        (lambda: pv.GeneratorConfig(weight_range=(0, 1)), "bad weight_range"),
        (lambda: pv.generate_random(1, 3, 1, 0), "at least two vertices"),
        (lambda: pv.generate_random(5, 2, 3, 0), "need m >= r >= 1"),
        (lambda: pv.generate_star(0), "star degree must be at least 1"),
        (lambda: pv.with_overlapping_groups(pv.generate_star(3), 1.5, 0),
         "extra_prob must be in [0, 1]"),
        (lambda: pv.SetCoverInstance(0, ((0,),), (1,)), "at least one element"),
        (lambda: pv.SetCoverInstance(1, ((0,),), (1, 2)), "one cost per set"),
        (lambda: pv.SetCoverInstance(1, (), ()), "at least one set"),
        (lambda: pv.LinearProgram([]), "at least one variable"),
    ],
)
def test_constructors_and_generators_reject_bad_input(build, needle):
    with pytest.raises(pv.InputError) as err:
        build()
    assert needle in str(err.value)


def test_instance_bytes_decode_as_utf8(tmp_path, capsys):
    text = PATH_TEXT + "# caf\u00e9\n"
    assert pv.parse_instance(text.encode("utf-8")) == pv.parse_instance(text)
    path = tmp_path / "latin1.pvc"
    path.write_bytes(text.encode("latin-1"))
    assert cli.main(["solve", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path} is not valid UTF-8")


def test_parse_is_linear_in_a_large_group():
    """One group of 50,000 members parses in well under a quadratic scan's time."""
    inst = pv.generate_star(50_000)
    text = pv.serialize_instance(inst)
    start = time.perf_counter()
    again = pv.parse_instance(text)
    assert time.perf_counter() - start < 3.0
    assert again == inst
    # a member repeated on a later line of the same group names that line
    with pytest.raises(pv.InputError, match=r"line 9: duplicate edge 0 in group 0"):
        pv.parse_instance(PATH_TEXT + "g 0 0\n")


def test_parse_serialize_round_trip_is_identity():
    for inst in random_instances(12, n=9, m=13, r=3, weight_max=4):
        text = pv.serialize_instance(inst)
        again = pv.parse_instance(text)
        assert again == inst
        # canonical form is a fixed point
        assert pv.serialize_instance(again) == text


def test_serialize_is_canonical(path3):
    text = pv.serialize_instance(path3)
    assert text == PATH_TEXT
    assert text.endswith("\n")
    assert "  " not in text


def test_strict_partition_check(path3):
    pv.check_strict_partition(path3)  # groups cover each edge exactly once
    extra = pv.parse_instance(
        "p pvc 3 2 2\nv 0 1\nv 1 1\nv 2 1\ne 0 0 1 1\ne 1 1 2 1\n"
        "g 0 0 1\ng 1 1\nk 0 1\nk 1 1\n"
    )
    with pytest.raises(pv.InputError):
        pv.check_strict_partition(extra)
    # the parse-time flag routes through the same check
    with pytest.raises(pv.InputError):
        pv.parse_instance(pv.serialize_instance(extra), strict_partition=True)


def test_group_target_zero_is_allowed():
    inst = pv.parse_instance(PATH_TEXT.replace("k 0 2", "k 0 0"))
    assert pv.is_feasible(inst, ())


def test_coverage_counts_weighted_edges_once():
    inst = pv.parse_instance(
        "p pvc 3 3 2\nv 0 0\nv 1 0\nv 2 0\n"
        "e 0 0 1 2\ne 1 1 2 3\ne 2 0 2 5\n"
        "g 0 0 1\ng 1 1 2\nk 0 4\nk 1 3\n"
    )
    assert pv.coverage(inst, (1,)) == (5, 3)
    assert pv.coverage(inst, (0, 2)) == (5, 8)
    assert pv.is_feasible(inst, (1,))
    assert not pv.is_feasible(inst, (0,))


def test_coverage_matches_naive_recount():
    for inst in random_instances(8, n=8, m=12, r=3, weight_max=5) + random_instances(
        8, n=8, m=12, r=3, weight_max=5, overlap=0.35
    ):
        rng = np.random.default_rng(inst.m)
        chosen = tuple(v for v in range(inst.n) if rng.random() < 0.4)
        got = pv.coverage(inst, chosen)
        want = []
        for g in inst.groups:
            w = 0
            for eid in g.edges:
                e = inst.edges[eid]
                if e.u in chosen or e.v in chosen:
                    w += e.weight
            want.append(w)
        assert got == tuple(want)


def test_covered_weights_one_mask_and_a_batch_match_naive_recount():
    for inst in random_instances(6, n=9, m=14, r=4, weight_max=5) + random_instances(
        6, n=9, m=14, r=4, weight_max=5, overlap=0.35
    ):
        masks = np.random.default_rng(inst.m).random((7, inst.n)) < 0.35
        want = [
            [
                sum(inst.edges[eid].weight for eid in g.edges
                    if row[inst.edges[eid].u] or row[inst.edges[eid].v])
                for g in inst.groups
            ]
            for row in masks.tolist()
        ]
        batch = covered_weights(inst, masks)
        assert batch.shape == (7, inst.r) and batch.dtype == np.int64
        assert batch.tolist() == want
        for row, expect in zip(masks, want):
            one = covered_weights(inst, row)
            assert one.shape == (inst.r,) and one.dtype == np.int64
            assert one.tolist() == expect


def test_generate_star_shape():
    star = pv.generate_star(5)
    assert star.n == 6
    assert star.m == 5
    assert star.r == 1
    assert all(e.u == 0 for e in star.edges)
    assert star.groups[0].target == 1
    assert star.costs == (1,) * 6


def test_generate_random_respects_invariants_and_is_reproducible():
    a = pv.generate_random(10, 15, 4, seed=7)
    b = pv.generate_random(10, 15, 4, seed=7)
    assert a == b
    assert a.n == 10 and a.m == 15 and a.r == 4
    for gi, g in enumerate(a.groups):
        assert g.edges  # generator never leaves a group empty
        assert 1 <= g.target <= sum(a.edges[eid].weight for eid in g.edges)
    assert pv.generate_random(10, 15, 4, seed=8) != a


def test_with_overlapping_groups_only_adds_memberships():
    base = pv.generate_random(9, 14, 3, seed=3)
    fat = pv.with_overlapping_groups(base, 0.5, seed=11)
    assert fat.costs == base.costs and fat.edges == base.edges
    grew = False
    for old, new in zip(base.groups, fat.groups):
        assert set(old.edges) <= set(new.edges)
        grew = grew or len(new.edges) > len(old.edges)
        assert 1 <= new.target <= sum(fat.edges[eid].weight for eid in new.edges)
    assert grew  # at probability 0.5 on 14 edges this is essentially certain


def test_incidence_matches_brute_force_rebuild():
    insts = (
        random_instances(4, 12, 20, 4, weight_max=3)
        + random_instances(4, 12, 20, 4, weight_max=3, overlap=0.3)
        + [pv.generate_star(100)]
    )
    shared = 0
    for inst in insts:
        inc = inst.incidence
        assert inst.incidence is inc
        for v in range(inst.n):
            want = tuple(eid for eid, e in enumerate(inst.edges) if v in (e.u, e.v))
            assert inc.vertex_edges[v] == want
        for eid in range(inst.m):
            want = tuple(gi for gi, g in enumerate(inst.groups) if eid in g.edges)
            assert inc.edge_groups[eid] == want
            shared += len(want) > 1
        for lists in (inc.vertex_edges, inc.edge_groups):
            assert all(type(i) is int for ids in lists for i in ids)
        assert len(inc.group_members) == inst.r
        for gi, g in enumerate(inst.groups):
            edges = [inst.edges[eid] for eid in g.edges]
            want = tuple((eid, e.u, e.v, e.weight) for eid, e in zip(g.edges, edges))
            assert inc.group_members[gi] == want
            assert all(type(i) is int for member in inc.group_members[gi] for i in member)
        assert len(inc.group_arrays) == inst.r
        for g, arrays in zip(inst.groups, inc.group_arrays):
            members = [inst.edges[eid] for eid in g.edges]
            for arr, want in zip(arrays, ([e.u for e in members], [e.v for e in members],
                                          [e.weight for e in members])):
                assert arr.dtype == np.int64 and not arr.flags.writeable
                assert arr.tolist() == want
    assert shared  # the overlapping family puts some edges in several groups


def test_cover_counts_follow_random_mark_unmark_sequences():
    """After every step the counter equals the whole-set covered weights;
    groups overlap and edges run parallel."""
    rng = random.Random(7)
    parallel = 0
    for inst in random_instances(6, 7, 16, 3, weight_max=3, overlap=0.3):
        parallel += len({(e.u, e.v) for e in inst.edges}) < inst.m
        counts = CoverCounts(inst)
        marked = set()
        for _ in range(120):
            v = rng.randrange(inst.n)
            if v not in marked:
                counts.mark(v)
                marked.add(v)
            else:
                counts.unmark(v)
                marked.remove(v)
            picked = np.zeros(inst.n, dtype=bool)
            picked[list(marked)] = True
            assert counts.weights == covered_weights(inst, picked).tolist()
    assert parallel


def test_set_cover_parse_and_serialize():
    text = "p sc 3 2\ns 0 4 0 1\ns 1 2 1 2\n"
    sc = pv.parse_set_cover(text)
    assert sc.n_elements == 3
    assert sc.costs == (4, 2)
    assert sc.sets == ((0, 1), (1, 2))
    assert pv.serialize_set_cover(sc) == text
    with pytest.raises(pv.InputError):
        pv.parse_set_cover("p sc 3 1\ns 0 4 0 1\n")  # element 2 uncoverable


def test_reduce_set_cover_structure():
    sc = pv.parse_set_cover("p sc 3 2\ns 0 4 0 1\ns 1 2 1 2\n")
    inst = pv.reduce_set_cover(sc)
    # left side: one vertex per set, then one heavy vertex per element
    assert inst.n == 5
    assert inst.costs[:2] == (4, 2)
    assert all(c == 1 + 4 + 2 for c in inst.costs[2:])
    assert inst.r == 3
    for g in inst.groups:
        assert g.target == 1
    # element i's group holds exactly the edges of the sets containing it
    got = {gi: sorted((inst.edges[eid].u, inst.edges[eid].v) for eid in g.edges)
           for gi, g in enumerate(inst.groups)}
    assert got[0] == [(0, 2)]
    assert got[1] == [(0, 3), (1, 3)]
    assert got[2] == [(1, 4)]


FUZZ_VOCAB = ["99999999999999999999", "1000000", "-1", "g", "1.5", "\x00", "0", "1",
              "2", "g0", "p", "v", "e", "k", "s", "pvc", "sc", "#"]


def _mutate(text, rnd):
    lines = text.splitlines()
    for _ in range(rnd.randint(1, 3)):
        if not lines:
            break
        i = rnd.randrange(len(lines))
        toks = lines[i].split()
        op = rnd.randrange(7)
        if op == 0 and toks:  # replace a token
            toks[rnd.randrange(len(toks))] = rnd.choice(FUZZ_VOCAB)
        elif op == 1 and toks:  # drop a token
            del toks[rnd.randrange(len(toks))]
        elif op == 2 and toks:  # duplicate a token
            j = rnd.randrange(len(toks))
            toks.insert(j, toks[j])
        elif op == 3:  # truncate a line
            toks = toks[: rnd.randrange(len(toks) + 1)]
        elif op == 4:  # drop a line
            del lines[i]
            continue
        elif op == 5:  # duplicate a line
            lines.insert(i, lines[i])
            continue
        else:  # insert a vocabulary token
            toks.insert(rnd.randrange(len(toks) + 1), rnd.choice(FUZZ_VOCAB))
        lines[i] = " ".join(toks)
    out = "\n".join(lines) + "\n"
    if rnd.random() < 0.1:  # truncate the file
        out = out[: rnd.randrange(len(out) + 1)]
    return out


def test_parser_fuzz_raises_only_input_error():
    """Seeded mutations of valid files either parse or raise InputError."""
    rnd = random.Random(20111208)
    bases = [
        (pv.parse_instance, PATH_TEXT),
        (pv.parse_instance, pv.serialize_instance(random_instances(1, n=6, m=9, r=3)[0])),
        (pv.parse_set_cover, "p sc 4 3\ns 0 2 0 1\ns 1 3 1 2 3\ns 2 4 0 3\n"),
    ]
    for case in range(2000):
        parse, text = bases[case % len(bases)]
        mutated = _mutate(text, rnd)
        try:
            parse(mutated)
        except pv.InputError:
            pass
        except Exception as exc:
            pytest.fail(f"case {case}: {type(exc).__name__}: {exc} on {mutated!r}")
