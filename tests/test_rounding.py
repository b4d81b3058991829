"""Threshold rounding: stream pinning, probabilities, the solve driver."""

import hashlib
import math

import numpy as np
import pytest

import pvcover as pv
from pvcover.instance import _rng
from pvcover.rounding import MAX_RESTARTS
from conftest import cube_set_cover_text, philox, random_instances


def test_rounds_for_schedule():
    assert pv.rounds_for(1) == 4
    assert pv.rounds_for(3) == 8
    assert pv.rounds_for(8) == 16
    with pytest.raises(ValueError):
        pv.rounds_for(0)


def test_round_once_takes_threshold_vertices_outright(star5):
    x = [1 / 6, 0.0, 0.0, 0.0, 0.0, 0.0]
    for seed in range(5):
        sel = pv.round_once(star5, x, philox(seed))
        assert 0 in sel.chosen


def test_round_once_consumes_one_draw_per_low_vertex_in_id_order(star5):
    """Replay the documented stream contract with a twin generator: one draw
    per below-threshold vertex with x_v > 0, none for vertex 1 (x_v = 0)."""
    x = [0.5, 0.0, 0.12, 0.03, 0.11, 0.02]
    sel = pv.round_once(star5, x, philox(99))
    draws = philox(99).random(5)

    def picks(low, d):
        return {0} | {v for v, u in zip(low, d) if u < 6.0 * x[v]}

    want = picks([2, 3, 4, 5], draws)
    assert set(sel.chosen) == want
    assert sel.cost == len(want)
    # a draw taken for vertex 1 would shift every later vertex's draw and
    # pick another set at this seed, so the check tells the two apart
    assert picks([1, 2, 3, 4, 5], draws) != want


def test_simulate_rounds_replays_round_once_stream():
    for inst in random_instances(4, n=8, m=12, r=3, weight_max=3) + random_instances(
        4, n=8, m=12, r=3, weight_max=3, overlap=0.35
    ):
        frac = pv.solve_relaxation(inst)
        trials = 64
        matrix = pv.simulate_rounds(inst, frac.x, trials, philox(1234))
        replay = philox(1234)
        for t in range(trials):
            sel = pv.round_once(inst, frac.x, replay)
            assert sel.cost == matrix.costs[t]
            feas = tuple(
                c >= g.target for c, g in zip(sel.covered, inst.groups)
            )
            assert feas == tuple(matrix.success[t])


def test_simulate_rounds_matches_closed_form_probability(lopsided_edge):
    x = [0.1, 0.05]
    # pick probabilities 0.6 and 0.3, so the edge is covered with 1 - 0.4*0.7
    rates = pv.single_round_success(lopsided_edge, x, trials=50_000, seed=8)
    assert rates[0].frequency == pytest.approx(0.72, abs=0.01)
    assert 0 < rates[0].radius < 0.01


def test_single_round_success_is_deterministic(star5):
    x = [0.2, 0.1, 0.1, 0.0, 0.0, 0.05]
    a = pv.single_round_success(star5, x, trials=2000, seed=3)
    b = pv.single_round_success(star5, x, trials=2000, seed=3)
    assert a == b
    assert pv.single_round_success(star5, [1.0] + [0.0] * 5, 100, 0)[0].frequency == 1.0


def test_expected_round_cost_closed_form(lopsided_edge):
    assert pv.expected_round_cost(lopsided_edge, [0.1, 0.05]) == pytest.approx(3.3)
    # the per-vertex probability saturates at one
    assert pv.expected_round_cost(lopsided_edge, [0.5, 0.2]) == pytest.approx(8.0)


def test_empirical_round_cost_tracks_closed_form():
    inst = random_instances(1, n=9, m=14, r=3, seed0=2)[0]
    frac = pv.solve_relaxation(inst)
    trials = 30_000
    samples = pv.simulate_rounds(inst, frac.x, trials, philox(5))
    want = pv.expected_round_cost(inst, frac.x)
    se = samples.costs.std(ddof=1) / math.sqrt(trials)
    assert abs(samples.costs.mean() - want) <= 4 * se


def test_precondition_margins_on_clean_points():
    for inst in random_instances(8, n=8, m=12, r=3):
        frac = pv.solve_relaxation(inst)
        for gi, margin in pv.precondition_margins(inst, frac.x):
            assert margin >= 1.0 - 1e-6


def test_solve_rounded_rejects_unclean_points(path3):
    bogus = pv.FractionalSolution(x=(0.0, 0.0, 0.0), objective=0.0, certificate=())
    with pytest.raises(pv.SolverError, match="precondition"):
        pv.solve_rounded(path3, bogus)


def test_solve_rounded_deterministic_and_feasible():
    inst = random_instances(1, n=10, m=16, r=4, seed0=9)[0]
    frac = pv.solve_relaxation(inst)
    cfg = pv.RoundingConfig(seed=21)
    sel_a, rep_a = pv.solve_rounded(inst, frac, cfg)
    sel_b, rep_b = pv.solve_rounded(inst, frac, cfg)
    assert sel_a == sel_b
    assert rep_a.cost == rep_b.cost and rep_a.restarts == rep_b.restarts
    assert pv.is_feasible(inst, sel_a.chosen)
    assert rep_a.rounds == pv.rounds_for(inst.r)
    assert rep_a.feasible
    # a different seed is allowed to land elsewhere
    sel_c, _ = pv.solve_rounded(inst, frac, pv.RoundingConfig(seed=22))
    assert pv.is_feasible(inst, sel_c.chosen)


def _replay_attempt(inst, x, seed, attempt, rounds):
    """The union of round_once over the documented seed tree's attempt: one
    stream per attempt, whose consecutive draws are its rounds."""
    attempt_seed = np.random.SeedSequence(seed).spawn(MAX_RESTARTS)[attempt]
    rng = np.random.Generator(np.random.Philox(attempt_seed))
    union: set[int] = set()
    for _ in range(rounds):
        union.update(pv.round_once(inst, x, rng).chosen)
    return union


# the centre alone covers the star; the leaves draw with probability 6 x_v
STAR_POINT = (0.5, 0.12, 0.03, 0.0, 0.11, 0.02)


def test_solve_rounded_union_replays_from_the_seed_tree(star5):
    """The documented stream layout: attempt streams are spawned off the seed,
    one generator per attempt whose rows are the rounds."""
    frac = pv.FractionalSolution(x=STAR_POINT, objective=sum(STAR_POINT), certificate=())
    sel, rep = pv.solve_rounded(star5, frac, pv.RoundingConfig(seed=77))
    assert rep.restarts == 0
    union = _replay_attempt(star5, STAR_POINT, 77, 0, rep.rounds)
    assert set(sel.chosen) == union
    # the rounds drew some leaves but not all, so the union rests on the draws
    assert {0} < union < {0, 1, 2, 4, 5}


@pytest.mark.parametrize("rejected", [1, 2])
def test_solve_rounded_restart_replays_its_attempt_seed(star5, monkeypatch, rejected):
    """Attempt a draws from SeedSequence(seed).spawn(MAX_RESTARTS)[a], whether
    or not the earlier attempts' seeds were spawned before it started."""
    x = STAR_POINT
    frac = pv.FractionalSolution(x=x, objective=sum(x), certificate=())
    real = pv.rounding.is_feasible
    calls = []

    def reject_first(inst_, chosen):
        calls.append(chosen)
        return len(calls) > rejected and real(inst_, chosen)

    monkeypatch.setattr("pvcover.rounding.is_feasible", reject_first)
    sel, rep = pv.solve_rounded(star5, frac, pv.RoundingConfig(seed=31))
    assert rep.restarts == rejected
    rounds = pv.rounds_for(star5.r)
    unions = [_replay_attempt(star5, x, 31, a, rounds) for a in range(rejected + 1)]
    assert [set(c) for c in calls] == unions
    assert set(sel.chosen) == unions[-1]
    # the attempts drew different unions, so a wrong attempt seed would show
    assert unions[-1] != unions[0]


@pytest.mark.parametrize("low", [0.0, 1e-17])
def test_solve_rounded_builds_round_streams_only_when_a_draw_can_pick(star5, monkeypatch, low):
    """A uniform draw in [0, 1) is never below 0, so with every below-threshold
    pick probability exactly 0 no stream is built; a round-off probability
    such as 6e-17 still draws every round from one stream per attempt, since
    a 0.0 draw picks."""
    x = (0.5, 0.0, 0.0, low, 0.0, 0.0)
    frac = pv.FractionalSolution(x=x, objective=sum(x), certificate=())
    built = []
    philox = np.random.Philox
    monkeypatch.setattr(np.random, "Philox", lambda seed: built.append(seed) or philox(seed))
    sel, rep = pv.solve_rounded(star5, frac, pv.RoundingConfig(seed=5))
    monkeypatch.undo()
    rounds = pv.rounds_for(star5.r)
    assert rep.restarts == 0 and rep.rounds == rounds
    assert len(built) == (0 if low == 0.0 else 1)
    assert set(sel.chosen) == _replay_attempt(star5, x, 5, 0, rounds)


def test_single_round_success_is_simulate_rounds_frequency():
    for i, inst in enumerate(random_instances(3, n=9, m=14, r=3, weight_max=3, overlap=0.3)):
        # every vertex below the threshold, so every group's frequency is inside (0, 1)
        x = philox(i).uniform(0.0, 0.1, size=inst.n).tolist()
        rates = pv.single_round_success(inst, x, trials=500, seed=12)
        samples = pv.simulate_rounds(inst, x, 500, philox(12))
        want = [float(samples.success[:, gi].mean()) for gi in range(inst.r)]
        assert [rate.frequency for rate in rates] == want
        assert all(0.0 < p < 1.0 for p in want)


# two disjoint unit edges, one group each: a point whose threshold set meets
# one group leaves only the other open
TWO_EDGES_TEXT = """\
p pvc 4 2 2
v 0 1
v 1 1
v 2 1
v 3 1
e 0 0 1 1
e 1 2 3 1
g 0 0
g 1 1
k 0 1
k 1 1
"""


def _round_success_reference(inst, x, trials, seed):
    """Per-round group success by a plain recount of each round's coverage,
    the rounds replayed with round_once from the same stream."""
    rng = philox(seed)
    rows = []
    for _ in range(trials):
        chosen = set(pv.round_once(inst, x, rng).chosen)
        rows.append([
            sum(inst.edges[eid].weight for eid in g.edges
                if inst.edges[eid].u in chosen or inst.edges[eid].v in chosen) >= g.target
            for g in inst.groups
        ])
    return rows


def test_round_success_matches_per_round_coverage_reference():
    """Rounds are not evaluated when the threshold set alone meets every
    group; with or without that shortcut, each round's success is its
    recounted coverage."""
    points = []
    for i, inst in enumerate(random_instances(3, n=9, m=14, r=3, weight_max=3, overlap=0.3)):
        points.append((inst, pv.solve_relaxation(inst).x))
        points.append((inst, philox(i).uniform(0.0, 0.1, size=inst.n).tolist()))
    two = pv.parse_instance(TWO_EDGES_TEXT)
    points += [(two, (0.5, 0.0, 0.05, 0.05)), (two, (0.05, 0.05, 0.5, 0.0))]
    trials = 300
    shortcut = 0
    for inst, x in points:
        sure_cover = pv.coverage(inst, pv.threshold_set(x))
        shortcut += all(w >= g.target for w, g in zip(sure_cover, inst.groups))
        want = _round_success_reference(inst, x, trials, seed=12)
        samples = pv.simulate_rounds(inst, x, trials, philox(12))
        assert samples.success.shape == (trials, inst.r)
        assert samples.success.tolist() == want
        rates = pv.single_round_success(inst, x, trials, seed=12)
        assert [rate.frequency for rate in rates] == [sum(col) / trials for col in zip(*want)]
    # the clean points take the shortcut; the others leave groups open
    assert 0 < shortcut < len(points)


def test_solve_rounded_prune_keeps_feasibility():
    inst = random_instances(1, n=10, m=16, r=3, seed0=14)[0]
    frac = pv.solve_relaxation(inst)
    sel, rep = pv.solve_rounded(inst, frac, pv.RoundingConfig(seed=4), prune=True)
    assert rep.pruned_cost is not None
    assert rep.pruned_cost <= sel.cost
    assert pv.is_feasible(inst, rep.pruned_chosen)
    assert set(rep.pruned_chosen) <= set(sel.chosen)


def _reverse_delete(inst, chosen, tie=1):
    """Reference pruning: most expensive first, ties by id (lower first when
    tie is 1), dropping each vertex whose removal keeps the set feasible."""
    kept = set(chosen)
    for v in sorted(chosen, key=lambda v: (-inst.costs[v], tie * v)):
        if pv.is_feasible(inst, kept - {v}):
            kept.remove(v)
    return tuple(sorted(kept))


def test_prune_matches_reverse_delete_reference():
    """_prune keeps what a whole-set reverse delete keeps, on random feasible
    unions with zero and tied costs and overlapping groups; some unions keep
    a different set when ties go to the higher id, so the tie rule is pinned."""
    rng = np.random.default_rng(5)
    cfg = pv.GeneratorConfig(cost_range=(0, 3), weight_range=(1, 4))
    unions = tie_sensitive = 0
    for seed in range(40):
        inst = pv.generate_random(10, 18, 3, seed, cfg)
        if seed % 2:
            inst = pv.with_overlapping_groups(inst, 0.4, seed=seed + 1)
        for _ in range(5):
            chosen = {v for v in range(inst.n) if rng.random() < 0.5}
            for v in rng.permutation(inst.n).tolist():
                if pv.is_feasible(inst, chosen):
                    break
                chosen.add(v)
            union = pv.VertexSelection.from_set(inst, chosen)
            assert pv.rounding._prune(inst, union) == _reverse_delete(inst, union.chosen)
            unions += 1
            tie_sensitive += _reverse_delete(inst, union.chosen, -1) != _reverse_delete(
                inst, union.chosen
            )
    assert unions == 200 and tie_sensitive >= 20


def test_solve_rounded_reports_failure_after_restarts(star5, monkeypatch):
    frac = pv.solve_relaxation(star5)
    monkeypatch.setattr("pvcover.rounding.is_feasible", lambda *_: False)
    with pytest.raises(pv.RoundingFailure, match="8 attempts"):
        pv.solve_rounded(star5, frac)


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_cube_gap_family(k):
    # the only input here where a random draw decides feasibility: from k = 4
    # on, the threshold set is empty and every group rests on the draws
    inst = pv.reduce_set_cover(pv.parse_set_cover(cube_set_cover_text(k)))
    lp_value = 2 - 2 ** (1 - k)
    frac = pv.solve_relaxation(inst)
    assert frac.objective == pytest.approx(lp_value, abs=1e-7)
    assert pv.solve_natural_lp(inst).objective == pytest.approx(lp_value, abs=1e-7)
    assert pv.greedy_solve(inst).cost == k
    sel, report = pv.solve_rounded(inst, frac, pv.RoundingConfig(seed=k), prune=True)
    assert k <= report.pruned_cost <= sel.cost
    if k >= 4:
        assert pv.threshold_set(frac.x) == ()
        margins = pv.precondition_margins(inst, frac.x)
        assert len(margins) == inst.r
        assert all(margin >= 1 - pv.EPS_OPT for _, margin in margins)
    rates = pv.single_round_success(inst, frac.x, 2000, seed=k)
    assert min(rate.frequency + rate.radius for rate in rates) >= 5 / 8


def test_small_instance_outputs_pinned():
    # the strengthened point, value, value trace, certificate and cost cap,
    # the natural value and the pruned rounding of small instances, some
    # with overlapping groups, pinned by digest: at these sizes the masters
    # are a few rows and the tie margins of the kernel and the separation
    # decide most pivots, so a change that claims to keep every float must
    # keep these bytes
    cfg = pv.GeneratorConfig(weight_range=(1, 3))
    out = []
    for n in range(14, 25):
        for seed in (1, 2, 3):
            inst = pv.generate_random(n, round(1.7 * n), n // 5, seed, cfg)
            if seed == 3:
                inst = pv.with_overlapping_groups(inst, 0.2, seed)
            frac = pv.solve_relaxation(inst, mode="delta")
            natural = pv.solve_natural_lp(inst).objective
            sel, report = pv.solve_rounded(inst, frac, pv.RoundingConfig(seed=seed), prune=True)
            rounded = (report.rounds, report.restarts, report.cost, report.feasible,
                       report.pruned_cost, report.pruned_chosen)
            out.append((frac.x, frac.objective, frac.objectives, frac.certificate,
                        frac.cost_cap, natural, sel, rounded))
    assert sum(len(o[2]) for o in out) == 196  # LP solves of the strengthened loops
    assert hashlib.sha256(repr(out).encode()).hexdigest() == (
        "0a7e238838b7a267d7aaca4dc3cf1becfec1d929505cfc41b9b4ac7b2a7cf175"
    )


@pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
def test_keyed_streams_are_the_seed_trees_children(seed):
    # the one stream rule: the stream keyed (seed, a) is SeedSequence(seed)'s
    # spawn a, which rounding attempt a draws, and the unkeyed stream is the
    # seed's own, which the generators and Monte Carlo draw
    children = np.random.SeedSequence(seed).spawn(MAX_RESTARTS)
    for a, child in enumerate(children):
        want = np.random.Generator(np.random.Philox(child)).random(64)
        assert np.array_equal(_rng(seed, a).random(64), want)
    own = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed))).random(64)
    assert np.array_equal(_rng(seed).random(64), own)


def test_cube_draws_pinned():
    # the only pinned input where draws decide the result: on the F_2^6 cube
    # reduction the threshold set is empty, the unions take 61-63 of the 63
    # sets and the Monte Carlo frequencies fall below 1, so a change to any
    # stream or to the pick rule changes these bytes
    inst = pv.reduce_set_cover(pv.parse_set_cover(cube_set_cover_text(6)))
    frac = pv.solve_relaxation(inst)
    out = []
    for seed in range(8):
        sel, report = pv.solve_rounded(inst, frac, pv.RoundingConfig(seed=seed), prune=True)
        out.append((sel.chosen, report.restarts, report.pruned_chosen))
    rates = pv.single_round_success(inst, frac.x, 2000, 1)
    out.append(tuple((rate.frequency, rate.radius) for rate in rates))
    assert min(rate.frequency for rate in rates) < 1.0
    assert hashlib.sha256(repr(out).encode()).hexdigest() == (
        "dc29e5fc6bcdda703923ce8061a694585f5bacb0561be3d34cbe01b8d9724e0f"
    )
