"""Acceptance gate: one test per shipped guarantee.

Each test asserts one externally stated property of the package —
integrality-gap values on stars, the per-round success floor, cost bounds,
the LP sandwich, the set-cover reduction, kernel correctness, and CLI
determinism — together with its wall-clock budget.  Criteria 2-6 are
written as family-parameterized bodies so the final test can re-run them
unchanged on weighted and overlapping-group inputs.

Tolerances are pinned here on purpose; loosening one is an interface
change, not a test fix.
"""

import functools
import itertools
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import pvcover as pv
from pvcover.exact import exact_solve
from pvcover.instance import (
    GeneratorConfig,
    SetCoverInstance,
    generate_random,
    generate_star,
    reduce_set_cover,
    serialize_instance,
    with_overlapping_groups,
)
from pvcover.relaxation import solve_natural_lp
from pvcover.rounding import (
    RoundingConfig,
    expected_round_cost,
    precondition_margins,
    rounds_for,
    simulate_rounds,
    single_round_success,
    solve_rounded,
)

from conftest import random_instances
from test_lp import random_lp, solve_both


@dataclass(frozen=True)
class Family:
    """One input regime for the shared criterion bodies."""

    weight_max: int
    overlap: float
    # (n, m, r, seed) of an instance whose solution keeps some vertex
    # strictly inside (0, threshold), so rounds genuinely vary
    variance_case: tuple[int, int, int, int]
    # more such instances: which optimal vertex the LP reaches decides
    # whether one rounds randomly, and its alternative optima may not
    extra_variance_cases: tuple[tuple[int, int, int, int], ...] = ()


FAMILIES = {
    "base": Family(
        weight_max=1, overlap=0.0, variance_case=(12, 26, 2, 27),
        extra_variance_cases=((12, 26, 2, 48),),
    ),
    "weighted": Family(weight_max=5, overlap=0.0, variance_case=(14, 20, 4, 11)),
    "overlapping": Family(weight_max=1, overlap=0.35, variance_case=(14, 20, 4, 22)),
}


def make_instance(n, m, r, seed, fam: Family):
    inst = generate_random(
        n, m, r, seed, GeneratorConfig(weight_range=(1, fam.weight_max))
    )
    if fam.overlap > 0:
        inst = with_overlapping_groups(inst, fam.overlap, seed=seed + 104729)
    return inst


@functools.lru_cache(maxsize=None)
def family_solutions(name):
    """Twenty solved instances (n=16, m=24, r=5) shared by several criteria."""
    fam = FAMILIES[name]
    out = []
    for inst in random_instances(
        20, 16, 24, 5, seed0=0, weight_max=fam.weight_max, overlap=fam.overlap
    ):
        out.append((inst, pv.solve_relaxation(inst)))
    return tuple(out)


# ------------------------------------------------------------------ bodies
# Criteria 2-6 live in these functions; budgets are asserted inside so the
# re-runs in criterion 10 face identical pass conditions.

def check_single_round_success(name):
    """Per-group single-round success frequency >= 5/8 - radius (99%)."""
    start = time.perf_counter()
    trials = 20000
    for i, (inst, frac) in enumerate(family_solutions(name)):
        rates = single_round_success(inst, frac.x, trials, seed=i)
        for gi, rate in enumerate(rates):
            assert rate.frequency >= 5 / 8 - rate.radius, (
                f"{name} instance {i} group {gi}: "
                f"{rate.frequency:.5f} < 5/8 - {rate.radius:.5f}"
            )
    assert time.perf_counter() - start < 120


def check_cover_margins(name):
    """Every positive-residual group keeps its normalized row at >= 1."""
    start = time.perf_counter()
    for i, (inst, frac) in enumerate(family_solutions(name)):
        for gi, margin in precondition_margins(inst, frac.x):
            assert margin >= 1 - 1e-6, f"{name} instance {i} group {gi}: {margin}"
    assert time.perf_counter() - start < 30


def check_round_cost(name):
    """50,000-round empirical mean cost vs the closed form, plus its cap."""
    start = time.perf_counter()
    fam = FAMILIES[name]
    cases = [make_instance(*fam.variance_case, fam)]
    cases += [inst for inst, _ in family_solutions(name)[:2]]
    cases += [make_instance(*case, fam) for case in fam.extra_variance_cases]
    trials = 50000
    saw_variance = False
    for idx, inst in enumerate(cases):
        frac = pv.solve_relaxation(inst)
        closed = expected_round_cost(inst, frac.x)
        assert closed <= 6 * frac.objective + 1e-9
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(1000 + idx)))
        samples = simulate_rounds(inst, frac.x, trials, rng)
        mean = float(samples.costs.mean())
        se = float(samples.costs.std(ddof=1)) / math.sqrt(trials)
        if se == 0.0:
            # solution rounds deterministically; the mean must match outright
            assert abs(mean - closed) < 1e-9
        else:
            saw_variance = True
            assert abs(mean - closed) <= 3 * se, (
                f"{name} case {idx}: |{mean:.5f} - {closed:.5f}| > 3x{se:.6f}"
            )
    assert saw_variance, f"{name}: no case exercised random rounds"
    assert time.perf_counter() - start < 60


def check_end_to_end(name):
    """200 full solves: failure rate before restarts < 5%, cost cap always."""
    start = time.perf_counter()
    fam = FAMILIES[name]
    failures = 0
    for i in range(200):
        r = 1 + (i % 8)
        inst = make_instance(12, 20, r, 9000 + i, fam)
        frac = pv.solve_relaxation(inst)
        sel, report = solve_rounded(inst, frac, RoundingConfig(seed=i))
        assert report.feasible
        if report.restarts > 0:
            failures += 1
        bound = 6 * rounds_for(inst.r) * frac.objective
        assert report.cost <= bound + 1e-6, (
            f"{name} solve {i}: cost {report.cost} > {bound:.4f}"
        )
    assert failures / 200 < 0.05, f"{name}: {failures}/200 first attempts failed"
    assert time.perf_counter() - start < 180


def check_sandwich(name):
    """natural <= strengthened <= exact <= rounded on 50 instances, n <= 16."""
    start = time.perf_counter()
    fam = FAMILIES[name]
    ratios = []
    for i in range(50):
        inst = make_instance(16, 24, 4, 5000 + i, fam)
        nat = solve_natural_lp(inst).objective
        frac = pv.solve_relaxation(inst)
        opt = exact_solve(inst).cost
        sel, report = solve_rounded(inst, frac, RoundingConfig(seed=i))
        assert nat <= frac.objective + 1e-6, f"{name} instance {i}"
        assert frac.objective <= opt + 1e-6, f"{name} instance {i}"
        assert opt <= report.cost, f"{name} instance {i}"
        if opt > 0:
            ratios.append(report.cost / opt)
    assert ratios
    print(
        f"[sandwich:{name}] max rounded/exact = {max(ratios):.4f}, "
        f"mean = {sum(ratios) / len(ratios):.4f} over {len(ratios)} instances"
    )
    assert time.perf_counter() - start < 300


# ------------------------------------------------------------------ criteria

def test_criterion_01_star_gap():
    start = time.perf_counter()
    for degree in (2, 5, 20, 100):
        star = generate_star(degree)
        nat = solve_natural_lp(star)
        strong = pv.solve_relaxation(star)
        opt = exact_solve(star, limit=degree + 1)
        assert abs(nat.objective - 1 / degree) <= 1e-6
        assert abs(strong.objective - 1.0) <= 1e-6
        assert opt.cost == 1
    assert time.perf_counter() - start < 1.0


def test_criterion_02_single_round_success():
    check_single_round_success("base")


def test_criterion_03_cover_margins():
    check_cover_margins("base")


def test_criterion_04_round_cost():
    check_round_cost("base")


def test_criterion_05_end_to_end_bound():
    check_end_to_end("base")


def test_criterion_06_sandwich_and_ratio():
    check_sandwich("base")


def test_criterion_07_set_cover_reduction():
    start = time.perf_counter()
    for seed in range(20):
        sc = _random_set_cover(seed)
        direct = _brute_force_set_cover(sc)
        reduced = exact_solve(reduce_set_cover(sc))
        assert reduced.cost == direct, f"seed {seed}: {reduced.cost} != {direct}"
    assert time.perf_counter() - start < 30


def test_criterion_08_lp_kernel_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(4242)
    feasible = 0
    for _ in range(100):
        objective, rows = random_lp(rng)
        got, want_status, want_value = solve_both(objective, rows)
        assert got.status == want_status
        if want_status == "optimal":
            feasible += 1
            assert abs(got.value - want_value) <= 1e-6
    assert feasible >= 30
    # every cutting-plane trace must improve monotonically
    for inst, frac in family_solutions("base"):
        for prev, cur in zip(frac.objectives, frac.objectives[1:]):
            assert cur >= prev - 1e-7
    assert time.perf_counter() - start < 30


def test_criterion_09_cli_determinism(tmp_path):
    start = time.perf_counter()
    star_path = tmp_path / "star.pvc"
    star_path.write_text(serialize_instance(generate_star(5)), encoding="utf-8")
    rand_path = tmp_path / "rand.pvc"
    rand_path.write_text(
        serialize_instance(generate_random(10, 14, 3, 2, GeneratorConfig())),
        encoding="utf-8",
    )
    commands = [
        ["solve", str(star_path), "--seed", "0", "--prune"],
        ["solve", str(rand_path), "--seed", "3"],
        ["verify", str(rand_path), "--trials", "2000", "--seed", "1"],
        ["gap", "--degrees", "2,5,20"],
        ["generate", "random", "--n", "9", "--m", "12", "--r", "3",
         "--seed", "11", "--weight-max", "4"],
        ["bench", "--count", "2", "--seed", "4", "--n-min", "6", "--n-max", "8",
         "--m-min", "8", "--m-max", "10", "--trials", "100"],
    ]
    for argv in commands:
        first = _run_cli_process(argv)
        second = _run_cli_process(argv)
        assert first.returncode == 0, (argv, first.stderr)
        assert first.stdout == second.stdout, argv
        assert first.stdout
    assert time.perf_counter() - start < 60


def test_criterion_10_extensions():
    for name in ("weighted", "overlapping"):
        check_single_round_success(name)
        check_cover_margins(name)
        check_round_cost(name)
        check_end_to_end(name)
        check_sandwich(name)


# ------------------------------------------------------------------ helpers

def _random_set_cover(seed) -> SetCoverInstance:
    rng = np.random.default_rng(seed)
    n_elements = int(rng.integers(3, 7))
    n_sets = int(rng.integers(2, 7))
    sets = []
    for _ in range(n_sets):
        size = int(rng.integers(1, n_elements + 1))
        members = rng.choice(n_elements, size=size, replace=False)
        sets.append(tuple(sorted(int(e) for e in members)))
    covered = set().union(*sets)
    for element in range(n_elements):
        if element not in covered:
            j = int(rng.integers(0, n_sets))
            sets[j] = tuple(sorted(set(sets[j]) | {element}))
    costs = tuple(int(c) for c in rng.integers(1, 10, size=n_sets))
    return SetCoverInstance(
        n_elements=n_elements, sets=tuple(sets), costs=costs
    )


def _brute_force_set_cover(sc: SetCoverInstance) -> int:
    universe = set(range(sc.n_elements))
    best = None
    for mask in range(1 << len(sc.sets)):
        covered = set()
        cost = 0
        for j in range(len(sc.sets)):
            if mask >> j & 1:
                covered.update(sc.sets[j])
                cost += sc.costs[j]
        if covered >= universe and (best is None or cost < best):
            best = cost
    return best


SRC = str(Path(__file__).resolve().parents[1] / "src")


def _run_cli_process(argv):
    return subprocess.run(
        [sys.executable, "-m", "pvcover", *argv],
        capture_output=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": SRC},
    )
