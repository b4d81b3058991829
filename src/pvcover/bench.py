"""Batch experiments over random instances, CSV emission, and the gap table."""

from __future__ import annotations

import csv
import io
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, PvcoverError
from .exact import DEFAULT_LIMIT, _search, exact_solve
from .greedy import greedy_solve
from .instance import GeneratorConfig, generate_random, generate_star, with_overlapping_groups
from .relaxation import solve_natural_lp, solve_relaxation
from .rounding import RoundingConfig, single_round_success, solve_rounded

__all__ = [
    "SCHEMA",
    "COLUMNS",
    "BenchConfig",
    "BenchRecord",
    "run_bench",
    "format_csv",
    "gap_rows",
]

SCHEMA = "pvcover-bench-v1"

COLUMNS = [
    "instance",
    "n",
    "m",
    "r",
    "natural_lp",
    "strengthened_lp",
    "rounded_cost",
    "exact_cost",
    "greedy_cost",
    "rounds",
    "restarts",
    "seed",
    "min_round_success",
    "status",
    "max_cost_over_exact",
    "mean_cost_over_exact",
]


@dataclass(frozen=True)
class BenchConfig:
    count: int
    seed: int
    n_range: tuple[int, int] = (6, 16)
    m_range: tuple[int, int] = (8, 24)
    r_range: tuple[int, int] = (1, 4)
    trials: int = 1000
    generator: GeneratorConfig = GeneratorConfig()
    overlap_extra: float = 0.0

    def __post_init__(self):
        if self.count < 1:
            raise InputError(f"count must be at least 1, got {self.count}")
        if self.trials < 0:
            raise InputError(f"trials must be at least 0, got {self.trials}")
        if not 0.0 <= self.overlap_extra <= 1.0:
            raise InputError(f"overlap_extra must be in [0, 1], got {self.overlap_extra}")
        for name, (lo, hi) in (("n", self.n_range), ("m", self.m_range), ("r", self.r_range)):
            if lo > hi:
                raise InputError(f"empty {name} range: min {lo} is above max {hi}")
        # generate_random's floors, checked here so no seed reaches them
        if self.n_range[0] < 2:
            raise InputError(f"n min must be at least 2 to place an edge, got {self.n_range[0]}")
        if self.r_range[0] < 1:
            raise InputError(f"r min must be at least 1, got {self.r_range[0]}")


@dataclass
class BenchRecord:
    instance: str
    n: int
    m: int
    r: int
    seed: int
    status: str = "ok"
    natural_lp: float | None = None
    strengthened_lp: float | None = None
    rounded_cost: int | None = None
    exact_cost: int | None = None
    greedy_cost: int | None = None
    rounds: int | None = None
    restarts: int | None = None
    min_round_success: float | None = None
    timings: dict = field(default_factory=dict)


def _timed(timings, stage, fn):
    t0 = time.perf_counter()
    try:
        return fn()
    finally:
        timings[stage] = time.perf_counter() - t0


def _make_instance(cfg: BenchConfig, row: int):
    rng = np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(row,)))
    )
    r = int(rng.integers(cfg.r_range[0], cfg.r_range[1] + 1))
    n = int(rng.integers(cfg.n_range[0], cfg.n_range[1] + 1))
    m_lo = max(cfg.m_range[0], r)
    m = int(rng.integers(m_lo, max(cfg.m_range[1], m_lo) + 1))
    gen_seed = int(rng.integers(0, 2**63))
    inst = generate_random(n, m, r, gen_seed, cfg.generator)
    if cfg.overlap_extra > 0.0:
        inst = with_overlapping_groups(inst, cfg.overlap_extra, int(rng.integers(0, 2**63)))
    round_seed = int(rng.integers(0, 2**63))
    mc_seed = int(rng.integers(0, 2**63))
    return inst, round_seed, mc_seed


def run_bench(cfg: BenchConfig) -> tuple[list[BenchRecord], dict]:
    """Solve cfg.count random instances end to end; never abort on a bad row.

    Returns the records plus aggregate stats: max and mean rounded/exact
    ratio and the smallest per-group single-round success frequency seen.
    """
    records = []
    ratios = []
    min_success = None
    for row in range(cfg.count):
        inst, round_seed, mc_seed = _make_instance(cfg, row)
        rec = BenchRecord(
            instance=f"rand-{row:04d}", n=inst.n, m=inst.m, r=inst.r, seed=round_seed
        )
        records.append(rec)
        try:
            nat = _timed(rec.timings, "natural", lambda: solve_natural_lp(inst))
            rec.natural_lp = nat.objective
            frac = _timed(rec.timings, "relaxation", lambda: solve_relaxation(inst))
            rec.strengthened_lp = frac.objective
            sel, rep = _timed(
                rec.timings,
                "rounding",
                lambda: solve_rounded(inst, frac, RoundingConfig(seed=round_seed)),
            )
            rec.rounded_cost = sel.cost
            rec.rounds = rep.rounds
            rec.restarts = rep.restarts
            greedy = _timed(rec.timings, "greedy", lambda: greedy_solve(inst))
            if inst.n <= DEFAULT_LIMIT:
                # the search starts from the greedy cover just computed
                exact = _timed(rec.timings, "exact", lambda: _search(inst, greedy))
                rec.exact_cost = exact.cost
                if exact.cost > 0:
                    ratios.append(sel.cost / exact.cost)
            rec.greedy_cost = greedy.cost
            if cfg.trials > 0:
                rates = _timed(
                    rec.timings,
                    "mc",
                    lambda: single_round_success(inst, frac.x, cfg.trials, mc_seed),
                )
                rec.min_round_success = min(rate.frequency for rate in rates)
                if min_success is None or rec.min_round_success < min_success:
                    min_success = rec.min_round_success
        except PvcoverError as exc:
            rec.status = f"failed:{type(exc).__name__}"
    footer = {
        "max_cost_over_exact": max(ratios) if ratios else None,
        "mean_cost_over_exact": (sum(ratios) / len(ratios)) if ratios else None,
        "min_round_success": min_success,
    }
    return records, footer


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".9g")
    return str(value)


def format_csv(records, footer, include_timings: bool = False) -> str:
    """Render records plus one aggregate row.  Appended columns are permitted
    by the schema, so timing columns only show up when asked for."""
    stages = sorted({s for rec in records for s in rec.timings}) if include_timings else []
    buf = io.StringIO()
    buf.write(f"# schema: {SCHEMA}\n")
    writer = csv.DictWriter(
        buf, COLUMNS + [f"time_{s}" for s in stages], restval="", lineterminator="\n"
    )
    writer.writeheader()
    for rec in records:
        row = {col: _fmt(getattr(rec, col)) for col in COLUMNS if hasattr(rec, col)}
        row.update((f"time_{s}", _fmt(rec.timings.get(s))) for s in stages)
        writer.writerow(row)
    writer.writerow(
        {"instance": "aggregate", "status": "ok", **{k: _fmt(v) for k, v in footer.items()}}
    )
    return buf.getvalue()


def gap_rows(degrees) -> list[tuple[int, float, float, int]]:
    """Integrality-gap table rows for star instances: degree, natural LP,
    strengthened LP, exact optimum."""
    rows = []
    for d in degrees:
        star = generate_star(d)
        nat = solve_natural_lp(star).objective
        strong = solve_relaxation(star).objective
        # stars are easy for the search whatever their size, so lift the
        # safety cap that protects exact mode on arbitrary instances
        opt = exact_solve(star, limit=star.n).cost
        rows.append((d, nat, strong, opt))
    return rows
