"""Benchmark harness: records, aggregate footer, CSV schema, gap table."""

import csv
import hashlib
import io

import pytest

import pvcover as pv
import pvcover.bench as bench
import pvcover.cli as cli


SMALL = bench.BenchConfig(
    count=4, seed=5, n_range=(6, 9), m_range=(8, 12), r_range=(1, 3), trials=200
)


def test_run_bench_fills_records_and_footer():
    records, footer = bench.run_bench(SMALL)
    assert len(records) == 4
    for rec in records:
        assert rec.status == "ok"
        assert rec.natural_lp is not None
        assert rec.strengthened_lp is not None
        assert rec.natural_lp <= rec.strengthened_lp + 1e-6
        assert rec.exact_cost is not None  # n stays under the exact limit here
        assert rec.strengthened_lp <= rec.exact_cost + 1e-6
        assert rec.rounded_cost >= rec.exact_cost
        assert rec.greedy_cost >= rec.exact_cost
        assert rec.min_round_success is not None
        assert rec.timings  # stages were measured even if not printed
    assert footer["max_cost_over_exact"] >= 1.0
    assert footer["mean_cost_over_exact"] >= 1.0
    assert footer["max_cost_over_exact"] >= footer["mean_cost_over_exact"]
    assert 0.0 <= footer["min_round_success"] <= 1.0


def test_run_bench_runs_exact_up_to_its_default_limit():
    # bench runs exact wherever exact itself would, up to exact.DEFAULT_LIMIT
    cfg = bench.BenchConfig(count=2, seed=3, n_range=(22, 22), m_range=(30, 34), trials=0)
    records, footer = bench.run_bench(cfg)
    assert pv.DEFAULT_LIMIT >= 22
    for rec in records:
        assert rec.status == "ok" and rec.n == 22
        assert rec.exact_cost is not None
        assert rec.strengthened_lp <= rec.exact_cost + 1e-6 <= rec.rounded_cost + 1e-6
    assert footer["mean_cost_over_exact"] >= 1.0


def test_run_bench_is_deterministic():
    rec_a, foot_a = bench.run_bench(SMALL)
    rec_b, foot_b = bench.run_bench(SMALL)
    assert foot_a == foot_b
    assert bench.format_csv(rec_a, foot_a) == bench.format_csv(rec_b, foot_b)


def test_format_csv_schema_and_aggregate_row():
    records, footer = bench.run_bench(SMALL)
    text = bench.format_csv(records, footer)
    lines = text.splitlines()
    assert lines[0] == "# schema: pvcover-bench-v1"
    rows = list(csv.reader(io.StringIO("\n".join(lines[1:]))))
    assert rows[0] == bench.COLUMNS
    assert len(rows) == 1 + len(records) + 1
    agg = rows[-1]
    assert agg[0] == "aggregate"
    assert float(agg[bench.COLUMNS.index("max_cost_over_exact")]) >= 1.0
    # per-record rows leave the aggregate-only columns empty
    for row in rows[1:-1]:
        assert row[bench.COLUMNS.index("max_cost_over_exact")] == ""
    assert "time_" not in text


def test_format_csv_header_is_the_v1_schema():
    # COLUMNS comes from BenchRecord's fields, so the header is checked
    # against the schema's own list
    header = bench.format_csv(*bench.run_bench(SMALL)).splitlines()[1]
    assert header.split(",") == [
        "instance", "n", "m", "r", "natural_lp", "strengthened_lp", "rounded_cost",
        "exact_cost", "greedy_cost", "rounds", "restarts", "seed", "min_round_success",
        "status", "max_cost_over_exact", "mean_cost_over_exact",
    ]


def test_bench_csv_pinned():
    # every bench row's instance, rounding and Monte Carlo seed comes from the
    # stream keyed (seed, row); here the threshold set decides every group,
    # so this pins those streams and the solvers, and the cube digest in
    # test_rounding.py pins the draws
    cfg = bench.BenchConfig(
        count=30, seed=3, overlap_extra=0.2, trials=200,
        generator=pv.GeneratorConfig(weight_range=(1, 3)),
    )
    text = bench.format_csv(*bench.run_bench(cfg))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "615a4e8f911d5ce984cfbf310c4569359259feb2c2d019e7bf664ec536f10713"
    )


def test_format_csv_optional_timing_columns():
    records, footer = bench.run_bench(SMALL)
    text = bench.format_csv(records, footer, include_timings=True)
    header = text.splitlines()[1]
    assert "time_relaxation" in header
    assert "time_rounding" in header


def test_run_bench_marks_failed_rows(monkeypatch):
    def boom(*args, **kwargs):
        raise pv.SolverError("forced failure")

    monkeypatch.setattr(bench, "solve_relaxation", boom)
    records, footer = bench.run_bench(SMALL)
    assert all(rec.status == "failed:SolverError" for rec in records)
    assert footer["max_cost_over_exact"] is None
    # the CSV still renders, with blanks where numbers would be
    text = bench.format_csv(records, footer)
    assert "failed:SolverError" in text


def test_bench_respects_overlap():
    cfg = bench.BenchConfig(
        count=2, seed=9, n_range=(6, 8), m_range=(8, 10), r_range=(2, 3),
        trials=50, overlap_extra=0.4,
    )
    records, _ = bench.run_bench(cfg)
    assert all(rec.status == "ok" for rec in records)


@pytest.mark.parametrize(
    "field, value",
    [
        ("count", 0),
        ("count", -1),
        ("trials", -5),
        ("overlap_extra", -1.0),
        ("overlap_extra", 1.5),
    ],
)
def test_bench_config_rejects_bad_values(field, value):
    with pytest.raises(pv.InputError):
        bench.BenchConfig(**{"count": 1, "seed": 1, field: value})


@pytest.mark.parametrize("seed", [0, 1])
def test_bench_rejects_n_below_2_and_r_below_1_at_every_seed(capsys, seed):
    """Such a range used to fail only when some row drew the bad value, so
    the exit code hung on the seed; now no row runs."""
    for field, value, flags in (
        ("n_range", (1, 4), ["--n-min", "1", "--n-max", "4"]),
        ("r_range", (0, 3), ["--r-min", "0", "--r-max", "3"]),
    ):
        with pytest.raises(pv.InputError, match=f"{field[0]} min must be at least"):
            bench.BenchConfig(count=3, seed=seed, trials=0, **{field: value})
        argv = ["bench", "--count", "3", "--trials", "0", "--seed", str(seed), *flags]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"error: {field[0]} min")


def test_gap_rows_pinned_values():
    # 100 exceeds the exact solver's default size cap; gap_rows must lift it
    rows = bench.gap_rows([2, 5, 100])
    assert [d for d, *_ in rows] == [2, 5, 100]
    for d, nat, strong, opt in rows:
        assert nat == pytest.approx(1.0 / d, abs=1e-6)
        assert strong == pytest.approx(1.0, abs=1e-6)
        assert opt == 1
