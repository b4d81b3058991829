"""CLI surface: exit codes, output shape, file round trips, determinism."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pvcover as pv
import pvcover.cli as cli
from pvcover.instance import parse_instance

from conftest import LOPSIDED_EDGE_TEXT, cube_set_cover_text


SET_COVER_TEXT = """\
p sc 4 3
s 0 2 0 1
s 1 3 1 2 3
s 2 4 0 3
"""


@pytest.fixture
def star_file(tmp_path, star5):
    path = tmp_path / "star.pvc"
    path.write_text(pv.serialize_instance(star5), encoding="utf-8")
    return str(path)


@pytest.fixture
def edge_file(tmp_path):
    path = tmp_path / "edge.pvc"
    path.write_text(LOPSIDED_EDGE_TEXT, encoding="utf-8")
    return str(path)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- solve

def test_solve_output_shape(capsys, star_file, star5):
    code, out, err = run_cli(capsys, "solve", star_file, "--seed", "7")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == f"instance: {star_file}"
    assert "n: 6" in lines and "m: 5" in lines and "r: 1" in lines
    assert any(line.startswith("cuts: ") for line in lines)
    assert "feasible: true" in lines
    assert "seed: 7" in lines
    assert not any(line.startswith(("mode:", "cost_cap:")) for line in lines)
    assert not any(line.startswith("time_") for line in lines)
    chosen = [line for line in lines if line.startswith("chosen: ")]
    assert len(chosen) == 1
    fields = dict(line.split(": ", 1) for line in lines)
    cost = int(fields["cost"])
    assert cost == sum(star5.costs[int(v)] for v in fields["chosen"].split(","))
    assert float(fields["cost_over_lp"]) == pytest.approx(cost / float(fields["lp_objective"]))


def test_solve_delta_reports_cap(capsys, edge_file):
    # solve has no --mode; the cost cap is the library's
    # solve_relaxation(inst, mode="delta").cost_cap
    for mode in ("direct", "delta"):
        with pytest.raises(SystemExit) as exc:
            cli.main(["solve", edge_file, "--mode", mode])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--mode" in captured.err


def test_solve_prune_and_timings_lines(capsys, star_file):
    code, out, _ = run_cli(capsys, "solve", star_file, "--prune", "--timings")
    assert code == 0
    lines = out.splitlines()
    assert any(line.startswith("pruned_cost: ") for line in lines)
    assert any(line.startswith("pruned_chosen: ") for line in lines)
    assert any(line.startswith("time_round: ") for line in lines)


def test_solve_timings_include_relaxation(capsys, star_file):
    _, out, _ = run_cli(capsys, "solve", star_file, "--timings")
    stages = [line.split(":")[0] for line in out.splitlines() if line.startswith("time_")]
    assert stages == ["time_relaxation", "time_round"]
    _, out, _ = run_cli(capsys, "solve", star_file)
    assert "time_" not in out


def test_oversized_header_counts_are_exit_2(capsys, tmp_path):
    star = pv.serialize_instance(pv.generate_star(3))
    cases = [
        ("solve", star.replace("p pvc 4 3 1", "p pvc 99999999999999999999 3 1")),
        ("solve", star.replace("p pvc 4 3 1", "p pvc 4 99999999999999999999 1")),
        ("solve", star.replace("p pvc 4 3 1", "p pvc 1000000 3 1")),
        ("setcover-reduce", "p sc 2 99999999999999999999\ns 0 1 0 1\n"),
        ("setcover-reduce", "p sc 99999999999999999999 1\ns 0 1 0 1\n"),
        ("setcover-reduce", "p sc 1000000 1\ns 0 1 0 1\n"),
    ]
    negative = [
        ("solve", "p pvc -1 0 1\n", "vertex count"),
        ("setcover-reduce", "p sc -2 -1\n", "element count"),
    ]
    for i, (command, text, *named) in enumerate(cases + negative):
        path = tmp_path / f"case{i}.txt"
        path.write_text(text, encoding="utf-8")
        argv = ["solve", str(path)] if command == "solve" else ["generate", command, str(path)]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and len(err) < 200, err
        for what in named:
            assert err == f"error: line 1: {what} must be non-negative, got {text.split()[2]}\n"


def test_int64_overflow_and_zero_groups_are_exit_2(capsys, tmp_path):
    huge = "99999999999999999999"
    texts = [
        LOPSIDED_EDGE_TEXT.replace("e 0 0 1 1", f"e 0 0 1 {huge}"),
        LOPSIDED_EDGE_TEXT.replace("v 1 5", f"v 1 {huge}"),
        # each cost fits in int64, their sum does not
        LOPSIDED_EDGE_TEXT.replace("v 0 3", "v 0 5000000000000000000").replace(
            "v 1 5", "v 1 5000000000000000000"
        ),
        "p pvc 2 1 0\nv 0 3\nv 1 5\ne 0 0 1 1\n",
    ]
    for i, text in enumerate(texts):
        path = tmp_path / f"case{i}.pvc"
        path.write_text(text, encoding="utf-8")
        for command in ("solve", "verify", "greedy", "exact", "lp1"):
            code, out, err = run_cli(capsys, command, str(path))
            assert code == 2 and out == "", (i, command, code)
            assert err.startswith("error: ") and len(err) < 200, err


def test_bad_argument_values_are_exit_2(capsys, star_file):
    cases = [
        (["gap", "--degrees", "2,x"], "2,x"),
        (["bench", "--count", "1", "--seed", "1", "--n-min", "10", "--n-max", "5"], "10"),
        (["bench", "--count", "2", "--seed", "1", "--r-min", "3", "--r-max", "2"], "3"),
        (["bench", "--count", "2", "--seed", "1", "--m-min", "5", "--m-max", "-3"], "-3"),
        (["bench", "--count", "1", "--seed", "-1"], "-1"),
        (["verify", star_file, "--trials", "0"], "0"),
        (["verify", star_file, "--seed", "-1"], "-1"),
        (["solve", star_file, "--seed", "-1"], "-1"),
        (["generate", "random", "--n", "5", "--m", "6", "--r", "2", "--seed", "-1"], "-1"),
        (["bench", "--count", "0", "--seed", "1"], "0"),
        (["bench", "--count", "-1", "--seed", "1"], "-1"),
        (["bench", "--count", "1", "--seed", "1", "--trials", "-5"], "-5"),
        (["bench", "--count", "1", "--seed", "1", "--overlap-extra", "-1"], "-1"),
        (["bench", "--count", "1", "--seed", "1", "--overlap-extra", "2"], "2"),
        (["generate", "random", "--n", "5", "--m", "6", "--r", "2", "--seed", "1",
          "--overlap-extra", "-1"], "-1"),
        (["generate", "random", "--n", "5", "--m", "6", "--r", "2", "--seed", "1",
          "--overlap-extra", "1.5"], "1.5"),
        # options the fixed pipeline no longer has
        (["verify", star_file, "--mode", "delta"], "--mode"),
        (["bench", "--count", "1", "--seed", "1", "--mode", "delta"], "--mode"),
        (["solve", star_file, "--rounds-constant", "4"], "--rounds-constant"),
        (["bench", "--count", "1", "--seed", "1", "--rounds-constant", "4"],
         "--rounds-constant"),
        (["bench", "--count", "1", "--seed", "1", "--exact-limit", "20"], "--exact-limit"),
        (["generate", "random", "--n", "5", "--m", "6", "--r", "2", "--seed", "1",
          "--group-assignment", "round_robin"], "--group-assignment"),
    ]
    for argv, bad in cases:
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects a value before any command runs
            code = exc.code
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "", argv
        assert "Traceback" not in captured.err
        last = captured.err.strip().splitlines()[-1]
        assert "error" in last and bad in last, (argv, last)


def test_solve_cut_log_written(capsys, tmp_path):
    inst_path = tmp_path / "rand.pvc"
    code = cli.main([
        "generate", "random", "--n", "10", "--m", "14", "--r", "3",
        "--seed", "2", "--out", str(inst_path),
    ])
    assert code == 0
    capsys.readouterr()
    log_path = tmp_path / "cuts.log"
    code, out, _ = run_cli(
        capsys, "solve", str(inst_path), "--cut-log", str(log_path)
    )
    assert code == 0
    log_lines = log_path.read_text(encoding="utf-8").splitlines()
    assert log_lines, "this instance is known to need cuts"
    for line in log_lines:
        assert line.startswith("group=")
        assert " rhs=" in line and " lhs=" in line
    cuts_line = next(l for l in out.splitlines() if l.startswith("cuts: "))
    assert int(cuts_line.split()[1]) == sum(
        1 for l in log_lines if "suppressed=" in l
    )


def test_solve_cuts_count_the_logged_cover_rows_with_a_target_0_group(capsys, tmp_path):
    """A target-0 group starts the loop with no row, so cuts: is not the
    certificate's length less r: it counts the cover rows the loop appended."""
    code, text, _ = run_cli(capsys, "generate", "random", "--n", "12", "--m", "18",
                            "--r", "3", "--seed", "236", "--weight-max", "3")
    assert code == 0 and "k 0 6\n" in text
    inst_path = tmp_path / "zero.pvc"
    inst_path.write_text(text.replace("k 0 6\n", "k 0 0\n"), encoding="utf-8")
    log_path = tmp_path / "cuts.log"
    code, out, _ = run_cli(capsys, "solve", str(inst_path), "--cut-log", str(log_path))
    assert code == 0
    log = log_path.read_text(encoding="utf-8")
    assert log.count(" suppressed=") == 1
    assert "cuts: 1" in out.splitlines()


# ---------------------------------------------------------------- errors

def test_missing_file_is_exit_2(capsys):
    code, _, err = run_cli(capsys, "solve", "/nonexistent/foo.pvc")
    assert code == 2
    assert err.startswith("error: cannot read")


def test_parse_error_is_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.pvc"
    bad.write_text("p pvc oops\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "exact", str(bad))
    assert code == 2
    assert err.startswith("error:")


def test_exact_limit_is_exit_2(capsys, tmp_path, star5):
    path = tmp_path / "star.pvc"
    path.write_text(pv.serialize_instance(star5), encoding="utf-8")
    code, _, err = run_cli(capsys, "exact", str(path), "--limit", "3")
    assert code == 2
    assert "capped" in err


def test_unwritable_output_is_exit_2(capsys, tmp_path, star_file):
    missing = tmp_path / "no" / "such"
    code, _, err = run_cli(
        capsys, "generate", "star", "--degree", "3", "--out", str(missing / "x.pvc")
    )
    assert code == 2
    assert err.startswith("error: cannot write")
    code, out, err = run_cli(capsys, "solve", star_file, "--cut-log", str(missing / "c.log"))
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot write")


def test_solver_error_is_exit_3(capsys, star_file, monkeypatch):
    def boom(*args, **kwargs):
        raise pv.SolverError("forced")

    monkeypatch.setattr(cli, "solve_relaxation", boom)
    code, _, err = run_cli(capsys, "solve", star_file)
    assert code == 3
    assert err == "error: forced\n"


def test_out_of_memory_is_exit_3(capsys, star_file):
    # a trial count whose sample arrays run to petabytes: the allocation is
    # refused at once, so no memory is taken, and the run ends with exit 3
    for argv in (
        ["verify", star_file, "--trials", "1000000000000000"],
        ["bench", "--count", "2", "--seed", "0", "--trials", "1000000000000000"],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 3 and out == "", argv
        assert err.startswith("error: out of memory") and "Traceback" not in err


def test_rounding_failure_is_exit_4(capsys, star_file, monkeypatch):
    def boom(*args, **kwargs):
        raise pv.RoundingFailure("no luck")

    monkeypatch.setattr(cli, "solve_rounded", boom)
    code, _, err = run_cli(capsys, "solve", star_file)
    assert code == 4
    assert err == "error: no luck\n"


def test_strict_partition_flag_rejects_overlap(capsys, tmp_path):
    inst = parse_instance(LOPSIDED_EDGE_TEXT)
    doubled = pv.Instance(
        costs=inst.costs,
        edges=inst.edges,
        groups=(inst.groups[0], inst.groups[0]),
    )
    path = tmp_path / "overlap.pvc"
    path.write_text(pv.serialize_instance(doubled), encoding="utf-8")
    assert cli.main(["greedy", str(path)]) == 0
    capsys.readouterr()
    code, _, err = run_cli(capsys, "greedy", str(path), "--strict-partition")
    assert code == 2
    assert "partition" in err
    # 1999 ungrouped parallel edges: the error names five of them
    edges = "".join(f"e {eid} 0 1 1\n" for eid in range(2000))
    path.write_text(f"p pvc 2 2000 1\nv 0 1\nv 1 1\n{edges}g 0 0\nk 0 1\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "solve", str(path), "--strict-partition")
    assert code == 2 and out == ""
    assert err == (
        "error: strict partition violated: edges [1, 2, 3, 4, 5, ...] belong to no group\n"
    )


# ---------------------------------------------------------------- other commands

def test_exact_and_greedy_output(capsys, edge_file):
    code, out, _ = run_cli(capsys, "exact", edge_file)
    assert code == 0
    assert "optimum: 3" in out.splitlines()
    assert "chosen: 0" in out.splitlines()
    code, out, _ = run_cli(capsys, "greedy", edge_file)
    assert code == 0
    assert "cost: 3" in out.splitlines()


def test_lp1_star_value(capsys, star_file):
    code, out, _ = run_cli(capsys, "lp1", star_file)
    assert code == 0
    assert "value: 0.2" in out.splitlines()


def test_verify_output(capsys, star_file):
    code, out, _ = run_cli(
        capsys, "verify", star_file, "--trials", "400", "--seed", "3"
    )
    assert code == 0
    lines = out.splitlines()
    assert any(line.startswith("lp_objective: ") for line in lines)
    # the star solves integrally, so no group keeps a positive residual
    # and the margin section is empty; any margin printed must clear 1
    for line in lines:
        if line.startswith("margin group "):
            assert float(line.split()[-1]) >= 1 - 1e-6
    assert any(line.startswith("group 0: frequency ") for line in lines)
    assert "trials: 400" in lines
    assert "bound: 0.625000" in lines
    worst = next(l for l in lines if l.startswith("min_frequency_plus_radius: "))
    assert float(worst.split()[1]) >= 5 / 8


def test_verify_prints_a_margin_per_group_of_the_cube_reduction(capsys, tmp_path):
    # on the F_2^4 gap family no vertex reaches the threshold, so every one
    # of the 15 groups rests on the draws and prints its cover-row margin
    sc = tmp_path / "cube4.sc"
    sc.write_text(cube_set_cover_text(4), encoding="utf-8")
    inst_path = tmp_path / "cube4.pvc"
    assert cli.main(["generate", "setcover-reduce", str(sc), "--out", str(inst_path)]) == 0
    code, out, err = run_cli(capsys, "verify", str(inst_path), "--trials", "2000")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert "lp_objective: 1.875" in lines
    margins = [line for line in lines if line.startswith("margin group ")]
    assert [line.split(":")[0] for line in margins] == [f"margin group {g}" for g in range(15)]
    assert all(float(line.split()[-1]) >= 1 - 1e-6 for line in margins)
    worst = next(l for l in lines if l.startswith("min_frequency_plus_radius: "))
    assert float(worst.split()[1]) >= 5 / 8


def test_gap_table(capsys):
    code, out, _ = run_cli(capsys, "gap", "--degrees", "2,5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "degree natural_lp strengthened_lp exact"
    assert lines[1] == "2 0.5 1 1"
    assert lines[2] == "5 0.2 1 1"


def test_gap_table_degree_1000(capsys):
    code, out, err = run_cli(capsys, "gap", "--degrees", "1000")
    assert code == 0 and err == ""
    assert out.splitlines()[1] == "1000 0.001 1 1"


def test_bench_edge_values_still_run(capsys):
    # the smallest accepted values: one row, Monte Carlo skipped, every
    # extra group membership taken
    code, out, err = run_cli(
        capsys, "bench", "--count", "1", "--seed", "4", "--n-min", "6", "--n-max", "6",
        "--trials", "0", "--overlap-extra", "1",
    )
    assert code == 0 and err == ""
    rows = [line for line in out.splitlines() if not line.startswith("#")]
    assert len(rows) == 3  # header, one instance, aggregate
    assert rows[1].split(",")[rows[0].split(",").index("min_round_success")] == ""


def test_bench_to_file(capsys, tmp_path):
    out_path = tmp_path / "bench.csv"
    code, out, _ = run_cli(
        capsys, "bench", "--count", "2", "--seed", "4",
        "--n-min", "6", "--n-max", "8", "--m-min", "8", "--m-max", "10",
        "--trials", "100", "--out", str(out_path),
    )
    assert code == 0 and out == ""
    text = out_path.read_text(encoding="utf-8")
    assert text.startswith("# schema: pvcover-bench-v1\n")
    assert "aggregate" in text


# ---------------------------------------------------------------- generate

def test_generate_star_round_trip(capsys, tmp_path):
    path = tmp_path / "star7.pvc"
    code, _, _ = run_cli(capsys, "generate", "star", "--degree", "7", "--out", str(path))
    assert code == 0
    inst = parse_instance(path.read_text(encoding="utf-8"))
    assert inst.n == 8 and inst.m == 7 and inst.r == 1
    assert all(e.u == 0 for e in inst.edges)


def test_generate_random_round_trip(capsys, tmp_path):
    path = tmp_path / "rand.pvc"
    argv = [
        "generate", "random", "--n", "9", "--m", "12", "--r", "3",
        "--seed", "11", "--weight-max", "4", "--out", str(path),
    ]
    assert cli.main(argv) == 0
    inst = parse_instance(path.read_text(encoding="utf-8"))
    assert (inst.n, inst.m, inst.r) == (9, 12, 3)
    assert max(e.weight for e in inst.edges) <= 4
    first = path.read_text(encoding="utf-8")
    assert cli.main(argv) == 0
    assert path.read_text(encoding="utf-8") == first  # same seed, same bytes
    capsys.readouterr()


def test_generate_random_overlap_extra(capsys, tmp_path):
    plain = tmp_path / "plain.pvc"
    overlapped = tmp_path / "over.pvc"
    base = ["generate", "random", "--n", "9", "--m", "12", "--r", "3", "--seed", "11"]
    assert cli.main(base + ["--out", str(plain)]) == 0
    assert cli.main(base + ["--overlap-extra", "0.5", "--out", str(overlapped)]) == 0
    capsys.readouterr()
    a = parse_instance(plain.read_text(encoding="utf-8"))
    b = parse_instance(overlapped.read_text(encoding="utf-8"))
    assert sum(len(g.edges) for g in b.groups) > sum(len(g.edges) for g in a.groups)


def test_generate_setcover_reduce(capsys, tmp_path):
    sc = tmp_path / "input.sc"
    sc.write_text(SET_COVER_TEXT, encoding="utf-8")
    code, out, _ = run_cli(capsys, "generate", "setcover-reduce", str(sc))
    assert code == 0
    inst = parse_instance(out)
    # one vertex per set plus one heavy vertex per element
    assert inst.n == 3 + 4
    assert inst.r == 4  # one group per element
    heavy = 1 + 2 + 3 + 4
    assert inst.costs == (2, 3, 4) + (heavy,) * 4


# ---------------------------------------------------------------- README

README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_blocks():
    """The README's fenced blocks, each as its lines without the fence's indent."""
    blocks, block, indent = [], None, ""
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.strip().startswith("```"):
            if block is None:
                block, indent = [], line[: len(line) - len(line.lstrip())]
            else:
                blocks.append(block)
                block = None
        elif block is not None:
            block.append(line.removeprefix(indent))
    return blocks


def test_readme_examples_match_the_cli(capsys, tmp_path, monkeypatch):
    blocks = _readme_blocks()
    quick = next(b for b in blocks if b and b[0] == "instance: star.pvc")
    gap = next(b for b in blocks if b and b[0] == "$ pvcover gap")[1:]
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(capsys, "generate", "star", "--degree", "5", "--out", "star.pvc")
    assert code == 0 and out == ""
    code, out, _ = run_cli(capsys, "solve", "star.pvc", "--seed", "7")
    assert code == 0 and out.splitlines() == quick
    code, out, _ = run_cli(capsys, "gap")
    assert code == 0 and out.splitlines() == gap


# ---------------------------------------------------------------- determinism

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _run_proc(args, **env):
    return subprocess.run(
        [sys.executable, "-m", "pvcover", *args],
        capture_output=True, timeout=120, env={**os.environ, "PYTHONPATH": SRC, **env},
    )

def test_cli_byte_identical_across_processes(tmp_path, star5):
    path = tmp_path / "star.pvc"
    path.write_text(pv.serialize_instance(star5), encoding="utf-8")
    first = _run_proc(["solve", str(path), "--seed", "42", "--prune"])
    second = _run_proc(["solve", str(path), "--seed", "42", "--prune"])
    assert first.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout != b""
    third = _run_proc(["verify", str(path), "--trials", "500", "--seed", "9"])
    fourth = _run_proc(["verify", str(path), "--trials", "500", "--seed", "9"])
    assert third.returncode == 0
    assert third.stdout == fourth.stdout


def test_solve_byte_identical_across_blas_thread_counts(tmp_path):
    # threaded BLAS kernels sum in another order than one thread; on this
    # instance that once tipped a tolerance test and moved the cut path
    # (cuts 37 against 36, cost 166 against 177), so the CLI pins one thread
    path = tmp_path / "n90.pvc"
    gen = _run_proc(["generate", "random", "--n", "90", "--m", "234", "--r", "18",
                     "--seed", "5", "--weight-max", "3", "--out", str(path)])
    assert gen.returncode == 0
    argv = ["solve", str(path), "--seed", "1", "--prune"]
    one = _run_proc(argv, OPENBLAS_NUM_THREADS="1")
    two = _run_proc(argv, OPENBLAS_NUM_THREADS="2")
    assert one.returncode == 0 and one.stderr == b""
    assert one.stdout == two.stdout


def test_solve_prune_output_pinned(capsys, tmp_path, monkeypatch):
    # the whole report of a pruned solve on 150/400/30, pinned by digest: an
    # LP kernel refactor that claims to keep every pivot must keep these bytes
    inst = pv.generate_random(150, 400, 30, seed=1, config=pv.GeneratorConfig(weight_range=(1, 3)))
    monkeypatch.chdir(tmp_path)
    Path("n150.pvc").write_text(pv.serialize_instance(inst), encoding="utf-8")
    code, out, err = run_cli(capsys, "solve", "n150.pvc", "--prune", "--seed", "3")
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "924e6225342fea58edb5a4d4562664b12ba13c908ec30f615ad2814fff8c51d0"
    )


def test_exact_byte_identical_and_pinned(tmp_path):
    # zero-cost vertices keep several optima alive; the reported one is the
    # lexicographically smallest, the same with or without the greedy
    # incumbent and the cheapest-vertex and per-group knapsack bounds (pinned
    # from a search without them)
    cfg = pv.GeneratorConfig(cost_range=(0, 5), weight_range=(1, 3))
    path = tmp_path / "n18.pvc"
    path.write_text(pv.serialize_instance(pv.generate_random(18, 27, 3, 0, cfg)), encoding="utf-8")
    first = _run_proc(["exact", str(path)])
    second = _run_proc(["exact", str(path)])
    assert first.returncode == 0 and first.stderr == b""
    assert first.stdout == second.stdout
    lines = first.stdout.decode().splitlines()
    assert "optimum: 6" in lines
    assert "chosen: 0,1,3,7,8,11,15,16,17" in lines
    assert "nodes: 99" in lines


def test_module_help_runs():
    proc = _run_proc(["--help"])
    assert proc.returncode == 0
    assert b"pvcover" in proc.stdout
