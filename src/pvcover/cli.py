"""Command-line interface.

Exit codes: 0 success, 2 bad argument values or file and parse problems
(unreadable input or unwritable output), 3 solver failures and arrays too
large to allocate, 4 rounding that stays infeasible through all restarts.
Output is byte-identical across runs for a fixed seed; wall-clock timings
only appear behind --timings so that guarantee survives.  It holds for one
BLAS build and one BLAS thread count, so main runs numpy's bundled OpenBLAS
on one thread.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import sys
from pathlib import Path

import numpy as np

from .bench import BenchConfig, _timed, format_csv, gap_rows, run_bench
from .errors import InputError, PvcoverError, RoundingFailure
from .exact import DEFAULT_LIMIT, exact_solve
from .greedy import greedy_solve
from .instance import (
    GeneratorConfig,
    generate_random,
    generate_star,
    parse_instance,
    parse_set_cover,
    reduce_set_cover,
    serialize_instance,
    with_overlapping_groups,
)
from .relaxation import solve_natural_lp, solve_relaxation
from .rounding import RoundingConfig, precondition_margins, single_round_success, solve_rounded

__all__ = ["main"]


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not valid UTF-8: {exc}") from None


def _load(args) -> "Instance":
    return parse_instance(_read(args.instance), strict_partition=args.strict_partition)


def _emit(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
        return
    try:
        Path(out).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot write {out}: {exc}") from None


def _print_instance_header(args, inst):
    print(f"instance: {args.instance}")
    print(f"n: {inst.n}")
    print(f"m: {inst.m}")
    print(f"r: {inst.r}")


def _cmd_solve(args) -> int:
    inst = _load(args)
    cut_log: list[str] | None = [] if args.cut_log else None
    timings = {}
    frac = _timed(
        timings, "relaxation", lambda: solve_relaxation(inst, mode=args.mode, cut_log=cut_log)
    )
    sel, report = _timed(
        timings,
        "round",
        lambda: solve_rounded(inst, frac, RoundingConfig(seed=args.seed), prune=args.prune),
    )
    # the log is written first, so a run that cannot write it prints no report
    if args.cut_log:
        _emit("".join(line + "\n" for line in cut_log), args.cut_log)
    _print_instance_header(args, inst)
    print(f"mode: {args.mode}")
    if frac.cost_cap is not None:
        print(f"cost_cap: {frac.cost_cap}")
    print(f"cuts: {max(0, len(frac.certificate) - inst.r)}")
    print(report.to_text())
    if args.timings:
        for stage, seconds in timings.items():
            print(f"time_{stage}: {seconds:.6f}")
    print("chosen: " + ",".join(str(v) for v in sel.chosen))
    return 0


def _cmd_exact(args) -> int:
    inst = _load(args)
    res = exact_solve(inst, limit=args.limit)
    _print_instance_header(args, inst)
    print(f"optimum: {res.cost}")
    print("chosen: " + ",".join(str(v) for v in res.chosen))
    print(f"nodes: {res.nodes}")
    return 0


def _cmd_greedy(args) -> int:
    inst = _load(args)
    sel = greedy_solve(inst)
    _print_instance_header(args, inst)
    print(f"cost: {sel.cost}")
    print("chosen: " + ",".join(str(v) for v in sel.chosen))
    print("covered: " + ",".join(str(w) for w in sel.covered))
    return 0


def _cmd_lp1(args) -> int:
    inst = _load(args)
    frac = solve_natural_lp(inst)
    _print_instance_header(args, inst)
    print(f"value: {frac.objective:.9g}")
    return 0


def _cmd_verify(args) -> int:
    inst = _load(args)
    frac = solve_relaxation(inst)
    # sampled before any line is printed, so a run that fails prints no report
    rates = single_round_success(inst, frac.x, args.trials, args.seed)
    _print_instance_header(args, inst)
    print(f"lp_objective: {frac.objective:.9g}")
    for gi, margin in precondition_margins(inst, frac.x):
        print(f"margin group {gi}: {margin:.9g}")
    for gi, rate in enumerate(rates):
        print(
            f"group {gi}: frequency {rate.frequency:.6f} radius {rate.radius:.6f}"
        )
    worst = min(rate.frequency + rate.radius for rate in rates)
    print(f"trials: {args.trials}")
    print(f"min_frequency_plus_radius: {worst:.6f}")
    print(f"bound: {5 / 8:.6f}")
    return 0


def _cmd_generate(args) -> int:
    if args.kind == "star":
        inst = generate_star(args.degree)
    elif args.kind == "random":
        gen = GeneratorConfig(
            cost_range=(args.cost_min, args.cost_max),
            weight_range=(args.weight_min, args.weight_max),
        )
        inst = generate_random(args.n, args.m, args.r, args.seed, gen)
        if args.overlap_extra > 0:
            inst = with_overlapping_groups(inst, args.overlap_extra, args.seed + 1)
    else:  # setcover-reduce
        inst = reduce_set_cover(parse_set_cover(_read(args.input)))
    _emit(serialize_instance(inst), args.out)
    return 0


def _cmd_bench(args) -> int:
    cfg = BenchConfig(
        count=args.count,
        seed=args.seed,
        n_range=(args.n_min, args.n_max),
        m_range=(args.m_min, args.m_max),
        r_range=(args.r_min, args.r_max),
        trials=args.trials,
        generator=GeneratorConfig(weight_range=(args.weight_min, args.weight_max)),
        overlap_extra=args.overlap_extra,
        exact_limit=args.exact_limit,
    )
    records, footer = run_bench(cfg)
    _emit(format_csv(records, footer, include_timings=args.timings), args.out)
    return 0


def _cmd_gap(args) -> int:
    lines = ["degree natural_lp strengthened_lp exact"]
    for d, nat, strong, opt in gap_rows(args.degrees):
        lines.append(f"{d} {nat:.9g} {strong:.9g} {opt}")
    text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return 0


def _int_at_least(lo):
    """argparse type: an integer no smaller than lo."""

    def parse(text):
        value = int(text)
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be at least {lo}, got {value}")
        return value

    parse.__name__ = "int"  # argparse's error line reads "invalid int value: '...'"
    return parse


def _probability(text):
    """argparse type: a float in [0, 1]."""
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"must be in [0, 1], got {text}")
    return value


_probability.__name__ = "probability"


def _int_list(text):
    """argparse type: comma-separated integers."""
    return [int(tok) for tok in text.split(",") if tok]


_int_list.__name__ = "int list"


def _add_instance_arg(p):
    p.add_argument("instance", help="instance file")
    p.add_argument(
        "--strict-partition",
        action="store_true",
        help="require groups to partition the edge set",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pvcover",
        description="Partition vertex cover solvers: strengthened LP plus randomized rounding",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="LP relaxation plus randomized rounding")
    _add_instance_arg(p)
    p.add_argument("--seed", type=_int_at_least(0), default=0, help="rounding seed (64-bit)")
    p.add_argument("--mode", choices=["direct", "delta"], default="direct")
    p.add_argument("--prune", action="store_true", help="also report a pruned solution")
    p.add_argument("--timings", action="store_true", help="include wall-clock timings")
    p.add_argument("--cut-log", default=None, help="write one line per generated cut")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("exact", help="branch-and-bound optimum")
    _add_instance_arg(p)
    p.add_argument("--limit", type=int, default=DEFAULT_LIMIT)
    p.set_defaults(func=_cmd_exact)

    p = sub.add_parser("greedy", help="greedy baseline")
    _add_instance_arg(p)
    p.set_defaults(func=_cmd_greedy)

    p = sub.add_parser("lp1", help="natural relaxation value (for gap studies)")
    _add_instance_arg(p)
    p.set_defaults(func=_cmd_lp1)

    p = sub.add_parser("verify", help="Monte Carlo check of the per-round success bound")
    _add_instance_arg(p)
    p.add_argument("--trials", type=_int_at_least(1), default=20000)
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("generate", help="write instances in canonical form")
    gsub = p.add_subparsers(dest="kind", required=True)

    g = gsub.add_parser("star", help="unit star with one group")
    g.add_argument("--degree", type=int, required=True)
    g.add_argument("--out", default=None)
    g.set_defaults(func=_cmd_generate)

    g = gsub.add_parser("random", help="random instance")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--m", type=int, required=True)
    g.add_argument("--r", type=int, required=True)
    g.add_argument("--seed", type=_int_at_least(0), required=True)
    g.add_argument("--cost-min", type=int, default=1)
    g.add_argument("--cost-max", type=int, default=10)
    g.add_argument("--weight-min", type=int, default=1)
    g.add_argument("--weight-max", type=int, default=1)
    g.add_argument("--overlap-extra", type=_probability, default=0.0,
                   help="probability of each extra edge-group membership")
    g.add_argument("--out", default=None)
    g.set_defaults(func=_cmd_generate)

    g = gsub.add_parser("setcover-reduce", help="encode a set cover file")
    g.add_argument("input", help="set cover file (p sc header)")
    g.add_argument("--out", default=None)
    g.set_defaults(func=_cmd_generate)

    p = sub.add_parser("bench", help="batch of random instances, CSV out")
    p.add_argument("--count", type=_int_at_least(1), required=True)
    p.add_argument("--seed", type=_int_at_least(0), required=True)
    p.add_argument("--n-min", type=int, default=6)
    p.add_argument("--n-max", type=int, default=16)
    p.add_argument("--m-min", type=int, default=8)
    p.add_argument("--m-max", type=int, default=24)
    p.add_argument("--r-min", type=int, default=1)
    p.add_argument("--r-max", type=int, default=4)
    p.add_argument("--trials", type=_int_at_least(0), default=1000,
                   help="Monte Carlo trials per row; 0 skips Monte Carlo")
    p.add_argument("--weight-min", type=int, default=1)
    p.add_argument("--weight-max", type=int, default=1)
    p.add_argument("--overlap-extra", type=_probability, default=0.0)
    p.add_argument("--exact-limit", type=int, default=20)
    p.add_argument("--timings", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("gap", help="integrality gap table on stars")
    p.add_argument("--degrees", type=_int_list, default="2,5,20,100")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_gap)

    return parser


def _openblas_threads():
    """(get, set) for the thread count of numpy's bundled OpenBLAS, or None.

    None when numpy ships no such library or it lacks the symbols, as with
    another BLAS build.
    """
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*"))
    if not libs:
        return None
    try:
        lib = ctypes.CDLL(str(libs[0]))
        get = lib.scipy_openblas_get_num_threads64_
        set_ = lib.scipy_openblas_set_num_threads64_
    except (OSError, AttributeError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


@contextlib.contextmanager
def _one_blas_thread():
    """Run the body with BLAS on one thread, then restore the caller's count.

    Threaded BLAS kernels sum in another order than one thread does, which can
    tip a tolerance test in the simplex or the separation and change the
    output, so pinning one thread keeps it the same on any core count.
    """
    threads = _openblas_threads()
    if threads is None:
        yield
        return
    get, set_ = threads
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    with _one_blas_thread():
        try:
            return args.func(args)
        except InputError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except RoundingFailure as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 4
        except PvcoverError as exc:  # SolverError and its subclasses
            print(f"error: {exc}", file=sys.stderr)
            return 3
        except MemoryError as exc:  # e.g. a trial count whose arrays cannot be allocated
            print(f"error: out of memory: {exc}", file=sys.stderr)
            return 3


if __name__ == "__main__":
    raise SystemExit(main())
