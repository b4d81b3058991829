#!/usr/bin/env python3
"""pvcover benchmark: one closed-loop client, one process, no extra threads.

    python3 perfbench/run.py --workload delta-small --seed 1 --seconds 60 --trace 0

Run from the repository root.  The package is imported from ./src.  With
--trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 it carries the per-layer metrics of a traced pass.  The line
before it is a report with the configuration, the provenance and the tail
percentile.  Reports and spans also go to perfbench/out/.  See README.md.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

import tracing
import workloads as W

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# Set-up is repeated for SETUP_HALF_S seconds before the timed loop and again
# after it, at most SETUP_MAX_REPS times each.  The machine's speed drifts by
# up to 2x for seconds at a time, so samples from both ends of the run give
# a steadier median than one burst.
SETUP_HALF_S, SETUP_MAX_REPS = 1.0, 25
# Never run while the benchmark was tuned; confirm later claims on it.
HELD_OUT_SEED = 7919


class InstanceTimeout(BaseException):
    """Raised by SIGALRM when an instance passes its wall cap."""


def _on_alarm(signum, frame):
    raise InstanceTimeout()


def _import_fresh():
    for name in [k for k in sys.modules if k == "pvcover" or k.startswith("pvcover.")]:
        del sys.modules[name]
    return importlib.import_module("pvcover")


def _fresh_state():
    """Start each instance as a fresh CLI process would: cold caches, no garbage.

    Collecting here keeps a collection of the previous instance's garbage
    from landing inside the next instance's timing.
    """
    for name, module in list(sys.modules.items()):
        if name.startswith("pvcover."):
            for obj in vars(module).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()
    gc.collect()


def setup(wl, count, seed, min_reps):
    """Import, generate and round-trip the batch repeatedly; keep the last.

    Repeats until min_reps set-ups and SETUP_HALF_S seconds are done.
    Returns (pv, cases, failures, reps), one (total, import, generate,
    parse) time tuple per repeat.
    """
    reps = []
    while len(reps) < SETUP_MAX_REPS and (
        len(reps) < min_reps or sum(r[0] for r in reps) < SETUP_HALF_S
    ):
        t0 = time.perf_counter()
        pv = _import_fresh()
        t1 = time.perf_counter()
        cases = W.generate(pv, wl, count, seed)
        t2 = time.perf_counter()
        failures = W.parse(pv, cases)
        t3 = time.perf_counter()
        reps.append((t3 - t0, t1 - t0, t2 - t1, t3 - t2))
    return pv, cases, failures, reps


def timed_loop(pv, wl, cases, deadline, tracer=None, budget_s=0.0):
    """Time every case in a first pass, then again in passes until budget_s is spent.

    A later pass stops at the first case whose best time so far would take
    the loop past budget_s, so the last pass may be partial.  A failed case
    is not run again, and a later pass whose outputs differ from the first
    fails the case.  Returns (outs, times, errors, wall): each case's
    first-pass outputs, its pipeline time in every pass it ran, one note per
    failed case, and the loop's wall time.
    """
    outs = {case.index: None for case in cases}
    times, errors = {}, {}
    span = tracer.span if tracer else (lambda name, fn: fn())
    start = time.perf_counter()
    live = [case for case in cases if case.inst is not None]  # parse failures are recorded
    npass = 0
    while live and (npass == 0 or time.perf_counter() - start < budget_s):
        for case in live:
            if npass and time.perf_counter() - start + min(times[case.index]) > budget_s:
                return outs, times, errors, time.perf_counter() - start
            _fresh_state()
            left = min(W.INSTANCE_CAP_S, deadline - time.perf_counter())
            if left <= 0:
                errors[case.index] = "timeout"
                continue
            if tracer:
                tracer.instance = case.index
            t0 = time.perf_counter()
            try:
                try:
                    signal.setitimer(signal.ITIMER_REAL, left)
                    out = span("instance", lambda c=case: W.run_case(pv, wl, c, span))
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
            except InstanceTimeout:
                errors[case.index] = "timeout"
            except Exception as exc:  # a failing instance is recorded, never dropped
                errors[case.index] = f"error:{type(exc).__name__}: {exc}"
            else:
                if npass == 0:
                    outs[case.index] = out
                elif W.fingerprint(out) != W.fingerprint(outs[case.index]):
                    errors[case.index] = f"pass {npass + 1} outputs differ from pass 1"
            times.setdefault(case.index, []).append(time.perf_counter() - t0)
        live = [case for case in live if case.index not in errors]
        npass += 1
    return outs, times, errors, time.perf_counter() - start


def _betainc(a, b, x):
    """Regularized incomplete beta I_x(a, b), by Lentz's continued fraction."""
    if x <= 0.0 or x >= 1.0:
        return 0.0 if x <= 0.0 else 1.0
    if x > (a + 1.0) / (a + b + 2.0):
        return 1.0 - _betainc(b, a, 1.0 - x)
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x)) / a
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 1000):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            break
    return front * h


def quantile(xs, q):
    """Harrell-Davis estimate of the q-quantile.

    It weights every order statistic by a Beta((n+1)q, (n+1)(1-q)) kernel,
    so it moves smoothly with noise instead of jumping across the gaps
    between the pinned instances' times the way a single order statistic does.
    """
    xs = sorted(xs)
    n = len(xs)
    if n == 1:
        return xs[0]
    a, b = q * (n + 1), (1.0 - q) * (n + 1)
    cdf = [_betainc(a, b, i / n) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(xs))


def _tail(times):
    """Highest percentile with at least ten samples beyond it, with its sample count."""
    n = len(times)
    q = (n - 10) / n if n >= 11 else 1.0
    return (quantile(times, q) if q < 1.0 else max(times)), 100.0 * q, n


def _hash(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "pvcover").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unavailable (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else ref
    return ref


def _blas_threads():
    import ctypes
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def provenance(seed, source) -> dict:
    import numpy as np
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_commit": _git_commit(),
        "source_sha256": source,
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
    }


def _check_repeat(key, per_instance, failures):
    """Compare per-instance hashes with an earlier run of the same source and seed."""
    path = OUT / "digests.json"
    store = json.loads(path.read_text()) if path.is_file() else {}
    seen = store.get(key)
    if seen is not None:
        for idx, digest in per_instance.items():
            if seen.get(str(idx), digest) != digest:
                failures.setdefault(idx, []).append(f"differs from an earlier run ({key})")
    else:
        store[key] = {str(k): v for k, v in per_instance.items()}
        path.write_text(json.dumps(store, indent=1, sort_keys=True))


def _spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    t_start = time.perf_counter()
    deadline = t_start + W.RUN_DEADLINE_S

    if not (SRC / "pvcover" / "__init__.py").is_file():
        print(f"perfbench: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    pv = importlib.import_module("pvcover")
    first_import_s = time.perf_counter() - t_start
    if Path(pv.__file__).resolve().parent != SRC / "pvcover":
        print(f"perfbench: imported pvcover from {pv.__file__}, not {SRC}", file=sys.stderr)
        return 2
    units_e2e, units_layer = _spec()
    OUT.mkdir(exist_ok=True)
    signal.signal(signal.SIGALRM, _on_alarm)

    wl = W.WORKLOADS[args.workload]
    count = wl.count(args.seconds)
    pv, cases, failures, reps = setup(wl, count, args.seed, 2)
    gc.collect()
    gc.freeze()  # set-up objects live for the whole run; keep them out of collections
    source = _source_digest()
    report = {
        "workload": wl.name,
        "config": {"workload": dataclasses.asdict(wl), "instances": count,
                   "seconds": args.seconds, "trace": args.trace,
                   "planned_passes": 1 if args.trace else W.PLANNED_PASSES,
                   "instance_cap_s": W.INSTANCE_CAP_S, "run_deadline_s": W.RUN_DEADLINE_S,
                   "base_seed": W.BASE_SEED, "mc_trials": W.MC_TRIALS,
                   "clients": 1, "loop": "closed"},
        "provenance": provenance(args.seed, source),
    }

    tracer = None
    if args.trace:
        head = cases[: (count + 1) // 2]
        outs_u, times_u, errors_u, _ = timed_loop(pv, wl, head, deadline)
        tracer = tracing.Tracer()
        undo = tracing.install(pv, tracer)
        try:
            outs, times, errors, wall = timed_loop(pv, wl, cases, deadline, tracer)
        finally:
            tracing.uninstall(undo)
        for idx, msg in errors_u.items():
            errors.setdefault(idx, f"untraced: {msg}")
    else:
        outs, times, errors, wall = timed_loop(pv, wl, cases, deadline, budget_s=args.seconds)
    best = {i: min(ts) for i, ts in times.items()}

    reps += setup(wl, count, args.seed, 1)[3]
    med = lambda k: quantile([r[k] for r in reps], 0.5)  # noqa: E731
    setup_t = {"setup_s": med(0), "import_s": med(1), "generate_s": med(2),
               "parse_s": med(3), "reps": len(reps), "first_import_s": first_import_s}
    report["setup"] = setup_t

    for idx, msg in errors.items():
        failures.setdefault(idx, []).append(msg)
    done = [c for c in cases if outs.get(c.index) is not None]
    for case in done:
        notes = W.check_case(case, outs[case.index])
        if notes:
            failures.setdefault(case.index, []).extend(notes)
    _check_repeat(f"{source}:{wl.name}:{args.seed}:{count}:outputs",
                  {c.index: _hash(W.fingerprint(outs[c.index])) for c in done}, failures)
    if tracer:
        for case in head:
            a, b = outs_u[case.index], outs[case.index]
            if a is not None and b is not None and W.fingerprint(a) != W.fingerprint(b):
                failures.setdefault(case.index, []).append("traced and untraced outputs differ")
        cuts = {i: tracing.cuts(segs) for i, segs in tracing.relaxation_loops(tracer).items()}
        if wl.mode == "direct":
            for case in done:
                if cuts.get(case.index) != len(outs[case.index]["frac"].objectives) - 1:
                    failures.setdefault(case.index, []).append(
                        "traced cut count differs from the relaxation's LP trace")
        counts = tracing.span_counts(tracer)
        _check_repeat(f"{source}:{wl.name}:{args.seed}:{count}:counts",
                      {c.index: _hash((counts.get(c.index), cuts.get(c.index))) for c in done},
                      failures)

    attempted = len(cases)
    failed = len(failures)
    ok = [c.index for c in cases if c.index not in failures]
    report["failed_frac"] = failed / attempted
    report["failures"] = {str(k): v for k, v in sorted(failures.items())}
    report["instances"] = [
        {"index": c.index, "time_s": best.get(c.index),
         "pass_times_s": times.get(c.index),
         **({"n": c.inst.n, "m": c.inst.m, "r": c.inst.r} if c.inst else {})}
        for c in cases
    ]

    if tracer:
        inst_dur = {s[4]: s[2] - s[1] for s in tracer.spans if s[0] == "instance"}
        both = [c.index for c in head if c.index in inst_dur and c.index not in errors_u]
        untraced = sum(times_u[i][0] for i in both)
        traced = sum(inst_dur[i] for i in both)
        self_total = sum(tracer.self_time(i) for i in range(len(tracer.spans)))
        metrics = tracing.layer_metrics(tracer, [outs[i] for i in ok], W.MC_TRIALS)
        metrics["instance.generate_s"] = setup_t["generate_s"]
        metrics["instance.parse_s"] = setup_t["parse_s"]
        metrics["trace_overhead_frac"] = traced / untraced - 1.0 if untraced else 0.0
        metrics["trace.accounted_frac"] = self_total / wall if wall else 0.0
        report["trace"] = {"spans": len(tracer.spans), "traced_wall_s": wall,
                           "self_time_total_s": self_total,
                           "untraced_remainder_s": wall - self_total,
                           "overhead_base_s": untraced, "overhead_instances": len(both)}
        tracer.dump(OUT / f"spans-{wl.name}-seed{args.seed}.jsonl")
        units = units_layer
    else:
        sample = list(best.values())
        tail, pct, n = _tail(sample)
        ratios = [W.quality(outs[i]) for i in ok]
        metrics = {
            "inst_p50_s": quantile(sample, 0.5),
            "inst_tail_s": tail,
            # the loop's own work between instances (cache clearing, collection) is left out
            "inst_per_s": len(ok) / sum(sample),
            "setup_s": setup_t["setup_s"],
            "ok_frac": len(ok) / attempted,
            "cost_over_lp_mean": statistics.fmean(r[0] for r in ratios) if ratios else 0.0,
            "cost_over_exact_mean": statistics.fmean(r[1] for r in ratios) if ratios else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        report["inst_tail"] = {"percentile": pct, "samples": n}
        report["loop_wall_s"] = wall
        report["passes"] = max(map(len, times.values()), default=0)
        units = units_e2e

    missing = set(units) - set(metrics)
    if missing:
        raise SystemExit(f"perfbench: metrics not computed: {sorted(missing)}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    report["metrics"] = result["metrics"]
    (OUT / f"report-{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1))
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
