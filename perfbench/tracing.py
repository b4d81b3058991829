"""Spans around the package's layers, recorded from outside the package.

The traced run rebinds the names the package looks up across modules
(relaxation.lp_solve, relaxation.separate, relaxation.capped_coverage_cut,
rounding.precondition_margins, rounding.is_feasible) to wrappers that open a
span, and times the workload's top-level calls directly.  A span is
(name, start, end, parent, instance id, attributes); spans stay in memory
and are written out when the run ends.  Self time is a span's duration less
the time its child spans cover.
"""

from __future__ import annotations

import json
import time

# (module, attribute, span name) rebound during the traced pass
HOOKS = (
    ("relaxation", "lp_solve", "lp"),
    ("relaxation", "separate", "separate"),
    ("relaxation", "capped_coverage_cut", "capped"),
    ("rounding", "precondition_margins", "margins"),
    ("rounding", "is_feasible", "feasible"),
)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent, instance, attrs]
        self.children = []
        self.stack = []
        self.instance = -1

    def span(self, name, fn, attrs=None):
        parent = self.stack[-1] if self.stack else -1
        idx = len(self.spans)
        rec = [name, time.perf_counter(), None, parent, self.instance, attrs or {}]
        self.spans.append(rec)
        self.children.append([])
        if parent >= 0:
            self.children[parent].append(idx)
        self.stack.append(idx)
        try:
            return fn()
        finally:
            rec[2] = time.perf_counter()
            self.stack.pop()

    def self_time(self, idx) -> float:
        name, start, end, *_ = self.spans[idx]
        return (end - start) - sum(
            self.spans[c][2] - self.spans[c][1] for c in self.children[idx]
        )

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, inst, attrs in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "instance": inst, **attrs}) + "\n")


def _lp_attrs(lp):
    rows = len(lp.rows)
    first = lp.rows[0] if lp.rows else None
    probe = (
        first is not None
        and first.sense == "<="
        and not any(lp.objective)
    )
    return {"rows": rows, "cols": lp.nvars, "probe": probe,
            "cap": first.rhs if probe else None}


def install(pv, tracer: Tracer):
    """Rebind the hooked names to span-recording wrappers; returns an undo list."""
    undo = []
    for mod_name, attr, span_name in HOOKS:
        module = getattr(pv, mod_name)
        original = getattr(module, attr)

        if span_name == "lp":
            def wrapper(lp, *a, _orig=original, **kw):
                attrs = _lp_attrs(lp)
                attrs["status"] = "raised"
                out = tracer.span("lp", lambda: _orig(lp, *a, **kw), attrs)
                attrs["status"] = out.status
                return out
        else:
            def wrapper(*a, _orig=original, _name=span_name, **kw):
                return tracer.span(_name, lambda: _orig(*a, **kw))

        setattr(module, attr, wrapper)
        undo.append((module, attr, original))
    return undo


def uninstall(undo):
    for module, attr, original in undo:
        setattr(module, attr, original)


def _segments(lps):
    """Split a relaxation's LP spans into the direct loop and each cost-cap probe.

    Inside one loop every LP but the last adds exactly one cut row, so a
    probe continues only while the cap is unchanged and the row count grows
    by one; a clean or infeasible exit adds no row before the next probe.
    """
    segs = []
    prev = None
    for a in lps:
        if (
            prev is not None
            and a["probe"] == prev["probe"]
            and a["cap"] == prev["cap"]
            and a["rows"] == prev["rows"] + 1
        ):
            segs[-1].append(a)
        else:
            segs.append([a])
        prev = a
    return segs


def relaxation_loops(tracer: Tracer) -> dict:
    """Cutting-plane loops (lists of LP span attributes) per instance id."""
    loops = {}
    for idx, (name, _s, _e, _p, inst, _a) in enumerate(tracer.spans):
        if name == "relaxation":
            lps = [tracer.spans[c][5] for c in tracer.children[idx] if tracer.spans[c][0] == "lp"]
            loops.setdefault(inst, []).extend(_segments(lps))
    return loops


def cuts(loops) -> int:
    """Every LP solve of a loop but the last appended one cut row."""
    return sum(len(seg) - 1 for seg in loops)


def span_counts(tracer: Tracer) -> dict:
    """Sorted (span name, count) pairs per instance id."""
    counts = {}
    for name, _s, _e, _p, inst, _a in tracer.spans:
        per = counts.setdefault(inst, {})
        per[name] = per.get(name, 0) + 1
    return {inst: sorted(per.items()) for inst, per in counts.items()}


def layer_metrics(tracer: Tracer, ok: list, mc_trials: int) -> dict:
    """Per-layer totals over the traced pass, keyed by metric name."""
    busy = {}
    calls = {}
    relax_self = 0.0
    for idx, (name, start, end, *_rest) in enumerate(tracer.spans):
        busy[name] = busy.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
        if name == "relaxation":
            relax_self += tracer.self_time(idx)

    lps = [s[5] for s in tracer.spans if s[0] == "lp"]
    loops = [seg for segs in relaxation_loops(tracer).values() for seg in segs]
    probes = [seg for seg in loops if seg[0]["probe"]]
    probes_ok = sum(seg[-1]["status"] == "optimal" for seg in probes)
    inst_total = busy.get("instance", 0.0)
    nodes = sum(o["exact"].nodes for o in ok if "exact" in o)
    mc_s = busy.get("mc", 0.0)
    exact_s = busy.get("exact", 0.0)

    def mean(key):
        return sum(a[key] for a in lps) / len(lps) if lps else 0.0

    return {
        "lp.calls": len(lps),
        "lp.busy_s": busy.get("lp", 0.0),
        "lp.share": busy.get("lp", 0.0) / inst_total if inst_total else 0.0,
        "lp.rows_mean": mean("rows"),
        "lp.cols_mean": mean("cols"),
        # dense float64 tableau of m rows by n structural + m slack + m artificial columns
        "lp.tableau_mb": (sum(a["rows"] * (a["cols"] + 2 * a["rows"]) for a in lps) * 8
                          / 1e6 / len(lps)) if lps else 0.0,
        "lp.infeasible": sum(a["status"] == "infeasible" for a in lps),
        "lp.failed": sum(a["status"] == "raised" for a in lps),
        "relaxation.busy_s": busy.get("relaxation", 0.0),
        "relaxation.self_s": relax_self,
        "relaxation.natural_s": busy.get("natural", 0.0),
        "relaxation.separate_calls": calls.get("separate", 0),
        "relaxation.separate_s": busy.get("separate", 0.0),
        "relaxation.capped_calls": calls.get("capped", 0),
        "relaxation.capped_s": busy.get("capped", 0.0),
        "relaxation.cuts": cuts(loops),
        "relaxation.cert_rows": sum(len(o["frac"].certificate) for o in ok),
        "relaxation.probes": len(probes),
        "relaxation.probe_feasible_ratio": probes_ok / len(probes) if probes else 0.0,
        "rounding.busy_s": busy.get("rounding", 0.0),
        "rounding.margins_s": busy.get("margins", 0.0),
        "rounding.feasible_calls": calls.get("feasible", 0),
        "rounding.feasible_s": busy.get("feasible", 0.0),
        "rounding.restarts": sum(o["rounded"][1].restarts for o in ok),
        "rounding.prune_drop": sum(
            len(o["rounded"][0].chosen) - len(o["rounded"][1].pruned_chosen)
            for o in ok if o["rounded"][1].pruned_chosen is not None
        ),
        "rounding.mc_s": mc_s,
        "rounding.mc_trials_per_s": (calls.get("mc", 0) * mc_trials / mc_s) if mc_s else 0.0,
        "exact.busy_s": exact_s,
        "exact.nodes": nodes,
        "exact.nodes_per_s": nodes / exact_s if exact_s else 0.0,
        "greedy.busy_s": busy.get("greedy", 0.0),
    }
