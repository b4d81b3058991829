"""The perfbench tracer against the package it hooks.

perfbench/tracing.py rebinds package names and reads LP attributes from
outside the package, so a package change can break it without breaking any
package test.  This loads it by path, runs one traced relaxation and checks
what it records.
"""

import importlib.util
from pathlib import Path

import pvcover as pv

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_hooks_a_relaxation_and_restores_every_name():
    tracing = _load_tracing()
    originals = {(mod, attr): getattr(getattr(pv, mod), attr) for mod, attr, _ in tracing.HOOKS}
    tracer = tracing.Tracer()
    undo = tracing.install(pv, tracer)
    try:
        inst = pv.generate_random(14, 22, 3, 2, pv.GeneratorConfig(weight_range=(1, 3)))
        pv.solve_relaxation(inst)
    finally:
        tracing.uninstall(undo)
    lps = [attrs for name, *_, attrs in tracer.spans if name == "lp"]
    assert lps
    for attrs in lps:
        assert attrs["rows"] >= inst.r and attrs["cols"] == inst.n
        assert attrs["probe"] is False and attrs["cap"] is None
        assert attrs["status"] == "optimal"
    for (mod, attr), original in originals.items():
        assert getattr(getattr(pv, mod), attr) is original, (mod, attr)
