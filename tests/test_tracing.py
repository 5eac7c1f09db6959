"""The benchmark's tracer binds to gaplab by name: every name it patches must
still exist, and ``linprog`` must still be called the way it reads it."""

import importlib.util
from pathlib import Path

import numpy as np

import gaplab.solver as solver

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_counts_a_highs_solve():
    real = solver.linprog
    tracer = _load_tracing().Tracer()
    tracer.install()  # raises AttributeError on a name gaplab no longer has
    try:
        tracer.start_pass()
        C = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0]])
        r = solver._highs_lp(C, np.array([0.4, 0.6]), np.array([0.2, 0.3, 0.5]))
        metrics = tracer.pass_metrics()
    finally:
        tracer.uninstall()
    assert solver.linprog is real
    assert r.path == "highs" and r.status == "optimal"
    assert metrics["solver.highs.calls"] == 1
    assert metrics["solver.highs.iterations"] > 0
    assert metrics["solver.lp.nnz"] == 2 * C.size
