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


def test_tracer_counts_the_rectify_bindings():
    # the names the tracer wraps on the rectify path: box_infimum_pairs and
    # add_pair in gaplab.rectify, and generative_rectify in the package
    import gaplab
    from gaplab.rectify import RectifiedAccumulator, dyadic_index_ranges

    from _oracles import pair_by_pair_rectify

    real = RectifiedAccumulator.add_pair
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        tracer.start_pass()
        C = np.array([[np.inf, 1.0, 2.0], [0.0, np.inf, 1.0], [1.0, 0.0, np.inf]])
        acc = pair_by_pair_rectify(C)
        folded = tracer.pass_metrics()
        tracer.start_pass()
        gen = gaplab.generative_rectify(gaplab.diag_inf(), 4, budget=0, rng_seed=0)
        generated = tracer.pass_metrics()
    finally:
        tracer.uninstall()
    assert RectifiedAccumulator.add_pair is real
    boxes = len(dyadic_index_ranges(3)) ** 2
    assert folded["rectify.box_pairs"] == boxes
    assert folded["rectify.add_pair.calls"] == 1 + boxes == acc.pair_count
    assert generated["rectify.add_pair.calls"] == 1  # the zero pair
    assert generated["rectify.generative_rectify.s"] > 0
    assert gen.sup_gap_finite() == 0.0
