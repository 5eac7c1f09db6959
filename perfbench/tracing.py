"""The traced run: spans and counts recorded around gaplab's layers.

Nothing in ``src/`` is edited.  :meth:`Tracer.install` replaces each traced
function by a wrapper in the namespace its caller looks it up in: the
importing modules (``gaplab.cli.solve_primal``, ``gaplab.negligible.
solve_primal``, ``gaplab.approximate.solve_partial``, ...), ``linprog`` as
bound in ``gaplab.solver`` and ``gaplab.rectify``, the ``gaplab`` package
namespace the library jobs call through, and, for helpers called inside
their own module (``box_infimum_pairs``, ``grid_indicator``,
``RectifiedAccumulator.add_pair``), the defining module.  Inside ``linprog``,
scipy's call into the compiled HiGHS solver (``_highs_wrapper``) is a span
of its own, so the time HiGHS itself takes (presolve, pivoting, postsolve)
is told apart from scipy's Python around it.  ``solve_dual``'s
own call to ``solve_primal`` stays unwrapped, so one report is one entry
span.

A span is ``[name, start, end, parent, job]``; spans stay in memory and are
written out as JSONL when the run ends.  Self time is a span's duration minus
the durations of its direct children.  The tracer's own bookkeeping (LP
hashing, counting, thread sampling) runs in ``trace.bookkeeping`` spans and
the benchmark-side certificate checks in ``solver.certify`` spans, so that
neither is charged to a layer's self time.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np
from scipy import sparse

#: a certificate residual above this is a violation (the solver's DUALITY_TOL)
CERT_TOL = 1e-7
#: a pair is useful when it raises the envelope by more than this somewhere
USEFUL_TOL = 1e-12

CLI_COMMANDS = ("solve", "gap_scan", "rectify", "negligible", "approximate")

#: (span name, where it is looked up) for the plain timed wrappers
_SPANNED = [
    ("cli.main", [("gaplab.cli", "main")]),
    *[(f"cli.{c}", [("gaplab.cli", f"cmd_{c}")]) for c in CLI_COMMANDS],
    ("catalog.get_instance", [("gaplab.cli", "get_instance"), ("gaplab", "get_instance")]),
    (
        "instance.discretize",
        [
            ("gaplab.cli", "discretize"),
            ("gaplab.approximate", "discretize"),
            ("gaplab.rectify", "discretize"),
            ("gaplab", "discretize"),
        ],
    ),
    ("negligible.is_L_negligible", [("gaplab.cli", "is_L_negligible")]),
    ("negligible.max_plan_mass", [("gaplab.cli", "max_plan_mass")]),
    ("negligible.grid_indicator", [("gaplab.negligible", "grid_indicator")]),
    ("approximate.weak_star_distance", [("gaplab.cli", "weak_star_distance")]),
    (
        "plans.build",
        [
            ("gaplab.cli", "diagonal_plan"),
            ("gaplab.cli", "product_plan"),
            ("gaplab.cli", "shift_subplan"),
        ],
    ),
    ("rectify.generative_rectify", [("gaplab.cli", "generative_rectify"), ("gaplab", "generative_rectify")]),
]

_SOLVER_ENTRIES = {
    "solve_primal": ["gaplab.cli", "gaplab.negligible", "gaplab.rectify", "gaplab"],
    "solve_dual": ["gaplab.cli", "gaplab"],
    "solve_partial": ["gaplab.cli", "gaplab.approximate", "gaplab"],
}

#: every per-layer metric the traced run reports, with its unit
LAYER_METRICS = [
    ("cli.jobs", "count"),
    ("cli.self_s", "s"),
    *[(f"cli.{c}.s", "s") for c in CLI_COMMANDS],
    ("catalog.get_instance.calls", "count"),
    ("catalog.get_instance.s", "s"),
    ("instance.discretize.calls", "count"),
    ("instance.discretize.s", "s"),
    ("costs.discretize_cost.s", "s"),
    ("costs.painted_cells", "count"),
    ("solver.solve_primal.calls", "count"),
    ("solver.solve_dual.calls", "count"),
    ("solver.solve_partial.calls", "count"),
    ("solver.self_s", "s"),
    ("solver.highs.calls", "count"),
    ("solver.highs.s", "s"),
    ("solver.highs.core_s", "s"),
    ("solver.highs.iterations", "count"),
    ("solver.lp.rows", "count"),
    ("solver.lp.cols", "count"),
    ("solver.lp.nnz", "count"),
    ("solver.distinct_lp_ratio", "ratio"),
    ("solver.certify.s", "s"),
    ("solver.certify.reports", "count"),
    ("solver.certify.violations", "count"),
    ("solver.certify.max_dual_slack", "cost"),
    ("solver.certify.max_pd_gap", "cost"),
    ("rectify.generative_rectify.s", "s"),
    ("rectify.box_infimum_pairs.s", "s"),
    ("rectify.box_pairs", "count"),
    ("rectify.add_pair.calls", "count"),
    ("rectify.add_pair.s", "s"),
    ("rectify.useful_pair_ratio", "ratio"),
    ("rectify.useful.box_infimum", "count"),
    ("rectify.useful.reweighted_dual", "count"),
    ("rectify.envelope_matrix.s", "s"),
    ("rectify.envelope_entries", "count"),
    ("rectify.highs.calls", "count"),
    ("rectify.highs.s", "s"),
    ("rectify.highs.core_s", "s"),
    ("rectify.highs.iterations", "count"),
    ("rectify.lp.nnz", "count"),
    ("negligible.is_L_negligible.s", "s"),
    ("negligible.grid_indicator.s", "s"),
    ("negligible.max_plan_mass.calls", "count"),
    ("negligible.max_plan_mass.s", "s"),
    ("approximate.block_approximate_plan.s", "s"),
    ("approximate.cells_solved", "count"),
    ("approximate.weak_star_distance.s", "s"),
    ("plans.build.s", "s"),
    ("process.threads", "count"),
    ("trace.spans", "count"),
    ("trace.pass_s", "s"),
    ("trace.untraced_pass_s", "s"),
    ("trace.overhead_s", "s"),
]


def thread_count() -> int:
    """Threads of this process (0 where /proc is not available)."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return 0


def _lp_digest(kwargs: dict, c) -> bytes:
    h = hashlib.blake2b(np.ascontiguousarray(c, dtype=float).tobytes(), digest_size=16)
    for key in ("A_ub", "b_ub", "A_eq", "b_eq"):
        a = kwargs.get(key)
        h.update(key.encode())
        if a is None:
            continue
        if sparse.issparse(a):
            a = a.tocsr(copy=True)
            a.sort_indices()
            for part in (a.data, a.indices, a.indptr):
                h.update(np.ascontiguousarray(part).tobytes())
            h.update(repr(a.shape).encode())
        else:
            a = np.ascontiguousarray(a, dtype=float)
            h.update(a.tobytes() + repr(a.shape).encode())
    h.update(repr(kwargs.get("bounds")).encode())
    return h.digest()


def _nnz(a) -> int:
    if a is None:
        return 0
    return int(a.nnz) if sparse.issparse(a) else int(np.count_nonzero(a))


class Tracer:
    """Spans, counts and certificate results of the traced passes."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.job: str | None = None
        self.counts: Counter = Counter()
        self.maxima: dict[str, float] = {}
        self.lp_digests: set[bytes] = set()
        self.bad_jobs: set[str] = set()
        self._undo: list[tuple[object, str, object]] = []
        self._pass_start = 0

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.job]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = perf_counter()
        self.stack.pop()

    def _spanned(self, name: str, fn, after=None):
        def wrapper(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if after is not None:
                book = self._open("trace.bookkeeping")
                try:
                    after(result, *args, **kwargs)
                finally:
                    self._close(book)
            return result

        return wrapper

    def _max(self, key: str, value: float) -> None:
        self.maxima[key] = max(self.maxima.get(key, -np.inf), value)

    # -- layer hooks -------------------------------------------------------

    def _highs_after(self, layer: str):
        def after(res, c, **kwargs):
            self.counts[f"{layer}.highs.iterations"] += int(getattr(res, "nit", 0))
            nnz = _nnz(kwargs.get("A_eq")) + _nnz(kwargs.get("A_ub"))
            self.counts[f"{layer}.lp.nnz"] += nnz
            if layer == "solver":
                rows = sum(
                    kwargs[k].shape[0] for k in ("A_eq", "A_ub") if kwargs.get(k) is not None
                )
                self.counts["solver.lp.rows"] += rows
                self.counts["solver.lp.cols"] += len(c)
                self.lp_digests.add(_lp_digest(kwargs, c))
            self._max("process.threads", thread_count())

        return after

    def _certify(self, entry: str, fn):
        import gaplab

        full = entry != "solve_partial"

        def wrapper(C, *args, **kwargs):
            report = fn(C, *args, **kwargs)
            if report.status != "optimal":
                return report
            rec = self._open("solver.certify")
            try:
                ok, _ = gaplab.check_complementary_slackness(report, C)
                slack = report.potentials.feasibility_slack(C)
                # a partial report's objective omits the mass-cap multiplier
                gap = abs(report.value - report.potentials.objective) if full else 0.0
            finally:
                self._close(rec)
            self.counts["solver.certify.reports"] += 1
            self._max("solver.certify.max_dual_slack", slack)
            if full:
                self._max("solver.certify.max_pd_gap", gap)
            if not ok or slack > CERT_TOL or gap > CERT_TOL:
                self.counts["solver.certify.violations"] += 1
                self.bad_jobs.add(self.job)
            return report

        return wrapper

    def _add_pair(self, fn):
        def add_pair(acc, pair):
            book = self._open("trace.bookkeeping")
            try:
                useful = bool(np.any(pair.tensor() > acc.lower_envelope + USEFUL_TOL))
                if useful:
                    family = pair.provenance.split("(")[0]
                    self.counts[f"rectify.useful.{family}"] += 1
                    self.counts["rectify.useful"] += 1
            finally:
                self._close(book)
            rec = self._open("rectify.add_pair")
            try:
                return fn(acc, pair)
            finally:
                self._close(rec)

        return add_pair

    def _count(self, key: str, amount):
        def after(result, *args, **kwargs):
            self.counts[key] += amount(result, *args, **kwargs)

        return after

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr: str, make) -> None:
        old = getattr(owner, attr)
        self._undo.append((owner, attr, old))
        setattr(owner, attr, make(old))

    def install(self) -> None:
        mod = importlib.import_module
        painted = self._count(
            "costs.painted_cells", lambda _r, desc, grid: len(desc.regions) * grid.n**2
        )
        for where in ("gaplab.instance", "gaplab.approximate"):
            self._patch(
                mod(where),
                "discretize_cost",
                lambda f: self._spanned("costs.discretize_cost", f, painted),
            )
        for name, places in _SPANNED:
            for where, attr in places:
                self._patch(mod(where), attr, lambda f, name=name: self._spanned(name, f))
        cells = self._count(
            "approximate.cells_solved", lambda step, *a, **k: len(step.per_cell_reports)
        )
        self._patch(
            mod("gaplab.cli"),
            "block_approximate_plan",
            lambda f: self._spanned("approximate.block_approximate_plan", f, cells),
        )
        boxes = self._count("rectify.box_pairs", lambda pairs, *a, **k: len(pairs))
        self._patch(
            mod("gaplab.rectify"),
            "box_infimum_pairs",
            lambda f: self._spanned("rectify.box_infimum_pairs", f, boxes),
        )
        entries = self._count("rectify.envelope_entries", lambda E, *a, **k: E.size)
        self._patch(
            mod("gaplab"),
            "envelope_matrix",
            lambda f: self._spanned("rectify.envelope_matrix", f, entries),
        )
        self._patch(mod("gaplab.rectify").RectifiedAccumulator, "add_pair", self._add_pair)
        for entry, places in _SOLVER_ENTRIES.items():
            for where in places:
                self._patch(
                    mod(where),
                    entry,
                    lambda f, e=entry: self._certify(e, self._spanned(f"solver.{e}", f)),
                )
        for layer in ("solver", "rectify"):
            self._patch(
                mod(f"gaplab.{layer}"),
                "linprog",
                lambda f, layer=layer: self._spanned(
                    f"{layer}.highs", f, self._highs_after(layer)
                ),
            )

        self._patch(
            mod("scipy.optimize._linprog_highs"),
            "_highs_wrapper",
            lambda f: self._spanned("highs.core", f),
        )

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    # -- per-pass aggregation ----------------------------------------------

    def start_pass(self) -> None:
        self._pass_start = len(self.spans)
        self.counts.clear()
        self.maxima.clear()
        self.lp_digests.clear()

    def pass_metrics(self) -> dict[str, float]:
        """Per-layer values of the spans and counts since :meth:`start_pass`."""
        start = self._pass_start
        spans = self.spans[start:]
        child = [0.0] * len(spans)
        for name, s, e, parent, _ in spans:
            if parent >= start:
                child[parent - start] += e - s
        total: defaultdict[str, float] = defaultdict(float)
        own: defaultdict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for (name, s, e, parent, _), c in zip(spans, child):
            total[name] += e - s
            own[name] += e - s - c
            calls[name] += 1
            if name == "highs.core" and parent >= start:
                # charged to the layer whose linprog span holds it
                total[spans[parent - start][0] + ".core"] += e - s
        k = self.counts
        highs = calls["solver.highs"]
        added = calls["rectify.add_pair"]
        m = {
            "cli.jobs": calls["cli.main"],
            "cli.self_s": own["cli.main"] + sum(own[f"cli.{c}"] for c in CLI_COMMANDS),
            **{f"cli.{c}.s": total[f"cli.{c}"] for c in CLI_COMMANDS},
            "catalog.get_instance.calls": calls["catalog.get_instance"],
            "catalog.get_instance.s": total["catalog.get_instance"],
            "instance.discretize.calls": calls["instance.discretize"],
            "instance.discretize.s": total["instance.discretize"],
            "costs.discretize_cost.s": total["costs.discretize_cost"],
            "costs.painted_cells": k["costs.painted_cells"],
            **{f"solver.{e}.calls": calls[f"solver.{e}"] for e in _SOLVER_ENTRIES},
            "solver.self_s": sum(own[f"solver.{e}"] for e in _SOLVER_ENTRIES),
            "solver.highs.calls": highs,
            "solver.highs.s": total["solver.highs"],
            "solver.highs.core_s": total["solver.highs.core"],
            "solver.highs.iterations": k["solver.highs.iterations"],
            "solver.lp.rows": k["solver.lp.rows"],
            "solver.lp.cols": k["solver.lp.cols"],
            "solver.lp.nnz": k["solver.lp.nnz"],
            "solver.distinct_lp_ratio": len(self.lp_digests) / highs if highs else 0.0,
            "solver.certify.s": total["solver.certify"],
            "solver.certify.reports": k["solver.certify.reports"],
            "solver.certify.violations": k["solver.certify.violations"],
            "solver.certify.max_dual_slack": self.maxima.get("solver.certify.max_dual_slack", 0.0),
            "solver.certify.max_pd_gap": self.maxima.get("solver.certify.max_pd_gap", 0.0),
            "rectify.generative_rectify.s": total["rectify.generative_rectify"],
            "rectify.box_infimum_pairs.s": total["rectify.box_infimum_pairs"],
            "rectify.box_pairs": k["rectify.box_pairs"],
            "rectify.add_pair.calls": added,
            "rectify.add_pair.s": total["rectify.add_pair"],
            "rectify.useful_pair_ratio": k["rectify.useful"] / added if added else 0.0,
            "rectify.useful.box_infimum": k["rectify.useful.box_infimum"],
            "rectify.useful.reweighted_dual": k["rectify.useful.reweighted_dual"],
            "rectify.envelope_matrix.s": total["rectify.envelope_matrix"],
            "rectify.envelope_entries": k["rectify.envelope_entries"],
            "rectify.highs.calls": calls["rectify.highs"],
            "rectify.highs.s": total["rectify.highs"],
            "rectify.highs.core_s": total["rectify.highs.core"],
            "rectify.highs.iterations": k["rectify.highs.iterations"],
            "rectify.lp.nnz": k["rectify.lp.nnz"],
            "negligible.is_L_negligible.s": total["negligible.is_L_negligible"],
            "negligible.grid_indicator.s": total["negligible.grid_indicator"],
            "negligible.max_plan_mass.calls": calls["negligible.max_plan_mass"],
            "negligible.max_plan_mass.s": total["negligible.max_plan_mass"],
            "approximate.block_approximate_plan.s": total["approximate.block_approximate_plan"],
            "approximate.cells_solved": k["approximate.cells_solved"],
            "approximate.weak_star_distance.s": total["approximate.weak_star_distance"],
            "plans.build.s": total["plans.build"],
            "process.threads": self.maxima.get("process.threads", thread_count()),
            "trace.spans": len(spans),
        }
        return {key: float(v) for key, v in m.items()}

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for name, s, e, parent, job in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": s, "end": e, "parent": parent, "job": job}
                    )
                    + "\n"
                )
