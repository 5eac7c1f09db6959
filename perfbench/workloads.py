"""The three workloads: seeded job lists, and the correctness check of each job.

A job is one call into gaplab's public surface: either ``gaplab.cli.main``
with ``--out`` into the run's scratch directory, or a public library
function reached through the ``gaplab`` package namespace (looked up at call
time, so the traced run sees its wrappers).  ``run`` is the timed part;
``verify`` reads the output afterwards and returns

* the values that are fixed by the input alone (LP optimal values, grid
  masses, pair counts), which are compared with ``reference.json``, and
* the problems found by closed-form checks that hold for every seed.

Plans and dual potentials are never compared with the reference: an LP may
have several optimal ones, and a correct solver may pick another.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

#: |primal - dual| allowed on finite instances (the solver's DUALITY_TOL)
DUALITY_TOL = 1e-7
#: closed-form values read from an LP (mass 1 on the diagonal, ...)
LP_TOL = 1e-7
#: criterion 6: generative envelope within this of the cost
SUP_GAP_TOL = 1e-4


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    verify: Callable[[object], tuple[dict, list[str]]]
    #: False when the inputs do not depend on the seed, so the reference
    #: values hold for every seed
    seeded: bool = False


class CliFailed(RuntimeError):
    """``gaplab.cli.main`` returned a non-zero exit code."""


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _num(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return [{k: _num(v) for k, v in row.items()} for row in csv.DictReader(fh)]


def _close(a: float, b: float, tol: float) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= tol


def _cli_job(name, argv, out: Path, verify_rows, seeded=False) -> Job:
    import gaplab.cli

    argv = [*argv, "--out", str(out)]

    def run():
        rc = gaplab.cli.main(argv)
        if rc != 0:
            raise CliFailed(f"gaplab {' '.join(argv)} exited with {rc}")
        return out

    def verify(path):
        if path.suffix == ".json":
            return verify_rows(json.loads(path.read_text()))
        return verify_rows(_read_csv(path))

    return Job(name, run, verify, seeded)


# ---------------------------------------------------------------------------
# per-command checks
# ---------------------------------------------------------------------------


def _verify_solve(closed_primal: float | None):
    def verify(rows):
        values, problems = {}, []
        for r in rows:
            n = int(r["n"])
            values[f"n{n}.primal"] = r["primal"]
            values[f"n{n}.dual"] = r["dual"]
            if r["status"] != "optimal":
                problems.append(f"n={n}: status {r['status']}")
            if math.isfinite(r["primal"]) and not _close(
                r["primal"], r["dual"], DUALITY_TOL
            ):
                problems.append(f"n={n}: primal {r['primal']} != dual {r['dual']}")
            if closed_primal is not None and not _close(
                r["primal"], closed_primal, LP_TOL
            ):
                problems.append(f"n={n}: primal {r['primal']} != {closed_primal}")
        if not rows:
            problems.append("no rows")
        return values, problems

    return verify


def _verify_gap_scan(closed_primal: float | None):
    def verify(rows):
        values, problems = {}, []
        for r in rows:
            key = f"n{int(r['n'])}.eps{r['eps']}"
            values[key + ".partial"] = r["partial_value"]
            values[key + ".primal"] = r["primal"]
            if r["partial_value"] > r["primal"] + 1e-9:
                problems.append(f"{key}: partial {r['partial_value']} > primal")
            if closed_primal is not None and not _close(
                r["primal"], closed_primal, LP_TOL
            ):
                problems.append(f"{key}: primal {r['primal']} != {closed_primal}")
        if len(rows) < 2:
            problems.append("missing rows")
        return values, problems

    return verify


def _verify_negligible(closed_mass: float):
    def verify(doc):
        values = {"negligible": float(doc["negligible"])}
        problems = []
        for row in doc["max_plan_mass"]:
            values[f"n{row['n']}.mass"] = row["mass"]
            if not _close(row["mass"], closed_mass, LP_TOL):
                problems.append(f"n={row['n']}: mass {row['mass']} != {closed_mass}")
        return values, problems

    return verify


def _verify_rectify(rows):
    (r,) = rows
    values = {"sup_gap_finite": r["sup_gap_finite"]}
    problems = []
    if not r["sup_gap_finite"] <= SUP_GAP_TOL:
        problems.append(f"sup_gap_finite {r['sup_gap_finite']} > {SUP_GAP_TOL}")
    return values, problems


class StepCapture:
    """Keeps every ``ApproximationStep`` that ``gaplab.cli`` builds, so the
    per-cell mass floors (not in the CSV) can be checked.

    Installing it wraps ``gaplab.cli.block_approximate_plan`` for the rest
    of the process, in the timed and the traced passes alike; it adds one
    Python call per approximation step.
    """

    def __init__(self):
        import gaplab.cli

        self.steps: list = []
        inner = gaplab.cli.block_approximate_plan

        def block_approximate_plan(*args, **kwargs):
            step = inner(*args, **kwargs)
            self.steps.append(step)
            return step

        gaplab.cli.block_approximate_plan = block_approximate_plan


def _approximate_job(name, argv, out: Path, capture: StepCapture) -> Job:
    """``approximate`` through the CLI, checked against its CSV and the
    per-cell reports of the captured steps."""
    import gaplab.cli

    argv = [*argv, "--out", str(out)]

    def run():
        capture.steps.clear()
        rc = gaplab.cli.main(argv)
        if rc != 0:
            raise CliFailed(f"gaplab {' '.join(argv)} exited with {rc}")
        return out, list(capture.steps)

    def verify(result):
        path, steps = result
        rows = _read_csv(path)
        values, problems = {}, []
        for r in rows:
            n = int(r["n"])
            # the glued plan's cost is a sum of per-cell LP optima; its mass and
            # weak* distance depend on which optimal plan the solver returns
            values[f"n{n}.cost_c"] = r["cost_c"]
            values[f"n{n}.target_cr_integral"] = r["target_cr_integral"]
        if len(steps) != len(rows) or not rows:
            problems.append(f"{len(steps)} steps captured for {len(rows)} rows")
        for step in steps:
            tol = 1.0 / step.n**3
            if not step.per_cell_reports:
                problems.append(f"n={step.n}: no cell solved")
            for rep in step.per_cell_reports:
                if rep["retained"] < rep["cell_mass"] - tol - 1e-12:
                    problems.append(f"n={step.n} cell {rep['cell']}: mass floor")
        return values, problems

    return Job(name, run, verify)


# ---------------------------------------------------------------------------
# library jobs
# ---------------------------------------------------------------------------


def _duality_pair_job(seed: int, n: int) -> Job:
    import gaplab

    def run():
        inst = gaplab.get_instance("random_finite", seed=seed, n=n)
        C, mu, nu = gaplab.discretize(inst, n)
        return gaplab.solve_primal(C, mu, nu), gaplab.solve_dual(C, mu, nu)

    def verify(result):
        p, d = result
        problems = []
        if p.status != "optimal" or d.status != "optimal":
            problems.append(f"status {p.status}/{d.status}")
        elif not _close(p.value, d.value, DUALITY_TOL):
            problems.append(f"primal {p.value} != dual {d.value}")
        return {"primal": p.value, "dual": d.value}, problems

    return Job(f"duality_pair.s{seed}.n{n}", run, verify, seeded=True)


def _envelope_job(seed: int, n: int = 6, budget: int = 500) -> Job:
    import gaplab

    def run():
        inst = gaplab.get_instance("random_finite", seed=seed, n=n)
        C, mu, nu = gaplab.discretize(inst, n)
        E = gaplab.envelope_matrix(C, mu, nu)
        acc = gaplab.generative_rectify(inst, n, budget=budget, rng_seed=seed)
        return C, E, acc

    def verify(result):
        C, E, acc = result
        finite = np.isfinite(C)
        env_err = float(np.abs(E - C)[finite].max())
        gap = acc.sup_gap_finite()
        problems = []
        if not env_err <= LP_TOL:
            problems.append(f"envelope differs from C by {env_err}")
        if not gap <= SUP_GAP_TOL:
            problems.append(f"sup_gap_finite {gap} > {SUP_GAP_TOL}")
        values = {"envelope_error": env_err, "sup_gap_finite": gap}
        return values, problems

    return Job(f"envelope.s{seed}.n{n}", run, verify, seeded=True)


# ---------------------------------------------------------------------------
# generated inputs
# ---------------------------------------------------------------------------


def nonuniform_instance(seed: int) -> dict:
    """Instance document with seeded piecewise marginals and a diag_M-type
    cost (0 below the diagonal, 1 on it, a seeded finite M > 1 above).

    Written as the on-disk format directly, so the input does not pass
    through the program's own encoder.
    """
    rng = np.random.default_rng([seed, 1])

    def density():
        pieces = int(rng.integers(2, 6))
        cuts = np.sort(rng.choice(np.arange(1, 20), pieces - 1, replace=False)) / 20
        bp = np.concatenate([[0.0], cuts, [1.0]])
        w = rng.uniform(0.2, 2.0, size=pieces)
        vals = w / float(w @ np.diff(bp))
        return {"kind": "piecewise", "breakpoints": bp.tolist(), "values": vals.tolist()}

    M = float(rng.uniform(1.5, 4.0))
    return {
        "name": f"nonuniform_diag_M_s{seed}",
        "marginal_x": density(),
        "marginal_y": density(),
        "cost": {
            "regions": [
                {"kind": "below_diagonal", "value": 0.0},
                {"kind": "diagonal", "value": 1.0},
                {"kind": "above_diagonal", "value": M},
            ]
        },
    }


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def grid_scan(seed: int, work: Path) -> list[Job]:
    """Few large LPs on uniform marginals; HiGHS pivoting dominates.

    Sparse LPs (diag_inf drops its +inf arcs) next to dense ones (diag_M,
    fat_set), full solves next to partial ones.  No input depends on the seed.
    """
    jobs = []
    for name, closed in (("diag_inf", 1.0), ("diag_M", None), ("fat_set", None)):
        jobs.append(
            _cli_job(
                f"solve.{name}",
                ["solve", "--catalog", name, "--n", "64,128,256"],
                work / f"solve.{name}.csv",
                _verify_solve(closed),
            )
        )
    for name, closed in (("diag_inf", 1.0), ("diag_M", None)):
        jobs.append(
            _cli_job(
                f"gap_scan.{name}",
                ["gap-scan", "--catalog", name, "--n", "64..256", "--eps", "1/n"],
                work / f"gap_scan.{name}.csv",
                _verify_gap_scan(closed),
            )
        )
    for label, desc, mass in (
        ("diagonal", "diagonal", 1.0),
        ("rect", "rect [0,0.25]x[0,1]", 0.25),
    ):
        jobs.append(
            _cli_job(
                f"negligible.{label}",
                ["negligible", desc, "--n", "64,128,256"],
                work / f"negligible.{label}.json",
                _verify_negligible(mass),
            )
        )
    return jobs


def rectify_envelope(seed: int, work: Path) -> list[Job]:
    """The rectify module: batched reweighted-dual LPs, dyadic box pairs and
    their accumulation, and the n^2 pointwise envelope LPs (criterion 6's
    shape).  It never goes through solve_primal."""
    jobs = [
        _cli_job(
            f"rectify.{name}",
            ["rectify", "--catalog", name, "--n", "32", "--budget", "200",
             "--seed", str(seed)],
            work / f"rectify.{name}.csv",
            _verify_rectify,
            seeded=True,
        )
        for name in ("diag_inf", "fat_set")
    ]
    jobs += [_envelope_job(seed + k) for k in range(10)]
    return jobs


def many_small(seed: int, work: Path) -> list[Job]:
    """Many tiny LPs and heavy cost painting: per-call overhead and
    discretize dominate, HiGHS pivoting is small."""
    inst_path = work / "nonuniform.json"
    inst_path.write_text(json.dumps(nonuniform_instance(seed), indent=2) + "\n")
    capture = StepCapture()
    jobs = [
        # 336 cell partial solves at eps = 1/n^3, which is not a k/n drop
        _approximate_job(
            "approximate.product.diag_M",
            ["approximate", "--catalog", "diag_M", "--plan", "product",
             "--n", "4,8,16", "--s", "8"],
            work / "approximate.product.csv",
            capture,
        ),
        _approximate_job(
            "approximate.diagonal.diag_inf",
            ["approximate", "--catalog", "diag_inf", "--plan", "diagonal",
             "--n", "4..32", "--s", "8"],
            work / "approximate.diagonal.csv",
            capture,
        ),
        # 4,096 rectangles painted at every resolution
        _cli_job(
            "solve.random_finite64",
            ["solve", "--catalog", "random_finite", "--catalog-n", "64",
             "--seed", str(seed), "--n", "4..64"],
            work / "solve.random_finite64.csv",
            _verify_solve(None),
            seeded=True,
        ),
    ]
    jobs += [_duality_pair_job(seed + i, (i % 16) + 1) for i in range(100)]
    jobs.append(
        _cli_job(
            "solve.nonuniform",
            ["solve", "--instance", str(inst_path), "--n", "16..64"],
            work / "solve.nonuniform.csv",
            _verify_solve(None),
            seeded=True,
        )
    )
    return jobs


WORKLOADS = {
    "grid_scan": grid_scan,
    "rectify_envelope": rectify_envelope,
    "many_small": many_small,
}
