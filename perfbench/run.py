"""gaplab's benchmark: one workload, run as a closed loop with one client.

    python3 perfbench/run.py --workload grid_scan --seed 0 --seconds 30 --trace 0

Jobs run back to back in this one process, single-threaded.  Passes over
the workload's job list repeat until ``--seconds`` have passed (and at least
``MIN_PASSES`` passes).  A job's time is the wall time of its call into
gaplab; reading and checking its output is not timed.

A shared machine's speed can change by up to 1.8x within seconds, so with
``--trace 0`` every time is calibrated (see :class:`Calibration`): a fixed
reference kernel that does not touch gaplab is timed between the jobs, and
each job's wall time is scaled by ``CAL_NOMINAL_S`` over the kernel's time
around it.  ``pass_s`` is the sum over jobs of each job's median calibrated
time and ``job_max_s`` the largest of those medians; ``setup_s`` is the
median calibrated time of fresh interpreters started between the passes,
about a fifth of the run's time.  The result file also holds every raw and
calibrated sample, and each kernel time.  With
``--trace 1`` untraced and traced passes alternate and the run reports the
per-layer metrics of the traced passes, plus the tracing overhead (traced
minus untraced pass time).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full result
(quartiles, sample counts, per-job times, the environment) goes to
``perfbench/results/<workload>.seed<seed>.trace<0|1>.json``, and the spans
of a traced run to ``...spans.jsonl`` beside it.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from hashlib import sha256
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

#: passes measured per run at the least, however long they take
MIN_PASSES = 3
#: fresh interpreters timed for setup_s at the least (after one that
#: compiles bytecode)
SETUP_REPEATS = 9
#: share of a run's time given to setup_s probes, which run between passes
SETUP_SHARE = 0.2
#: seed whose values reference.json holds for the seeded jobs
REFERENCE_SEED = 0
#: closeness to the reference values
REFERENCE_TOL = 1e-9
#: seconds the reference kernel takes on the nominal machine whose seconds
#: calibrated times are given in
CAL_NOMINAL_S = 0.010
#: job time between two kernel timings at the most, where jobs are shorter
CAL_EVERY_S = 0.25

END_TO_END = [
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("job_max_s", "s"),
    ("pass_rate", "ratio"),
    ("peak_rss_mb", "MB"),
]

_SETUP_CODE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
t = time.perf_counter()
import gaplab, gaplab.cli
gaplab.cli.build_parser()
dt = time.perf_counter() - t
print(gaplab.__file__)
print(repr(dt))
"""


class BenchError(RuntimeError):
    """The benchmark cannot run here (no sources, wrong gaplab, ...)."""


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(threads: int) -> dict:
    import numpy
    import scipy

    digest = sha256()
    for path in sorted((SRC / "gaplab").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return {
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "process.threads": threads,
    }


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def setup_probe() -> float:
    """Seconds one fresh interpreter spends on ``import gaplab, gaplab.cli``
    plus ``build_parser()``."""
    proc = subprocess.run(
        [sys.executable, "-c", _SETUP_CODE, str(SRC)],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=ROOT,
    )
    if proc.returncode != 0:
        raise BenchError(f"importing gaplab failed:\n{proc.stderr}")
    where, dt = proc.stdout.split()
    if not Path(where).resolve().is_relative_to(SRC):
        raise BenchError(f"a fresh interpreter imported gaplab from {where}")
    return float(dt)


class Calibration:
    """A fixed reference kernel that measures the machine's current speed.

    It solves one seeded 12x12 transport LP five times through
    ``scipy.optimize.linprog`` (scipy's Python, then the compiled HiGHS
    solver), the same mix of interpreter and compiled work that gaplab's
    jobs do, and nothing of gaplab.  On a shared 2-core Xeon VM the kernel's
    time and a job's time rose together during slow spells (correlation
    0.82-0.89 over 150 s), and a job's time divided by the kernel's time
    around it spread 10-11% where its raw time spread 45-48%.
    """

    SOLVES = 5

    def __init__(self):
        import numpy as np
        from scipy import sparse
        from scipy.optimize import linprog

        n = 12
        rows = sparse.vstack(
            [
                sparse.kron(sparse.eye(n), np.ones((1, n))),
                sparse.kron(np.ones((1, n)), sparse.eye(n)),
            ]
        ).tocsr()
        cost = np.random.default_rng(12).random(n * n)
        marginals = np.full(2 * n, 1.0 / n)

        def kernel():
            for _ in range(self.SOLVES):
                res = linprog(cost, A_eq=rows, b_eq=marginals, bounds=(0, None), method="highs")
                if res.status != 0:
                    raise BenchError(f"the reference kernel's LP failed: {res.message}")

        self._kernel = kernel
        self.measure()  # first call loads scipy's lazy modules

    def measure(self) -> float:
        """Seconds the kernel takes now."""
        t0 = perf_counter()
        self._kernel()
        return perf_counter() - t0


def calibrated(seconds: float, kernel_s: float) -> float:
    """``seconds`` as they would read on the nominal machine."""
    return seconds * CAL_NOMINAL_S / kernel_s


def calibrated_setup_probe(cal: Calibration, kernel_s: list[float]) -> float:
    """One :func:`setup_probe`, calibrated by kernel times just before and
    just after it (whose mean goes to ``kernel_s``)."""
    before = cal.measure()
    dt = setup_probe()
    k = (before + cal.measure()) / 2
    kernel_s.append(k)
    return calibrated(dt, k)


def summarize(values: list[float]) -> dict:
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "min": min(values), "samples": len(values)}


def fastest_pass(job_samples: dict[str, list[float]]) -> float:
    """A pass with every job at its fastest observed time.

    The noise of a shared machine only ever slows a job down, in spells of
    tens of seconds that can cover most of a run; each job's minimum is the
    estimate of its own cost that such a spell disturbs least.
    """
    return sum(min(ts) for ts in job_samples.values())


#: per-layer metrics taken over all traced passes rather than their median,
#: so that what one pass shows is never hidden by the others
_LAYER_SUMS = {"solver.certify.violations"}
_LAYER_MAXIMA = {
    "solver.certify.max_dual_slack",
    "solver.certify.max_pd_gap",
    "process.threads",
}


def aggregate(key: str, values: list[float]) -> float:
    """A per-layer metric of the run from its per-pass values."""
    if key in _LAYER_SUMS:
        return sum(values)
    if key in _LAYER_MAXIMA:
        return max(values)
    return statistics.median(values)


class Runner:
    """Runs passes over one job list and keeps their times and failures."""

    def __init__(self, jobs, seed: int, reference: dict, tracer=None, calibration=None):
        self.jobs = jobs
        self.seed = seed
        self.reference = reference
        self.tracer = tracer
        self.calibration = calibration
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def _reference_problems(self, job, values: dict) -> list[str]:
        if job.seeded and self.seed != REFERENCE_SEED:
            return []
        ref = self.reference.get(job.name)
        if ref is None:
            return ["no reference values"]
        out = []
        for key, want in ref.items():
            got = values.get(key)
            want = float(want)
            if got is None:
                out.append(f"{key}: missing")
            elif not (got == want or abs(got - want) <= REFERENCE_TOL):
                out.append(f"{key}: {got!r} differs from reference {want!r}")
        return out

    def run_pass(self, traced: bool) -> tuple[list[float], list[float | None]]:
        """One pass over the jobs; returns the time of each and, with a
        calibration, the mean of the kernel times taken just before and
        just after it (else None)."""
        tracer = self.tracer if traced else None
        if self.tracer is not None:
            self.tracer.uninstall()
            if traced:
                self.tracer.install()
                self.tracer.start_pass()
        gc.collect()
        times = []
        kernel: list[float | None] = [None] * len(self.jobs)
        cal = self.calibration
        if cal is not None:
            before = cal.measure()
            pending, since = [], 0.0
        for i, job in enumerate(self.jobs):
            self.attempted += 1
            if tracer is not None:
                tracer.job = job.name
            raw, error = None, None
            t0 = perf_counter()
            try:
                raw = job.run()
            except Exception:  # a failed job is a result, not the end of the run
                error = traceback.format_exc(limit=3)
            times.append(perf_counter() - t0)
            if cal is not None:
                # short jobs share the kernel times around their group
                pending.append(i)
                since += times[-1]
                if since >= CAL_EVERY_S or i == len(self.jobs) - 1:
                    after = cal.measure()
                    for k in pending:
                        kernel[k] = (before + after) / 2
                    before, pending, since = after, [], 0.0
            problems = [error] if error else []
            if error is None:
                try:
                    values, problems = job.verify(raw)
                    problems = problems + self._reference_problems(job, values)
                except Exception:
                    problems = [traceback.format_exc(limit=3)]
            if tracer is not None and job.name in tracer.bad_jobs:
                problems.append("certificate violation")
            if problems:
                self.failed += 1
                self.problems.append(f"{job.name}: {'; '.join(problems)}")
        if self.tracer is not None:
            self.tracer.job = None
            self.tracer.uninstall()
        return times, kernel


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import gaplab

    import workloads
    from tracing import Tracer

    if not Path(gaplab.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"gaplab was imported from {gaplab.__file__}, not {SRC}")
    reference = json.loads((HERE / "reference.json").read_text())
    RESULTS.mkdir(exist_ok=True)
    work = RESULTS / f"work-{workload}-{os.getpid()}"
    work.mkdir()
    try:
        jobs = workloads.WORKLOADS[workload](seed, work)
        tracer = Tracer() if trace else None
        cal = None if trace else Calibration()
        runner = Runner(jobs, seed, reference["jobs"], tracer, cal)
        # per job, its time in every untraced (False) and traced (True) pass
        samples = {mode: {job.name: [] for job in jobs} for mode in (False, True)}
        # per job, the kernel time around it in every untraced pass
        kernel_s = {job.name: [] for job in jobs}
        layers = []
        setup = []
        setup_kernel = []
        setup_time = 0.0
        started = perf_counter()
        passes = 0
        while True:
            is_traced = trace and passes % 2 == 1
            times, kernel = runner.run_pass(traced=is_traced)
            passes += 1
            for job, t, k in zip(jobs, times, kernel):
                samples[is_traced][job.name].append(t)
                if k is not None:
                    kernel_s[job.name].append(k)
            if is_traced:
                layers.append(tracer.pass_metrics())
            # setup_s probes are spread over the run, between passes, so that
            # a slow spell of the machine does not cover all of them
            while not trace and setup_time < SETUP_SHARE * (perf_counter() - started):
                t0 = perf_counter()
                setup.append(calibrated_setup_probe(cal, setup_kernel))
                setup_time += perf_counter() - t0
            if perf_counter() - started >= seconds and passes >= MIN_PASSES and (
                layers or not trace
            ):
                break
        while not trace and len(setup) < SETUP_REPEATS:
            setup.append(calibrated_setup_probe(cal, setup_kernel))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    plain = samples[False]
    result = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "problems": runner.problems,
        "pass_total_s": summarize([sum(col) for col in zip(*plain.values())]),
        "job_s": {name: summarize(ts) for name, ts in plain.items()},
        "job_samples_s": plain,
        "fastest_pass_s": fastest_pass(plain),
    }
    if trace:
        traced = samples[True]
        per_layer = {k: aggregate(k, [p[k] for p in layers]) for k in layers[0]}
        per_layer["trace.pass_s"] = fastest_pass(traced)
        per_layer["trace.untraced_pass_s"] = result["fastest_pass_s"]
        per_layer["trace.overhead_s"] = per_layer["trace.pass_s"] - result["fastest_pass_s"]
        result["traced_pass_total_s"] = summarize([sum(col) for col in zip(*traced.values())])
        result["traced_job_samples_s"] = traced
        result["layers"] = per_layer
        result["layer_passes"] = layers
        tracer.write_spans(RESULTS / f"{workload}.seed{seed}.spans.jsonl")
        threads = int(per_layer["process.threads"])
    else:
        from tracing import thread_count

        threads = thread_count()
        job_cal = {
            name: [calibrated(t, k) for t, k in zip(plain[name], kernel_s[name])]
            for name in plain
        }
        medians = [statistics.median(ts) for ts in job_cal.values()]
        result["pass_s"] = sum(medians)
        result["job_max_s"] = max(medians)
        result["job_calibrated_s"] = {name: summarize(ts) for name, ts in job_cal.items()}
        result["job_calibrated_samples_s"] = job_cal
        result["job_kernel_s"] = kernel_s
        result["kernel_s"] = summarize([k for ks in kernel_s.values() for k in ks])
        result["setup_s"] = summarize(setup)
        result["setup_samples_s"] = setup
        result["setup_kernel_s"] = setup_kernel
    result["environment"] = environment(threads)
    return result


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _parse(argv):
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=REFERENCE_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "gaplab" / "__init__.py").is_file():
        print(f"perfbench: no gaplab sources under {SRC}", file=sys.stderr)
        return 2
    try:
        if not args.trace:
            setup_probe()  # compiles the bytecode the timed probes read
        sys.path.insert(0, str(SRC))
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    if args.trace:
        from tracing import LAYER_METRICS

        metrics = {
            name: {"value": result["layers"][name], "unit": unit}
            for name, unit in LAYER_METRICS
        }
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = {
            "setup_s": result["setup_s"]["median"],
            "pass_s": result["pass_s"],
            "job_max_s": result["job_max_s"],
            "pass_rate": (result["attempted"] - result["failed"]) / result["attempted"],
            "peak_rss_mb": rss_mb,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    result["metrics"] = metrics

    out = RESULTS / f"{args.workload}.seed{args.seed}.trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    for problem in result["problems"]:
        print(f"FAILED {problem}", file=sys.stderr)
    for key in ("setup_s", "pass_total_s", "traced_pass_total_s"):
        if key in result:
            s = result[key]
            print(
                f"{key}: median {s['median']:.4f} s, quartiles "
                f"{s['q1']:.4f}-{s['q3']:.4f}, {s['samples']} samples"
            )
    print(f"result file: {out.relative_to(ROOT)}")
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
