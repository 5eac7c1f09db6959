"""Batch front-end: solves, gap scans, rectifier runs, negligibility queries
and block-approximation sequences, reported as CSV or JSON.

Exit codes: 0 success (an infinite value is a result, not an error),
2 malformed instance or descriptor, 4 approximation precondition failure.
Identical configurations (including seeds) produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import re
import sys
from pathlib import Path

import numpy as np

from .approximate import (
    InfiniteRectifiedCostError,
    block_approximate_plan,
    weak_star_distance,
)
from .catalog import catalog, catalog_names, get_instance
from .core import ConfigurationError, DiscreteMeasure, Grid, malformed
from .costs import CountableMarker, Graph, PointSet, Rectangle, Segment
from .instance import discretize, load_instance
from .negligible import (
    SetDescriptor,
    is_L_negligible,
    max_plan_mass,
    set_descriptor_from_json,
)
from .plans import diagonal_plan, product_plan, shift_subplan
from .rectify import generative_rectify
# solve_dual is not called here; it stays importable as gaplab.cli.solve_dual,
# where perfbench/tracing.py wraps it
from .solver import solve_dual, solve_partial, solve_primal  # noqa: F401

EXIT_OK = 0
EXIT_BAD_INSTANCE = 2
EXIT_NO_TARGET = 4


def _fmt(v) -> str:
    if isinstance(v, float):
        if np.isinf(v):
            return "inf" if v > 0 else "-inf"
        return f"{v + 0.0:.12g}"  # + 0.0 turns -0.0 into 0.0: no "-0" in reports
    return str(v)


def _write_rows(header, rows, out, fmt) -> None:
    if fmt == "json":
        payload = [dict(zip(header, row)) for row in rows]
        text = json.dumps(payload, indent=2, default=_fmt) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
        text = buf.getvalue()
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _parse_n_list(spec: str) -> list[int]:
    """Accept "8", "4,8,16" or a doubling range "4..64"; every n must be >= 1."""
    spec = spec.strip()
    try:
        if ".." in spec:
            lo, hi = (int(tok) for tok in spec.split(".."))
            out, n = [], lo
            while 1 <= n <= hi:  # n < 1 would never grow: leave the list empty
                out.append(n)
                n *= 2
        else:
            out = [int(tok) for tok in spec.split(",") if tok]
    except ValueError:  # a token that is not an integer, or "a..b..c"
        out = []
    if not out or min(out) < 1:
        raise ConfigurationError(
            f"resolution list {spec!r} needs integers n >= 1 and at least one n"
        )
    return out


def _parse_eps(spec: str, n: int) -> list[float]:
    """A comma list of eps >= 0: numbers, fractions p/q, or the token 1/n
    (the per-resolution coupling)."""
    vals = []
    for tok in spec.split(","):
        tok = tok.strip()
        if not tok:
            continue
        try:
            if tok == "1/n":
                v = 1.0 / n
            elif "/" in tok:
                num, den = tok.split("/")
                v = float(num) / float(den)
            else:
                v = float(tok)
        except (ValueError, ZeroDivisionError):
            v = np.nan
        if not v >= 0:  # also rejects NaN
            raise ConfigurationError(f"eps list {spec!r}: {tok!r} is not a number >= 0")
        vals.append(v)
    if not vals:
        raise ConfigurationError(f"eps list {spec!r} is empty")
    return vals


def _load(args) -> object:
    if getattr(args, "instance", None):
        return load_instance(args.instance)
    return get_instance(
        args.catalog, M=args.M, K=args.K, seed=args.seed, n=args.catalog_n
    )


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_solve(args) -> int:
    inst = _load(args)
    ns = _parse_n_list(args.n)

    def one(n):
        C, mu, nu = discretize(inst, n)
        p = solve_primal(C, mu, nu)
        # the dual value of the same solve: what solve_dual would report
        dual = p.potentials.objective if p.status == "optimal" else p.value
        gap = p.value - dual if np.isfinite(p.value) else 0.0
        return (inst.name, n, p.value, dual, p.status, gap)

    rows = sorted((one(n) for n in ns), key=lambda r: r[1])
    _write_rows(
        ["instance", "n", "primal", "dual", "status", "duality_gap"],
        rows,
        args.out,
        args.format,
    )
    return EXIT_OK


def cmd_gap_scan(args) -> int:
    inst = _load(args)
    ns = _parse_n_list(args.n)
    eps_at = {n: _parse_eps(args.eps, n) for n in ns}  # reject bad lists first

    def one(n):
        C, mu, nu = discretize(inst, n)
        primal = solve_primal(C, mu, nu).value
        return [
            (inst.name, n, eps, solve_partial(C, mu, nu, eps).value, primal)
            for eps in eps_at[n]
        ]

    rows = sorted(
        (row for n in ns for row in one(n)),
        key=lambda r: (r[1], -r[2]),
    )
    header = ["instance", "n", "eps", "partial_value", "primal"]
    # continuum estimate: primal and diagonal-schedule partial at the largest n
    n_top = max(ns)
    top = [r for r in rows if r[1] == n_top]
    est = min(top, key=lambda r: r[2])
    rows.append((inst.name, n_top, "estimate", est[3], est[4]))
    _write_rows(header, rows, args.out, args.format)
    return EXIT_OK


def cmd_rectify(args) -> int:
    inst = _load(args)
    ns = _parse_n_list(args.n)
    if len(ns) != 1:
        raise ConfigurationError(f"rectify takes one resolution, got {args.n!r}")
    n = ns[0]
    if args.budget < 0:
        raise ConfigurationError(f"budget must be non-negative, got {args.budget}")
    if args.seed < 0:
        raise ConfigurationError(f"seed must be non-negative, got {args.seed}")
    acc = generative_rectify(inst, n, budget=args.budget, rng_seed=args.seed)
    base = Path(args.out) if args.out else None

    env_rows = [tuple(row) for row in acc.lower_envelope]
    prov = sorted(acc.provenance_counts.items())
    summary = [
        (
            inst.name,
            n,
            args.budget,
            args.seed,
            acc.pair_count,
            acc.sup_gap_finite(),
            ";".join(f"{k}:{v}" for k, v in prov),
        )
    ]
    header = ["instance", "n", "budget", "seed", "pairs", "sup_gap_finite", "provenance"]
    _write_rows(header, summary, base, args.format)
    if base is not None:
        _write_rows(
            [f"c{j}" for j in range(n)],
            env_rows,
            base.with_suffix(".envelope.csv"),
            "csv",
        )
        _write_rows(
            ["provenance", "objective", "feasibility_slack"],
            acc.log,
            base.with_suffix(".pairs.csv"),
            "csv",
        )
    return EXIT_OK


_SEGMENT_RE = re.compile(
    r"segment\s+y\s*=\s*([0-9.]+)\s+x\s*(?:in|=)\s*\[([0-9.]+)\s*,\s*([0-9.]+)\]"
)
_POINTS_RE = re.compile(r"points\s+(.+)")
_RECT_RE = re.compile(
    r"rect\s+\[([0-9.]+),([0-9.]+)\]\s*x\s*\[([0-9.]+),([0-9.]+)\]"
)


def parse_set_descriptor(text: str) -> SetDescriptor:
    """Tiny shorthand grammar for the CLI; JSON files cover the general case.

    Accepted forms: "diagonal", "qxq", "segment y=0.3 x=[0,0.5]",
    "points [(0.5,0.5),(0.25,0.75)]", "rect [0,0.25]x[0,1]",
    or a path to a JSON document {"pieces": [...]}.
    """
    text = text.strip()
    with malformed(f"set descriptor {text!r}"):
        if text.endswith(".json") and Path(text).exists():
            return set_descriptor_from_json(json.loads(Path(text).read_text()))
        if text == "diagonal":
            return SetDescriptor((Graph((Segment(0.0, 1.0, 0.0, 1.0),)),))
        if text in ("qxq", "countable"):
            return SetDescriptor((CountableMarker(),))
        m = _SEGMENT_RE.fullmatch(text)
        if m:
            y, x0, x1 = map(float, m.groups())
            return SetDescriptor((Graph((Segment(x0, x1, y, y),)),))
        m = _POINTS_RE.fullmatch(text)
        if m:
            pts = re.findall(r"\(([0-9.]+)\s*,\s*([0-9.]+)\)", m.group(1))
            if pts:
                return SetDescriptor(
                    (PointSet(tuple((float(a), float(b)) for a, b in pts)),)
                )
        m = _RECT_RE.fullmatch(text)
        if m:
            x0, x1, y0, y1 = map(float, m.groups())
            return SetDescriptor((Rectangle(x0, x1, y0, y1),))
        raise ConfigurationError(f"cannot parse set descriptor {text!r}")


def cmd_negligible(args) -> int:
    A = parse_set_descriptor(args.set)
    inst = _load(args)
    verdict = is_L_negligible(A, inst.marginal_x, inst.marginal_y)
    ns = _parse_n_list(args.n)

    def one(n):
        grid = Grid(n)
        mu = DiscreteMeasure.from_density(inst.marginal_x, grid)
        nu = DiscreteMeasure.from_density(inst.marginal_y, grid)
        return (n, max_plan_mass(A, mu, nu, n))

    masses = sorted(one(n) for n in ns)
    payload = verdict.to_json_dict()
    payload["set"] = args.set
    payload["max_plan_mass"] = [{"n": n, "mass": m} for n, m in masses]
    text = json.dumps(payload, indent=2, default=_fmt) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text)
    return EXIT_OK


_PLAN_BUILDERS = {
    "diagonal": lambda N, mu, nu: diagonal_plan(N),
    "shift": lambda N, mu, nu: shift_subplan(N),
    "product": lambda N, mu, nu: product_plan(mu, nu),
}


def cmd_approximate(args) -> int:
    if args.s < 1:
        raise ConfigurationError(f"--s must be >= 1, got {args.s}")
    inst = _load(args)
    ns = _parse_n_list(args.n)
    rows = []
    for n in ns:
        N = n * args.s
        mu = DiscreteMeasure.from_density(inst.marginal_x, Grid(N))
        nu = DiscreteMeasure.from_density(inst.marginal_y, Grid(N))
        plan = _PLAN_BUILDERS[args.plan](N, mu, nu)
        step = block_approximate_plan(plan, inst, n, args.s)
        dist = weak_star_distance(step.plan, plan)
        rows.append(
            (
                inst.name,
                n,
                args.s,
                step.mass,
                step.cost_c,
                step.target_cr_integral,
                1.0 / n,
                step.bound_ok,
                dist,
            )
        )
    _write_rows(
        [
            "instance",
            "n",
            "s",
            "mass",
            "cost_c",
            "target_cr_integral",
            "bound",
            "bound_ok",
            "wstar_distance",
        ],
        rows,
        args.out,
        args.format,
    )
    return EXIT_OK


def cmd_catalog(args) -> int:
    rows = []
    for entry in catalog(M=args.M, K=args.K, seed=args.seed, n=args.catalog_n):
        vals = entry.continuum_values
        rows.append(
            (
                entry.instance.name,
                ";".join(entry.tags),
                _fmt(vals.get("P_c", "")),
                _fmt(vals.get("D_c", "")),
                _fmt(vals.get("P_rectified", "")),
                "; ".join(f"{k}: {v}" for k, v in sorted(entry.notes.items())),
            )
        )
    _write_rows(
        ["name", "tags", "P_c", "D_c", "P_rectified", "notes"],
        rows,
        args.out,
        args.format,
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument surface
# ---------------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser, need_instance: bool = True) -> None:
    if need_instance:
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("--instance", help="path to an instance JSON file")
        src.add_argument("--catalog", choices=catalog_names(), help="catalog family")
    p.add_argument("--M", type=float, default=2.0, help="finite-variant level")
    p.add_argument("--K", type=int, default=20, help="fat-set interval count")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--catalog-n", type=int, default=8, help="resolution of random_finite"
    )
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.add_argument("--format", choices=["csv", "json"], default="csv")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process.  It holds no command
    function: main looks cmd_<command> up when it runs, so a function
    patched into this module after the first call is the one called."""
    ap = argparse.ArgumentParser(
        prog="gaplab",
        description="duality-gap laboratory for discrete optimal transport",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="primal and dual values over resolutions")
    _add_common(p)
    p.add_argument(
        "--n", "--n-range", dest="n", required=True,
        help="resolution list: 8 | 4,8,16 | 4..64",
    )

    p = sub.add_parser("gap-scan", help="(n, eps) table of partial values")
    _add_common(p)
    p.add_argument("--n", "--n-range", dest="n", required=True)
    p.add_argument("--eps", default="1/n", help='schedule "1/n" or "0.5,0.25,..."')

    p = sub.add_parser("rectify", help="generative envelope accumulation")
    _add_common(p)
    p.add_argument("--n", "--n-range", dest="n", required=True)
    p.add_argument("--budget", type=int, default=200, help="accepted; has no effect")

    p = sub.add_parser("negligible", help="L-negligibility verdict + mass trend")
    p.add_argument("set", help='descriptor: diagonal | qxq | "segment y=.. x=[..]" | file.json')
    _add_common(p, need_instance=False)
    p.add_argument("--instance", help="path to an instance JSON file")
    p.add_argument(
        "--catalog", choices=catalog_names(), default="trivial_zero", help="marginal source"
    )
    p.add_argument("--n", "--n-range", dest="n", default="4,8,16,32")

    p = sub.add_parser("approximate", help="block approximation sequence")
    _add_common(p)
    p.add_argument("--n", "--n-range", dest="n", required=True)
    p.add_argument("--s", type=int, default=8, help="fine atoms per cell side")
    p.add_argument("--plan", choices=sorted(_PLAN_BUILDERS), default="diagonal")

    p = sub.add_parser("catalog", help="list canonical instances")
    _add_common(p, need_instance=False)
    p.add_argument("--list", action="store_true", help="(default action)")

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    fn = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return fn(args)
    except InfiniteRectifiedCostError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_TARGET
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INSTANCE


if __name__ == "__main__":
    sys.exit(main())
