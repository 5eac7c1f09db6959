"""Batch front-end: solves, gap scans, rectifier runs, negligibility queries
and block-approximation sequences, reported as CSV or JSON.

Exit codes: 0 success (an infinite value is a result, not an error),
2 malformed instance or descriptor, 4 approximation precondition failure.
Identical configurations (including seeds) produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from .approximate import (
    InfiniteRectifiedCostError,
    block_approximate_plan,
    weak_star_distance,
)
from .catalog import catalog, catalog_names, get_instance
from .core import ConfigurationError
from .costs import Segment
from .instance import discretize, load_instance
from .negligible import (
    CountableSetPiece,
    GraphPiece,
    PointSetPiece,
    RectanglePiece,
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
        return f"{v:.12g}"
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
    """Accept "8", "4,8,16" or a doubling range "4..64"."""
    spec = spec.strip()
    if ".." in spec:
        lo, hi = spec.split("..")
        out, n = [], int(lo)
        while n <= int(hi):
            out.append(n)
            n *= 2
        return out
    return [int(tok) for tok in spec.split(",") if tok]


def _parse_eps(spec: str, n: int) -> list[float]:
    """Either the literal token 1/n (per-resolution coupling) or a list."""
    if spec.strip() == "1/n":
        return [1.0 / n]
    vals = []
    for tok in spec.split(","):
        tok = tok.strip()
        if "/" in tok:
            num, den = tok.split("/")
            vals.append(float(num) / float(den))
        elif tok:
            vals.append(float(tok))
    return vals


def _load(args) -> object:
    if getattr(args, "instance", None):
        return load_instance(args.instance)
    return get_instance(
        args.catalog, M=args.M, K=args.K, seed=args.seed, n=args.catalog_n
    )


def _pool_map(fn, items, jobs: int):
    if jobs <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))


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

    rows = sorted(_pool_map(one, ns, args.jobs), key=lambda r: r[1])
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

    def one(n):
        C, mu, nu = discretize(inst, n)
        primal = solve_primal(C, mu, nu).value
        return [
            (inst.name, n, eps, solve_partial(C, mu, nu, eps).value, primal)
            for eps in _parse_eps(args.eps, n)
        ]

    rows = sorted(
        (row for rows_n in _pool_map(one, ns, args.jobs) for row in rows_n),
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
    n = int(args.n)
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
    if base is None:
        _write_rows(header, summary, None, args.format)
    else:
        _write_rows(header, summary, base, args.format)
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
    if text.endswith(".json") and Path(text).exists():
        return set_descriptor_from_json(json.loads(Path(text).read_text()))
    if text == "diagonal":
        return SetDescriptor((GraphPiece((Segment(0.0, 1.0, 0.0, 1.0),)),))
    if text in ("qxq", "countable"):
        return SetDescriptor((CountableSetPiece(),))
    m = _SEGMENT_RE.fullmatch(text)
    if m:
        y, x0, x1 = map(float, m.groups())
        return SetDescriptor((GraphPiece((Segment(x0, x1, y, y),)),))
    m = _POINTS_RE.fullmatch(text)
    if m:
        pts = re.findall(r"\(([0-9.]+)\s*,\s*([0-9.]+)\)", m.group(1))
        if pts:
            return SetDescriptor(
                (PointSetPiece(tuple((float(a), float(b)) for a, b in pts)),)
            )
    m = _RECT_RE.fullmatch(text)
    if m:
        x0, x1, y0, y1 = map(float, m.groups())
        return SetDescriptor((RectanglePiece(x0, x1, y0, y1),))
    raise ConfigurationError(f"cannot parse set descriptor {text!r}")


def cmd_negligible(args) -> int:
    A = parse_set_descriptor(args.set)
    inst = _load(args)
    verdict = is_L_negligible(A, inst.marginal_x, inst.marginal_y)
    ns = _parse_n_list(args.n)

    def one(n):
        C, mu, nu = discretize(inst, n)
        return (n, max_plan_mass(A, mu, nu, n))

    masses = sorted(_pool_map(one, ns, args.jobs))
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
    inst = _load(args)
    ns = _parse_n_list(args.n)
    rows = []
    for n in ns:
        N = n * args.s
        _, mu, nu = discretize(inst, N)
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
    p.add_argument("--jobs", type=int, default=1, help="worker threads for scans")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.add_argument("--format", choices=["csv", "json"], default="csv")


def build_parser() -> argparse.ArgumentParser:
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
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("gap-scan", help="(n, eps) table of partial values")
    _add_common(p)
    p.add_argument("--n", "--n-range", dest="n", required=True)
    p.add_argument("--eps", default="1/n", help='schedule "1/n" or "0.5,0.25,..."')
    p.set_defaults(fn=cmd_gap_scan)

    p = sub.add_parser("rectify", help="generative envelope accumulation")
    _add_common(p)
    p.add_argument("--n", "--n-range", dest="n", required=True)
    p.add_argument("--budget", type=int, default=200)
    p.set_defaults(fn=cmd_rectify)

    p = sub.add_parser("negligible", help="L-negligibility verdict + mass trend")
    p.add_argument("set", help='descriptor: diagonal | qxq | "segment y=.. x=[..]" | file.json')
    _add_common(p, need_instance=False)
    p.add_argument("--instance", help="path to an instance JSON file")
    p.add_argument(
        "--catalog", choices=catalog_names(), default="trivial_zero", help="marginal source"
    )
    p.add_argument("--n", "--n-range", dest="n", default="4,8,16,32")
    p.set_defaults(fn=cmd_negligible)

    p = sub.add_parser("approximate", help="block approximation sequence")
    _add_common(p)
    p.add_argument("--n", "--n-range", dest="n", required=True)
    p.add_argument("--s", type=int, default=8, help="fine atoms per cell side")
    p.add_argument("--plan", choices=sorted(_PLAN_BUILDERS), default="diagonal")
    p.set_defaults(fn=cmd_approximate)

    p = sub.add_parser("catalog", help="list canonical instances")
    _add_common(p, need_instance=False)
    p.add_argument("--list", action="store_true", help="(default action)")
    p.set_defaults(fn=cmd_catalog)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except InfiniteRectifiedCostError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_TARGET
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INSTANCE


if __name__ == "__main__":
    sys.exit(main())
