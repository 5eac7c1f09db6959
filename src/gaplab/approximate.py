"""Block-partition plan approximation and weak* convergence harnesses.

The approximation algorithm tiles (0,1]^2 into n x n half-open cells, views
the plan on a finer grid of s atoms per cell side, solves an independent
partial problem on each cell's own marginals (mass tolerance 1/n^3, original
cost), and glues the per-cell optima back into one sub-probability plan.
The glued plan converges weakly* to the input plan as n grows, with cost
measured against the *original* cost but targeted at the plan's integral
against the *rectified* cost.  Cells with the same cost block and marginals
pose the same LP; each distinct one is solved once per call and its report
reused, which is exact because the solve is deterministic.

Weak* convergence is metrized on dyadic grids by cell-mass discrepancies:
``d(p, q) = sum_k 2^-k max_cells |p(cell) - q(cell)|`` over all common
dyadic levels.  This is a metric on sub-probability plans at matching
resolutions and is what every "distance to the limit" column reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ConfigurationError, Grid
from .costs import discretize_cost, plan_cost
from .instance import Instance, discretize
from .solver import SolveReport, TransportPlan, solve_partial

__all__ = [
    "BlockPartition",
    "ApproximationStep",
    "InfiniteRectifiedCostError",
    "block_approximate_plan",
    "weak_star_distance",
    "liminf_harness",
    "LiminfReport",
]


#: slack of the liminf inequality: the limit plan's rectified cost may exceed
#: the tail minimum of the sequence's by this much
LIMINF_SLACK = 1e-6


class InfiniteRectifiedCostError(ValueError):
    """The plan's rectified-cost integral is infinite: no approximation target."""


@dataclass(frozen=True)
class BlockPartition:
    """n x n half-open cells, each holding s x s fine atoms (fine grid n*s).

    The one owner of the cell layout: an n*s x n*s matrix viewed as
    (n, s, n, s) holds cell (l, m) at [l, :, m, :].
    """

    n: int
    s: int

    def __post_init__(self):
        if self.n < 1 or self.s < 1:
            raise ConfigurationError("block partition needs n, s >= 1")

    @property
    def fine_n(self) -> int:
        return self.n * self.s

    def cell_slice(self, l: int, m: int) -> tuple[slice, slice]:
        """Fine-atom index ranges of cell (l, m), 0-based."""
        s = self.s
        return (slice(l * s, (l + 1) * s), slice(m * s, (m + 1) * s))

    def cell_sums(self, M: np.ndarray) -> np.ndarray:
        """The n x n cell totals of M."""
        return M.reshape(self.n, self.s, self.n, self.s).sum(axis=(1, 3))

    def cell_marginals(self, M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Every cell's row sums ([l, :, m] for cell (l, m)) and column sums
        ([l, m, :]), bit-equal to summing each block along that axis."""
        cells = M.reshape(self.n, self.s, self.n, self.s)
        return cells.sum(axis=3), cells.sum(axis=1)


@dataclass(frozen=True)
class ApproximationStep:
    n: int
    s: int
    plan: TransportPlan
    cost_c: float
    mass: float
    target_cr_integral: float
    per_cell_reports: tuple[dict, ...]

    @property
    def bound(self) -> float:
        return self.target_cr_integral + 1.0 / self.n

    @property
    def bound_ok(self) -> bool:
        return self.cost_c <= self.bound + 1e-9


def block_approximate_plan(
    pi: TransportPlan, instance: Instance, n: int, s: int
) -> ApproximationStep:
    """One approximation step: per-cell partial solves at tolerance 1/n^3.

    Each cell keeps at least its own plan mass minus 1/n^3, pays the original
    cost, and the glued plan is compared against the plan's rectified-cost
    integral plus 1/n.  Requires the instance to carry a rectified descriptor
    with a finite integral against ``pi``.

    ``target + 1/n`` is the continuum promise; on a fine grid with s atoms
    per cell side the per-cell mass floor can block it.  On ``diag_inf`` the
    attained cost is ``max(1 - s/n^2, 0)``, so the bound needs s >= n(n-1).

    Each distinct cell LP is solved once per call: cells are keyed by the
    exact bytes of their cost block and marginals (shapes and tolerance are
    fixed within a call), and a repeated key reuses the first report.  Both
    solver paths are deterministic, so the glued plan and every per-cell
    report equal those of solving each cell.  Piecewise-constant costs under
    product or diagonal plans repeat a handful of cell LPs many times.  Only
    cells that hold mass are visited (n of n^2 under a diagonal plan).
    """
    if instance.known_rectified is None:
        raise InfiniteRectifiedCostError(
            f"instance {instance.name!r} has no rectified cost attached"
        )
    part = BlockPartition(n, s)
    N = part.fine_n
    if pi.mass.shape != (N, N):
        raise ConfigurationError(f"plan must live on the fine {N}x{N} grid")
    C, _, _ = discretize(instance, N)
    Cr = discretize_cost(instance.known_rectified, Grid(N))
    target = plan_cost(Cr, pi.mass)
    if math.isinf(target):
        raise InfiniteRectifiedCostError(
            "rectified-cost integral of the plan is infinite; "
            "the approximation has no finite target"
        )
    tol = 1.0 / n**3
    glued = np.zeros((N, N))
    reports = []
    solved: dict[bytes, SolveReport] = {}
    row_sums, col_sums = part.cell_marginals(pi.mass)
    # entries are non-negative, so a cell sums to 0 only if it holds no mass
    for l, m in np.argwhere(row_sums.sum(axis=1) > 0).tolist():
        sl = part.cell_slice(l, m)
        cell_mass = float(pi.mass[sl].sum())
        if cell_mass <= 1e-15:
            continue
        a, b = row_sums[l, :, m], col_sums[l, m]
        key = C[sl].tobytes() + a.tobytes() + b.tobytes()
        rep = solved.get(key)
        if rep is None:
            rep = solved[key] = solve_partial(C[sl], a, b, eps=tol)
        if rep.status != "optimal":
            raise RuntimeError(f"cell ({l},{m}) partial solve failed: {rep.status}")
        glued[sl] = rep.plan.mass
        reports.append(
            {
                "cell": (l, m),
                "cell_mass": cell_mass,
                "retained": rep.plan.total,
                "mass_floor": max(cell_mass - tol, 0.0),
                "cost": rep.value,
                "dual_objective": rep.potentials.objective,
            }
        )
    plan_n = TransportPlan._own(glued)  # glued is ours: frozen, not copied
    return ApproximationStep(
        n=n,
        s=s,
        plan=plan_n,
        cost_c=plan_cost(C, glued),
        mass=plan_n.total,
        target_cr_integral=target,
        per_cell_reports=tuple(reports),
    )


# ---------------------------------------------------------------------------
# weak* metric on dyadic grids
# ---------------------------------------------------------------------------


def _dyadic_level(size: int) -> int:
    if not Grid(size).is_dyadic:
        raise ConfigurationError(f"weak* metric needs power-of-two grids, got {size}")
    return size.bit_length() - 1


def _max_abs_difference(p: np.ndarray, q: np.ndarray) -> float:
    """max |p - q|, with the one temporary taken to its abs in place."""
    d = p - q
    return float(np.abs(d, out=d).max())


def _coarser(cells: np.ndarray) -> np.ndarray:
    """The next dyadic level: each cell sums a 2 x 2 block of the finer one."""
    pairs = cells[:, ::2] + cells[:, 1::2]
    return pairs[::2] + pairs[1::2]


def weak_star_distance(p, q) -> float:
    """Hierarchical cell-mass discrepancy between two (sub-)plans.

    Both plans must live on power-of-two grids; levels run from the whole
    square down to the finest level both grids resolve.  Symmetric, obeys
    the triangle inequality, and vanishes iff all common cell masses agree
    (for equal resolutions: iff the plans are equal).  The finest common
    level is summed from the atoms (a plan whose cells are single atoms is
    its own finest level), each coarser one from the level below.
    """
    pm = p.mass if isinstance(p, TransportPlan) else np.asarray(p, dtype=float)
    qm = q.mass if isinstance(q, TransportPlan) else np.asarray(q, dtype=float)
    for mass in (pm, qm):
        if mass.ndim != 2 or mass.shape[0] != mass.shape[1] or mass.size == 0:
            raise ConfigurationError(
                f"weak* metric needs non-empty square plans, got shape {mass.shape}"
            )
    K = min(_dyadic_level(pm.shape[0]), _dyadic_level(qm.shape[0]))
    pc, qc = (
        m if m.shape[0] == 2**K else BlockPartition(2**K, m.shape[0] >> K).cell_sums(m)
        for m in (pm, qm)
    )
    diffs = [_max_abs_difference(pc, qc)]
    for _ in range(K):
        pc, qc = _coarser(pc), _coarser(qc)
        diffs.append(_max_abs_difference(pc, qc))
    dist = 0.0
    for k, diff in enumerate(reversed(diffs)):  # coarsest level first
        dist += 2.0**-k * diff
    return dist


# ---------------------------------------------------------------------------
# liminf harness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LiminfReport:
    status: str  # converged | inconclusive
    cr_costs: tuple[float, ...]
    c_costs: tuple[float, ...]
    distances: tuple[float, ...]
    cr_cost_limit: float
    c_cost_limit: float

    @property
    def cr_liminf_proxy(self) -> float:
        tail = self.cr_costs[len(self.cr_costs) // 2 :]
        return min(tail)

    @property
    def c_liminf_proxy(self) -> float:
        tail = self.c_costs[len(self.c_costs) // 2 :]
        return min(tail)

    @property
    def cr_inequality_holds(self) -> bool:
        return self.cr_cost_limit <= self.cr_liminf_proxy + LIMINF_SLACK

    @property
    def c_gap(self) -> float:
        """How badly the plain cost violates the lower-semicontinuity bound."""
        return self.c_cost_limit - self.c_liminf_proxy


def liminf_harness(
    instance: Instance,
    plan_sequence,
    limit_plan: TransportPlan,
    horizon: int,
) -> LiminfReport:
    """Score a plan sequence against its weak* limit under both costs.

    The rectified cost must satisfy the liminf inequality along any
    weakly* convergent sequence; the plain cost may fail it, and the report
    quantifies the failure.  Costs are evaluated at each plan's own
    resolution.  The sequence is called converged when the distances to the
    limit end below half their starting value (or at zero).
    """
    if horizon < 1:
        raise ConfigurationError(f"horizon must be at least 1, got {horizon}")
    if instance.known_rectified is None:
        raise InfiniteRectifiedCostError(
            f"instance {instance.name!r} has no rectified cost attached"
        )
    plans = []
    for plan in plan_sequence:
        plans.append(plan if isinstance(plan, TransportPlan) else TransportPlan(plan))
        if len(plans) >= horizon:
            break
    if not plans:
        raise ConfigurationError("empty plan sequence")

    cost_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def costs_at(size: int) -> tuple[np.ndarray, np.ndarray]:
        if size not in cost_cache:
            grid = Grid(size)
            cost_cache[size] = (
                discretize_cost(instance.cost, grid),
                discretize_cost(instance.known_rectified, grid),
            )
        return cost_cache[size]

    cr_costs, c_costs, distances = [], [], []
    for plan in plans:
        C, Cr = costs_at(plan.mass.shape[0])
        c_costs.append(plan_cost(C, plan.mass))
        cr_costs.append(plan_cost(Cr, plan.mass))
        distances.append(weak_star_distance(plan, limit_plan))
    C, Cr = costs_at(limit_plan.mass.shape[0])
    c_limit = plan_cost(C, limit_plan.mass)
    cr_limit = plan_cost(Cr, limit_plan.mass)

    d0, dlast = distances[0], distances[-1]
    converged = dlast <= 1e-12 or (
        dlast <= 0.5 * d0 and all(b <= a + 1e-12 for a, b in zip(distances, distances[1:]))
    )
    return LiminfReport(
        status="converged" if converged else "inconclusive",
        cr_costs=tuple(cr_costs),
        c_costs=tuple(c_costs),
        distances=tuple(distances),
        cr_cost_limit=cr_limit,
        c_cost_limit=c_limit,
    )
