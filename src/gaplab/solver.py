"""Exact discrete transport solves: primal, dual potentials, partial relaxation.

Every solve takes one of two paths, picked from the input alone:

* **assignment** -- C is square, every weight of both marginals is the same
  w > 0 (to 1e-12 relative), and the cap on dropped mass is k*w for an
  integer k (a full solve is k = 0).  The transport polytope is then
  w * Birkhoff, so the solve is an assignment problem, handed to
  scipy.optimize.linear_sum_assignment.  A partial solve adds k dummy rows
  and k dummy columns at cost 0 (Chapel, Alaya & Gasso, NeurIPS 2020); the
  zero dummy-dummy block lets it drop fewer than k atoms, which keeps the
  reduction exact under negative costs.  Network flows with integral data
  have integral optima, so the value is the LP value exactly.
* **highs** -- everything else (non-square C, unequal or zero weights, a
  cap that is no multiple of w) is a linear program handed to HiGHS
  (scipy.optimize.linprog), which is also the cross-check of the first path.

On both paths arcs with a non-finite cost are forbidden, so they can never
carry mass, and infeasibility over the remaining arcs is exactly the
statement "no finite-cost coupling exists".

Dual potentials are the equality-constraint multipliers of the optimal
basis on the HiGHS path, and shortest-path distances on the residual graph
of the optimal assignment on the other.  Either way their objective equals
the primal value of a full solve, and the feasibility slack
phi[i] + psi[j] - C[i][j] is non-positive on every finite arc up to solver
tolerance (well below the 1e-9 contract).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy import sparse
from scipy.optimize import linear_sum_assignment, linprog

from .core import INF, MASS_TOL, DiscreteMeasure

__all__ = [
    "TransportPlan",
    "DualPotentials",
    "SolveReport",
    "solve_primal",
    "solve_dual",
    "solve_partial",
    "relaxed_value",
    "RelaxedReport",
    "check_complementary_slackness",
]

_HIGHS_OPTS = {
    "presolve": True,
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
}

#: plan entries below this are treated as numerically zero
SUPPORT_TOL = 1e-12

#: primal/dual agreement required of an optimal report
DUALITY_TOL = 1e-7

#: relative spread allowed among equal weights, and between a slack cap and
#: k times the weight, on the assignment path (n=7's cell weights differ by
#: one ulp)
UNIFORM_RTOL = 1e-12


class InputError(ValueError):
    """Solver inputs violate a precondition (mismatched marginals, ...)."""


@dataclass(frozen=True)
class TransportPlan:
    """Sub-coupling matrix; rows ship mass from x-atoms, columns to y-atoms."""

    mass: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.mass, dtype=float)
        if m.ndim != 2:
            raise InputError("a transport plan is a matrix")
        if np.any(m < -SUPPORT_TOL):
            raise InputError("plan entries must be non-negative")
        m = np.where(m < 0, 0.0, m)  # clip solver dust
        m.setflags(write=False)
        object.__setattr__(self, "mass", m)

    @property
    def row_sums(self) -> np.ndarray:
        return self.mass.sum(axis=1)

    @property
    def col_sums(self) -> np.ndarray:
        return self.mass.sum(axis=0)

    @property
    def total(self) -> float:
        return float(self.mass.sum())

    def is_subcoupling_of(
        self, mu: DiscreteMeasure, nu: DiscreteMeasure, tol: float = MASS_TOL
    ) -> bool:
        return bool(
            np.all(self.row_sums <= mu.weights + tol)
            and np.all(self.col_sums <= nu.weights + tol)
        )


@dataclass(frozen=True)
class DualPotentials:
    """Feasible dual pair (phi, psi) with its objective against (mu, nu)."""

    phi: np.ndarray
    psi: np.ndarray
    objective: float

    def __post_init__(self):
        phi = np.asarray(self.phi, dtype=float)
        psi = np.asarray(self.psi, dtype=float)
        phi.setflags(write=False)
        psi.setflags(write=False)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "psi", psi)

    def feasibility_slack(self, C: np.ndarray) -> float:
        """max over finite arcs of phi[i] + psi[j] - C[i][j] (<= 0 when feasible)."""
        gap = self.phi[:, None] + self.psi[None, :] - C
        gap = gap[np.isfinite(C)]
        return float(gap.max()) if gap.size else -INF


@dataclass(frozen=True)
class SolveReport:
    value: float
    status: str  # optimal | infeasible_finite | degenerate
    plan: TransportPlan | None = None
    potentials: DualPotentials | None = None
    path: str = "highs"  # assignment | highs: the solver path that ran

    def to_json_dict(self, include_dense: bool = False) -> dict:
        d = {
            "value": "inf" if math.isinf(self.value) else self.value,
            "status": self.status,
            "objective_gap": (
                None
                if self.potentials is None or math.isinf(self.value)
                else self.value - self.potentials.objective
            ),
        }
        if include_dense and self.plan is not None:
            d["plan"] = self.plan.mass.tolist()
        if include_dense and self.potentials is not None:
            d["phi"] = self.potentials.phi.tolist()
            d["psi"] = self.potentials.psi.tolist()
        return d


def _as_weights(m) -> np.ndarray:
    if isinstance(m, DiscreteMeasure):
        return m.weights
    return np.asarray(m, dtype=float)


def _check_marginals(C: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    n, m = C.shape
    if a.shape != (n,) or b.shape != (m,):
        raise InputError("marginal lengths do not match the cost matrix")
    if np.any(a < -SUPPORT_TOL) or np.any(b < -SUPPORT_TOL):
        raise InputError("marginals must be non-negative")
    if abs(a.sum() - b.sum()) > 1e-9:
        raise InputError(
            f"marginal totals differ: {a.sum():.12g} vs {b.sum():.12g}"
        )


def _transport_lp(
    C: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    slack_cap: float | None = None,
) -> SolveReport:
    """Min-cost (sub-)coupling over the finite arcs of C, dropping at most
    ``slack_cap`` mass on each side; exact assignment when the input allows
    it (see the module docstring), HiGHS otherwise."""
    k = _assignment_drops(C, a, b, slack_cap)
    if k is None:
        return _highs_lp(C, a, b, slack_cap)
    return _assignment_lp(C, a, b, k)


def _assignment_drops(
    C: np.ndarray, a: np.ndarray, b: np.ndarray, slack_cap: float | None
) -> int | None:
    """Number k of atoms the solve may drop when it is an assignment problem
    (C square, all weights one w > 0, slack_cap = k*w), else None."""
    n, m = C.shape
    if n != m:
        return None
    w = float(a.mean())
    if not w > 0:
        return None
    tol = UNIFORM_RTOL * w
    if np.abs(a - w).max() > tol or np.abs(b - w).max() > tol:
        return None
    if slack_cap is None:
        return 0
    k = round(slack_cap / w)
    if abs(slack_cap - k * w) > UNIFORM_RTOL * max(slack_cap, w):
        return None
    return k


def _assignment_lp(C: np.ndarray, a: np.ndarray, b: np.ndarray, k: int) -> SolveReport:
    """Exact solve of a transport problem with n equal weights w that may drop
    k atoms: an (n+k) x (n+k) assignment with k zero-cost dummy rows and
    columns, each real matched arc carrying mass w."""
    n = C.shape[0]
    w = float(a.mean())
    D = np.zeros((n + k, n + k))
    D[:n, :n] = np.where(np.isfinite(C), C, INF)
    try:
        _, col = linear_sum_assignment(D)
    except ValueError:  # no perfect matching over the finite arcs
        return SolveReport(value=INF, status="infeasible_finite", path="assignment")
    u, v = _assignment_potentials(D, col)
    rows = np.flatnonzero(col[:n] < n)
    cols = col[rows]
    plan = np.zeros((n, n))
    plan[rows, cols] = w
    phi, psi = u[:n], v[:n]
    return SolveReport(
        value=w * float(C[rows, cols].sum()),
        status="optimal",
        plan=TransportPlan(plan),
        potentials=DualPotentials(
            phi=phi, psi=psi, objective=float(phi @ a + psi @ b)
        ),
        path="assignment",
    )


def _assignment_potentials(
    D: np.ndarray, col: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Dual pair (u, v) of the optimal assignment i -> col[i]: u_i + v_j <= D_ij
    on every finite arc, with equality on the matched arcs.

    Bellman-Ford on the residual graph, from u = 0: each sweep sets
    u_i = D_i,col[i] - v_col[i], which makes the matched arcs tight, then
    v_j = min_i (D_ij - u_i), which keeps the pair feasible.  u only grows,
    and an optimal assignment leaves no negative cycle, so u repeats within
    N + 1 sweeps; the cap only guards against rounding drift around a
    zero-length cycle, and leaves the pair feasible if it is ever reached.
    """
    N = D.shape[0]
    matched = D[np.arange(N), col]
    u = np.zeros(N)
    v = D.min(axis=0)
    for _ in range(N + 1):
        tight = matched - v[col]
        if np.array_equal(tight, u):
            break
        u = tight
        v = (D - u[:, None]).min(axis=0)
    return u, v


def _highs_lp(
    C: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    slack_cap: float | None = None,
) -> SolveReport:
    """Min-cost (sub-)coupling LP over the finite arcs of C, solved by HiGHS.

    With ``slack_cap`` set, one zero-cost slack column per row and slack row
    per column is added and the dropped mass on each side is capped, which
    is exactly the relaxed problem with mass floor total - slack_cap.
    """
    n, m = C.shape
    finite = np.isfinite(C)
    rows, cols = np.nonzero(finite)
    narc = rows.size
    if narc == 0:
        droppable = float(a.sum()) if slack_cap is None else float(a.sum()) - slack_cap
        if droppable <= SUPPORT_TOL:  # nothing (left) to ship
            return SolveReport(
                value=0.0,
                status="optimal",
                plan=TransportPlan(np.zeros((n, m))),
                potentials=DualPotentials(np.zeros(n), np.zeros(m), 0.0),
            )
        return SolveReport(value=INF, status="infeasible_finite")
    nslack = (n + m) if slack_cap is not None else 0

    # rows of A_eq: n row-sum constraints then m column-sum constraints
    data = np.ones(2 * narc)
    ridx = np.concatenate([rows, n + cols])
    cidx = np.concatenate([np.arange(narc), np.arange(narc)])
    if nslack:
        data = np.concatenate([data, np.ones(nslack)])
        ridx = np.concatenate([ridx, np.arange(n + m)])
        cidx = np.concatenate([cidx, narc + np.arange(nslack)])
    A_eq = sparse.coo_matrix((data, (ridx, cidx)), shape=(n + m, narc + nslack))
    # tiny LPs go through faster as dense systems
    A_eq = A_eq.toarray() if (n + m) * (narc + nslack) <= 50_000 else A_eq.tocsr()
    b_eq = np.concatenate([a, b])
    cost = np.concatenate([C[rows, cols], np.zeros(nslack)])

    A_ub = b_ub = None
    if nslack:
        cap = sparse.coo_matrix(
            (
                np.ones(nslack),
                (
                    np.concatenate([np.zeros(n, dtype=int), np.ones(m, dtype=int)]),
                    narc + np.arange(nslack),
                ),
            ),
            shape=(2, narc + nslack),
        )
        A_ub, b_ub = cap, np.array([slack_cap, slack_cap])

    res = linprog(
        cost,
        A_ub=A_ub,
        b_ub=b_ub,
        A_eq=A_eq,
        b_eq=b_eq,
        bounds=(0, None),
        method="highs",
        options=_HIGHS_OPTS,
    )
    if res.status == 2:  # infeasible over finite arcs
        return SolveReport(value=INF, status="infeasible_finite")
    if res.status != 0:
        raise RuntimeError(f"LP solver failed: {res.message}")

    plan = np.zeros((n, m))
    plan[rows, cols] = np.maximum(res.x[:narc], 0.0)
    duals = np.asarray(res.eqlin.marginals, dtype=float)
    phi, psi = duals[:n], duals[n:]
    potentials = DualPotentials(
        phi=phi, psi=psi, objective=float(phi @ a + psi @ b)
    )
    return SolveReport(
        value=float(res.fun),
        status="optimal",
        plan=TransportPlan(plan),
        potentials=potentials,
    )


def solve_primal(C: np.ndarray, mu, nu) -> SolveReport:
    """Minimum-cost full coupling of mu and nu; +inf entries are forbidden arcs."""
    C = np.asarray(C, dtype=float)
    a, b = _as_weights(mu), _as_weights(nu)
    _check_marginals(C, a, b)
    return _transport_lp(C, a, b)


def solve_dual(C: np.ndarray, mu, nu) -> SolveReport:
    """Optimal dual potentials; value is the dual objective (= primal by LP duality)."""
    report = solve_primal(C, mu, nu)
    if report.status != "optimal":
        return report
    return replace(report, value=report.potentials.objective)


def solve_partial(C: np.ndarray, mu, nu, eps: float) -> SolveReport:
    """Cheapest sub-coupling with row sums <= mu, col sums <= nu and total
    mass >= total - eps (the relaxed problem; eps in absolute mass units)."""
    if eps < 0:
        raise InputError(f"eps must be non-negative, got {eps}")
    C = np.asarray(C, dtype=float)
    a, b = _as_weights(mu), _as_weights(nu)
    _check_marginals(C, a, b)
    if eps == 0:
        return _transport_lp(C, a, b)
    return _transport_lp(C, a, b, slack_cap=min(eps, float(a.sum())))


@dataclass(frozen=True)
class RelaxedReport:
    """Partial values along a decreasing eps schedule plus the limit bracket."""

    table: tuple[tuple[float, float], ...]
    primal_value: float
    limit_estimate: float

    @property
    def bracket(self) -> tuple[float, float]:
        return (self.limit_estimate, self.primal_value)


def relaxed_value(instance, n: int, eps_schedule) -> RelaxedReport:
    """Partial transport values P^eps along the schedule; the eps -> 0 limit
    is reported as the last value bracketed by the full primal value."""
    from .instance import discretize

    eps_schedule = [float(e) for e in eps_schedule]
    if any(e <= 0 for e in eps_schedule):
        raise InputError("eps schedule must stay positive")
    if any(e2 >= e1 for e1, e2 in zip(eps_schedule, eps_schedule[1:])):
        raise InputError("eps schedule must be strictly decreasing")
    C, mu, nu = discretize(instance, n)
    rows = []
    prev = None
    for eps in eps_schedule:
        val = solve_partial(C, mu, nu, eps).value
        if prev is not None and val < prev - 1e-9:
            raise RuntimeError(
                f"partial value decreased as eps shrank: {prev} -> {val}"
            )
        prev = val
        rows.append((eps, val))
    primal = solve_primal(C, mu, nu).value
    return RelaxedReport(
        table=tuple(rows),
        primal_value=primal,
        limit_estimate=rows[-1][1] if rows else primal,
    )


def check_complementary_slackness(
    report: SolveReport, C: np.ndarray, tol: float = DUALITY_TOL
) -> tuple[bool, list[tuple[int, int, float]]]:
    """Certify optimality: wherever the plan carries mass, the dual constraint
    must be tight.  Returns (ok, violations) with one (i, j, gap) per bad pair."""
    if report.status != "optimal":
        raise InputError("complementary slackness needs an optimal report")
    C = np.asarray(C, dtype=float)
    pi = report.plan.mass
    pot = report.potentials
    gap = C - (pot.phi[:, None] + pot.psi[None, :])
    bad = (pi > SUPPORT_TOL) & (np.abs(gap) > tol)
    violations = [(int(i), int(j), float(gap[i, j])) for i, j in zip(*np.nonzero(bad))]
    return (not violations, violations)
