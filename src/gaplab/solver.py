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
  have integral optima, so the value is the LP value exactly.  A full solve
  with a forbidden arc is first split along the Dulmage-Mendelsohn
  decomposition of its finite arcs (Dulmage & Mendelsohn 1958; Pothen & Fan,
  ACM TOMS 16, 1990): one Hopcroft-Karp matching, then the strong components
  of its alternating row graph.  No perfect matching uses an arc between two
  components, so each component's block is its own assignment problem, and
  a one-row block is a forced arc that needs no solve (every arc on
  ``diag_inf``).
* **highs** -- everything else (non-square C, unequal or zero weights, a
  cap that is no multiple of w) is a linear program handed to HiGHS
  (scipy.optimize.linprog), which is also the cross-check of the first path.
  A partial solve is posed the assignment path's way, with one dummy row
  and one dummy column of mass cap each, and solved as a full transport LP.

On both paths arcs with a non-finite cost are forbidden, so they can never
carry mass, and infeasibility over the remaining arcs is exactly the
statement "no finite-cost coupling exists".

Dual potentials are the equality-constraint multipliers of the optimal
basis on the HiGHS path, and shortest-path distances on the residual graph
of the optimal assignment on the other.  A partial solve also reports the
multipliers alpha, beta >= 0 of its two caps on dropped mass, read off
the dummies' potentials, with phi <= alpha and psi <= beta.  Either way the
dual objective a.phi + b.psi - cap*(alpha + beta) equals the primal value,
and the feasibility slack phi[i] + psi[j] - C[i][j] is non-positive on every
finite arc up to solver tolerance (well below the 1e-9 contract).
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
    # a transport LP (two unit entries per arc column) leaves presolve little
    # to remove, and its pass costs more than it saves
    "presolve": False,
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
}

#: plan entries below this are treated as numerically zero
SUPPORT_TOL = 1e-12

#: primal/dual agreement required of an optimal report
DUALITY_TOL = 1e-7

#: plain sweeps of _assignment_potentials before each sweep is followed by a
#: pass down the shortest-path forest: the assignment solves of a
#: ``many_small`` benchmark pass settle within 18 sweeps, most within 6,
#: while ``diag_inf`` at n atoms needs n - 1.  Fewer do not pay at benchmark
#: sizes, where a forest sweep costs more than a plain one: raw in-process
#: passes (medians, 2-core VM) of ``many_small`` took 175 ms at 16, 201 ms at
#: 1 and 197 ms at 0, and ``grid_scan`` stayed within its noise (120, 115,
#: 113 ms); only ``diag_inf`` at n ~ 1024 gains from 0
_PLAIN_SWEEPS = 16

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
    """Feasible dual pair (phi, psi) with its objective against (mu, nu).

    A partial solve that may drop ``cap`` mass on each side adds the
    multipliers alpha, beta >= 0 of the two caps (phi <= alpha,
    psi <= beta); its objective a.phi + b.psi - cap*(alpha + beta) is a
    lower bound on the partial value.  Both are 0.0 for a full solve.
    """

    phi: np.ndarray
    psi: np.ndarray
    objective: float
    alpha: float = 0.0
    beta: float = 0.0

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
    finite = np.isfinite(C)
    D = np.zeros((n + k, n + k))
    D[:n, :n] = np.where(finite, C, INF)
    if k == 0 and not finite.all():
        col = _split_assignment(D, finite)
    else:
        try:
            _, col = linear_sum_assignment(D)
        except ValueError:  # no perfect matching over the finite arcs
            col = None
    if col is None:
        return SolveReport(value=INF, status="infeasible_finite", path="assignment")
    u, v = _assignment_potentials(D, col)
    rows = np.flatnonzero(col[:n] < n)
    cols = col[rows]
    plan = np.zeros((n, n))
    plan[rows, cols] = w
    # a dummy column's potential is -alpha, a dummy row's -beta
    alpha, beta = (-float(v[n:].max()), -float(u[n:].max())) if k else (0.0, 0.0)
    return SolveReport(
        value=w * float(C[rows, cols].sum()),
        status="optimal",
        plan=TransportPlan(plan),
        potentials=_cap_potentials(u[:n], v[:n], alpha, beta, a, b, k * w),
        path="assignment",
    )


def _split_assignment(D: np.ndarray, finite: np.ndarray) -> np.ndarray | None:
    """Optimal assignment i -> col[i] of the square D over its finite arcs,
    solved one Dulmage-Mendelsohn block at a time; None when the finite arcs
    hold no perfect matching.

    Take one perfect matching, owner[c] the row matched to column c, and the
    row graph with an edge r -> owner[c] for each finite arc (r, c).  An
    unmatched arc (i, j) lies in some perfect matching only if it closes an
    alternating cycle, that is only if a path leads from owner[j] back to i:
    i and owner[j] sit in one strong component (Dulmage & Mendelsohn 1958;
    Pothen & Fan 1990).  So every perfect matching, the optimal ones
    included, stays inside the blocks formed by a component's rows and their
    matched columns, and each block is an assignment problem of its own.  A
    one-row block is a forced arc and needs no solve.
    """
    # imported here: only full solves with a forbidden arc get this far, and
    # a module-level import costs every process about 1.2 MB of memory
    from scipy.sparse.csgraph import connected_components, maximum_bipartite_matching

    n = D.shape[0]
    rows, cols = np.nonzero(finite)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
    ones = np.ones(rows.size)
    col = maximum_bipartite_matching(
        sparse.csr_matrix((ones, cols, indptr), shape=(n, n)), perm_type="column"
    ).astype(np.intp)
    if np.any(col < 0):
        return None
    owner = np.empty(n, dtype=np.intp)
    owner[col] = np.arange(n)
    count, labels = connected_components(
        sparse.csr_matrix((ones, owner[cols], indptr), shape=(n, n)),
        connection="strong",
    )
    order = np.argsort(labels, kind="stable")
    sizes = np.bincount(labels, minlength=count)
    starts = np.cumsum(sizes) - sizes
    shared = sizes > 1  # the other components are forced arcs
    for lo, size in zip(starts[shared].tolist(), sizes[shared].tolist()):
        block = order[lo : lo + size]
        block_cols = col[block]
        _, sub = linear_sum_assignment(D[np.ix_(block, block_cols)])
        col[block] = block_cols[sub]
    return col


def _assignment_potentials(
    D: np.ndarray, col: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Dual pair (u, v) of the optimal assignment i -> col[i]: u_i + v_j <= D_ij
    on every finite arc, with equality on the matched arcs.

    Bellman-Ford on the residual graph, from u = 0: each sweep sets
    u_i = D_i,col[i] - v_col[i], which makes the matched arcs tight, then
    v_j = min_i (D_ij - u_i), which keeps the pair feasible.  Together that
    is u <- F(u) with F(u)_i = D_i,col[i] - min_r (D_r,col[i] - u_r).  An
    optimal assignment leaves no negative cycle, so the plain sweeps reach
    the least fixed point L >= 0 of F within N + 1 sweeps; the cap only
    guards against rounding drift around a zero-length cycle, and leaves the
    pair feasible if it is ever reached.

    A shortest path of d arcs takes d plain sweeps (N - 1 on
    ``diag_inf``).  So once _PLAIN_SWEEPS sweeps have not settled u, each
    further sweep is followed by one pass down the shortest-path forest:
    p(i) is the row attaining the minimum of column col[i] in the last
    sweep, and the rows get u_i = F(u)_i level by level from the roots
    (p(i) = i) down, each level reading the levels above it.  Rows whose
    pointers reach no root are left to the sweeps.  The result is the plain
    sweeps' to the bit: F is monotone in floating point (rounding is
    monotone), so every update, applied to a state u with u <= F(u) and
    u <= L, keeps both; u only grows, and the loop still stops only when a
    full sweep returns u unchanged, i.e. at a fixed point below L, which is
    L itself.
    """
    N = D.shape[0]
    rows = np.arange(N)
    matched = D[rows, col]
    u = np.zeros(N)
    v = D.min(axis=0)
    pred = None
    for sweep in range(N + 1):
        tight = matched - v[col]
        if np.array_equal(tight, u):
            break
        u = tight
        if pred is not None:
            for level in _forest_levels(pred):
                u[level] = matched[level] - (D[:, col[level]] - u[:, None]).min(axis=0)
        R = D - u[:, None]
        if sweep + 1 < _PLAIN_SWEEPS:
            v = R.min(axis=0)
        else:
            # the first row of each column's minimum, as argmin finds it, but
            # a column min and a compare sweep C-ordered R several times faster
            best = (R == R.min(axis=0)).argmax(axis=0)
            v = R[best, rows]
            pred = best[col]
    return u, v


def _forest_levels(pred: np.ndarray) -> list[np.ndarray]:
    """Rows of the pointer forest i -> pred[i] grouped by depth, roots
    (pred[i] = i) first; rows whose pointers end in a cycle without a root
    are left out.  Depths come from pointer doubling: after r rounds top[i]
    is the 2^r-th ancestor of i and depth[i] counts the non-root rows among
    the 2^r steps to it."""
    N = pred.size
    depth = (pred != np.arange(N)).astype(np.int64)
    top = pred.copy()
    for _ in range(N.bit_length()):  # 2^rounds > N > any depth
        depth += depth[top]
        top = top[top]
    reached = np.flatnonzero(pred[top] == top)
    order = reached[np.argsort(depth[reached], kind="stable")]
    starts = np.flatnonzero(np.diff(depth[order], prepend=-1)).tolist()
    return [order[lo:hi] for lo, hi in zip(starts, [*starts[1:], order.size])]


def _highs_lp(
    C: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    slack_cap: float | None = None,
) -> SolveReport:
    """Min-cost (sub-)coupling LP over the finite arcs of C, solved by HiGHS.

    With ``slack_cap`` set, C gets one dummy row and one dummy column of mass
    slack_cap each, joined to every atom and to each other at cost 0, and
    the full transport LP of the padded problem is solved: mass a real atom
    sends to a dummy is dropped, and the dummy-dummy arc absorbs the part of
    the cap left unused.  That is exactly the relaxed problem with mass
    floor total - slack_cap, posed as the assignment path poses it.
    """
    n, m = C.shape
    if slack_cap is not None:
        C = np.pad(C, ((0, 1), (0, 1)))
        a, b = np.append(a, slack_cap), np.append(b, slack_cap)
    rows, cols = np.nonzero(np.isfinite(C))
    narc = rows.size
    if narc == 0:  # a full solve without a finite arc
        if a.sum() <= SUPPORT_TOL:  # nothing to ship
            return SolveReport(
                value=0.0,
                status="optimal",
                plan=TransportPlan(np.zeros((n, m))),
                potentials=DualPotentials(np.zeros(n), np.zeros(m), 0.0),
            )
        return SolveReport(value=INF, status="infeasible_finite")
    N, M = C.shape

    # rows of A_eq: N row-sum constraints then M column-sum constraints
    ridx = np.concatenate([rows, N + cols])
    cidx = np.tile(np.arange(narc), 2)
    A_eq = sparse.coo_matrix((np.ones(2 * narc), (ridx, cidx)), shape=(N + M, narc))
    # tiny LPs go through faster as dense systems
    A_eq = A_eq.toarray() if (N + M) * narc <= 50_000 else A_eq.tocsr()
    res = linprog(
        C[rows, cols],
        A_eq=A_eq,
        b_eq=np.concatenate([a, b]),
        bounds=(0, None),
        method="highs",
        options=_HIGHS_OPTS,
    )
    if res.status == 2:  # infeasible over finite arcs
        return SolveReport(value=INF, status="infeasible_finite")
    if res.status != 0:
        raise RuntimeError(f"LP solver failed: {res.message}")

    plan = np.zeros((N, M))
    plan[rows, cols] = np.maximum(res.x, 0.0)
    duals = np.asarray(res.eqlin.marginals, dtype=float)
    phi, psi = duals[:N], duals[N:]
    alpha = beta = 0.0
    if slack_cap is not None:  # the dummy column's potential is -alpha
        alpha, beta = -float(psi[m]), -float(phi[n])
    return SolveReport(
        value=float(res.fun),
        status="optimal",
        plan=TransportPlan(plan[:n, :m]),
        potentials=_cap_potentials(
            phi[:n], psi[:m], alpha, beta, a[:n], b[:m], slack_cap or 0.0
        ),
    )


def _cap_potentials(
    phi: np.ndarray,
    psi: np.ndarray,
    alpha: float,
    beta: float,
    a: np.ndarray,
    b: np.ndarray,
    cap: float,
) -> DualPotentials:
    """The potentials of a solve that may drop ``cap`` mass on each side,
    read off its dummy atoms (alpha = 0 = beta for a full solve).

    A real row may ship to a dummy column at cost 0, so phi <= alpha;
    likewise psi <= beta, and the zero dummy-dummy arcs give
    alpha + beta >= 0.  Shifting t from psi to phi keeps every arc sum and
    makes both caps' multipliers non-negative.
    """
    t = -alpha if alpha < 0 else min(beta, 0.0)
    if t:
        phi, psi, alpha, beta = phi + t, psi - t, alpha + t, beta - t
    alpha, beta = alpha + 0.0, beta + 0.0  # no -0.0
    return DualPotentials(
        phi=phi,
        psi=psi,
        objective=float(phi @ a + psi @ b) - cap * (alpha + beta),
        alpha=alpha,
        beta=beta,
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
