"""Independent test oracles, deliberately disjoint from the library solvers.

The transport polytope of (mu, nu) has its vertices at basic solutions whose
support is a spanning forest of the bipartite graph; for n, m <= 3 we simply
enumerate every edge subset of tree size, solve the flow by leaf stripping
and keep the non-negative ones.  Min over vertices is the exact primal value.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.optimize import linprog

from gaplab.costs import CostDescriptor, Rectangle, Region


def _tree_flow(n, m, edges, a, b):
    """Unique flow on a spanning tree of K_{n,m}; None if the edges do not
    form a spanning tree or the flow goes negative."""
    nodes = n + m
    if len(edges) != nodes - 1:
        return None
    adj = {v: [] for v in range(nodes)}
    for k, (i, j) in enumerate(edges):
        adj[i].append((n + j, k))
        adj[n + j].append((i, k))
    # connectivity check
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for w, _ in adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    if len(seen) != nodes:
        return None
    supply = np.concatenate([np.asarray(a, float), np.asarray(b, float)])
    flow = np.zeros(len(edges))
    deg = {v: len(adj[v]) for v in range(nodes)}
    solved = np.zeros(len(edges), dtype=bool)
    residual = supply.copy()
    leaves = [v for v in range(nodes) if deg[v] == 1]
    removed = set()
    while leaves:
        v = leaves.pop()
        if v in removed:
            continue
        edge = next(
            ((w, k) for w, k in adj[v] if not solved[k] and w not in removed), None
        )
        if edge is None:
            removed.add(v)
            continue
        w, k = edge
        flow[k] = residual[v]
        solved[k] = True
        residual[w] -= residual[v]
        residual[v] = 0.0
        removed.add(v)
        deg[w] -= 1
        if deg[w] == 1:
            leaves.append(w)
    if not solved.all():
        return None
    if np.any(flow < -1e-12):
        return None
    return np.maximum(flow, 0.0)


def brute_force_primal(C, a, b):
    """Exact min-cost coupling value by vertex enumeration (sizes <= 3).

    Entries of C may be +inf: a vertex is finite only if it carries no mass
    on an infinite entry (zero flow on such an edge is fine).
    """
    C = np.asarray(C, dtype=float)
    n, m = C.shape
    assert n <= 3 and m <= 3, "oracle is for tiny instances"
    all_edges = list(itertools.product(range(n), range(m)))
    best = math.inf
    best_plan = None
    for edges in itertools.combinations(all_edges, n + m - 1):
        flow = _tree_flow(n, m, edges, a, b)
        if flow is None:
            continue
        cost = 0.0
        for k, (i, j) in enumerate(edges):
            if flow[k] > 0:
                if math.isinf(C[i, j]):
                    cost = math.inf
                    break
                cost += C[i, j] * flow[k]
        if cost < best:
            best = cost
            plan = np.zeros((n, m))
            for k, (i, j) in enumerate(edges):
                plan[i, j] = flow[k]
            best_plan = plan
    return best, best_plan


def brute_force_partial_matching(C, w, k):
    """Exact partial value on n atoms of weight w that may drop k atoms, by
    enumerating every partial matching that keeps n - k pairs or more.

    Integral optima suffice: the partial LP is a network flow with integral
    data once scaled by w.  Sizes n <= 4 only.
    """
    C = np.asarray(C, dtype=float)
    n = C.shape[0]
    assert n <= 4, "oracle is for tiny instances"
    best = math.inf
    for perm in itertools.permutations(range(n)):
        for keep in itertools.product((False, True), repeat=n):
            if n - sum(keep) > k:
                continue
            pairs = [(i, perm[i]) for i in range(n) if keep[i]]
            if any(math.isinf(C[i, j]) for i, j in pairs):
                continue
            best = min(best, w * sum(C[i, j] for i, j in pairs))
    return best


def greedy_row_drop_value(row_costs, mu_weights, eps):
    """Exact partial value when the cost depends on the row only: keep the
    cheapest rows, dropping eps mass from the most expensive ones."""
    a = np.asarray(row_costs, dtype=float)
    w = np.asarray(mu_weights, dtype=float)
    order = np.argsort(-a)
    drop = eps
    saved = 0.0
    for i in order:
        take = min(drop, w[i])
        saved += take * a[i]
        drop -= take
        if drop <= 1e-15:
            break
    return float(w @ a) - saved


def partial_dual_objective(C, a, b, eps, phi, psi, alpha, beta, tol=1e-12):
    """Dual objective of a candidate pair for the partial LP; -inf if infeasible.

    The partial LP is min <C, pi> over pi >= 0 with row sums <= a, column
    sums <= b and total mass >= sum(a) - eps.  Its dual is
    max sum(a*phi) + sum(b*psi) - eps*(alpha + beta) subject to
    phi_i + psi_j <= C_ij on the finite arcs, phi <= alpha, psi <= beta and
    alpha, beta >= 0 (multipliers phi - alpha and psi - beta for the caps,
    alpha + beta for the mass floor).  By weak duality every feasible pair
    bounds the partial value from below.
    """
    C = np.asarray(C, dtype=float)
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    phi, psi = np.asarray(phi, dtype=float), np.asarray(psi, dtype=float)
    finite = np.isfinite(C)
    feasible = (
        alpha >= -tol
        and beta >= -tol
        and np.all(phi <= alpha + tol)
        and np.all(psi <= beta + tol)
        and np.all((phi[:, None] + psi[None, :])[finite] <= C[finite] + tol)
    )
    if not feasible:
        return -math.inf
    return float(
        a @ (phi - alpha) + b @ (psi - beta) + (alpha + beta) * (a.sum() - eps)
    )


def partial_plan_value(C, a, b, plan, tol=1e-12):
    """(cost, dropped mass) of a candidate sub-plan of the partial LP.

    The cost is +inf when the plan is not a sub-coupling (a negative entry,
    or a row or column sum above its cap) or puts mass on a +inf arc.  The
    dropped mass is sum(a) minus the plan's total.
    """
    C = np.asarray(C, dtype=float)
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    plan = np.asarray(plan, dtype=float)
    dropped = float(a.sum() - plan.sum())
    sub_coupling = (
        np.all(plan >= -tol)
        and np.all(plan.sum(axis=1) <= a + tol)
        and np.all(plan.sum(axis=0) <= b + tol)
    )
    carried = plan > 0
    if not sub_coupling or np.any(np.isinf(C[carried])):
        return math.inf, dropped
    return float((C[carried] * plan[carried]).sum()), dropped


def merged_interval_measure(intervals, lo=0.0, hi=1.0):
    """Measure of a union of open intervals clipped to [lo, hi] (sweep)."""
    spans = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo)
    )
    total = 0.0
    cur = None
    for a, b in spans:
        if cur is None or a > cur[1]:
            if cur is not None:
                total += cur[1] - cur[0]
            cur = [a, b]
        else:
            cur[1] = max(cur[1], b)
    if cur is not None:
        total += cur[1] - cur[0]
    return total


def envelope_lp(C, i, j):
    """sup of phi[i] + psi[j] subject to phi (+) psi <= C on the finite
    entries, as a linear program in the n + m free potentials; +inf when the
    LP is unbounded."""
    C = np.asarray(C, dtype=float)
    n, m = C.shape
    rows, cols = np.nonzero(np.isfinite(C))
    if rows.size == 0:
        return math.inf
    A_ub = np.zeros((rows.size, n + m))
    A_ub[np.arange(rows.size), rows] = 1.0
    A_ub[np.arange(rows.size), n + cols] = 1.0
    obj = np.zeros(n + m)
    obj[i] = -1.0
    obj[n + j] = -1.0
    res = linprog(
        obj,
        A_ub=A_ub,
        b_ub=C[rows, cols],
        bounds=(None, None),
        method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    if res.status == 3:  # objective unbounded above
        return math.inf
    if res.status != 0:
        raise RuntimeError(f"envelope LP failed at ({i},{j}): {res.message}")
    return float(-res.fun)


def random_finite_rectangles(seed, n):
    """``random_finite(seed, n)``'s cost as n^2 rectangles: a whole-square
    region holding cell (0, 0)'s value, then one ``Rectangle`` per other cell,
    drawn from the same ``default_rng(seed).uniform`` call."""
    values = np.random.default_rng(seed).uniform(0.0, 1.0, size=(n, n))
    regions = [Region(Rectangle(0.0, 1.0, 0.0, 1.0), float(values[0, 0]))]
    for i in range(n):
        for j in range(n):
            if i or j:
                box = Rectangle(i / n, (i + 1) / n, j / n, (j + 1) / n)
                regions.append(Region(box, float(values[i, j])))
    return CostDescriptor(tuple(regions))


def jacobi_potentials(D, col):
    """Dual pair (u, v) of the optimal assignment i -> col[i] by plain
    Bellman-Ford sweeps from u = 0, capped at N + 1 sweeps; returns
    (u, v, settled), settled False when the cap was hit.

    Each sweep makes the matched arcs tight (u_i = D_i,col[i] - v_col[i])
    and then restores feasibility (v_j = min_i D_ij - u_i); the loop stops
    when a sweep leaves u unchanged, at the least fixed point u >= 0.
    """
    D = np.asarray(D, dtype=float)
    N = D.shape[0]
    matched = D[np.arange(N), col]
    u = np.zeros(N)
    v = D.min(axis=0)
    for _ in range(N + 1):
        tight = matched - v[col]
        if np.array_equal(tight, u):
            return u, v, True
        u = tight
        v = (D - u[:, None]).min(axis=0)
    return u, v, False


def unique_optimal_matching(C, col, phi, psi, tol=1e-9):
    """Whether i -> col[i] is the only optimal perfect matching of the finite
    arcs of the square C, given optimal potentials (phi, psi).

    Every optimal matching uses only tight arcs (complementary slackness),
    and another perfect matching on them would close an alternating cycle:
    the graph with an edge i -> r for each tight unmatched arc (i, col[r])
    would have a cycle.  Kahn's algorithm peels rows of in-degree zero; the
    matching is unique when every row peels.  The tolerance only widens the
    tight set, so a near-tie counts as a second optimum, never the reverse.
    """
    C = np.asarray(C, dtype=float)
    n = C.shape[0]
    finite = np.isfinite(C)
    reduced = np.abs(np.where(finite, C, 0.0) - phi[:, None] - psi[None, :])
    tight = finite & (reduced <= tol * max(1.0, np.abs(C[finite]).max(initial=0.0)))
    tight[np.arange(n), col] = False
    edges = tight[:, col]  # edges[i, r]: i -> r
    indegree = edges.sum(axis=0)
    alive = np.ones(n, dtype=bool)
    while True:
        peel = alive & (indegree == 0)
        if not peel.any():
            return not alive.any()
        alive &= ~peel
        indegree -= edges[peel].sum(axis=0)


def partial_lp_slack(C, a, b, cap):
    """Value of the partial LP (math.inf when infeasible) in its textbook
    shape: one zero-cost slack column per row and per column of C takes the
    dropped mass, and two inequality rows cap each side's slack at ``cap``.
    HiGHS runs with presolve on, unlike the library's LPs."""
    C = np.asarray(C, dtype=float)
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    n, m = C.shape
    rows, cols = np.nonzero(np.isfinite(C))
    narc = rows.size
    A_eq = np.zeros((n + m, narc + n + m))
    A_eq[rows, np.arange(narc)] = 1.0
    A_eq[n + cols, np.arange(narc)] = 1.0
    A_eq[np.arange(n + m), narc + np.arange(n + m)] = 1.0
    A_ub = np.zeros((2, narc + n + m))
    A_ub[0, narc : narc + n] = 1.0
    A_ub[1, narc + n :] = 1.0
    res = linprog(
        np.concatenate([C[rows, cols], np.zeros(n + m)]),
        A_ub=A_ub,
        b_ub=[cap, cap],
        A_eq=A_eq,
        b_eq=np.concatenate([a, b]),
        bounds=(0, None),
        method="highs",
        options={
            "presolve": True,
            "primal_feasibility_tolerance": 1e-10,
            "dual_feasibility_tolerance": 1e-10,
        },
    )
    if res.status == 2:
        return math.inf
    if res.status != 0:
        raise RuntimeError(f"slack-column partial LP failed: {res.message}")
    return float(res.fun)
