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
