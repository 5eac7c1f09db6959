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

from gaplab.core import GEOM_TOL
from gaplab.costs import (
    AboveDiagonal,
    BelowDiagonal,
    ComplementOfIntervals,
    CostDescriptor,
    CountableMarker,
    Diagonal,
    Graph,
    PointSet,
    Rectangle,
    Region,
    Segment,
)


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


def brute_force_max_matching(mask):
    """Size of a largest matching on the arcs (i, j) of a square boolean
    mask, by trying every permutation: a matching extends to a permutation
    by pairing its unmatched rows and columns in any order, so the best
    permutation meets as many arcs as the largest matching.  n <= 6 only."""
    mask = np.asarray(mask, dtype=bool)
    n = mask.shape[0]
    assert n <= 6, "oracle is for tiny instances"
    return max(
        sum(bool(mask[i, perm[i]]) for i in range(n))
        for perm in itertools.permutations(range(n))
    )


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


def point_in_shape(shape, x, y):
    """Whether the point (x, y) lies in a cost shape, one shape type at a
    time with short-circuiting scalar tests: the reference for
    ``shape.mask``, which answers points and whole grids with one vectorised
    expression.  Boxes are half-open, (x0, x1] x (y0, y1], and a side with
    x1 - x0 <= GEOM_TOL is the point x0, matched within GEOM_TOL."""

    def on_side(lo, hi, t):
        if hi - lo <= GEOM_TOL:
            return abs(t - lo) <= GEOM_TOL
        return lo + GEOM_TOL < t <= hi + GEOM_TOL

    if isinstance(shape, BelowDiagonal):
        return y < x - GEOM_TOL
    if isinstance(shape, Diagonal):
        return abs(x - y) <= GEOM_TOL
    if isinstance(shape, AboveDiagonal):
        return y > x + GEOM_TOL
    if isinstance(shape, Rectangle):
        return on_side(shape.x0, shape.x1, x) and on_side(shape.y0, shape.y1, y)
    if isinstance(shape, Segment):
        if not (shape.x0 - GEOM_TOL <= x <= shape.x1 + GEOM_TOL):
            return False
        if shape.x1 == shape.x0:
            fx = shape.y_start
        else:
            t = (x - shape.x0) / (shape.x1 - shape.x0)
            fx = (1 - t) * shape.y_start + t * shape.y_end
        return abs(fx - y) <= GEOM_TOL
    if isinstance(shape, Graph):
        return any(point_in_shape(s, x, y) for s in shape.segments)
    if isinstance(shape, PointSet):
        return any(
            abs(x - px) <= GEOM_TOL and abs(y - py) <= GEOM_TOL
            for px, py in shape.points
        )
    if isinstance(shape, CountableMarker):
        return False
    if isinstance(shape, ComplementOfIntervals):
        t = x if shape.axis == "x" else y
        return all(not (a < t < b) for a, b in shape.intervals)
    raise TypeError(f"no reference predicate for {shape!r}")


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


def support_mask_potentials(D, support, forced=False):
    """The assignment path's potentials as they were computed from an N x N
    boolean support mask, every row on at least one arc of it: the
    reference the index-array form must match to the bit.

    Each row starts on its lowest support column (argmax of the mask); each
    sweep, a row on several support arcs takes the one with the largest
    D_ij - v_j over a rows x N copy of D that is -inf off the support,
    the lowest such column on a tie.  The sweeps, the forest walk and the
    row blocks are the library's own (``_block_sweep``, ``_forest_order``,
    ``_SWEEP_BLOCK`` and ``_PLAIN_SWEEPS``, read at call time), which
    ``jacobi_potentials`` checks on single-arc supports.
    """
    from gaplab import solver

    N = D.shape[0]
    rows = np.arange(N)
    col = support.argmax(axis=1)
    matched = D[rows, col]
    several = ()
    if np.count_nonzero(support) > N:
        several = np.flatnonzero(support.sum(axis=1) > 1)
        on_support = np.where(support[several], D[several], -math.inf)
    plain_sweeps = 1 if forced else solver._PLAIN_SWEEPS
    step = max(1, solver._SWEEP_BLOCK // N)
    blocks = [(lo, D[lo : lo + step]) for lo in range(0, N, step)]
    u = np.zeros(N)
    v = D.min(axis=0)
    best = None
    for sweep in range(N + 1):
        if len(several):
            col[several] = (on_support - v).argmax(axis=1)
            matched[several] = D[several, col[several]]
        tight = matched - v[col]
        if np.array_equal(tight, u):
            break
        u = tight
        if best is not None:
            pred = best[col]
            order = solver._forest_order(pred)
            parent = pred[order]
            u = u.tolist()
            for i, p, m, d in zip(
                order.tolist(),
                parent.tolist(),
                matched[order].tolist(),
                D[parent, col[order]].tolist(),
            ):
                t = m - (d - u[p])
                if t > u[i]:
                    u[i] = t
            u = np.array(u)
        v, best = solver._block_sweep(blocks, u, sweep + 1 >= plain_sweeps, rows)
    return u, v


def mix_support(n, cols, capped):
    """The boolean support on C padded with one dummy row and column (on C
    itself when not ``capped``) of the mix of the padded assignments
    i -> col[i] in ``cols``, each dummy index folded to n."""
    N = n + 1 if capped else n
    support = np.zeros((N, N), dtype=bool)
    for col in cols:
        if capped:
            support[np.minimum(np.arange(col.size), n), np.minimum(col, n)] = True
        else:
            support[np.arange(n), col] = True
    return support


def diag_inf_potentials(n):
    """The pair (u, v) that jacobi_potentials returns for ``diag_inf`` at n
    atoms with the identity matching: u_i = n - 1 - i and v_j = j + 2 - n.

    The finite arcs cost 0 below the diagonal and 1 on it, so the sweep map
    is F(u)_i = 1 - min(1 - u_i, min_{r > i} -u_r), which is
    max(u_i, 1 + max_{r > i} u_r).  Its fixed points are the u with u_i >= 1 + u_r for all r > i, and the
    least of them with u >= 0 is u_i = n - 1 - i, by induction from the last
    row.  The sweeps from u = 0 grow u, stay below every fixed point >= 0
    (F is monotone) and stop at a fixed point, hence at this one; then
    v_j = min(1 - u_j, min_{i > j} -u_i) = j + 2 - n.  Every number is a
    small integer, so floating point computes it exactly.
    """
    i = np.arange(n, dtype=float)
    return n - 1 - i, i + 2 - n


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


def pair_by_pair_rectify(C):
    """The generative envelope of C built from explicit pairs: the zero pair,
    then every dyadic box-infimum pair, one ``add_pair`` at a time."""
    from gaplab.rectify import FeasiblePair, RectifiedAccumulator, box_infimum_pairs

    n, m = np.shape(C)
    acc = RectifiedAccumulator(C)
    acc.add_pair(FeasiblePair(np.zeros(n), np.zeros(m), "zero_pair"))
    for pair in box_infimum_pairs(C):
        acc.add_pair(pair)
    return acc
