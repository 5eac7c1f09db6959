"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Criteria 3 and 8 assert closed forms of the grid LP on
``diag_inf`` and prove them inside the test, independently of the solver: a
feasible sub-plan bounds the partial value from above, a feasible dual pair
bounds it from below, and both reach the asserted value (checked with the
oracles in ``_oracles.py``).

* criterion 3: the partial value at n atoms is max(1 - n*eps, 0).  The drop
  budget is shared along the whole row/column chain, so each unit of drop
  saves n units of cost.  The formula 1/n - eps is the objective of a
  feasible dual pair, hence only a lower bound, not the optimum.
* criterion 8: with s atoms per cell side each diagonal cell is diag_inf on
  s atoms of weight 1/(n*s) with drop tolerance 1/n^3, so the glued cost is
  max(1 - s/n^2, 0).  The continuum bound cost <= 1/n cannot coexist with
  the per-cell mass floor at a fixed s = 8; it holds once s >= n(n-1) and
  is asserted at that tight scale.
"""

import time

import numpy as np

from gaplab import (
    CountableMarker,
    DensitySpec,
    Graph,
    PointSet,
    Rectangle,
    Segment,
    SetDescriptor,
    apply_null_modification,
    block_approximate_plan,
    check_complementary_slackness,
    cyclic_shift_plan,
    diag_inf,
    diagonal_plan,
    discretize,
    discretize_cost,
    envelope_matrix,
    generative_rectify,
    is_L_negligible,
    liminf_harness,
    max_plan_mass,
    plan_cost,
    shift_subplan,
    solve_dual,
    solve_partial,
    solve_primal,
    weak_star_distance,
)
from gaplab.catalog import (
    catalog,
    diag_M,
    fat_set,
    fat_set_alpha,
    random_finite,
    rational_nullmod,
)
from gaplab.approximate import BlockPartition
from gaplab.core import Grid

from _oracles import (
    brute_force_primal,
    envelope_lp,
    merged_interval_measure,
    partial_dual_objective,
    partial_plan_value,
)


def _report(num: int, label: str, checks: list[tuple[str, bool]], t0: float, budget: float):
    elapsed = time.time() - t0
    failed = [name for name, ok in checks if not ok]
    ok = not failed and elapsed < budget
    verdict = "PASS" if ok else "FAIL"
    detail = "" if not failed else f" [failed: {', '.join(failed)}]"
    print(f"criterion {num:02d} {verdict} ({elapsed:.1f}s < {budget:.0f}s) {label}{detail}")
    assert ok, f"criterion {num}: {detail or 'runtime over budget'}"


def _diag_inf_partial_bounds(C, w, eps):
    """Both sides of the partial value of diag_inf on k atoms of weight w.

    Upper: lam*diag + (1-lam)*subdiagonal with lam = max(1 - eps/w, 0) is a
    sub-coupling on the zero and unit arcs; it drops (1-lam)*w <= eps and
    costs lam*k*w.  Lower: the better of the zero pair and the chain pair
    phi_i = k - i, psi_j = j + 1 - k, alpha = k, beta = 0, whose objective is
    k*w - k*eps.  Both equal max(k*w - k*eps, 0).  Returns the witness cost,
    the witness drop and the certified lower bound.
    """
    k = C.shape[0]
    weights = np.full(k, w)
    lam = max(1.0 - eps / w, 0.0)
    witness = lam * np.diag(weights) + (1.0 - lam) * np.diag(weights[1:], k=-1)
    cost, dropped = partial_plan_value(C, weights, weights, witness)
    idx = np.arange(k, dtype=float)
    chain = partial_dual_objective(C, weights, weights, eps, k - idx, idx + 1 - k, k, 0.0)
    zero = partial_dual_objective(C, weights, weights, eps, np.zeros(k), np.zeros(k), 0.0, 0.0)
    return cost, dropped, max(chain, zero)


def test_criterion_01_duality_gap_of_diagonal_instance():
    t0 = time.time()
    inst = diag_inf()
    checks = []
    primal_top = partial_top = None
    for n in (4, 16, 64):
        C, mu, nu = discretize(inst, n)
        primal = solve_primal(C, mu, nu).value
        partial = solve_partial(C, mu, nu, 1.0 / n).value
        checks.append((f"primal(n={n})==1", abs(primal - 1.0) <= 1e-9))
        checks.append((f"partial(n={n},eps=1/n)==0", abs(partial) <= 1e-9))
        primal_top, partial_top = primal, partial
    # continuum estimate pair from the largest resolution
    checks.append(("estimate P ~ 1", abs(primal_top - 1.0) <= 1e-9))
    checks.append(("estimate D ~ 0", abs(partial_top - 0.0) <= 1e-9))
    _report(1, "duality gap (P=1, relaxed D=0)", checks, t0, 10.0)


def test_criterion_02_rectified_duality():
    t0 = time.time()
    inst = diag_inf()
    checks = []
    for n in (4, 16, 64):
        Cr = discretize_cost(inst.known_rectified, Grid(n))
        _, mu, nu = discretize(inst, n)
        value = solve_primal(Cr, mu, nu).value
        checks.append((f"rectified primal(n={n})==0", abs(value) <= 1e-9))
    _report(2, "rectified cost closes the gap (P_cr = D_cr = D_c = 0)", checks, t0, 10.0)


def test_criterion_03_partial_value_formula():
    # P^eps = max(1 - n*eps, 0): witness plan and dual certificate meet there.
    # 1/n - eps is the objective of the feasible dual pair phi = 1,
    # psi = (-1, ..., -1, 0), alpha = 1, beta = 0: a lower bound only.
    t0 = time.time()
    n = 4
    C, mu, nu = discretize(diag_inf(), n)
    checks = []
    for eps in (1 / 8, 1 / 16, 1 / 4, 1 / 2):
        closed = max(1.0 - n * eps, 0.0)
        lp = solve_partial(C, mu, nu, eps).value
        cost, dropped, lower = _diag_inf_partial_bounds(C, 1.0 / n, eps)
        checks.append((f"P^eps({eps})==max(1-n*eps,0)", abs(lp - closed) <= 1e-9))
        checks.append(
            (f"witness({eps}) drops<=eps at cost {closed}",
             dropped <= eps + 1e-12 and abs(cost - closed) <= 1e-9)
        )
        checks.append((f"dual certificate({eps})=={closed}", abs(lower - closed) <= 1e-9))
    _report(3, "partial value max(1-n*eps,0) at n=4, primal and dual certified", checks, t0, 1.0)


def test_criterion_04_non_attainment_of_finite_variant():
    t0 = time.time()
    M = 2.0
    inst = diag_M(M)
    checks = []
    for n in (4, 8, 16):
        C, mu, nu = discretize(inst, n)
        value = solve_primal(C, mu, nu).value
        checks.append((f"primal(n={n})==M/n", abs(value - M / n) <= 1e-9))
    # optimizer sequence: LP optima are the backward cycles; extend the
    # sequence with their closed forms to expose the terminal gap
    ns = [4, 8, 16, 32, 64, 128, 256]
    seq = [cyclic_shift_plan(n) for n in ns]
    limit = diagonal_plan(256)
    dists = [weak_star_distance(p, limit) for p in seq]
    checks.append(("distances strictly decreasing", all(b < a for a, b in zip(dists, dists[1:]))))
    costs = []
    for n, p in zip(ns, seq):
        Cn = discretize_cost(inst.cost, Grid(n))
        costs.append(plan_cost(Cn, p.mass))
    checks.append(("sequence costs == M/n", all(abs(c - M / n) <= 1e-12 for c, n in zip(costs, ns))))
    limit_cost = plan_cost(discretize_cost(inst.cost, Grid(256)), limit.mass)
    checks.append(("limit plan costs 1", abs(limit_cost - 1.0) <= 1e-12))
    checks.append(("terminal gap >= 0.99", limit_cost - costs[-1] >= 0.99))
    _report(4, "optimizers drift to the diagonal plan of cost 1", checks, t0, 10.0)


def test_criterion_05_fat_set_instance():
    t0 = time.time()
    K, n = 20, 64
    alpha = fat_set_alpha()
    inst = fat_set(K, alpha=alpha)
    # independent interval sweep for the finite-K measure
    from gaplab.catalog import excluded_intervals

    lam = 1.0 - merged_interval_measure(excluded_intervals(alpha, K))
    C, mu, nu = discretize(inst, n)
    primal = solve_primal(C, mu, nu).value
    dual = solve_dual(C, mu, nu).value
    checks = [
        ("primal==lambda(D_K)", abs(primal - lam) <= 1e-6),
        ("dual==lambda(D_K)", abs(dual - lam) <= 1e-6),
        ("lambda(D_K)-1/2<=0.02", lam - 0.5 <= 0.02),
    ]
    _report(5, "fat-set value approaches 1/2", checks, t0, 30.0)


def test_criterion_06_finite_space_rectification():
    t0 = time.time()
    checks = []
    worst_env = 0.0
    worst_lp = 0.0
    worst_gap = 0.0
    for seed in range(50):
        inst = random_finite(seed, 6)
        C, mu, nu = discretize(inst, 6)
        E = envelope_matrix(C, mu, nu)
        worst_env = max(worst_env, float(np.abs(E - C).max()))
        for (i, j), e in np.ndenumerate(E):
            worst_lp = max(worst_lp, abs(e - envelope_lp(C, i, j)))
        acc = generative_rectify(inst, 6, budget=500, rng_seed=seed)
        worst_gap = max(worst_gap, acc.sup_gap_finite())
    checks.append((f"envelope==C (worst {worst_env:.2e})", worst_env <= 1e-7))
    checks.append((f"envelope==LP (worst {worst_lp:.2e})", worst_lp <= 1e-7))
    checks.append((f"generative sup-gap (worst {worst_gap:.2e})", worst_gap == 0.0))
    _report(6, "finite grids rectify to the cost itself", checks, t0, 60.0)


def test_criterion_07_strong_duality_suite():
    t0 = time.time()
    checks = []
    worst = 0.0
    for entry in catalog(K=20, n=8):
        inst = entry.instance
        n = 64 if inst.name.startswith("fat_set") else 16
        C, mu, nu = discretize(inst, n)
        p = solve_primal(C, mu, nu)
        d = solve_dual(C, mu, nu)
        worst = max(worst, abs(p.value - d.value))
        ok, _ = check_complementary_slackness(p, C)
        checks.append((f"slackness {inst.name}", ok))
    for i in range(100):
        n = (i % 16) + 1
        inst = random_finite(seed=1000 + i, n=n)
        C, mu, nu = discretize(inst, n)
        worst = max(
            worst, abs(solve_primal(C, mu, nu).value - solve_dual(C, mu, nu).value)
        )
    checks.append((f"|P-D| (worst {worst:.2e})", worst <= 1e-7))
    worst_bf = 0.0
    for i in range(30):
        n = (i % 3) + 1
        inst = random_finite(seed=2000 + i, n=n)
        C, mu, nu = discretize(inst, n)
        bf, _ = brute_force_primal(C, mu.weights, nu.weights)
        worst_bf = max(worst_bf, abs(solve_primal(C, mu, nu).value - bf))
    checks.append((f"brute force n<=3 (worst {worst_bf:.2e})", worst_bf <= 1e-10))
    _report(7, "strong duality everywhere on the grid", checks, t0, 60.0)


def _certified_block_step(inst, n, s, checks):
    """Approximate the diagonal plan at (n, s) and certify every cell.

    Only the n diagonal cells carry mass; each must attain the cell value
    max(1/n - s/n^3, 0), proven by _diag_inf_partial_bounds, and keep its
    mass floor cell_mass - 1/n^3.
    """
    plan = diagonal_plan(n * s)
    step = block_approximate_plan(plan, inst, n, s)
    C, _, _ = discretize(inst, n * s)
    tol = 1.0 / n**3
    cell_value = max(1.0 / n - s * tol, 0.0)
    part = BlockPartition(n, s)
    cells_ok = len(step.per_cell_reports) == n
    for r in step.per_cell_reports:
        l, m = r["cell"]
        cost, dropped, lower = _diag_inf_partial_bounds(
            C[part.cell_slice(l, m)], 1.0 / (n * s), tol
        )
        cells_ok = cells_ok and l == m and dropped <= tol + 1e-12 and all(
            abs(v - cell_value) <= 1e-9 for v in (cost, lower, r["cost"])
        )
    checks.append((f"cell value max(1/n-s/n^3,0) certified(n={n},s={s})", cells_ok))
    floor_ok = all(
        r["retained"] >= r["cell_mass"] - tol - 1e-12 for r in step.per_cell_reports
    )
    checks.append((f"per-cell mass floor(n={n},s={s})", floor_ok))
    return plan, step


def test_criterion_08_block_approximation():
    # The glued cost is max(1 - s/n^2, 0) (n cells of value max(1/n - s/n^3, 0)).
    # At the fixed s = 8 that exceeds the continuum bound 1/n, which the mass
    # floor forbids reaching; the bound is asserted at the tight s = n(n-1).
    t0 = time.time()
    inst = diag_inf()
    checks = []
    dists = []
    s = 8
    for n in (4, 8, 16):
        plan, step = _certified_block_step(inst, n, s, checks)
        attained = max(1.0 - s / n**2, 0.0)
        checks.append((f"cost(n={n},s={s})=={attained}", abs(step.cost_c - attained) <= 1e-9))
        dists.append(weak_star_distance(step.plan, plan))
    checks.append(
        ("weak* distance non-increasing", all(b <= a + 1e-12 for a, b in zip(dists, dists[1:])))
    )
    for n in (4, 8, 16):
        _, step = _certified_block_step(inst, n, n * (n - 1), checks)
        checks.append((f"cost(n={n},s={n * (n - 1)})<=1/n", step.bound_ok))
    label = "block approximation: cost max(1-s/n^2,0) at s=8, 1/n bound at s=n(n-1)"
    _report(8, label, checks, t0, 60.0)


def test_criterion_09_liminf_harness():
    t0 = time.time()
    seq = [shift_subplan(2 ** k) for k in range(2, 9)]
    rep = liminf_harness(diag_M(2.0), seq, diagonal_plan(256), horizon=10)
    checks = [
        ("sequence converges", rep.status == "converged"),
        ("rectified liminf inequality holds", rep.cr_inequality_holds),
        (f"plain-cost gap {rep.c_gap:.3f}>=0.99", rep.c_gap >= 0.99),
    ]
    _report(9, "liminf inequality: rectified holds, plain fails", checks, t0, 10.0)


def test_criterion_10_negligibility_battery():
    t0 = time.time()
    unif = DensitySpec.uniform()
    diagonal = SetDescriptor((Graph((Segment(0.0, 1.0, 0.0, 1.0),)),))
    battery = [
        SetDescriptor((Graph((Segment(0.0, 0.5, 0.3, 0.3),)),)),
        SetDescriptor((Graph((Segment(0.0, 1.0, 0.5, 0.5),)),)),
        SetDescriptor((Graph((Segment(0.25, 1.0, 1.0, 1.0),)),)),
        SetDescriptor((PointSet(((0.5, 0.5),)),)),
        SetDescriptor((PointSet(((0.25, 0.75), (0.75, 0.25))),)),
        SetDescriptor((PointSet(((0.125, 0.125),)),)),
        SetDescriptor((CountableMarker(),)),
        SetDescriptor((Rectangle(0.7, 0.7, 0.2, 0.9),)),
        SetDescriptor((Rectangle(0.0, 1.0, 0.4, 0.4),)),
    ]
    checks = []
    ns = (4, 8, 16, 32)
    v = is_L_negligible(diagonal, unif, unif)
    masses = []
    for n in ns:
        _, mu, nu = discretize(diag_inf(), n)
        masses.append(max_plan_mass(diagonal, mu, nu))
    checks.append(("diagonal not negligible", not v.negligible))
    checks.append(("diagonal mass == 1", all(abs(m - 1.0) <= 1e-9 for m in masses)))
    for idx, A in enumerate(battery):
        v = is_L_negligible(A, unif, unif)
        ok = v.negligible
        for n in ns:
            _, mu, nu = discretize(diag_inf(), n)
            ok = ok and max_plan_mass(A, mu, nu) <= 2.0 / n + 1e-9
        checks.append((f"negligible piece {idx}", ok))
    _report(10, "verdicts and max plan mass trends agree (10 descriptors)", checks, t0, 30.0)


def test_criterion_11_null_modification_soundness():
    t0 = time.time()
    inst = apply_null_modification(
        rational_nullmod(), SetDescriptor((CountableMarker(),)), 0.0
    )
    checks = []
    for n in (2, 4, 8, 16, 32):
        C, mu, nu = discretize(inst, n)
        p = solve_primal(C, mu, nu).value
        d = solve_dual(C, mu, nu).value
        checks.append((f"P==D==1 at n={n}", p == 1.0 and abs(d - 1.0) <= 1e-12))
    _report(11, "countable null modification is invisible", checks, t0, 5.0)
