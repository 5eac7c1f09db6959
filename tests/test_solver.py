"""Primal/dual/partial solves against brute-force and closed-form oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaplab import (
    INF,
    DiscreteMeasure,
    check_complementary_slackness,
    diag_inf,
    discretize,
    relaxed_value,
    solve_dual,
    solve_partial,
    solve_primal,
)
from gaplab.catalog import (
    catalog_names,
    diag_M,
    fat_set,
    get_instance,
    rational_nullmod,
    trivial_zero,
)
from gaplab.solver import (
    DualPotentials,
    InputError,
    SolveReport,
    TransportPlan,
    _highs_lp,
)

from _oracles import (
    brute_force_partial_matching,
    brute_force_primal,
    greedy_row_drop_value,
)


def uniform(n):
    return DiscreteMeasure(np.full(n, 1.0 / n))


class TestSolvePrimal:
    def test_zero_cost_perfect_matching(self):
        C = np.array([[0.0, 1.0], [1.0, 0.0]])
        r = solve_primal(C, uniform(2), uniform(2))
        assert r.value == 0.0
        assert np.allclose(r.plan.mass, np.eye(2) / 2)

    def test_diagonal_instance_forces_identity(self):
        C, mu, nu = discretize(diag_inf(), 4)
        r = solve_primal(C, mu, nu)
        assert r.value == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(r.plan.mass, np.eye(4) / 4, atol=1e-12)
        bf, _ = brute_force_primal(*_shrink_to_3(C, mu, nu))
        assert bf == pytest.approx(solve_primal(*_shrink_to_3(C, mu, nu)).value, abs=1e-10)

    def test_mismatched_totals_rejected(self):
        with pytest.raises(InputError):
            solve_primal(np.zeros((2, 2)), [0.5, 0.5], [0.4, 0.5])

    def test_infeasible_over_finite_arcs(self):
        C = np.array([[0.0, INF], [INF, INF]])
        r = solve_primal(C, uniform(2), uniform(2))
        assert r.status == "infeasible_finite"
        assert r.value == INF
        assert r.plan is None

    def test_forbidden_arc_safety(self):
        C, mu, nu = discretize(diag_inf(), 6)
        r = solve_primal(C, mu, nu)
        assert r.status == "optimal"
        assert np.all(r.plan.mass[np.isinf(C)] <= 1e-12)

    def test_marginals_hit_exactly(self):
        C, mu, nu = discretize(diag_inf(), 8)
        r = solve_primal(C, mu, nu)
        assert np.allclose(r.plan.row_sums, mu.weights, atol=1e-12)
        assert np.allclose(r.plan.col_sums, nu.weights, atol=1e-12)

    @given(seed=st.integers(0, 5000))
    @settings(max_examples=40, deadline=None)
    def test_brute_force_equivalence_3x3(self, seed):
        rng = np.random.default_rng(seed)
        C = rng.uniform(0, 5, (3, 3))
        if seed % 3 == 0:  # sprinkle forbidden arcs, keep a feasible diagonal
            C[0, 1] = C[1, 2] = INF
        a = rng.uniform(0.1, 1, 3)
        a /= a.sum()
        b = rng.uniform(0.1, 1, 3)
        b /= b.sum()
        bf, _ = brute_force_primal(C, a, b)
        lp = solve_primal(C, a, b).value
        assert lp == pytest.approx(bf, abs=1e-10)

    @given(seed=st.integers(0, 2000), n=st.integers(1, 3))
    @settings(max_examples=30, deadline=None)
    def test_brute_force_equivalence_small(self, seed, n):
        rng = np.random.default_rng(seed)
        C = rng.uniform(0, 2, (n, n))
        a = rng.uniform(0.2, 1, n)
        a /= a.sum()
        bf, _ = brute_force_primal(C, a, a)
        assert solve_primal(C, a, a).value == pytest.approx(bf, abs=1e-10)


def _shrink_to_3(C, mu, nu):
    # 3x3 corner renormalized, for cross-checking against the tiny oracle
    a = mu.weights[:3] / mu.weights[:3].sum()
    b = nu.weights[:3] / nu.weights[:3].sum()
    return C[:3, :3], a, b


class TestSolveDual:
    def test_zero_cost(self):
        C = np.zeros((3, 3))
        r = solve_dual(C, uniform(3), uniform(3))
        assert r.value == pytest.approx(0.0, abs=1e-12)
        assert r.potentials.feasibility_slack(C) <= 1e-9

    def test_diagonal_grid_dual_matches_primal(self):
        # the grid LP has no duality gap; the continuum gap only appears
        # through the partial relaxation
        C, mu, nu = discretize(diag_inf(), 4)
        assert solve_dual(C, mu, nu).value == pytest.approx(1.0, abs=1e-9)

    def test_unbounded_dual_reports_infeasible(self):
        C = np.array([[0.0, INF], [INF, INF]])
        r = solve_dual(C, uniform(2), uniform(2))
        assert r.status == "infeasible_finite"

    @given(seed=st.integers(0, 3000))
    @settings(max_examples=30, deadline=None)
    def test_dual_equals_brute_force_primal(self, seed):
        rng = np.random.default_rng(seed)
        C = rng.uniform(0, 3, (3, 3))
        a = rng.uniform(0.1, 1, 3)
        a /= a.sum()
        bf, _ = brute_force_primal(C, a, a)
        r = solve_dual(C, a, a)
        assert r.value == pytest.approx(bf, abs=1e-7)
        assert r.potentials.feasibility_slack(C) <= 1e-9


class TestComplementarySlackness:
    def test_optimal_report_on_zero_cost(self):
        C = np.zeros((3, 3))
        r = solve_primal(C, uniform(3), uniform(3))
        ok, violations = check_complementary_slackness(r, C)
        assert ok and not violations

    def test_diagonal_optimal_report(self):
        C, mu, nu = discretize(diag_inf(), 4)
        r = solve_primal(C, mu, nu)
        ok, _ = check_complementary_slackness(r, C)
        assert ok

    def test_detects_bogus_potentials(self):
        C = np.zeros((2, 2))
        plan = TransportPlan(np.eye(2) / 2)
        bogus = SolveReport(
            value=0.0,
            status="optimal",
            plan=plan,
            potentials=DualPotentials(np.full(2, 10.0), np.full(2, 10.0), 20.0),
        )
        ok, violations = check_complementary_slackness(bogus, C)
        assert not ok
        assert {(i, j) for i, j, _ in violations} == {(0, 0), (1, 1)}


class TestSolvePartial:
    def test_eps_zero_equals_primal(self):
        C, mu, nu = discretize(diag_inf(), 4)
        assert solve_partial(C, mu, nu, 0.0).value == solve_primal(C, mu, nu).value

    def test_diagonal_shift_feasible_at_one_over_n(self):
        C, mu, nu = discretize(diag_inf(), 4)
        r = solve_partial(C, mu, nu, 0.25)
        assert r.value == pytest.approx(0.0, abs=1e-12)
        assert r.plan.total == pytest.approx(0.75, abs=1e-12)

    def test_diagonal_small_eps_values(self):
        # value is max(1 - n*eps, 0): the per-row/column capacities couple
        # the drop budget across the whole chain (verified against an
        # independent conic solver)
        C, mu, nu = discretize(diag_inf(), 4)
        assert solve_partial(C, mu, nu, 1 / 8).value == pytest.approx(0.5, abs=1e-9)
        assert solve_partial(C, mu, nu, 1 / 16).value == pytest.approx(0.75, abs=1e-9)

    def test_subcoupling_bounds_hold(self):
        C, mu, nu = discretize(diag_inf(), 8)
        r = solve_partial(C, mu, nu, 0.3)
        assert r.plan.is_subcoupling_of(mu, nu)
        assert r.plan.total >= 0.7 - 1e-12

    def test_constant_one_cost_saves_exactly_eps(self):
        C, mu, nu = discretize(rational_nullmod(), 4)
        for eps in (0.1, 0.25, 0.5):
            assert solve_partial(C, mu, nu, eps).value == pytest.approx(
                1 - eps, abs=1e-9
            )

    def test_fat_set_drop_concentrates_on_expensive_rows(self):
        from gaplab.catalog import complement_measure, fat_set_alpha

        inst = fat_set(20)
        C, mu, nu = discretize(inst, 64)
        got = solve_partial(C, mu, nu, 0.1).value
        oracle = greedy_row_drop_value(C[:, 0], mu.weights, 0.1)
        assert got == pytest.approx(oracle, abs=1e-9)
        lam = complement_measure(fat_set_alpha(), 20)
        assert got == pytest.approx(max(lam - 0.1, 0.0), abs=1e-6)

    @given(
        e1=st.floats(0.01, 0.9),
        e2=st.floats(0.01, 0.9),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=30, deadline=None)
    def test_monotone_in_eps(self, e1, e2, seed):
        rng = np.random.default_rng(seed)
        C = rng.uniform(0, 3, (4, 4))
        mu = nu = uniform(4)
        lo, hi = sorted((e1, e2))
        assert (
            solve_partial(C, mu, nu, lo).value
            >= solve_partial(C, mu, nu, hi).value - 1e-9
        )


class TestRelaxedValue:
    def test_diagonal_schedule_all_zero(self):
        rep = relaxed_value(diag_inf(), 64, [2.0 ** -k for k in range(1, 7)])
        assert all(v == pytest.approx(0.0, abs=1e-9) for _, v in rep.table)
        assert rep.primal_value == pytest.approx(1.0, abs=1e-9)
        assert rep.bracket == (rep.limit_estimate, rep.primal_value)

    def test_constant_one_cost(self):
        rep = relaxed_value(rational_nullmod(), 4, [0.5, 0.25, 0.125])
        for eps, val in rep.table:
            assert val == pytest.approx(1 - eps, abs=1e-9)

    def test_trivial_zero(self):
        rep = relaxed_value(trivial_zero(), 8, [0.5, 0.25])
        assert all(v == 0.0 for _, v in rep.table)

    def test_rejects_non_decreasing_schedule(self):
        with pytest.raises(InputError):
            relaxed_value(trivial_zero(), 4, [0.25, 0.5])


class TestStrongDuality:
    @pytest.mark.parametrize(
        "inst,n",
        [
            (diag_inf(), 8),
            (diag_M(2.0), 8),
            (rational_nullmod(), 8),
            (trivial_zero(), 8),
            (fat_set(5), 16),
        ],
    )
    def test_primal_equals_dual(self, inst, n):
        C, mu, nu = discretize(inst, n)
        p = solve_primal(C, mu, nu)
        d = solve_dual(C, mu, nu)
        assert abs(p.value - d.value) <= 1e-7
        ok, _ = check_complementary_slackness(p, C)
        assert ok


# ---------------------------------------------------------------------------
# assignment path: uniform weights, cap k/n; HiGHS is the reference
# ---------------------------------------------------------------------------


def _certified(r, C, mu, nu, cap):
    """Every assignment report carries its own evidence."""
    ok, violations = check_complementary_slackness(r, C)
    assert ok, violations
    assert r.potentials.feasibility_slack(C) <= 1e-9
    assert r.plan.is_subcoupling_of(mu, nu)
    assert r.plan.total >= mu.total - (cap or 0.0) - 1e-12
    carried = r.plan.mass > 0
    assert r.value == pytest.approx(
        float((C[carried] * r.plan.mass[carried]).sum()), rel=1e-12, abs=1e-12
    )
    if cap is None:
        assert abs(r.value - r.potentials.objective) <= 1e-9 * max(1.0, abs(r.value))


def _cross_check(C, mu, nu, k):
    """solve_primal (k = 0) or solve_partial at eps = k/n against HiGHS."""
    a, b, n = mu.weights, nu.weights, C.shape[0]
    if k == 0:
        got, cap = solve_primal(C, mu, nu), None
    else:
        got, cap = solve_partial(C, mu, nu, k / n), min(k / n, float(a.sum()))
    ref = _highs_lp(np.asarray(C, dtype=float), a, b, cap)
    assert got.path == "assignment" and ref.path == "highs"
    assert got.status == ref.status
    if got.status == "optimal":
        assert got.value == pytest.approx(ref.value, rel=1e-12, abs=1e-12)
        _certified(got, C, mu, nu, cap)
    else:
        assert got.value == ref.value == INF
    return got


def _drops(n):
    return sorted({0, 1, 2, n} & set(range(n + 1)))


class TestAssignmentPath:
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 16, 64])
    @pytest.mark.parametrize("name", catalog_names())
    def test_catalog_matches_highs(self, name, n):
        C, mu, nu = discretize(get_instance(name), n)
        for k in _drops(n):
            _cross_check(C, mu, nu, k)

    @given(seed=st.integers(0, 10_000), n=st.integers(1, 16))
    @settings(max_examples=25, deadline=None)
    def test_random_finite_matches_highs(self, seed, n):
        C, mu, nu = discretize(get_instance("random_finite", seed=seed, n=n), n)
        for k in _drops(n):
            _cross_check(C, mu, nu, k)

    @given(seed=st.integers(0, 10_000), n=st.integers(1, 12))
    @settings(max_examples=25, deadline=None)
    def test_max_plan_mass_costs_match_highs(self, seed, n):
        # -1 on the atoms of a set, 0 elsewhere: negative costs keep every
        # atom they can, so the zero dummy-dummy block must absorb unused drops
        rng = np.random.default_rng(seed)
        C = np.where(rng.random((n, n)) < 0.3, -1.0, 0.0)
        for k in _drops(n):
            _cross_check(C, uniform(n), uniform(n), k)

    @given(seed=st.integers(0, 5000), n=st.integers(1, 3))
    @settings(max_examples=30, deadline=None)
    def test_brute_force_equivalence(self, seed, n):
        rng = np.random.default_rng(seed)
        C = rng.uniform(-1, 2, (n, n))
        C[rng.random((n, n)) < 0.3] = INF
        bf, _ = brute_force_primal(C, np.full(n, 1 / n), np.full(n, 1 / n))
        for k in _drops(n):
            r = _cross_check(C, uniform(n), uniform(n), k)
            expected = bf if k == 0 else brute_force_partial_matching(C, 1 / n, k)
            assert r.value == pytest.approx(expected, abs=1e-12)

    def test_single_atom(self):
        for c, full, dropped in ((3.0, 3.0, 0.0), (-2.0, -2.0, -2.0), (INF, INF, 0.0)):
            C = np.array([[c]])
            assert _cross_check(C, uniform(1), uniform(1), 0).value == full
            assert _cross_check(C, uniform(1), uniform(1), 1).value == dropped

    def test_row_all_forbidden(self):
        C = np.array([[INF, INF, INF], [0.0, 1.0, INF], [2.0, 0.0, 1.0]])
        r = _cross_check(C, uniform(3), uniform(3), 0)
        assert r.status == "infeasible_finite" and r.plan is None
        # dropping that row's atom (and one column's) makes it feasible
        assert _cross_check(C, uniform(3), uniform(3), 1).value == pytest.approx(0.0)

    def test_eps_at_or_above_total_mass(self):
        rng = np.random.default_rng(3)
        C = rng.uniform(-1, 1, (5, 5))
        mu = nu = uniform(5)
        ref = _highs_lp(C, mu.weights, nu.weights, 1.0)
        for eps in (1.0, 1.5, 10.0):
            r = solve_partial(C, mu, nu, eps)
            assert r.path == "assignment"
            assert r.value == pytest.approx(ref.value, abs=1e-12)
            _certified(r, C, mu, nu, 1.0)

    @pytest.mark.parametrize("M", [1e6, 1e12])
    def test_very_large_finite_M(self, M):
        C, mu, nu = discretize(diag_M(M), 16)
        for k in _drops(16):
            _cross_check(C, mu, nu, k)
        C2 = np.where(np.isinf(C), M, C)  # diag_inf with M in place of +inf
        for k in _drops(16):
            _cross_check(C2, mu, nu, k)

    def test_zero_weight_atom_goes_to_highs(self):
        C = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
        a = np.array([0.0, 0.5, 0.5])
        for r in (solve_primal(C, a, a), solve_partial(C, a, a, 0.5)):
            assert r.path == "highs"

    def test_cap_off_the_atom_lattice_goes_to_highs(self):
        # an approximate cell at n=16, s=8: eps = 1/n^3 is half an atom
        n, s = 16, 8
        a = np.full(s, 1.0 / (n * n * s))
        C = np.random.default_rng(0).uniform(0, 1, (s, s))
        r = solve_partial(C, a, a, 1.0 / n**3)
        assert r.path == "highs"
        assert r.plan.total == pytest.approx(a.sum() - 1.0 / n**3, abs=1e-12)

    def test_non_square_goes_to_highs(self):
        r = solve_primal(np.zeros((2, 3)), [0.5, 0.5], [1 / 3, 1 / 3, 1 / 3])
        assert r.path == "highs" and r.value == 0.0

    def test_one_ulp_spread_still_counts_as_uniform(self):
        C, mu, nu = discretize(diag_inf(), 7)
        assert np.ptp(mu.weights) > 0  # the cell widths differ in the last bit
        assert solve_primal(C, mu, nu).path == "assignment"

    def test_path_is_not_in_the_json_report(self):
        r = solve_primal(np.zeros((2, 2)), uniform(2), uniform(2))
        assert r.path == "assignment"
        assert "path" not in r.to_json_dict(include_dense=True)
        assert SolveReport(value=0.0, status="optimal").path == "highs"

    def test_solve_dual_keeps_the_path(self):
        C, mu, nu = discretize(diag_inf(), 8)
        assert solve_dual(C, mu, nu).path == "assignment"
