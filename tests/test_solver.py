"""Primal/dual/partial solves against brute-force and closed-form oracles."""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import linear_sum_assignment

import gaplab.solver as solver

from gaplab import (
    INF,
    ConfigurationError,
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
    DUALITY_TOL,
    DualPotentials,
    SolveReport,
    TransportPlan,
    _assignment_potentials,
    _forest_order,
    _highs_lp,
)

from _oracles import (
    brute_force_partial_matching,
    brute_force_primal,
    diag_inf_potentials,
    greedy_row_drop_value,
    jacobi_potentials,
    partial_dual_objective,
    partial_lp_slack,
    unique_optimal_matching,
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

    @pytest.mark.parametrize("short", [0.1, 1e-6])
    def test_mismatched_totals_rejected(self, short):
        with pytest.raises(ConfigurationError, match="marginal totals differ"):
            solve_primal(np.zeros((2, 2)), [0.5, 0.5], [0.5 - short, 0.5])

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

    def test_feasibility_slack_sees_one_violated_arc(self):
        # phi + psi exceeds C by 0.25 on the finite arc (0, 1) only; the
        # forbidden arc (1, 1) constrains nothing
        C = np.array([[0.0, 1.0], [1.0, INF]])
        p = DualPotentials(np.zeros(2), np.array([0.0, 1.25]), 0.0)
        assert p.feasibility_slack(C) == 0.25

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


class TestTransportPlanOwnership:
    def test_public_constructor_copies(self):
        # the caller's array is neither frozen, aliased nor clipped
        arr = np.array([[0.5, -1e-14], [0.0, 0.5]])
        plan = TransportPlan(arr)
        assert not np.shares_memory(plan.mass, arr)
        assert arr.flags.writeable and not plan.mass.flags.writeable
        assert plan.mass[0, 1] == 0.0 and arr[0, 1] == -1e-14

    def test_solver_plans_are_taken_without_a_copy(self, monkeypatch):
        def copy(plan):
            raise AssertionError("the solver copied a plan it built")

        C, mu, nu = discretize(diag_inf(), 8)
        monkeypatch.setattr(TransportPlan, "__post_init__", copy)
        for r in (
            solve_primal(C, mu, nu),
            solve_partial(C, mu, nu, 0.5 / 8),
            _highs_lp(C, mu.weights, nu.weights),
            _highs_lp(C, mu.weights, nu.weights, 1 / 8),
            _highs_lp(np.full((2, 2), INF), np.zeros(2), np.zeros(2)),
        ):
            assert r.status == "optimal" and not r.plan.mass.flags.writeable

    def test_private_constructor_takes_the_array(self):
        arr = np.array([[0.5, -1e-14], [0.0, 0.5]])
        plan = TransportPlan._own(arr)
        assert plan.mass is arr and not arr.flags.writeable and arr[0, 1] == 0.0
        with pytest.raises(ConfigurationError):
            TransportPlan._own(np.array([[-1.0]]))


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

    def test_row_over_its_marginal_is_no_subcoupling(self):
        mu = uniform(2)
        assert TransportPlan(np.eye(2) / 2).is_subcoupling_of(mu, mu)
        over = TransportPlan(np.diag([0.5 + 1e-9, 0.5]))
        assert not over.is_subcoupling_of(mu, mu)
        assert not TransportPlan(over.mass.T).is_subcoupling_of(mu, mu)

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

    def test_constant_one_cost(self):
        rep = relaxed_value(rational_nullmod(), 4, [0.5, 0.25, 0.125])
        for eps, val in rep.table:
            assert val == pytest.approx(1 - eps, abs=1e-9)

    def test_trivial_zero(self):
        rep = relaxed_value(trivial_zero(), 8, [0.5, 0.25])
        assert all(v == 0.0 for _, v in rep.table)

    def test_rejects_non_decreasing_schedule(self):
        with pytest.raises(ConfigurationError):
            relaxed_value(trivial_zero(), 4, [0.25, 0.5])

    def test_rejects_nan_in_the_schedule(self):
        with pytest.raises(ConfigurationError):
            relaxed_value(trivial_zero(), 4, [0.5, math.nan])

    def test_a_falling_partial_value_raises(self, monkeypatch):
        # a correct solver never trips this guard: P^eps only grows as eps
        # shrinks, so a stub whose value is eps itself must
        def stub(C, mu, nu, eps):
            return SolveReport(value=eps, status="optimal")

        monkeypatch.setattr(solver, "solve_partial", stub)
        with pytest.raises(RuntimeError, match="partial value decreased"):
            relaxed_value(trivial_zero(), 4, [0.5, 0.25])


class TestNaNInputs:
    """A NaN weight or eps fails the input checks on both paths: it raises
    ConfigurationError instead of being solved or reported infeasible."""

    @pytest.mark.parametrize("field", ["a", "b", "eps"])
    @pytest.mark.parametrize("uniform_weights", [True, False])
    def test_raises(self, field, uniform_weights):
        C = np.random.default_rng(0).uniform(0.0, 1.0, (3, 3))
        w = np.full(3, 1 / 3) if uniform_weights else np.array([0.2, 0.3, 0.5])
        inputs = {"a": w.copy(), "b": w.copy(), "eps": 0.1}
        if field == "eps":
            inputs["eps"] = math.nan
        else:
            inputs[field][1] = math.nan
        with pytest.raises(ConfigurationError):
            solve_partial(C, inputs["a"], inputs["b"], inputs["eps"])
        if field != "eps":
            with pytest.raises(ConfigurationError):
                solve_primal(C, inputs["a"], inputs["b"])


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


def _report_bits(r):
    """Everything a report holds, with floats as their bytes (-0.0 is not 0.0)."""
    bits = [np.float64(r.value).tobytes(), r.status, r.path]
    if r.plan is not None:
        bits.append(r.plan.mass.tobytes())
    if r.potentials is not None:
        p = r.potentials
        bits += [p.phi.tobytes(), p.psi.tobytes()]
        bits += [np.float64(x).tobytes() for x in (p.objective, p.alpha, p.beta)]
    return bits


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

    @pytest.mark.parametrize("n", [1, 2, 5, 12])
    def test_nan_and_minus_inf_solve_as_forbidden_arcs(self, n):
        # such a C is copied with +inf in their place; any other C is read
        # as it is, so the copy must give the +inf matrix's reports
        rng = np.random.default_rng(n)
        optimal = 0
        for case in range(12):
            C = rng.uniform(-1.0, 2.0, (n, n))
            C[rng.random((n, n)) < 0.2] = INF
            odd = rng.random((n, n)) < 0.25
            odd[case % n, case % n] = True  # at least one, and sometimes a NaN
            forbidden = np.where(odd, INF, C)
            C[odd] = rng.choice([math.nan, -INF], np.count_nonzero(odd))
            for eps in (None, 1 / n, 0.37 / n, 1.5 / n):  # full, on and off the lattice
                got, ref = (
                    solve_primal(M, uniform(n), uniform(n)) if eps is None
                    else solve_partial(M, uniform(n), uniform(n), eps)
                    for M in (C, forbidden)
                )
                assert got.path == "assignment"
                assert _report_bits(got) == _report_bits(ref)
                optimal += got.status == "optimal"
        assert optimal

    @pytest.mark.parametrize("name", catalog_names())
    def test_read_only_cost_is_solved_as_it_is(self, name):
        C, mu, nu = discretize(get_instance(name), 16)
        solves = [
            lambda: solve_primal(C, mu, nu),
            *(lambda eps=eps: solve_partial(C, mu, nu, eps) for eps in (1 / 16, 0.37 / 16)),
        ]
        ref = [_report_bits(solve()) for solve in solves]
        C.setflags(write=False)  # a write to C, or to D when D is C, raises
        assert [_report_bits(solve()) for solve in solves] == ref

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

    def test_cap_below_one_atom_is_the_k0_mix(self):
        # eps = 1e-15 is 8e-15 of an atom: k = 0, theta = 8e-15, certified
        # by the residual graph of the mix like every other capped solve
        C, mu, nu = discretize(get_instance("random_finite", seed=4, n=8), 8)
        eps = 1e-15
        r = solve_partial(C, mu, nu, eps)
        assert r.path == "assignment"
        assert abs(r.value - _highs_lp(C, mu.weights, nu.weights, eps).value) <= 1e-12
        assert abs(r.value - r.potentials.objective) <= 1e-15
        _certified(r, C, mu, nu, eps)

    def test_cap_whose_atom_share_underflows_goes_to_highs(self):
        # 5e-324 / 2 rounds to 0.0: no mix to pose on the atom lattice
        C, a = np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([2.0, 2.0])
        r = solve_partial(C, a, a, 5e-324)
        assert r.path == "highs" and r.status == "optimal" and r.value == 0.0
        assert r.potentials.feasibility_slack(C) <= 1e-9

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

    def test_cap_off_the_atom_lattice_stays_on_the_assignment_path(self):
        # an approximate cell at n=16, s=8: eps = 1/n^3 is half an atom
        n, s = 16, 8
        a = np.full(s, 1.0 / (n * n * s))
        C = np.random.default_rng(0).uniform(0, 1, (s, s))
        r = solve_partial(C, a, a, 1.0 / n**3)
        assert r.path == "assignment"
        assert r.plan.total == pytest.approx(a.sum() - 1.0 / n**3, abs=1e-12)
        ref = _highs_lp(C, a, a, 1.0 / n**3)
        assert r.value == pytest.approx(ref.value, rel=1e-12, abs=1e-15)

    def test_non_square_goes_to_highs(self):
        r = solve_primal(np.zeros((2, 3)), [0.5, 0.5], [1 / 3, 1 / 3, 1 / 3])
        assert r.path == "highs" and r.value == 0.0

    def test_one_ulp_spread_still_counts_as_uniform(self):
        C, mu, nu = discretize(diag_inf(), 7)
        assert np.ptp(mu.weights) > 0  # the cell widths differ in the last bit
        assert solve_primal(C, mu, nu).path == "assignment"

    def test_report_path_field(self):
        r = solve_primal(np.zeros((2, 2)), uniform(2), uniform(2))
        assert r.path == "assignment"
        assert SolveReport(value=0.0, status="optimal").path == "highs"

    def test_solve_dual_keeps_the_path(self):
        C, mu, nu = discretize(diag_inf(), 8)
        assert solve_dual(C, mu, nu).path == "assignment"


# ---------------------------------------------------------------------------
# partial dual objective: a.phi + b.psi - cap*(alpha + beta) bounds the value
# ---------------------------------------------------------------------------


def _check_partial_dual(r, C, a, b, eps):
    """The report's dual objective is the oracle's objective of its own
    (phi, psi, alpha, beta), which is feasible and meets the primal value."""
    p = r.potentials
    assert p.alpha >= 0 and math.copysign(1.0, p.alpha) == 1.0
    assert p.beta >= 0 and math.copysign(1.0, p.beta) == 1.0
    alpha, beta = p.alpha, p.beta
    if eps == 0:  # a full solve: the caps bind nothing, so any alpha >= phi do
        assert alpha == beta == 0.0
        alpha, beta = max(p.phi.max(), 0.0), max(p.psi.max(), 0.0)
    bound = partial_dual_objective(C, a, b, eps, p.phi, p.psi, alpha, beta, tol=1e-9)
    scale = max(1.0, abs(r.value))
    assert abs(p.objective - bound) <= 1e-9 * scale
    assert abs(p.objective - r.value) <= 1e-9 * scale


class TestPartialDualObjective:
    @pytest.mark.parametrize(
        "name,n,eps,path,value",
        [
            ("diag_inf", 8, 1 / 16, "assignment", 0.5),  # half an atom
            ("fat_set", 16, 1 / 8, "assignment", None),
            ("fat_set", 16, 1 / 32, "assignment", None),
            ("diag_inf", 16, 1 / 16, "assignment", 0.0),
            ("diag_M", 16, 3 / 16, "assignment", None),
            ("random_finite", 8, 3 / 8, "assignment", None),
            ("random_finite", 8, 0.3, "assignment", None),
            ("fat_set", 8, 0.0, "assignment", None),
            ("fat_set", 8, 1.0, "assignment", 0.0),
            ("fat_set", 8, 2.5, "assignment", 0.0),
        ],
    )
    def test_catalog(self, name, n, eps, path, value):
        C, mu, nu = discretize(get_instance(name), n)
        r = solve_partial(C, mu, nu, eps)
        assert r.path == path and r.status == "optimal"
        if value is not None:
            assert r.value == pytest.approx(value, abs=1e-12)
        _check_partial_dual(r, C, mu.weights, nu.weights, eps)

    @pytest.mark.parametrize("eps", [0.0, 0.25, 0.5, 1.0, 3.0])
    @pytest.mark.parametrize("c", [-2.0, 0.0, 3.0])
    def test_single_atom(self, c, eps):
        # eps = 0.25 and 0.5 are no whole atom: a mix of dropping 0 and 1
        C, a = np.array([[c]]), np.array([1.0])
        r = solve_partial(C, a, a, eps)
        assert r.path == "assignment"
        _check_partial_dual(r, C, a, a, eps)

    @pytest.mark.parametrize("k", [1, 2, 6])
    def test_negative_costs_need_the_shift(self, k):
        # max_plan_mass's costs: every kept atom pays -1, so the dummy
        # potentials come out negative before the shift
        C = np.where(np.random.default_rng(7).random((6, 6)) < 0.4, -1.0, 0.0)
        a = np.full(6, 1 / 6)
        r = solve_partial(C, a, a, k / 6)
        assert r.path == "assignment"
        _check_partial_dual(r, C, a, a, k / 6)
        ref = _highs_lp(C, a, a, k / 6)
        _check_partial_dual(ref, C, a, a, k / 6)

    @pytest.mark.parametrize("n", [1, 2, 8, 64])
    @pytest.mark.parametrize("name", catalog_names())
    def test_near_zero_cap_is_certified(self, name, n):
        # a cap within UNIFORM_RTOL of zero atoms is the k = 0 mix; its
        # alpha and beta must bound phi and psi
        C, mu, nu = discretize(get_instance(name), n)
        w = 1.0 / n
        for eps in (1e-15, 1e-13 * w, 1e-12 * w):
            r = solve_partial(C, mu, nu, eps)
            assert r.path == "assignment"
            if r.status != "optimal":
                continue
            p = r.potentials
            bound = partial_dual_objective(
                C, mu.weights, nu.weights, eps, p.phi, p.psi, p.alpha, p.beta
            )
            assert math.isfinite(bound)
            assert abs(bound - r.value) <= DUALITY_TOL
            assert abs(p.objective - r.value) <= DUALITY_TOL
            assert p.alpha >= max(0.0, p.phi.max()) and p.beta >= max(0.0, p.psi.max())

    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(1, 6),
        uniform_weights=st.booleans(),
        eps=st.sampled_from([0.0, 0.1, 0.5, 1.0, 1.5]),
        atoms=st.sampled_from([None, 1, 2]),
    )
    @settings(max_examples=60, deadline=None)
    def test_drawn_costs_on_both_paths(self, seed, n, uniform_weights, eps, atoms):
        rng = np.random.default_rng(seed)
        C = rng.uniform(-1.0, 2.0, (n, n))
        C[rng.random((n, n)) < 0.3] = INF
        if uniform_weights:
            a = np.full(n, 1.0 / n)
        else:
            a = rng.uniform(0.5, 1.0, n)
            a /= a.sum()
        b = a[rng.permutation(n)]
        if atoms is not None:  # a whole number of atoms: the assignment path
            eps = min(atoms / n, 1.0)
        r = solve_partial(C, a, b, eps)
        if r.status == "optimal":
            _check_partial_dual(r, C, a, b, eps)


# ---------------------------------------------------------------------------
# HiGHS partial solves: the dummy-atom LP against the slack-column LP
# ---------------------------------------------------------------------------


def _matches_slack_lp(C, a, b, eps):
    """solve_partial against the slack-column oracle: the same value or the
    same infeasibility, and certified potentials.  Square uniform inputs take
    the assignment path, and the HiGHS LP is then checked the same way."""
    C, a, b = np.asarray(C, dtype=float), np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    cap = min(eps, float(a.sum()))
    r = solve_partial(C, a, b, eps)
    uniform = C.shape[0] == C.shape[1] and a[0] > 0 and np.all(np.concatenate([a, b]) == a[0])
    assert r.path == ("assignment" if uniform else "highs")
    expected = partial_lp_slack(C, a, b, cap)
    for rep in (r, _highs_lp(C, a, b, cap)) if uniform else (r,):
        if math.isinf(expected):
            assert rep.status == "infeasible_finite" and rep.value == INF
            continue
        assert rep.status == "optimal"
        assert abs(rep.value - expected) <= 1e-9
        p = rep.potentials
        assert p.alpha >= 0 and p.beta >= 0
        bound = partial_dual_objective(C, a, b, cap, p.phi, p.psi, p.alpha, p.beta, tol=1e-9)
        assert abs(bound - rep.value) <= DUALITY_TOL
        assert p.feasibility_slack(C) <= 1e-9
    return r


@st.composite
def _nonuniform_partials(draw):
    """Non-uniform marginals, zero-weight atoms now and then, costs in
    [-1, 2) with +inf arcs, and a cap that may exceed the total mass."""
    n, m = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    C = rng.uniform(-1.0, 2.0, (n, m))
    C[rng.random((n, m)) < 0.3] = INF

    def weights(k):
        w = rng.uniform(0.5, 1.0, k)
        if k > 1 and draw(st.booleans()):
            w[rng.integers(k)] = 0.0
        return w / w.sum()

    eps = draw(st.sampled_from([0.05, 0.1, 0.3, 0.5, 0.9, 1.0, 1.5]))
    return C, weights(n), weights(m), eps


class TestHighsPartialMatchesSlackLP:
    @given(case=_nonuniform_partials())
    @settings(max_examples=150, deadline=None)
    def test_drawn_costs(self, case):
        _matches_slack_lp(*case)

    @pytest.mark.parametrize("eps", [1.0, 1.5, 10.0])
    def test_eps_at_or_above_total_mass(self, eps):
        rng = np.random.default_rng(5)
        C = rng.uniform(-1.0, 1.0, (4, 4))
        C[0, 1] = C[2, 3] = INF
        a = np.array([0.1, 0.2, 0.3, 0.4])
        r = _matches_slack_lp(C, a, a[::-1], eps)
        assert r.plan.total <= 1.0 + 1e-12

    def test_all_forbidden_row(self):
        C = np.array([[INF, INF, INF], [0.0, 1.0, INF], [2.0, 0.0, 1.0]])
        a, b = np.array([0.1, 0.3, 0.6]), np.array([0.3, 0.3, 0.4])
        for eps in (0.1, 0.2):  # the row's mass fits under the cap
            assert _matches_slack_lp(C, a, b, eps).status == "optimal"
        r = _matches_slack_lp(C, a, b, 0.05)  # it does not
        assert r.status == "infeasible_finite" and r.plan is None

    @pytest.mark.parametrize("eps", [0.25, 0.5, 0.75])
    @pytest.mark.parametrize("c", [-2.0, 0.0, 3.0, INF])
    def test_single_atom(self, c, eps):
        r = _matches_slack_lp(np.array([[c]]), [1.0], [1.0], eps)
        if c == INF:
            assert r.status == "infeasible_finite"

    def test_zero_weight_atoms(self):
        C = np.array([[0.0, 1.0, 2.0], [1.0, INF, 1.0], [2.0, 1.0, -0.5]])
        a, b = np.array([0.0, 0.5, 0.5]), np.array([0.25, 0.0, 0.75])
        for eps in (0.1, 0.25, 0.5, 1.0):
            _matches_slack_lp(C, a, b, eps)

    @pytest.mark.parametrize("shape", [(1, 3), (2, 3), (5, 3)])
    def test_non_square(self, shape):
        n, m = shape
        C = np.random.default_rng(n * m).uniform(-1.0, 2.0, shape)
        C[0, -1] = INF
        for eps in (0.1, 0.4, 1.0):
            _matches_slack_lp(C, np.full(n, 1 / n), np.full(m, 1 / m), eps)

    @pytest.mark.parametrize("seed", range(4))
    def test_max_plan_mass_costs(self, seed):
        # -1 on the atoms of a set, 0 elsewhere: every kept atom pays, so the
        # dummy potentials come out negative before the shift
        rng = np.random.default_rng(seed)
        C = np.where(rng.random((6, 6)) < 0.4, -1.0, 0.0)
        a = rng.uniform(0.5, 1.0, 6)
        a /= a.sum()
        for eps in (0.1, 1 / 3, 0.5):
            _matches_slack_lp(C, a, a[::-1], eps)
        # uniform weights, a cap off the atom lattice: both paths
        _matches_slack_lp(C, np.full(6, 1 / 6), np.full(6, 1 / 6), 0.25)


# ---------------------------------------------------------------------------
# caps off the atom lattice: a mix of two assignment solves (and on it, at
# theta = 0, the one optimum, through the same gate)
# ---------------------------------------------------------------------------


def _off_lattice_gate(C, eps):
    """solve_partial at a cap of (k + theta) atoms on uniform weights: the
    assignment path, the value of both HiGHS LPs within 1e-9, infeasible
    exactly where HiGHS says so, and a certified optimal report."""
    n = C.shape[0]
    a = np.full(n, 1.0 / n)
    cap = min(eps, float(a.sum()))
    r = solve_partial(C, a, a, eps)
    ref = _highs_lp(C, a, a, cap)
    assert r.path == "assignment"
    assert r.status == ref.status
    if r.status != "optimal":
        assert r.value == INF and math.isinf(partial_lp_slack(C, a, a, cap))
        return r
    assert abs(r.value - ref.value) <= 1e-9
    assert abs(r.value - partial_lp_slack(C, a, a, cap)) <= 1e-9
    _check_partial_dual(r, C, a, a, cap)
    ok, violations = check_complementary_slackness(r, C)
    assert ok, violations
    assert r.plan.is_subcoupling_of(DiscreteMeasure(a), DiscreteMeasure(a))
    assert r.plan.total >= a.sum() - cap - 1e-12
    return r


@st.composite
def _off_lattice_cases(draw):
    """Costs with ties or not, negative entries, 30-40% +inf arcs or
    max_plan_mass's {-1, 0} costs, an all-+inf row now and then, and a cap of
    k + theta atoms with theta 0 (on the atom lattice), near 0, near 1 or
    anywhere between (a cap at or above the total mass is clamped to it)."""
    n = draw(st.integers(1, 7))
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    kind = draw(st.sampled_from(["ties", "spread", "max_plan_mass"]))
    if kind == "max_plan_mass":
        C = np.where(rng.random((n, n)) < 0.4, -1.0, 0.0)
    else:
        C = (
            rng.integers(-2, 3, (n, n)).astype(float)
            if kind == "ties"
            else rng.uniform(-1.0, 2.0, (n, n))
        )
        C[rng.random((n, n)) < draw(st.sampled_from([0.3, 0.4]))] = INF
    if draw(st.integers(0, 4)) == 0:
        C[rng.integers(n)] = INF
    k = draw(st.integers(0, n))
    theta = draw(
        st.one_of(
            st.just(0.0),
            st.sampled_from([1e-7, 1e-6, 1 - 1e-6, 1 - 1e-7]),
            st.floats(0.01, 0.99),
        )
    )
    return C, (k + theta) / n


class TestOffLatticeCaps:
    @given(case=_off_lattice_cases())
    @settings(max_examples=200, deadline=None)
    def test_drawn_costs(self, case):
        _off_lattice_gate(*case)

    @pytest.mark.parametrize("theta", [1e-7, 0.5, 1 - 1e-7])
    @pytest.mark.parametrize("c", [-2.0, 0.0, 3.0, INF])
    def test_single_atom(self, c, theta):
        r = _off_lattice_gate(np.array([[c]]), theta)
        assert r.status == ("infeasible_finite" if c == INF else "optimal")
        if c < INF:  # the atom keeps 1 - theta of its mass, or all of it
            assert r.value == pytest.approx(min(c, c * (1 - theta)), abs=1e-15)

    def test_all_forbidden_row(self):
        C = np.array([[INF, INF, INF], [0.0, 1.0, INF], [2.0, 0.0, 1.0]])
        # half an atom may drop: the row's whole atom may not
        assert _off_lattice_gate(C, 1 / 6).status == "infeasible_finite"
        r = _off_lattice_gate(C, 1 / 2)  # one and a half atoms
        assert r.value == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("theta", [1e-7, 0.5, 1 - 1e-7])
    def test_atom_dropped_by_one_optimum_is_priced_at_the_cap(self, theta):
        # P_0 keeps every atom and P_1 drops one: the atoms P_1 drops ship to
        # a dummy in the mix, so their potentials must meet alpha or beta
        C = np.array([[-0.76, 1.38, -0.78], [1.53, 0.43, 1.01], [1.72, 1.27, -0.03]])
        r = _off_lattice_gate(C, theta / 3)
        assert r.plan.total == pytest.approx(1 - theta / 3, abs=1e-15)

    def test_value_is_linear_between_lattice_caps(self):
        C, mu, nu = discretize(get_instance("random_finite", seed=3, n=8), 8)
        lo, hi = solve_partial(C, mu, nu, 2 / 8).value, solve_partial(C, mu, nu, 3 / 8).value
        for theta in (0.25, 0.5, 0.75):
            r = solve_partial(C, mu, nu, (2 + theta) / 8)
            assert r.value == pytest.approx((1 - theta) * lo + theta * hi, rel=1e-12)

    @pytest.mark.parametrize("name", ["diag_inf", "diag_M", "fat_set", "rational_nullmod"])
    def test_catalog_at_fixed_eps(self, name):
        C, mu, nu = discretize(get_instance(name), 32)
        for eps in (0.1, 0.03, 0.01):
            _off_lattice_gate(np.asarray(C, dtype=float), eps)


# ---------------------------------------------------------------------------
# assignment potentials: the forest pass returns the plain sweeps' result
# ---------------------------------------------------------------------------


def _assignment(C, k):
    """The (n+k)-square assignment matrix with k zero-cost dummy rows and
    columns that _optimal_assignment hands linear_sum_assignment, and an
    optimal matching of it; None when no perfect matching is finite."""
    n = C.shape[0]
    D = np.zeros((n + k, n + k))
    D[:n, :n] = np.where(np.isfinite(C), C, INF)
    try:
        _, col = linear_sum_assignment(D)
    except ValueError:
        return None
    return D, col


def _support(col):
    """The boolean support of the assignment i -> col[i]."""
    support = np.zeros((col.size, col.size), dtype=bool)
    support[np.arange(col.size), col] = True
    return support


def _matches_jacobi(D, col):
    """Bit-equal to the plain sweeps wherever they settle; returns whether
    they did."""
    u, v = _assignment_potentials(D, _support(col))
    ju, jv, settled = jacobi_potentials(D, col)
    if settled:
        assert np.array_equal(u, ju) and np.array_equal(v, jv)
    else:  # rounding drift around a zero-length cycle: a certified pair
        finite = np.isfinite(D)
        assert (u[:, None] + v[None, :] - D)[finite].max() <= 1e-9
        assert np.abs(u + v[col] - D[np.arange(D.shape[0]), col]).max() <= 1e-9
    return settled


#: 0 runs a forest pass after every sweep, so small inputs exercise it too
PLAIN_SWEEPS = [solver._PLAIN_SWEEPS, 0]


class TestAssignmentPotentials:
    @pytest.mark.parametrize("plain", PLAIN_SWEEPS)
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 16, 64, 256])
    @pytest.mark.parametrize("name", catalog_names())
    def test_catalog_matches_jacobi(self, monkeypatch, name, n, plain):
        monkeypatch.setattr(solver, "_PLAIN_SWEEPS", plain)
        C, _, _ = discretize(get_instance(name), n)
        for k in (0, 1, 2):
            problem = _assignment(C, k)
            if problem is not None:
                assert _matches_jacobi(*problem)

    @given(
        data=st.data(),
        n=st.integers(1, 12),
        k=st.integers(0, 2),
        plain=st.sampled_from([0, 1, 3, solver._PLAIN_SWEEPS]),
    )
    @settings(max_examples=150, deadline=None)
    def test_drawn_costs_with_ties_and_inf_match_jacobi(self, data, n, k, plain):
        values = data.draw(
            st.lists(
                st.sampled_from([-1.0, 0.0, 0.0, 0.5, 1.0, 1 / 3, 2.0, INF, INF]),
                min_size=n * n,
                max_size=n * n,
            )
        )
        problem = _assignment(np.array(values).reshape(n, n), k)
        if problem is None:
            return
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver, "_PLAIN_SWEEPS", plain)
            _matches_jacobi(*problem)

    @pytest.mark.parametrize("n", [1, 2, 5, 33])
    def test_row_blocks_sweep_as_one_block(self, monkeypatch, n):
        # the (D, support, forced) of full, on- and off-lattice solves of
        # drawn costs (ties, signed zeros, +inf arcs, forced lower-triangular
        # supports, rows on several arcs of a mix) swept a few rows at a time:
        # _SWEEP_BLOCK 1 and N take one row, 3N three and N^2 - 1 all but one
        potentials, calls = solver._assignment_potentials, []

        def spied(D, support, forced=False):
            calls.append((D, support, forced))
            return potentials(D, support, forced)

        rng = np.random.default_rng(n)
        palette = np.array([-1.0, -0.0, 0.0, 0.0, 0.5, 1.0, 1 / 3, 2.0])
        with monkeypatch.context() as mp:
            mp.setattr(solver, "_assignment_potentials", spied)
            for case in range(24):
                C = rng.choice(palette, (n, n))
                C[rng.random((n, n)) < (0.0, 0.3, 0.6)[case % 3]] = INF
                if case % 4 == 0:
                    C[np.triu_indices(n, 1)] = INF
                solve_primal(C, uniform(n), uniform(n))
                for eps in (1 / n, 0.37 / n, 1.5 / n):
                    solve_partial(C, uniform(n), uniform(n), eps)
        if n > 1:
            assert any(forced for *_, forced in calls)
            assert any(support.sum(axis=1).max() > 1 for _, support, _ in calls)
        for D, support, forced in calls:
            N = D.shape[0]
            whole = [x.tobytes() for x in potentials(D, support, forced)]
            for block in (1, 7, N, 3 * N, N * N - 1):
                monkeypatch.setattr(solver, "_SWEEP_BLOCK", block)
                assert [x.tobytes() for x in potentials(D, support, forced)] == whole
            monkeypatch.undo()

    @pytest.mark.parametrize("n", [1, 2, 7, 64, 300])
    def test_diag_inf_closed_form_is_jacobi(self, n):
        C, _, _ = discretize(diag_inf(), n)
        ju, jv, settled = jacobi_potentials(C, np.arange(n))
        u, v = diag_inf_potentials(n)
        assert settled
        assert np.array_equal(u, ju) and np.array_equal(v, jv)

    def test_deep_chain_within_budget(self):
        # diag_inf's finite arcs are lower triangular with a finite diagonal,
        # so the identity is its only perfect matching; the shortest paths
        # form one chain of n - 1 arcs, n - 1 plain sweeps of n^2 each
        n = 1024
        C, _, _ = discretize(diag_inf(), n)
        ju, jv = diag_inf_potentials(n)
        for forced in (False, True):
            start = time.perf_counter()
            u, v = _assignment_potentials(C, _support(np.arange(n)), forced)
            elapsed = time.perf_counter() - start
            assert np.array_equal(u, ju) and np.array_equal(v, jv)
            assert elapsed < 1.0

    def test_chain_settles_in_one_forest_pass(self, monkeypatch):
        passes = []

        def counted(pred):
            passes.append(pred)
            return _forest_order(pred)

        monkeypatch.setattr(solver, "_forest_order", counted)
        C, mu, nu = discretize(diag_inf(), 128)
        r = solve_primal(C, mu, nu)
        assert r.path == "assignment" and r.value == pytest.approx(1.0, abs=1e-12)
        assert len(passes) == 1

    @pytest.mark.parametrize("n", [64, 256])
    def test_off_lattice_chain_walks_from_the_first_sweep(self, monkeypatch, n):
        # P_0 on diag_inf is fully forced, so the mix at eps = 0.5/n walks its
        # residual forest after one sweep, and lands on the plain sweeps'
        # potentials to the bit
        C, mu, nu = discretize(diag_inf(), n)
        potentials, calls = solver._assignment_potentials, []

        def spied(D, support, forced=False):
            calls.append((forced, support.shape))
            return potentials(D, support, forced)

        with monkeypatch.context() as mp:
            mp.setattr(solver, "_assignment_potentials", spied)
            r = solve_partial(C, mu, nu, 0.5 / n)
        assert r.path == "assignment" and calls == [(True, (n + 1, n + 1))]

        def plain(D, support, forced=False):
            return potentials(D, support, False)

        monkeypatch.setattr(solver, "_PLAIN_SWEEPS", n + 2)
        monkeypatch.setattr(solver, "_assignment_potentials", plain)
        ref = solve_partial(C, mu, nu, 0.5 / n)
        assert np.array_equal(r.potentials.phi, ref.potentials.phi)
        assert np.array_equal(r.potentials.psi, ref.potentials.psi)
        assert (r.potentials.alpha, r.potentials.beta) == (
            ref.potentials.alpha, ref.potentials.beta
        )

    def test_forest_levels(self):
        # 0 and 3 are roots; 6 <-> 7 is a cycle without a root and 8 hangs
        # off it, so those three reach no root and are left out
        pred = np.array([0, 0, 1, 3, 3, 4, 7, 6, 6])
        assert _forest_order(pred).tolist() == [0, 3, 1, 4, 2, 5]
        assert _forest_order(np.array([1, 2, 0])).tolist() == []
        assert _forest_order(np.array([0])).tolist() == [0]
        chain = np.concatenate([[0], np.arange(99)])  # i -> i - 1
        assert _forest_order(chain).tolist() == list(range(100))
        rev = np.append(np.arange(1, 100), 99)  # i -> i + 1
        assert _forest_order(rev).tolist() == list(range(99, -1, -1))


# ---------------------------------------------------------------------------
# forced arcs first: full solves with a forbidden arc split along the
# Dulmage-Mendelsohn decomposition before linear_sum_assignment
# ---------------------------------------------------------------------------


def _plain_assignment(D, finite):
    """The split's stand-in: one linear_sum_assignment over the whole D."""
    try:
        return linear_sum_assignment(D)[1], False
    except ValueError:
        return None


#: the tied costs the pattern strategies draw from
TIES = [-1.0, 0.0, 0.0, 0.5, 1.0, 1.0, 1 / 3, 2.0]


@st.composite
def _forbidden_patterns(draw, max_n=9):
    """Square costs with +inf arcs: block lower-triangular patterns whose
    blocks have a finite diagonal, with tied costs, under random row and
    column permutations; or, now and then, a free pattern that may hold no
    perfect matching."""
    n = draw(st.integers(1, max_n))
    ties = st.sampled_from(TIES)
    C = np.array(draw(st.lists(ties, min_size=n * n, max_size=n * n))).reshape(n, n)
    finite = np.array(
        draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
    ).reshape(n, n)
    if draw(st.integers(0, 4)):  # block lower-triangular
        cuts = draw(st.lists(st.booleans(), min_size=n - 1, max_size=n - 1))
        block = np.cumsum([0, *cuts])
        finite &= block[:, None] >= block[None, :]
        finite[np.arange(n), np.arange(n)] = True
    C[~finite] = INF
    rows = draw(st.permutations(range(n)))
    cols = draw(st.permutations(range(n)))
    return C[np.ix_(rows, cols)]


@st.composite
def _forced_patterns(draw, max_n=48):
    """Square costs whose finite arcs are a lower-triangular pattern with a
    finite diagonal, under random row and column permutations: the finite
    arcs hold exactly one perfect matching, so every arc of it is forced."""
    n = draw(st.integers(2, max_n))
    C = draw(arrays(float, (n, n), elements=st.sampled_from(TIES)))
    finite = np.tril(draw(arrays(bool, (n, n)))) | np.eye(n, dtype=bool)
    C[~finite] = INF
    rows = draw(st.permutations(range(n)))
    cols = draw(st.permutations(range(n)))
    return C[np.ix_(rows, cols)]


class TestForcedArcSplit:
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 16, 64, 256])
    @pytest.mark.parametrize("name", catalog_names())
    def test_catalog_bit_identical_where_unique(self, monkeypatch, name, n):
        C, mu, nu = discretize(get_instance(name), n)
        split = solve_primal(C, mu, nu)
        monkeypatch.setattr(solver, "_split_assignment", _plain_assignment)
        plain = solve_primal(C, mu, nu)
        assert split.path == plain.path == "assignment"
        col = plain.plan.mass.argmax(axis=1)
        p = plain.potentials
        if unique_optimal_matching(C, col, p.phi, p.psi):
            assert split.value == plain.value
            assert np.array_equal(split.plan.mass, plain.plan.mass)
            assert np.array_equal(split.potentials.phi, p.phi)
            assert np.array_equal(split.potentials.psi, p.psi)
            assert split.potentials.objective == p.objective
        else:
            assert split.value == pytest.approx(plain.value, rel=1e-12, abs=1e-12)
            _certified(split, C, mu, nu, None)
        if name == "diag_inf" and n > 1:  # every arc is forced
            assert unique_optimal_matching(C, col, p.phi, p.psi)

    @given(C=_forbidden_patterns())
    @settings(max_examples=200, deadline=None)
    def test_forbidden_patterns_match_highs(self, C):
        n = C.shape[0]
        mu = nu = uniform(n)
        r = solve_primal(C, mu, nu)
        ref = _highs_lp(C, mu.weights, nu.weights)
        assert r.path == "assignment"
        assert r.status == ref.status
        if n <= 3:
            bf, _ = brute_force_primal(C, mu.weights, nu.weights)
            assert r.value == pytest.approx(bf, abs=1e-9)
        if r.status != "optimal":
            assert r.value == INF
            return
        assert abs(r.value - ref.value) <= 1e-9
        ok, violations = check_complementary_slackness(r, C)
        assert ok, violations
        assert r.potentials.feasibility_slack(C) <= 1e-9
        assert abs(r.value - solve_dual(C, mu, nu).value) <= DUALITY_TOL

    @given(C=_forced_patterns())
    @settings(max_examples=100, deadline=None)
    def test_forced_patterns_walk_first_and_match_jacobi(self, C):
        n = C.shape[0]
        split, potentials = solver._split_assignment, solver._assignment_potentials
        calls = []

        def spied_split(D, finite):
            calls.append(split(D, finite))
            return calls[-1]

        def spied_potentials(D, support, forced=False):
            calls.append(forced)
            return potentials(D, support, forced)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver, "_split_assignment", spied_split)
            mp.setattr(solver, "_assignment_potentials", spied_potentials)
            r = solve_primal(C, uniform(n), uniform(n))
        (col, one_row_blocks), forced = calls
        assert one_row_blocks and forced
        ju, jv, settled = jacobi_potentials(C, col)
        assert settled
        assert np.array_equal(r.potentials.phi, ju)
        assert np.array_equal(r.potentials.psi, jv)

    @pytest.mark.parametrize(
        "C",
        [
            [[INF, INF, INF], [0.0, 1.0, INF], [2.0, 0.0, 1.0]],  # a row all +inf
            [[INF]],
            [[1.0, INF, INF], [2.0, INF, INF], [0.0, 1.0, 2.0]],  # Hall violation
        ],
    )
    def test_infeasible_patterns(self, monkeypatch, C):
        C = np.array(C)
        split, calls = solver._split_assignment, []

        def spied(D, finite):
            calls.append(split(D, finite))
            return calls[-1]

        monkeypatch.setattr(solver, "_split_assignment", spied)
        n = C.shape[0]
        r = _cross_check(C, uniform(n), uniform(n), 0)
        assert r.status == "infeasible_finite" and r.plan is None
        assert calls == [None]

    @pytest.mark.parametrize("name", catalog_names())
    def test_no_forbidden_arc_never_splits(self, monkeypatch, name):
        def refused(D, finite):
            raise AssertionError("the split ran")

        monkeypatch.setattr(solver, "_split_assignment", refused)
        C, mu, nu = discretize(get_instance(name), 16)
        if np.isfinite(C).all():
            assert solve_primal(C, mu, nu).path == "assignment"
        for k in (1, 2):  # partial solves keep one linear_sum_assignment call
            assert solve_partial(C, mu, nu, k / 16).path == "assignment"

    def test_diag_inf_1024_within_budget(self):
        # one linear_sum_assignment over this matrix takes over a second;
        # every arc of its only finite matching is forced, so the split
        # solves no block
        n = 1024
        C, mu, nu = discretize(diag_inf(), n)
        start = time.perf_counter()
        r = solve_primal(C, mu, nu)
        elapsed = time.perf_counter() - start
        assert r.path == "assignment" and r.status == "optimal"
        assert r.value == pytest.approx(1.0, abs=1e-12)
        assert np.array_equal(r.plan.mass > 0, np.eye(n, dtype=bool))
        _certified(r, C, mu, nu, None)
        assert elapsed < 1.0


def _posed_lps(monkeypatch, module, run):
    """Every (c, kwargs) that ``run()`` hands ``module.linprog``."""
    calls = []
    real = module.linprog

    def spy(c, **kwargs):
        calls.append((c, kwargs))
        return real(c, **kwargs)

    monkeypatch.setattr(module, "linprog", spy)
    run()
    monkeypatch.undo()
    assert calls
    return calls


def _same_as_scipy(c, kwargs):
    """gaplab's HiGHS entry and scipy.optimize.linprog agree to the bit on
    one LP posed cold (without ``start``, which scipy does not take); a
    started solve of it ends in the same status, with the same value to
    1e-12 relative and certified duals.  Returns the status."""
    from scipy.optimize import linprog as scipy_linprog

    cold = {k: v for k, v in kwargs.items() if k != "start"}
    ours = solver.linprog(c, **cold)
    ref = scipy_linprog(c, method="highs", options=solver._HIGHS_OPTS, **cold)
    started = solver.linprog(c, **kwargs) if "start" in kwargs else None
    assert ours.status == ref.status, (ours.message, ref.message)
    assert ours.nit == ref.nit
    if started is not None:
        assert started.status == ref.status, (started.message, ref.message)
    if ref.status != 0:
        assert ours.x is None and ours.fun is None
        return ref.status
    assert ours.x.tobytes() == ref.x.tobytes()  # signs of zero included
    assert np.float64(ours.fun).tobytes() == np.float64(ref.fun).tobytes()
    mine, theirs = ours.eqlin.marginals, ref.eqlin.marginals
    assert mine.shape == theirs.shape and mine.tobytes() == theirs.tobytes()
    if started is not None:
        assert abs(started.fun - ref.fun) <= 1e-12 * max(1.0, abs(ref.fun))
        _assert_certified(c, cold["A_eq"], cold["b_eq"], started)
    return 0


def _assert_certified(c, A, b, res, tol=1e-9):
    """``res`` is optimal for min c.x, A x = b, x >= 0, to ``tol``: x is
    feasible, the duals y price no column below -tol, every column with
    mass prices at 0, and b.y is the value."""
    A = A.toarray() if hasattr(A, "toarray") else np.asarray(A)
    x, y = res.x, res.eqlin.marginals
    assert x.shape == c.shape and np.all(x >= -tol)
    assert np.abs(A @ x - b).max(initial=0.0) <= tol
    reduced = c - A.T @ y
    assert reduced.min(initial=0.0) >= -tol
    assert np.abs(reduced[x > solver.SUPPORT_TOL]).max(initial=0.0) <= tol
    assert abs(b @ y - res.fun) <= tol * max(1.0, abs(res.fun))


def _drawn_transport(seed, n, m, forbid=0.0, zero=0.0):
    """A random cost with a ``forbid`` share of +inf arcs and marginals
    with a ``zero`` share of zero weights."""
    rng = np.random.default_rng(seed)
    C = rng.uniform(-1.0, 3.0, size=(n, m))
    C[rng.random((n, m)) < forbid] = INF
    C[np.arange(n), np.arange(n) % m] = 1.0  # every row keeps a finite arc

    def weights(k):
        w = rng.uniform(0.1, 1.0, size=k)
        w[rng.random(k) < zero] = 0.0
        if not w.any():
            w[0] = 1.0
        return w / w.sum()

    return C, weights(n), weights(m)


class TestHighsEntry:
    """``solver.linprog`` poses the LP to HiGHS itself: the result must be
    scipy.optimize.linprog(method="highs")'s, bit for bit, on the LPs gaplab
    poses."""

    @pytest.mark.parametrize("n", [1, 2, 7, 16, 64])
    @pytest.mark.parametrize("name", catalog_names())
    def test_catalog_transport_lps(self, monkeypatch, name, n):
        C, mu, nu = discretize(get_instance(name), n)
        for c, kwargs in _posed_lps(
            monkeypatch, solver, lambda: _highs_lp(C, mu.weights, nu.weights)
        ):
            assert _same_as_scipy(c, kwargs) == 0

    @pytest.mark.parametrize("seed", range(12))
    def test_non_square_zero_weights_and_forbidden_arcs(self, monkeypatch, seed):
        n, m = 1 + seed % 5, 2 + (seed * 7) % 9
        C, a, b = _drawn_transport(seed, n, m, forbid=0.3, zero=0.3)
        for c, kwargs in _posed_lps(monkeypatch, solver, lambda: _highs_lp(C, a, b)):
            _same_as_scipy(c, kwargs)

    @pytest.mark.parametrize("seed", range(8))
    def test_padded_partial_lp(self, monkeypatch, seed):
        n = 3 + seed
        C, a, b = _drawn_transport(seed, n, n + seed % 3, forbid=0.2, zero=0.2)
        cap = 0.1 + 0.05 * seed
        for c, kwargs in _posed_lps(monkeypatch, solver, lambda: _highs_lp(C, a, b, cap)):
            assert _same_as_scipy(c, kwargs) == 0
            assert kwargs["A_eq"].shape == (2 * n + seed % 3 + 2, c.size)

    def test_infeasible_lp(self, monkeypatch):
        # the only finite arcs are the diagonal, and the weights differ
        C = np.where(np.eye(3, dtype=bool), 1.0, INF)
        a, b = np.array([0.2, 0.3, 0.5]), np.array([0.5, 0.3, 0.2])
        ((c, kwargs),) = _posed_lps(monkeypatch, solver, lambda: _highs_lp(C, a, b))
        assert _same_as_scipy(c, kwargs) == 2
        assert _highs_lp(C, a, b).status == "infeasible_finite"

    def test_mismatched_sizes_raise(self):
        # HiGHS would read past the end of a short array
        A = np.eye(2)
        with pytest.raises(ValueError):
            solver.linprog(np.ones(2), A_eq=A, b_eq=np.ones(1))
        with pytest.raises(ValueError):
            solver.linprog(np.ones(3), A_eq=A, b_eq=np.ones(2))


# ---------------------------------------------------------------------------
# the started HiGHS path: greedy basic tree, pricing rounds, certificate
# ---------------------------------------------------------------------------


def _started_and_cold(C, a, b, cap=None):
    """_highs_lp's report (the started solve) and a cold solve of the LP it
    posed to linprog, with that LP as (c, kwargs)."""
    calls = []
    real = solver.linprog

    def spy(c, **kwargs):
        calls.append((c, kwargs))
        return real(c, **kwargs)

    solver.linprog = spy
    try:
        r = _highs_lp(C, a, b, cap)
    finally:
        solver.linprog = real
    if not calls:  # no finite arc: nothing is posed
        return r, None, None
    ((c, kwargs),) = calls
    cold = {k: v for k, v in kwargs.items() if k != "start"}
    return r, solver.linprog(c, **cold), (c, kwargs)


def _agrees_with_cold(C, a, b, cap=None, tol=1e-9):
    """The started solve reaches the cold solve's value within ``tol``,
    reports infeasible_finite exactly where the cold LP is infeasible, and
    certifies its potentials: phi_i + psi_j - C_ij <= tol on every finite
    arc, and complementary slackness (to DUALITY_TOL) on the plan's support,
    the dummies' arcs of a partial solve included.  Each tolerance is
    relative past 1: at a finite M = 1e12 the potentials reach 1e12, whose
    sums round in the fifth decimal."""
    r, cold, _ = _started_and_cold(C, a, b, cap)
    if cold is None:
        return r
    if cold.status == 2:
        assert r.status == "infeasible_finite" and r.plan is None
        return r
    assert cold.status == 0 and r.status == "optimal"
    assert abs(r.value - cold.fun) <= tol * max(1.0, abs(cold.fun))
    finite = np.isfinite(C)
    scale = max(1.0, np.abs(C[finite]).max(initial=0.0))
    p = r.potentials
    assert p.feasibility_slack(C) <= tol * scale
    # C padded with the dummies (cost 0, potentials -beta and -alpha) and
    # the plan with the mass each atom drops; a full solve pads nothing
    E, mass, phi, psi = C, r.plan.mass, p.phi, p.psi
    if cap is not None:
        E = np.pad(C, ((0, 1), (0, 1)))
        mass = np.pad(mass, ((0, 1), (0, 1)))
        mass[:-1, -1] = a - r.plan.row_sums
        mass[-1, :-1] = b - r.plan.col_sums
        phi, psi = np.append(phi, -p.beta), np.append(psi, -p.alpha)
    gap = E - phi[:, None] - psi[None, :]
    support = (mass > 1e-9) & np.isfinite(E)
    assert np.all(np.abs(gap[support]) <= DUALITY_TOL * scale)
    return r


@st.composite
def _started_lps(draw):
    """Transport LPs for the started path: every shape from 1 x 1 up,
    non-square ones, +inf arcs with all-+inf rows among them, zero-weight
    atoms, negative costs (the -1 on a set that max_plan_mass poses), a
    large finite M, and padded partial caps up to past the total mass."""
    n, m = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["mixed", "set", "large_M"]))
    if kind == "set":
        C = np.where(rng.random((n, m)) < 0.4, -1.0, 0.0)
    elif kind == "large_M":
        C = np.where(rng.random((n, m)) < 0.4, 1e12, rng.uniform(0.0, 1.0, (n, m)))
    else:
        C = rng.uniform(-1.0, 2.0, (n, m))
    C[rng.random((n, m)) < draw(st.sampled_from([0.0, 0.2, 0.5]))] = INF
    if draw(st.booleans()):
        C[rng.integers(n)] = INF

    def weights(k):
        w = rng.uniform(0.1, 1.0, k)
        w[rng.random(k) < draw(st.sampled_from([0.0, 0.3]))] = 0.0
        if not w.any():
            w[rng.integers(k)] = 1.0
        return w / w.sum()

    cap = draw(st.sampled_from([None, 0.01, 0.1, 0.5, 1.0, 1.5]))
    return C, weights(n), weights(m), cap


class TestArcGeneration:
    """_highs_lp hands linprog a matrix-minimum basic tree and a shortlist of
    arcs; pricing rounds grow the model until no arc prices in.  The value
    is the cold solve's, and the certificate covers every finite arc."""

    @given(case=_started_lps())
    @settings(max_examples=300, deadline=None)
    def test_drawn_lps_agree_with_the_cold_solve(self, case):
        _agrees_with_cold(*case)

    def test_all_forbidden_row_is_infeasible(self):
        C = np.array([[INF, INF, INF], [0.0, 1.0, INF], [2.0, 0.0, 1.0]])
        a, b = np.array([0.1, 0.3, 0.6]), np.array([0.3, 0.3, 0.4])
        assert _agrees_with_cold(C, a, b).status == "infeasible_finite"
        assert _agrees_with_cold(C, a, b, 0.05).status == "infeasible_finite"
        assert _agrees_with_cold(C, a, b, 0.1).status == "optimal"

    @pytest.mark.parametrize("shape", [(1, 1), (1, 5), (5, 1), (3, 8), (8, 3)])
    def test_shapes(self, shape):
        n, m = shape
        rng = np.random.default_rng(n * 10 + m)
        C = rng.uniform(-1.0, 2.0, shape)
        a, b = rng.uniform(0.1, 1.0, n), rng.uniform(0.1, 1.0, m)
        for cap in (None, 0.2, 1.0, 2.0):
            _agrees_with_cold(C, a / a.sum(), b / b.sum(), cap)

    @pytest.mark.parametrize("seed", range(6))
    def test_multi_round_solves(self, seed):
        # 24 x 24 i.i.d. costs: the 4-arc shortlist misses arcs an optimum
        # needs, so pricing has to add them
        rng = np.random.default_rng(seed)
        C = rng.uniform(0.0, 1.0, (24, 24))
        a, b = rng.uniform(0.1, 1.0, 24), rng.uniform(0.1, 1.0, 24)
        _agrees_with_cold(C, a / a.sum(), b / b.sum())
        _agrees_with_cold(C, a / a.sum(), b / b.sum(), 0.01)

    def test_start_is_a_basis_of_a_forest(self):
        # a forbidden band stops the greedy early; every start is still a
        # nonsingular basis: as many basic entries as rows, the basic arcs
        # acyclic and one basic row per component
        from scipy import sparse
        from scipy.sparse.csgraph import connected_components

        rng = np.random.default_rng(3)
        C = rng.uniform(0.0, 1.0, (9, 7))
        C[2:5, :] = INF
        C[2:5, 0] = 0.5
        a, b = rng.uniform(0.1, 1.0, 9), rng.uniform(0.1, 1.0, 7)
        a, b = a / a.sum(), b / b.sum()
        _, _, (c, kwargs) = _started_and_cold(C, a, b)
        cols, basic, basic_rows = kwargs["start"]
        A = kwargs["A_eq"].toarray()
        tree = A[:, cols[basic]]
        nodes = A.shape[0]
        assert basic.sum() + basic_rows.sum() == nodes
        # each tree arc joins the first and the last row of its column
        ends = np.argmax(tree, axis=0), nodes - 1 - np.argmax(tree[::-1], axis=0)
        graph = sparse.coo_matrix((np.ones(tree.shape[1]), ends), shape=(nodes, nodes))
        count, labels = connected_components(graph, directed=False)
        assert count == nodes - tree.shape[1]  # no cycle
        assert np.array_equal(np.bincount(labels[basic_rows], minlength=count), np.ones(count))
        B = np.hstack([tree, np.eye(nodes)[:, basic_rows]])
        assert np.linalg.matrix_rank(B) == nodes

    def test_infeasible_restricted_lp_grows_to_the_whole_lp(self):
        # a start of one column on the slack basis cannot ship the mass; only
        # the whole LP may say whether a coupling exists
        rng = np.random.default_rng(1)
        C = rng.uniform(0.0, 1.0, (4, 5))
        a, b = np.full(4, 0.25), np.full(5, 0.2)
        _, cold, (c, kwargs) = _started_and_cold(C, a, b)
        rows = kwargs["A_eq"].shape[0]
        poor = (np.array([0]), np.array([False]), np.ones(rows, dtype=bool))
        res = solver.linprog(c, A_eq=kwargs["A_eq"], b_eq=kwargs["b_eq"], start=poor)
        assert res.status == 0 and res.rounds >= 2
        assert abs(res.fun - cold.fun) <= 1e-12
        _assert_certified(c, kwargs["A_eq"], kwargs["b_eq"], res)

    def test_pricing_rounds_reach_the_optimum(self):
        # start from the greedy tree of the reversed costs alone: the first
        # restricted optimum is that tree's cost, and rounds must improve it
        rng = np.random.default_rng(2)
        C = rng.uniform(0.0, 1.0, (6, 6))
        a, b = rng.uniform(0.1, 1.0, 6), rng.uniform(0.1, 1.0, 6)
        a, b = a / a.sum(), b / b.sum()
        _, cold, (c, kwargs) = _started_and_cold(C, a, b)
        finite = np.isfinite(C)
        rows, cols = np.nonzero(finite)
        amounts = kwargs["b_eq"]
        start, basic, basic_rows = solver._greedy_start(-C, finite, rows, cols, -c, amounts)
        tree = (start[basic], np.ones(basic.sum(), dtype=bool), basic_rows)
        res = solver.linprog(c, A_eq=kwargs["A_eq"], b_eq=amounts, start=tree)
        assert res.status == 0 and res.rounds >= 2
        assert abs(res.fun - cold.fun) <= 1e-12
        _assert_certified(c, kwargs["A_eq"], amounts, res)


def _diag_m_piecewise(n, seed):
    """C of diag_M (0 below the diagonal, 1 on it, 2 above) at n with seeded
    piecewise densities, the shape of the benchmark's non-uniform job."""
    from gaplab.core import DensitySpec, Grid

    rng = np.random.default_rng(seed)

    def density():
        pieces = int(rng.integers(2, 6))
        cuts = np.sort(rng.choice(np.arange(1, 20), pieces - 1, replace=False)) / 20
        bp = np.concatenate([[0.0], cuts, [1.0]])
        w = rng.uniform(0.2, 2.0, pieces)
        spec = DensitySpec(tuple(bp), tuple(w / float(w @ np.diff(bp))))
        return DiscreteMeasure.from_density(spec, Grid(n)).weights

    C, _, _ = discretize(diag_M(), n)
    return C, density(), density()


@pytest.mark.slow
class TestArcGenerationAtSize:
    """Agreement with the cold solve where the start set is a small share of
    the arcs (run with ``pytest -m slow``)."""

    @pytest.mark.parametrize("n", [128, 256])
    @pytest.mark.parametrize("kind", ["diag_M_piecewise", "iid", "squared_distance"])
    def test_agrees_with_the_cold_solve(self, kind, n):
        C, a, b = _diag_m_piecewise(n, 7)
        if kind == "iid":
            C = np.random.default_rng(n).uniform(0.0, 1.0, (n, n))
        elif kind == "squared_distance":
            x = (np.arange(n) + 0.5) / n
            C = (x[:, None] - x[None, :]) ** 2
        _agrees_with_cold(C, a, b)
        _agrees_with_cold(C, a, b, 0.01)
