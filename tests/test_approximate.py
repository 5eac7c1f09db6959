"""Block partition, per-cell partial solves, the weak* metric, liminf harness."""

import math

import numpy as np
import pytest

import gaplab.approximate
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gaplab import (
    BlockPartition,
    ConfigurationError,
    InfiniteRectifiedCostError,
    TransportPlan,
    antidiagonal_plan,
    block_approximate_plan,
    cyclic_shift_plan,
    diag_inf,
    diagonal_plan,
    discretize,
    liminf_harness,
    product_plan,
    shift_subplan,
    weak_star_distance,
)
from gaplab.catalog import diag_M, fat_set, random_finite, trivial_zero
from gaplab.solver import solve_partial


@st.composite
def cell_layouts(draw):
    """A partition with n, s in 1..8 and an n*s x n*s mass matrix of
    non-uniform entries in which whole cells may be zero."""
    n, s = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    N = n * s
    entries = st.floats(0, 1) | st.sampled_from([0.0, 1e-300, 1e300])
    M = draw(arrays(float, (N, N), elements=entries))
    empty = draw(arrays(bool, (n, n)))
    M[np.kron(empty, np.ones((s, s), dtype=bool))] = 0.0
    return BlockPartition(n, s), M


class TestBlockPartition:
    @pytest.mark.parametrize("n, s", [(0, 4), (4, 0)])
    def test_empty_side_rejected(self, n, s):
        with pytest.raises(ConfigurationError):
            BlockPartition(n, s)

    def test_cell_sums_of_closed_form_plans(self):
        sums = BlockPartition(4, 4).cell_sums(diagonal_plan(16).mass)
        assert np.array_equal(sums, np.diag([0.25] * 4))
        _, mu, nu = discretize(trivial_zero(), 8)
        sums = BlockPartition(4, 2).cell_sums(product_plan(mu, nu).mass)
        assert sums == pytest.approx(np.full((4, 4), 1 / 16), abs=1e-15)

    @given(cell_layouts())
    @settings(max_examples=60, deadline=None)
    def test_cells_match_each_block(self, layout):
        part, M = layout
        rows, cols = part.cell_marginals(M)
        sums = part.cell_sums(M)
        assert rows.shape == (part.n, part.s, part.n)
        assert cols.shape == (part.n, part.n, part.s)
        assert sums.shape == (part.n, part.n)
        for l in range(part.n):
            for m in range(part.n):
                block = M[part.cell_slice(l, m)]
                assert rows[l, :, m].tobytes() == block.sum(axis=1).tobytes()
                assert cols[l, m].tobytes() == block.sum(axis=0).tobytes()
                exact = math.fsum(block.ravel())
                assert abs(sums[l, m] - exact) <= 1e-12 * exact


class TestBlockApproximate:
    def test_mass_floor_and_cost_on_diagonal_instance(self):
        # per cell the optimizer keeps exactly the floor; the glued cost is
        # max(1 - s/n^2, 0): the within-cell analogue of the partial formula
        for n, s in [(4, 8), (8, 8)]:
            step = block_approximate_plan(diagonal_plan(n * s), diag_inf(), n, s)
            assert step.mass == pytest.approx(1 - 1 / n**2, abs=1e-12)
            assert step.cost_c == pytest.approx(max(1 - s / n**2, 0.0), abs=1e-9)
            assert step.target_cr_integral == 0.0
            for rep in step.per_cell_reports:
                assert rep["retained"] >= rep["cell_mass"] - 1 / n**3 - 1e-12

    def test_inner_scale_matching_block_count_squared_closes_the_bound(self):
        # with s = n^2 the one-substep shift fits inside the mass tolerance
        # and the construction reaches zero cost, hence the 1/n bound
        for n in (2, 4):
            s = n * n
            step = block_approximate_plan(diagonal_plan(n * s), diag_inf(), n, s)
            assert step.cost_c == pytest.approx(0.0, abs=1e-12)
            assert step.bound_ok

    def test_zero_cost_instance_any_plan(self):
        _, mu, nu = discretize(trivial_zero(), 16)
        step = block_approximate_plan(product_plan(mu, nu), trivial_zero(), 4, 4)
        assert step.cost_c == 0.0
        assert step.bound_ok
        for rep in step.per_cell_reports:
            assert rep["retained"] >= rep["cell_mass"] - 1 / 64 - 1e-12

    def test_finite_variant(self):
        # with finite above-diagonal arcs each cell routes a cyclic wrap at
        # cost M instead of filling its diagonal: glued cost M*(1/s - 1/n^2)
        # (cross-checked against an independent conic solver)
        step = block_approximate_plan(diagonal_plan(64), diag_M(2.0), 8, 8)
        assert step.mass == pytest.approx(1 - 1 / 64, abs=1e-12)
        assert step.cost_c == pytest.approx(2.0 * max(1 / 8 - 1 / 64, 0.0), abs=1e-9)

    def test_glued_plan_is_subcoupling_of_fine_marginals(self):
        n, s = 4, 8
        _, mu, nu = discretize(diag_inf(), n * s)
        step = block_approximate_plan(diagonal_plan(n * s), diag_inf(), n, s)
        assert step.plan.is_subcoupling_of(mu, nu)

    def test_refuses_plans_with_infinite_rectified_cost(self):
        # a plan charging mass above the diagonal has infinite target
        with pytest.raises(InfiniteRectifiedCostError):
            block_approximate_plan(antidiagonal_plan(32), diag_inf(), 4, 8)

    def test_refuses_instances_without_rectified_descriptor(self):
        with pytest.raises(InfiniteRectifiedCostError):
            block_approximate_plan(diagonal_plan(32), random_finite(0, 8), 4, 8)

    @pytest.mark.parametrize("N", [8, 15, 32])
    def test_plan_off_the_fine_grid_rejected(self, N):
        with pytest.raises(ConfigurationError, match="fine 16x16 grid"):
            block_approximate_plan(diagonal_plan(N), diag_inf(), 4, 4)


def _solve_every_cell(pi, inst, n, s):
    """Reference for block_approximate_plan: one solve_partial per cell, no
    reuse.  Returns the glued mass, the per-cell reports and the number of
    distinct (C block, a, b) triples among the cells that carry mass."""
    N = n * s
    C, _, _ = discretize(inst, N)
    tol = 1.0 / n**3
    part = BlockPartition(n, s)
    glued = np.zeros((N, N))
    reports, distinct = [], set()
    for l in range(n):
        for m in range(n):
            sl = part.cell_slice(l, m)
            block = pi.mass[sl]
            cell_mass = float(block.sum())
            if cell_mass <= 1e-15:
                continue
            a, b = block.sum(axis=1), block.sum(axis=0)
            distinct.add((C[sl].tobytes(), a.tobytes(), b.tobytes()))
            rep = solve_partial(C[sl], a, b, eps=tol)
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
    return glued, tuple(reports), len(distinct)


class TestCellReuse:
    """Each distinct cell LP is solved once per call, with results equal to
    solving every cell."""

    def _check(self, monkeypatch, inst, plan, n, s):
        calls = []
        real = gaplab.approximate.solve_partial
        monkeypatch.setattr(
            gaplab.approximate,
            "solve_partial",
            lambda *a, **k: calls.append(1) or real(*a, **k),
        )
        step = block_approximate_plan(plan, inst, n, s)
        glued, reports, distinct = _solve_every_cell(plan, inst, n, s)
        assert np.array_equal(step.plan.mass, glued)
        assert step.per_cell_reports == reports
        assert len(calls) == distinct
        return len(calls), len(reports)

    @pytest.mark.parametrize("n", [4, 16])
    def test_product_plan_on_diag_M(self, monkeypatch, n):
        s = 8
        inst = diag_M(2.0)
        _, mu, nu = discretize(inst, n * s)
        solves, cells = self._check(monkeypatch, inst, product_plan(mu, nu), n, s)
        # below, on and above the diagonal
        assert (solves, cells) == (3, n * n)

    def test_diagonal_plan_on_diag_inf(self, monkeypatch):
        n, s = 8, 8
        solves, cells = self._check(monkeypatch, diag_inf(), diagonal_plan(n * s), n, s)
        assert (solves, cells) == (1, n)

    @pytest.mark.parametrize("n", [4, 8])
    def test_product_plan_on_fat_set(self, monkeypatch, n):
        s = 8
        inst = fat_set()
        _, mu, nu = discretize(inst, n * s)
        solves, cells = self._check(monkeypatch, inst, product_plan(mu, nu), n, s)
        assert 1 < solves < cells

    def test_same_cost_block_other_marginals_is_solved_again(self, monkeypatch):
        # diag_M repeats three cost blocks; a random plan gives every cell
        # its own marginals, so no cell may reuse another's report
        n, s = 4, 4
        mass = np.random.default_rng(0).uniform(0, 1, (n * s, n * s))
        plan = TransportPlan(mass / mass.sum())
        solves, cells = self._check(monkeypatch, diag_M(2.0), plan, n, s)
        assert solves == cells == n * n


def _dense_shift(n, wrap):
    m = np.zeros((n, n))
    for i in range(1, n):
        m[i, i - 1] = 1 / n
    if wrap:
        m[0, n - 1] = 1 / n
    return m


class TestClosedFormPlans:
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 9])
    def test_support_plans_equal_the_dense_constructions(self, n):
        # the matrices each builder once filled in densely, to the bit
        for plan, dense in (
            (diagonal_plan(n), np.eye(n) / n),
            (antidiagonal_plan(n), np.fliplr(np.eye(n)) / n),
            (cyclic_shift_plan(n), _dense_shift(n, wrap=True)),
            (shift_subplan(n), _dense_shift(n, wrap=False)),
        ):
            assert plan.mass.shape == (n, n) and plan.mass.tobytes() == dense.tobytes()
            assert not plan.mass.flags.writeable


class TestWeakStarDistance:
    def test_identical_plans(self):
        assert weak_star_distance(diagonal_plan(8), diagonal_plan(8)) == 0.0

    def test_resolution_invariance_of_the_diagonal(self):
        assert weak_star_distance(diagonal_plan(4), diagonal_plan(64)) == 0.0

    def test_diag_vs_antidiag_n2(self):
        d = weak_star_distance(diagonal_plan(2), antidiagonal_plan(2))
        assert d == pytest.approx(0.25)  # level-1 cells differ by 1/2

    def test_shift_vs_diag_n16(self):
        d = weak_star_distance(diagonal_plan(16), shift_subplan(16))
        assert 0 < d <= 4 / 16

    def test_rejects_non_dyadic(self):
        with pytest.raises(ConfigurationError):
            weak_star_distance(diagonal_plan(6), diagonal_plan(8))

    @pytest.mark.parametrize(
        "mass", [np.full((4, 8), 1 / 32), np.zeros((0, 0))], ids=["non_square", "empty"]
    )
    def test_rejects_bad_plan_shapes(self, mass):
        with pytest.raises(
            ConfigurationError, match=rf"shape \({mass.shape[0]}, {mass.shape[1]}\)"
        ):
            weak_star_distance(TransportPlan(mass), diagonal_plan(8))
        with pytest.raises(ConfigurationError, match="shape"):
            weak_star_distance(diagonal_plan(8), mass)

    def test_symmetry_and_triangle(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            p, q, r = (
                TransportPlan(rng.uniform(0, 1, (8, 8)) / 64) for _ in range(3)
            )
            dpq = weak_star_distance(p, q)
            assert dpq == weak_star_distance(q, p)
            assert dpq <= weak_star_distance(p, r) + weak_star_distance(r, q) + 1e-12

    def test_identity_of_indiscernibles_same_resolution(self):
        rng = np.random.default_rng(1)
        p = TransportPlan(rng.uniform(0, 1, (8, 8)) / 64)
        q = TransportPlan(p.mass.copy() + 0)
        assert weak_star_distance(p, q) == 0.0
        bumped = p.mass.copy()
        bumped[3, 5] += 1e-3
        assert weak_star_distance(p, TransportPlan(bumped)) > 0

    @given(k1=st.integers(2, 6), k2=st.integers(2, 6))
    @settings(max_examples=20, deadline=None)
    def test_shift_distance_shrinks_with_resolution(self, k1, k2):
        lo, hi = sorted((k1, k2))
        if lo == hi:
            return
        d_lo = weak_star_distance(diagonal_plan(2**lo), shift_subplan(2**lo))
        d_hi = weak_star_distance(diagonal_plan(2**hi), shift_subplan(2**hi))
        assert d_hi <= d_lo


class TestLiminfHarness:
    def test_shift_sequence_on_finite_variant(self):
        seq = [shift_subplan(2**k) for k in range(2, 9)]
        rep = liminf_harness(diag_M(2.0), seq, diagonal_plan(256), horizon=10)
        assert rep.status == "converged"
        assert all(c == 0.0 for c in rep.cr_costs)
        assert rep.cr_cost_limit == 0.0
        assert rep.cr_inequality_holds
        # the plain cost fails the same inequality by a full unit
        assert all(c == 0.0 for c in rep.c_costs)
        assert rep.c_cost_limit == 1.0
        assert rep.c_gap >= 0.99

    def test_constant_sequence_is_equality(self):
        seq = [diagonal_plan(16)] * 4
        rep = liminf_harness(diag_M(2.0), seq, diagonal_plan(16), horizon=4)
        assert rep.status == "converged"
        assert rep.cr_cost_limit <= rep.cr_liminf_proxy + 1e-6
        assert rep.c_cost_limit == pytest.approx(rep.c_liminf_proxy)

    def test_non_convergent_sequence_is_inconclusive(self):
        seq = [antidiagonal_plan(16)] * 6
        rep = liminf_harness(diag_M(2.0), seq, diagonal_plan(16), horizon=6)
        assert rep.status == "inconclusive"

    @pytest.mark.parametrize("horizon", [0, -3])
    def test_rejects_horizon_below_one(self, horizon):
        with pytest.raises(ConfigurationError, match="horizon"):
            liminf_harness(diag_inf(), [diagonal_plan(16)], diagonal_plan(16), horizon)

    def test_rejects_a_plan_its_grid_cost_does_not_fit(self):
        # costs are taken at a plan's row count: a 4 x 8 plan meets a 4 x 4 cost
        with pytest.raises(ConfigurationError, match="shape mismatch"):
            liminf_harness(diag_inf(), [np.ones((4, 8)) / 32], diagonal_plan(4), 1)

    def test_optimizer_sequence_costs_vanish(self):
        # LP optimizers of the finite variant are the cyclic shifts; their
        # costs M/n vanish while the limit plan still pays the diagonal
        seq = [cyclic_shift_plan(2**k) for k in range(2, 9)]
        rep = liminf_harness(diag_M(2.0), seq, diagonal_plan(256), horizon=10)
        assert rep.c_costs == tuple(2.0 / 2**k for k in range(2, 9))
        assert rep.c_cost_limit == 1.0
        assert rep.c_gap >= 0.99
