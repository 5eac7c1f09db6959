"""Envelope oracle vs generative accumulation, reweighted duals, box pairs."""

import numpy as np
import pytest

from gaplab import (
    INF,
    DiscreteMeasure,
    box_infimum_pairs,
    diag_inf,
    discretize,
    envelope_matrix,
    generative_rectify,
    pointwise_dual_envelope,
    reweighted_dual_optimizer,
    sample_reweight_pair,
    truncate_cost,
)
from gaplab.catalog import (
    diag_M,
    fat_set,
    get_instance,
    random_finite,
    rational_nullmod,
    trivial_zero,
)
from gaplab.rectify import (
    ARCS_PER_LP,
    PAIR_TOL,
    _DEVEX,
    FeasiblePair,
    RectifiedAccumulator,
    ReweightPair,
    _batched_reweighted_duals,
    dyadic_index_ranges,
    truncation_ladder,
)
from gaplab.solver import InputError, solve_primal

from _oracles import brute_force_primal, envelope_lp


def uniform(n):
    return DiscreteMeasure(np.full(n, 1.0 / n))


def assert_matches_envelope_lp(C, E, tol=1e-7):
    """E agrees with the per-entry LP oracle: both +inf, or within tol
    relative to the entry's size."""
    for (i, j), e in np.ndenumerate(E):
        ref = envelope_lp(C, i, j)
        if np.isinf(ref):
            assert e == INF, (i, j, e)
        else:
            assert abs(e - ref) <= tol * max(1.0, abs(ref)), (i, j, e, ref)


def cost_classes(C):
    """Class index of every row and of every column of C: twins (equal
    entry by entry) share one."""
    def classes(lines):
        first = {}
        return np.array([first.setdefault(tuple(line), len(first)) for line in lines])

    return classes(C), classes(C.T)


def class_lp_shape(C, marginals):
    """(rows, columns) of the class-level transport LP over the blocks that
    have two or more classes on both sides of their support: one row per
    class and one column per support arc of the class-level blocks."""
    rcls, ccls = cost_classes(C)
    r, c = rcls.max() + 1, ccls.max() + 1
    rows = cols = 0
    for a, b in marginals:
        s, t = len(set(rcls[a > 0])), len(set(ccls[b > 0]))
        if s > 1 and t > 1:
            rows += r + c
            cols += s * t
    return rows, cols


class TestPointwiseEnvelope:
    def test_corner_entry_reaches_above_neighbours(self):
        C = np.array([[0.0, 0.0], [0.0, 1.0]])
        assert pointwise_dual_envelope(C, uniform(2), uniform(2), 1, 1) == 1.0

    def test_disconnected_forbidden_pattern_is_unbounded(self):
        C = np.array([[INF, 0.0], [0.0, INF]])
        assert pointwise_dual_envelope(C, uniform(2), uniform(2), 0, 0) == INF

    def test_equals_cost_on_finite_instances(self):
        # every function on a finite full-support grid is already "closed":
        # the envelope reproduces the cost entry by entry
        for seed in (1, 2, 3):
            inst = random_finite(seed, 6)
            C, mu, nu = discretize(inst, 6)
            E = envelope_matrix(C, mu, nu)
            assert np.abs(E - C).max() <= 1e-7
            assert_matches_envelope_lp(C, E)

    def test_diagonal_instance_envelope(self):
        C, mu, nu = discretize(diag_inf(), 4)
        E = envelope_matrix(C, mu, nu)
        fin = np.isfinite(C)
        assert np.abs(E[fin] - C[fin]).max() <= 1e-7
        assert np.all(np.isinf(E[~fin]))
        assert_matches_envelope_lp(C, E)

    @pytest.mark.parametrize(
        "C",
        [
            np.full((3, 3), INF),
            np.array([[INF, INF, INF], [0.0, 1.0, 2.0], [3.0, INF, 0.5]]),
            np.array([[0.7]]),
            np.array([[INF]]),
            np.arange(15.0).reshape(3, 5) % 4 - 1.5,
            np.array([[-3.0, -1.0], [-2.0, INF]]),
            np.array([[1e12, 0.0, 1e12], [0.0, 1e12, 0.0], [1e12, 0.0, 1e12]]),
        ],
        ids=["all_inf", "inf_row", "n1", "n1_inf", "3x5", "negative", "M1e12"],
    )
    def test_closed_form_edge_cases(self, C):
        n, m = C.shape
        mu, nu = uniform(n), uniform(m)
        E = envelope_matrix(C, mu, nu)
        assert E.shape == C.shape
        assert np.array_equal(E, np.where(np.isfinite(C), C, INF))
        for (i, j), e in np.ndenumerate(E):
            assert pointwise_dual_envelope(C, mu, nu, i, j) == e
        assert_matches_envelope_lp(C, E)

    def test_requires_full_support(self):
        bad = DiscreteMeasure(np.array([1.0, 0.0]))
        C = np.zeros((2, 2))
        with pytest.raises(InputError):
            pointwise_dual_envelope(C, bad, uniform(2), 0, 0)
        with pytest.raises(InputError):
            pointwise_dual_envelope(C, uniform(2), bad, 1, 1)
        with pytest.raises(InputError):
            envelope_matrix(C, bad, uniform(2))
        with pytest.raises(InputError):
            envelope_matrix(C, uniform(2), bad)

    def test_invariant_under_full_support_reweighting(self):
        # the rectification depends on the marginals only through their null
        # sets; with full support there are none, so any reweighting ties
        C, mu, nu = discretize(random_finite(11, 4), 4)
        E1 = envelope_matrix(C, mu, nu)
        mu2 = mu.reweighted(np.array([0.4, 0.1, 0.3, 0.2]) * 4)
        nu2 = nu.reweighted(np.array([0.25, 0.25, 0.1, 0.4]) * 4)
        E2 = envelope_matrix(C, DiscreteMeasure(mu2.weights), DiscreteMeasure(nu2.weights))
        assert np.abs(E1 - E2).max() <= 1e-7

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_dominates_every_feasible_pair(self, seed):
        # 100 random feasible pairs per instance: start phi anywhere, tighten
        # psi to the largest feasible value; none may poke above the envelope
        rng = np.random.default_rng(seed)
        C = rng.uniform(0, 2, (3, 3))
        mu = nu = uniform(3)
        E = envelope_matrix(C, mu, nu)
        for _ in range(100):
            phi = rng.uniform(-2, 2, 3)
            psi = (C - phi[:, None]).min(axis=0)
            assert np.all(phi[:, None] + psi[None, :] <= E + 1e-9)


class TestReweightPairs:
    def test_all_ones_balanced_for_probability_marginals(self):
        mu = nu = uniform(4)
        pair = ReweightPair(np.ones(4), np.ones(4))
        assert pair.balance_error(mu, nu) <= 1e-10

    def test_scaling_restores_balance(self):
        mu = nu = uniform(2)
        f = np.array([1.0, 0.0])  # integral 1/2
        g = np.array([1.0, 1.0])  # integral 1
        If, Ig = f @ mu.weights, g @ nu.weights
        scaled = ReweightPair(f, g * (If / Ig))
        assert scaled.balance_error(mu, nu) <= 1e-10

    def test_sampled_pairs_respect_balance(self):
        mu = nu = uniform(6)
        for seed in range(10):
            pair = sample_reweight_pair(mu, nu, seed)
            assert pair.balance_error(mu, nu) <= 1e-10
            assert np.all(pair.f >= 0) and np.all(pair.f <= 1)
            assert np.all(pair.g >= 0) and np.all(pair.g <= 1)

    def test_deterministic_per_seed(self):
        mu = nu = uniform(5)
        p1 = sample_reweight_pair(mu, nu, 123)
        p2 = sample_reweight_pair(mu, nu, 123)
        assert np.array_equal(p1.f, p2.f) and np.array_equal(p1.g, p2.g)


class TestReweightedDual:
    def test_constant_cost_full_weights(self):
        C, mu, nu = discretize(rational_nullmod(), 4)
        fp = reweighted_dual_optimizer(C, mu, nu, ReweightPair(np.ones(4), np.ones(4)))
        assert fp.objective == pytest.approx(1.0, abs=1e-9)
        assert fp.feasibility_slack(C) <= 1e-9

    def test_zero_weights_give_zero_pair(self):
        C, mu, nu = discretize(trivial_zero(), 4)
        fp = reweighted_dual_optimizer(C, mu, nu, ReweightPair(np.zeros(4), np.zeros(4)))
        assert np.all(fp.phi == 0) and np.all(fp.psi == 0)

    def test_truncated_diagonal_recovers_finite_variant_value(self):
        C, mu, nu = discretize(diag_inf(), 4)
        fp = reweighted_dual_optimizer(
            truncate_cost(C, 2), mu, nu, ReweightPair(np.ones(4), np.ones(4))
        )
        assert fp.objective == pytest.approx(0.5, abs=1e-9)

    def test_rejects_unbounded_cost(self):
        from gaplab.solver import InputError

        C, mu, nu = discretize(diag_inf(), 4)
        with pytest.raises(InputError):
            reweighted_dual_optimizer(C, mu, nu, ReweightPair(np.ones(4), np.ones(4)))


class TestBatchedReweightedDuals:
    """Each block of the batched dual LP against one solve per problem."""

    @staticmethod
    def _marginals(n, count, seed):
        mu = uniform(n)
        rng = np.random.default_rng(seed)
        out = []
        for t in range(count):
            if t % 3 == 0 and n > 1:
                # step profiles: zero-weight atoms on both sides
                f = np.zeros(n)
                f[: max(1, n // 2)] = 1.0
                g = np.zeros(n)
                g[n // 2 :] = 1.0
                a, b = f * mu.weights, g * mu.weights
                b = b * (a.sum() / b.sum())
            else:
                rw = sample_reweight_pair(mu, mu, rng)
                a, b = rw.f * mu.weights, rw.g * mu.weights
            out.append((a, b))
        return out

    @pytest.mark.parametrize(
        "n, count",
        # n=32 fits ARCS_PER_LP // 1024 = 8 blocks per LP: 11 is not a multiple
        [(1, 5), (2, 7), (3, 9), (6, 12), (32, 11)],
    )
    def test_blocks_feasible_and_optimal(self, n, count):
        if n == 32:
            assert count % (ARCS_PER_LP // (n * n)) != 0
        rng = np.random.default_rng(100 + n)
        C = rng.uniform(-1.0, 3.0, (n, n))
        marginals = self._marginals(n, count, seed=n)
        solved = _batched_reweighted_duals(C, marginals)
        assert len(solved) == count
        for (a, b), (phi, psi, obj) in zip(marginals, solved):
            assert phi.shape == (n,) and psi.shape == (n,)
            assert (phi[:, None] + psi[None, :] - C).max() <= PAIR_TOL
            ref = solve_primal(C, DiscreteMeasure(a), DiscreteMeasure(b)).value
            assert abs(obj - ref) <= 1e-9
            if n <= 3:
                assert abs(obj - brute_force_primal(C, a, b)[0]) <= 1e-9

    def test_batch_split_across_lps_matches_single_solves(self):
        # more blocks than one LP holds, with a remainder in the last LP
        n = 6
        per_lp = ARCS_PER_LP // (n * n)
        count = per_lp + 5
        C = truncate_cost(discretize(diag_inf(), n)[0], 2)
        marginals = self._marginals(n, count, seed=7)
        solved = _batched_reweighted_duals(C, marginals)
        assert len(solved) == count
        for (a, b), (phi, psi, obj) in zip(marginals[per_lp - 3 :], solved[per_lp - 3 :]):
            assert (phi[:, None] + psi[None, :] - C).max() <= PAIR_TOL
            ref = solve_primal(C, DiscreteMeasure(a), DiscreteMeasure(b)).value
            assert abs(obj - ref) <= 1e-9

    # support patterns (S, T) of one block: a one-atom S or T, one side
    # full and the other partial, both partial, full support
    @staticmethod
    def _supports(n, m):
        pats = [
            ([n - 1], range(m)),
            (range(n), [0]),
            ([0], [m - 1]),
            (range(n), range(0, m, 2)),
            (range(1, n, 2) or [0], range(m)),
            (range(0, n, 2), range(m - 1, -1, -2)),
            (range(n), range(m)),
        ]
        return [(list(S), list(T)) for S, T in pats]

    @staticmethod
    def _weights(n, m, S, T, rng):
        a = np.zeros(n)
        b = np.zeros(m)
        a[S] = rng.uniform(0.2, 1.0, len(S))
        b[T] = rng.uniform(0.2, 1.0, len(T))
        return a / a.sum(), b / b.sum()

    @staticmethod
    def _cost(kind, n, m):
        if kind == "random":
            return np.random.default_rng(10 * n + m).uniform(-1.0, 3.0, (n, m))
        # exact zeros, ties and a truncated +inf region
        return truncate_cost(discretize(get_instance(kind), n)[0], 1)

    @pytest.mark.parametrize(
        "kind, n, m",
        [
            ("random", 1, 1),
            ("random", 2, 3),
            ("random", 3, 3),
            ("random", 6, 5),
            ("random", 8, 8),
            ("diag_inf", 8, 8),
            ("fat_set", 16, 16),
        ],
    )
    def test_support_rows_exact_optimal_and_tight(self, kind, n, m, monkeypatch):
        import gaplab.rectify

        C = self._cost(kind, n, m)
        rng = np.random.default_rng(n + m)
        supports = self._supports(n, m)
        marginals = [self._weights(n, m, S, T, rng) for S, T in supports]
        shapes = []
        real = gaplab.rectify.linprog

        def spy(*args, **kwargs):
            shapes.append(kwargs["A_eq"].shape)
            return real(*args, **kwargs)

        monkeypatch.setattr(gaplab.rectify, "linprog", spy)
        solved = _batched_reweighted_duals(C, marginals)
        # one LP for the blocks with two or more classes on both sides, on
        # their class-level support arcs
        lp_shape = class_lp_shape(C, marginals)
        assert shapes == ([lp_shape] if lp_shape[1] else [])
        if kind == "fat_set":
            assert shapes == []
        for (S, T), (a, b), (phi, psi, obj) in zip(supports, marginals, solved):
            # feasible in floating point, with no tolerance
            assert (phi[:, None] + psi[None, :] - C).max() <= 0.0
            assert abs(obj - (phi @ a + psi @ b)) <= 1e-12
            ref = solve_primal(C, DiscreteMeasure(a), DiscreteMeasure(b)).value
            assert abs(obj - ref) <= 1e-9
            if n <= 3 and m <= 3:
                assert abs(obj - brute_force_primal(C, a, b)[0]) <= 1e-9
            # the zero-weight atoms carry the c-transforms, psi off T against
            # the rows in S first, then phi off S against every column
            top = max(np.abs(C).max(), np.abs(phi).max(), np.abs(psi).max())
            ulps = 4 * np.spacing(top)
            offT = np.setdiff1d(np.arange(m), T)
            offS = np.setdiff1d(np.arange(n), S)
            psi_ct = (C[S][:, offT] - phi[S][:, None]).min(axis=0)
            phi_ct = (C[offS] - psi[None, :]).min(axis=1)
            assert np.all(np.abs(psi[offT] - psi_ct) <= ulps)
            assert np.all(np.abs(phi[offS] - phi_ct) <= ulps)

    def _split_across_lps(self, inst, monkeypatch):
        """Solve 2 * per_lp + 3 blocks at n = 32 and check each block; returns
        the (rows, columns) of every LP and the expected ones."""
        import gaplab.rectify

        n = 32
        per_lp = ARCS_PER_LP // (n * n)
        C = truncate_cost(discretize(inst, n)[0], 2)
        marginals = self._marginals(n, 2 * per_lp + 3, seed=3)
        shapes = []
        real = gaplab.rectify.linprog

        def spy(*args, **kwargs):
            shapes.append(kwargs["A_eq"].shape)
            return real(*args, **kwargs)

        monkeypatch.setattr(gaplab.rectify, "linprog", spy)
        solved = _batched_reweighted_duals(C, marginals)
        assert len(solved) == len(marginals)
        for (a, b), (phi, psi, obj) in zip(marginals, solved):
            assert (phi[:, None] + psi[None, :] - C).max() <= 0.0
            ref = solve_primal(C, DiscreteMeasure(a), DiscreteMeasure(b)).value
            assert abs(obj - ref) <= 1e-9
        # chunks of per_lp blocks, as at the atom level; a chunk whose
        # blocks are all one-class needs no LP
        chunks = [marginals[s : s + per_lp] for s in range(0, len(marginals), per_lp)]
        expected = [class_lp_shape(C, chunk) for chunk in chunks]
        return shapes, [shape for shape in expected if shape[1]]

    def test_rows_span_only_support_arcs_across_lps(self, monkeypatch):
        # the cost depends on x only: one column class, so no block needs an LP
        shapes, expected = self._split_across_lps(fat_set(), monkeypatch)
        assert shapes == expected == []

    def test_class_rows_across_lps(self, monkeypatch):
        # an 8 x 8 cell table at n = 32: eight twin rows and columns a class
        shapes, expected = self._split_across_lps(random_finite(4, 8), monkeypatch)
        assert shapes == expected and len(shapes) == 3
        assert all(rows % (8 + 8) == 0 for rows, _ in shapes)

    def test_empty_batch(self):
        assert _batched_reweighted_duals(np.zeros((3, 3)), []) == []


class TestCostClassReductions:
    """The batched transport LP runs on classes of twin rows and columns and
    skips the blocks with one class on a side; every block must still be
    optimal and exactly feasible."""

    @staticmethod
    def _cost(kind, n):
        if kind == "copied":
            # negative entries, twin rows and a twin column
            C = np.random.default_rng(n).uniform(-2.0, 1.0, (n, n))
            C[n - 1] = C[0]
            if n > 3:
                C[n - 3] = C[1]
            C[:, n - 1] = C[:, 1]
            return C
        inst = random_finite(3, 8) if kind == "random_finite8" else get_instance(kind)
        return discretize(inst, n)[0]

    @staticmethod
    def _class_supports(C):
        """Supports (S, T) that single out the reductions: one row class, one
        column class, and a supported class with a zero-weight twin."""
        rcls, ccls = cost_classes(C)
        n, m = C.shape
        every_row, every_col = list(range(n)), list(range(m))
        one_row = list(np.flatnonzero(rcls == rcls[0]))
        one_col = list(np.flatnonzero(ccls == ccls[m - 1]))
        def part(cls):
            # the largest class less its last twin, and one other atom
            big = np.bincount(cls).argmax()
            twins, others = np.flatnonzero(cls == big), np.flatnonzero(cls != big)
            return list(twins[:-1]) + list(others[:1])

        part_r, part_c = part(rcls), part(ccls)
        return [
            (one_row, every_col),
            (one_row[:1], every_col[::2]),
            (every_row, one_col),
            (every_row[1::2] or [0], one_col[-1:]),
            (part_r or [0], every_col),
            (every_row, part_c or [0]),
            (part_r or [0], part_c or [0]),
        ]

    @pytest.mark.parametrize(
        "kind, n",
        [
            ("rational_nullmod", 16),
            ("trivial_zero", 16),
            ("fat_set", 16),
            ("fat_set", 32),
            ("random_finite8", 32),
            ("copied", 3),
            ("copied", 7),
        ],
    )
    def test_blocks_optimal_and_exactly_feasible(self, kind, n):
        C = self._cost(kind, n)
        assert np.all(np.isfinite(C))
        rng = np.random.default_rng(n)
        marginals = [
            TestBatchedReweightedDuals._weights(n, n, S, T, rng)
            for S, T in self._class_supports(C)
        ]
        marginals += TestBatchedReweightedDuals._marginals(n, 6, seed=n)
        solved = _batched_reweighted_duals(C, marginals)
        assert len(solved) == len(marginals)
        rcls, ccls = cost_classes(C)
        for (a, b), (phi, psi, obj) in zip(marginals, solved):
            assert (phi[:, None] + psi[None, :] - C).max() <= 0.0
            assert abs(obj - (phi @ a + psi @ b)) <= 1e-12
            ref = solve_primal(C, DiscreteMeasure(a), DiscreteMeasure(b)).value
            assert abs(obj - ref) <= 1e-9
            if n <= 3:
                assert abs(obj - brute_force_primal(C, a, b)[0]) <= 1e-9
            # twins of positive weight carry their class's potential
            for i in np.flatnonzero(a > 0):
                assert np.all(phi[(rcls == rcls[i]) & (a > 0)] == phi[i])
            for j in np.flatnonzero(b > 0):
                assert np.all(psi[(ccls == ccls[j]) & (b > 0)] == psi[j])

    @pytest.mark.parametrize("side", ["row", "column"])
    def test_one_class_block_needs_no_lp(self, side, monkeypatch):
        import gaplab.rectify

        def no_lp(*args, **kwargs):
            raise AssertionError("a one-class block reached linprog")

        monkeypatch.setattr(gaplab.rectify, "linprog", no_lp)
        n = 7
        C = self._cost("copied", n)
        a, b = np.zeros(n), np.zeros(n)
        if side == "row":
            a[[0, n - 1]] = [0.25, 0.75]  # twin rows: one row class
            b[:] = np.arange(1.0, n + 1) / np.arange(1.0, n + 1).sum()
            forced = b @ C[0]
        else:
            a[:] = np.arange(1.0, n + 1) / np.arange(1.0, n + 1).sum()
            b[[1, n - 1]] = [0.5, 0.5]  # twin columns: one column class
            forced = a @ C[:, 1]
        ((phi, psi, obj),) = _batched_reweighted_duals(C, [(a, b)])
        assert (phi[:, None] + psi[None, :] - C).max() <= 0.0
        assert abs(obj - forced) <= 1e-12
        ref = solve_primal(C, DiscreteMeasure(a), DiscreteMeasure(b)).value
        assert abs(obj - ref) <= 1e-9

    @pytest.mark.parametrize("level", [2**46, 2**70, 2**1000], ids=["2^46", "2^70", "2^1000"])
    def test_huge_cost_levels_stay_solvable(self, level):
        # bounds of this size broke HiGHS's optimality check, and rows of
        # 1e20 or more read as infinite made the LP unbounded
        C = truncate_cost(discretize(diag_M(1e300), 3)[0], level)
        marginals = TestBatchedReweightedDuals._marginals(3, 9, seed=5)
        for (a, b), (phi, psi, obj) in zip(marginals, _batched_reweighted_duals(C, marginals)):
            assert (phi[:, None] + psi[None, :] - C).max() <= 0.0
            assert abs(obj - brute_force_primal(C, a, b)[0]) <= 1e-9 * level

    @pytest.mark.parametrize("M", [1e15, 1e30])
    def test_huge_costs_along_the_ladder(self, M):
        acc = generative_rectify(diag_M(M), 4, budget=100, rng_seed=0)
        slacks = [s for prov, _, s in acc.log if prov.startswith("reweighted_dual")]
        assert len(slacks) == 100 and max(slacks) <= 0.0
        assert np.all(acc.lower_envelope <= acc.C)

    def test_class_lp_is_scaled_devex_without_presolve(self, monkeypatch):
        import gaplab.rectify

        calls = []
        real = gaplab.rectify.linprog

        def spy(*args, **kwargs):
            calls.append((args, kwargs))
            return real(*args, **kwargs)

        monkeypatch.setattr(gaplab.rectify, "linprog", spy)
        n = 7
        C = self._cost("copied", n)
        marginals = TestBatchedReweightedDuals._marginals(n, 5, seed=1)
        solved = _batched_reweighted_duals(C, marginals)
        (((cost,), kwargs),) = calls
        assert kwargs["options"]["presolve"] is False
        assert kwargs["options"]["simplex_dual_edge_weight_strategy"] == _DEVEX
        # no bounds but the default x >= 0: nothing is boxed
        assert "bounds" not in kwargs and "A_ub" not in kwargs
        rcls, ccls = cost_classes(C)
        r, c = rcls.max() + 1, ccls.max() + 1
        assert (r, c) == (n - 2, n - 1)
        # posed at the power of two that brings max |C| into [1/2, 1)
        scale = 2.0 ** -np.frexp(np.abs(C).max())[1]
        assert 0.5 <= np.abs(cost).max() < 1.0
        assert np.all(np.isin(cost, C * scale))
        # one equality row per class, the class masses on the right-hand
        # side (the classes in some order: sorted, each side matches)
        masses = [
            (np.bincount(rcls, a, r), np.bincount(ccls, b, c))
            for a, b in marginals
            if len(set(rcls[a > 0])) > 1 and len(set(ccls[b > 0])) > 1
        ]
        b_eq = kwargs["b_eq"].reshape(len(masses), r + c)
        for row, (A, B) in zip(b_eq, masses):
            assert np.allclose(np.sort(row[:r]), np.sort(A), rtol=0.0, atol=1e-15)
            assert np.allclose(np.sort(row[r:]), np.sort(B), rtol=0.0, atol=1e-15)
        assert kwargs["A_eq"].shape == (len(masses) * (r + c), cost.size)
        for (a, b), (phi, psi, obj) in zip(marginals, solved):
            ref = solve_primal(C, DiscreteMeasure(a), DiscreteMeasure(b)).value
            assert abs(obj - ref) <= 1e-9


class TestBoxPairs:
    def test_constant_cost_whole_grid_box(self):
        C = np.full((3, 3), 5.0)
        pairs = box_infimum_pairs(C, boxes=[((0, 3), (0, 3))])
        assert len(pairs) == 1
        assert np.allclose(pairs[0].tensor(), 5.0)

    def test_box_containing_zero_entries(self):
        C, _, _ = discretize(diag_inf(), 4)
        pairs = box_infimum_pairs(C, boxes=[((1, 4), (0, 3))])
        t = pairs[0].tensor()
        assert t[1:4, 0:3].max() == pytest.approx(0.0)

    def test_singleton_box_reaches_the_entry(self):
        C, _, _ = discretize(diag_inf(), 4)
        pairs = box_infimum_pairs(C, boxes=[((3, 4), (3, 4))])
        assert pairs[0].tensor()[3, 3] == pytest.approx(1.0)

    def test_every_pair_feasible(self):
        C, _, _ = discretize(diag_inf(), 4)
        for pair in box_infimum_pairs(C):
            assert pair.feasibility_slack(C) <= 1e-9

    def test_dyadic_ranges_cover_singletons(self):
        ranges = dyadic_index_ranges(6)
        assert (0, 6) in ranges
        assert all((i, i + 1) in ranges for i in range(6))


class TestAddPairs:
    """One add_pairs call against one add_pair call per pair."""

    @staticmethod
    def _pairs(C):
        """Signed-zero pairs, the dyadic box pairs and reweighted optimizers
        of C, interleaved so that ties fall on either side of a chunk."""
        n, m = C.shape
        zero = [
            FeasiblePair(np.zeros(n), np.zeros(m), "zero_pair"),
            FeasiblePair(np.full(n, -0.0), np.full(m, -0.0), "user"),
        ]
        marginals = TestBatchedReweightedDuals._marginals(n, 9, seed=n)
        solved = [
            FeasiblePair(phi, psi, "reweighted_dual(level=2)", obj)
            for phi, psi, obj in _batched_reweighted_duals(truncate_cost(C, 2), marginals)
        ]
        boxes = box_infimum_pairs(C)
        # the last -0.0 pair ties a 0.0 already in the envelope
        return zero + boxes[::2] + solved + zero + boxes[1::2] + zero[1:]

    @staticmethod
    def _state(acc):
        return (
            acc.lower_envelope.tobytes(),
            acc.log,
            list(acc.provenance_counts.items()),
            acc.pair_count,
        )

    @staticmethod
    def _fold(C, pairs):
        """The state after the pairs, one at a time, written out: a running
        np.maximum with -0.0 turned to 0.0, and one log row per pair."""
        env = np.full(C.shape, -INF)
        counts = {}
        for pair in pairs:
            env = np.maximum(env, pair.tensor()) + 0.0
            key = pair.provenance.split("(")[0]
            counts[key] = counts.get(key, 0) + 1
        log = [(p.provenance, float(p.objective), p.feasibility_slack(C)) for p in pairs]
        return env.tobytes(), log, list(counts.items()), len(pairs)

    @pytest.mark.parametrize(
        "name, n, per_chunk",
        [("diag_inf", 32, None), ("diag_inf", 4, 3), ("fat_set", 8, 7), ("trivial_zero", 5, 1)],
    )
    def test_batch_equals_one_add_per_pair(self, name, n, per_chunk, monkeypatch):
        import gaplab.rectify

        C = discretize(get_instance(name), n)[0]
        if per_chunk is not None:
            monkeypatch.setattr(gaplab.rectify, "ENTRIES_PER_BATCH", per_chunk * C.size)
        pairs = self._pairs(C)
        # the default chunk of 2^15 entries holds 32 pairs at n = 32
        assert len(pairs) > 2 * max(1, gaplab.rectify.ENTRIES_PER_BATCH // C.size)
        one, batch = RectifiedAccumulator(C), RectifiedAccumulator(C)
        for pair in pairs:
            one.add_pair(pair)
        batch.add_pairs(pairs)
        assert self._state(batch) == self._state(one) == self._fold(C, pairs)
        assert not np.signbit(batch.lower_envelope[batch.lower_envelope == 0]).any()

    @pytest.mark.parametrize("bad", ["nan", "infeasible", "nan_on_forbidden"])
    def test_bad_pair_inside_a_batch(self, bad, monkeypatch):
        import gaplab.rectify

        C = np.array([[INF, INF, INF], [0.0, 1.0, 2.0], [1.0, 0.0, 1.0]])
        monkeypatch.setattr(gaplab.rectify, "ENTRIES_PER_BATCH", 3 * C.size)
        pairs = box_infimum_pairs(C)
        phi, psi = np.full(3, -5.0), np.zeros(3)
        if bad == "nan":
            phi[1] = np.nan
        elif bad == "infeasible":
            phi[2] = 1.0 + 2 * PAIR_TOL
        else:
            phi[0] = np.nan  # row 0 is forbidden: the slack cannot see it
        at = 4  # the second pair of the second chunk
        batch = pairs[:at] + [FeasiblePair(phi, psi, "user")] + pairs[at:]
        acc, ref = RectifiedAccumulator(C), RectifiedAccumulator(C)
        with pytest.raises(InputError):
            acc.add_pairs(batch)
        for pair in pairs[:at]:
            ref.add_pair(pair)
        # the pairs before the bad one are in, the rest are not
        assert TestAddPairs._state(acc) == TestAddPairs._state(ref)
        assert acc.pair_count == at and not np.isnan(acc.lower_envelope).any()

    def test_empty_batch(self):
        acc = RectifiedAccumulator(np.zeros((2, 2)))
        acc.add_pairs([])
        assert acc.pair_count == 0 and np.all(acc.lower_envelope == -INF)


class TestGenerativeRectify:
    def test_zero_pair_floor(self):
        acc = generative_rectify(trivial_zero(), 4, budget=0, rng_seed=0)
        assert np.all(acc.lower_envelope >= 0.0)

    def test_constant_one_cost_saturates(self):
        acc = generative_rectify(rational_nullmod(), 4, budget=10, rng_seed=0)
        assert acc.sup_gap_finite() <= 1e-6

    def test_diagonal_budget_200(self):
        acc = generative_rectify(diag_inf(), 4, budget=200, rng_seed=42)
        C, mu, nu = discretize(diag_inf(), 4)
        fin = np.isfinite(C)
        assert acc.sup_gap_finite() <= 1e-6
        # forbidden entries end strictly above every finite cost value
        assert acc.lower_envelope[~fin].min() >= 2.0 - 1e-9

    def test_generative_never_exceeds_envelope_oracle(self):
        # minimality at every budget: the generative sup approaches the
        # entrywise envelope strictly from below
        inst = random_finite(5, 4)
        C, mu, nu = discretize(inst, 4)
        E = envelope_matrix(C, mu, nu)
        for budget in (0, 10, 50):
            acc = generative_rectify(inst, 4, budget=budget, rng_seed=5)
            assert np.all(acc.lower_envelope <= E + 1e-7)

    @pytest.mark.parametrize("seed", [3, 7])
    def test_generative_envelope_never_exceeds_cost(self, seed):
        # at these seeds HiGHS's dual vertex sat one ulp above zero-cost arcs
        acc = generative_rectify(fat_set(), 32, 200, seed)
        finite = np.isfinite(acc.C)
        assert np.all(acc.lower_envelope[finite] <= acc.C[finite])
        slacks = [s for prov, _, s in acc.log if prov.startswith("reweighted_dual")]
        assert len(slacks) == 200 and max(slacks) <= 0.0

    def test_monotone_in_accumulation(self):
        C, mu, nu = discretize(diag_M(2.0), 4)
        acc = RectifiedAccumulator(C)
        snapshots = []
        acc.add_pair(FeasiblePair(np.zeros(4), np.zeros(4), "zero_pair"))
        snapshots.append(acc.lower_envelope.copy())
        for pair in box_infimum_pairs(C)[:10]:
            acc.add_pair(pair)
            snapshots.append(acc.lower_envelope.copy())
        for before, after in zip(snapshots, snapshots[1:]):
            assert np.all(after >= before - 1e-15)

    def test_envelope_holds_no_negative_zero(self):
        acc = RectifiedAccumulator(np.zeros((2, 2)))
        acc.add_pair(FeasiblePair(np.zeros(2), np.zeros(2), "zero_pair"))
        acc.add_pair(FeasiblePair(np.full(2, -0.0), np.full(2, -0.0), "user"))
        assert np.all(acc.lower_envelope == 0.0)
        assert not np.signbit(acc.lower_envelope).any()

    def test_truncation_ladder_near_the_float_limit(self):
        def old_ladder(top):
            # the former loop, sound while 2 * top stays finite
            levels, k = [1], 1
            while 2**k <= max(2.0 * top, 1.0):
                levels.append(2**k)
                k += 1
            return levels

        below = float(np.nextafter(2.0**1023, 0.0))
        for top in (-1.0, 0.0, 0.3, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 1e300, below):
            assert truncation_ladder(np.array([[top, INF]])) == old_ladder(top)
        for top in (2.0**1023, 1e308, np.finfo(float).max):
            levels = truncation_ladder(np.array([[top]]))
            assert levels == [2**k for k in range(1024)]
            assert all(np.isfinite(float(level)) for level in levels)

    def test_infeasible_pair_rejected(self):
        acc = RectifiedAccumulator(np.zeros((2, 2)))
        with pytest.raises(InputError):
            acc.add_pair(FeasiblePair(np.ones(2), np.ones(2), "user"))

    @pytest.mark.parametrize(
        "C", [np.zeros((2, 2)), np.array([[INF, INF], [0.0, 0.0]])], ids=["finite", "inf_row"]
    )
    def test_nan_pair_rejected(self, C):
        acc = RectifiedAccumulator(C)
        acc.add_pair(FeasiblePair(np.zeros(2), np.zeros(2), "zero_pair"))
        with pytest.raises(InputError):
            acc.add_pair(FeasiblePair(np.array([np.nan, 0.0]), np.zeros(2), "user"))
        assert not np.isnan(acc.lower_envelope).any()
        assert acc.pair_count == 1
        assert acc.sup_gap_finite() == 0.0

    def test_provenance_log_lines(self):
        acc = generative_rectify(trivial_zero(), 2, budget=3, rng_seed=1)
        kinds = {prov.split("(")[0] for prov, _, _ in acc.log}
        assert kinds == {"zero_pair", "box_infimum", "reweighted_dual"}
        assert acc.pair_count == len(acc.log)
