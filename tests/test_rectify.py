"""Envelope oracle vs generative accumulation, box pairs."""

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
    max_finite_entry,
    pointwise_dual_envelope,
)
from gaplab.catalog import (
    catalog_names,
    diag_M,
    fat_set,
    get_instance,
    random_finite,
    rational_nullmod,
    trivial_zero,
)
from gaplab.rectify import (
    PAIR_TOL,
    FeasiblePair,
    RectifiedAccumulator,
    dyadic_index_ranges,
)
from gaplab.solver import InputError

from _oracles import envelope_lp


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
        """Signed-zero pairs, the dyadic box pairs and c-transform pairs of C
        (random phi, psi its c-transform over the finite entries),
        interleaved so that ties fall on either side of a chunk."""
        n, m = C.shape
        zero = [
            FeasiblePair(np.zeros(n), np.zeros(m), "zero_pair"),
            FeasiblePair(np.full(n, -0.0), np.full(m, -0.0), "user"),
        ]
        rng = np.random.default_rng(n)
        transforms = []
        for t in range(9):
            # integer phi ties the min; a column with no finite entry is free
            if t % 3 == 0:
                phi = rng.integers(-2, 3, n).astype(float)
            else:
                phi = rng.uniform(-1.0, 1.0, n)
            psi = np.where(np.isfinite(C), C - phi[:, None], INF).min(axis=0)
            psi[np.isinf(psi)] = 0.0
            transforms.append(FeasiblePair(phi, psi, "c_transform", phi.sum() + psi.sum()))
        boxes = box_infimum_pairs(C)
        # the last -0.0 pair ties a 0.0 already in the envelope
        return zero + boxes[::2] + transforms + zero + boxes[1::2] + zero[1:]

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

    @pytest.mark.parametrize("seed", [0, 5])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 8, 16, 32])
    @pytest.mark.parametrize("name", catalog_names())
    def test_generative_never_exceeds_envelope_oracle(self, name, n, seed):
        # the generative envelope is the box pairs' closed form at every
        # budget: C on finite entries, one above the largest finite entry on
        # forbidden ones, so it never exceeds the entrywise envelope
        inst = get_instance(name, seed=seed)
        C, mu, nu = discretize(inst, n)
        closed = np.where(np.isfinite(C), C, max_finite_entry(C) + 1.0) + 0.0
        E = envelope_matrix(C, mu, nu)
        counts = set()
        for budget in (0, 1, 200):
            acc = generative_rectify(inst, n, budget=budget, rng_seed=seed)
            assert acc.lower_envelope.tobytes() == closed.tobytes()
            assert np.all(acc.lower_envelope <= E)
            counts.add(acc.pair_count)
        assert counts == {1 + len(dyadic_index_ranges(n)) ** 2}

    @pytest.mark.parametrize("seed", [3, 7])
    def test_generative_envelope_never_exceeds_cost(self, seed):
        # every pair is feasible in floating point, with no tolerance
        acc = generative_rectify(fat_set(), 32, 200, seed)
        finite = np.isfinite(acc.C)
        assert np.all(acc.lower_envelope[finite] <= acc.C[finite])
        assert max(s for _, _, s in acc.log) <= 0.0

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
        assert kinds == {"zero_pair", "box_infimum"}
        assert acc.pair_count == len(acc.log)
