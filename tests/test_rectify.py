"""Envelope oracle vs generative accumulation, box pairs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaplab import (
    INF,
    ConfigurationError,
    DiscreteMeasure,
    box_infimum_pairs,
    diag_inf,
    discretize,
    envelope_matrix,
    generative_rectify,
    max_finite_entry,
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
    _box_minima,
    dyadic_index_ranges,
)

from _oracles import envelope_lp, pair_by_pair_rectify


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
        assert envelope_matrix(C, uniform(2), uniform(2))[1, 1] == 1.0
        assert envelope_lp(C, 1, 1) == pytest.approx(1.0, abs=1e-7)

    def test_disconnected_forbidden_pattern_is_unbounded(self):
        C = np.array([[INF, 0.0], [0.0, INF]])
        assert envelope_matrix(C, uniform(2), uniform(2))[0, 0] == INF
        assert envelope_lp(C, 0, 0) == INF

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
        assert_matches_envelope_lp(C, E)

    def test_requires_full_support(self):
        bad = DiscreteMeasure(np.array([1.0, 0.0]))
        C = np.zeros((2, 2))
        with pytest.raises(ConfigurationError):
            envelope_matrix(C, bad, uniform(2))
        with pytest.raises(ConfigurationError):
            envelope_matrix(C, uniform(2), bad)

    def test_invariant_under_full_support_reweighting(self):
        # the rectification depends on the marginals only through their null
        # sets; with full support there are none, so any reweighting ties
        C, mu, nu = discretize(random_finite(11, 4), 4)
        E1 = envelope_matrix(C, mu, nu)
        mu2 = DiscreteMeasure(mu.weights * np.array([0.4, 0.1, 0.3, 0.2]) * 4)
        nu2 = DiscreteMeasure(nu.weights * np.array([0.25, 0.25, 0.1, 0.4]) * 4)
        E2 = envelope_matrix(C, mu2, nu2)
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

    @pytest.mark.parametrize("name", ["diag_inf", "fat_set"])
    def test_every_pair_feasible(self, name):
        # feasible in floating point, with no tolerance
        C, _, _ = discretize(get_instance(name), 32)
        for pair in box_infimum_pairs(C):
            assert pair.feasibility_slack(C) <= 0.0

    def test_empty_box_range_rejected(self):
        with pytest.raises(ConfigurationError):
            box_infimum_pairs(np.zeros((2, 2)), boxes=[((1, 1), (0, 2))])

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_box_minima_match_a_loop(self, data):
        # non-square C with +inf entries, all-+inf rows and -0.0, against a
        # per-box min over every range of each axis in a drawn order
        n, m = data.draw(st.integers(1, 7)), data.draw(st.integers(1, 7))
        entry = st.one_of(st.sampled_from([0.0, -0.0, INF]), st.floats(0.0, 1e6))
        C = np.array(data.draw(st.lists(entry, min_size=n * m, max_size=n * m)))
        C = C.reshape(n, m)
        C[data.draw(st.lists(st.integers(0, n - 1), max_size=2))] = INF
        rows = data.draw(st.permutations([(a, b) for a in range(n) for b in range(a + 1, n + 1)]))
        cols = data.draw(st.permutations([(a, b) for a in range(m) for b in range(a + 1, m + 1)]))
        table = _box_minima(C, rows, cols)
        assert table.shape == (len(rows), len(cols))
        top = max_finite_entry(C)
        for r, (lo, hi) in enumerate(rows):
            for c, (a, b) in enumerate(cols):
                e = C[lo:hi, a:b].min()
                assert table[r, c] == (top + 1.0 if np.isinf(e) else e)  # +-0 tie allowed

    def test_dyadic_ranges_cover_singletons(self):
        ranges = dyadic_index_ranges(6)
        assert (0, 6) in ranges
        assert all((i, i + 1) in ranges for i in range(6))


class TestAddPair:
    """add_pair against the fold written out, and every check it keeps."""

    @staticmethod
    def _pairs(C):
        """Signed-zero pairs, the dyadic box pairs and c-transform pairs of C
        (random phi, psi its c-transform over the finite entries),
        interleaved so that ties fall on either side."""
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
            transforms.append(FeasiblePair(phi, psi, "c_transform"))
        boxes = box_infimum_pairs(C)
        # the last -0.0 pair ties a 0.0 already in the envelope
        return zero + boxes[::2] + transforms + zero + boxes[1::2] + zero[1:]

    @staticmethod
    def _state(acc):
        return (
            acc.lower_envelope.tobytes(),
            list(acc.provenance_counts.items()),
            acc.pair_count,
        )

    @staticmethod
    def _fold(C, pairs):
        """The state after the pairs, written out: a running np.maximum with
        -0.0 turned to 0.0, and one count per pair."""
        env = np.full(C.shape, -INF)
        counts = {}
        for pair in pairs:
            env = np.maximum(env, pair.tensor()) + 0.0
            key = pair.provenance.split("(")[0]
            counts[key] = counts.get(key, 0) + 1
        return env.tobytes(), list(counts.items()), len(pairs)

    @pytest.mark.parametrize(
        "name, n", [("diag_inf", 32), ("diag_inf", 4), ("fat_set", 8), ("trivial_zero", 5)]
    )
    def test_equals_the_written_out_fold(self, name, n):
        C = discretize(get_instance(name), n)[0]
        pairs = self._pairs(C)
        acc = RectifiedAccumulator(C)
        for pair in pairs:
            acc.add_pair(pair)
        assert self._state(acc) == self._fold(C, pairs)
        assert not np.signbit(acc.lower_envelope[acc.lower_envelope == 0]).any()

    @pytest.mark.parametrize("bad", ["nan", "infeasible", "nan_on_forbidden"])
    def test_bad_pair_leaves_the_state(self, bad):
        C = np.array([[INF, INF, INF], [0.0, 1.0, 2.0], [1.0, 0.0, 1.0]])
        phi, psi = np.full(3, -5.0), np.zeros(3)
        if bad == "nan":
            phi[1] = np.nan
        elif bad == "infeasible":
            phi[2] = 2 * PAIR_TOL  # C[2, 1] = 0: the slack is 2 * PAIR_TOL
        else:
            phi[0] = np.nan  # row 0 is forbidden: the slack cannot see it
        acc = RectifiedAccumulator(C)
        for pair in box_infimum_pairs(C)[:4]:
            acc.add_pair(pair)
        before = self._state(acc)
        with pytest.raises(ConfigurationError):
            acc.add_pair(FeasiblePair(phi, psi, "user"))
        assert self._state(acc) == before
        assert acc.pair_count == 4 and not np.isnan(acc.lower_envelope).any()

    def test_slack_within_tolerance_is_accepted(self):
        acc = RectifiedAccumulator(np.zeros((2, 2)))
        acc.add_pair(FeasiblePair(np.full(2, PAIR_TOL), np.zeros(2), "user"))
        assert acc.pair_count == 1 and np.all(acc.lower_envelope == PAIR_TOL)


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

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 7, 8, 16, 32, 33])
    @pytest.mark.parametrize("name", catalog_names())
    def test_equals_the_pair_by_pair_fold(self, name, n):
        acc = generative_rectify(get_instance(name), n, budget=0, rng_seed=0)
        ref = pair_by_pair_rectify(acc.C)
        assert acc.lower_envelope.tobytes() == ref.lower_envelope.tobytes()
        assert acc.pair_count == ref.pair_count
        assert acc.provenance_counts == ref.provenance_counts

    @pytest.mark.parametrize("seed", [3, 7])
    def test_generative_envelope_never_exceeds_cost(self, seed):
        acc = generative_rectify(fat_set(), 32, 200, seed)
        finite = np.isfinite(acc.C)
        assert np.all(acc.lower_envelope[finite] <= acc.C[finite])

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
        with pytest.raises(ConfigurationError):
            acc.add_pair(FeasiblePair(np.ones(2), np.ones(2), "user"))

    @pytest.mark.parametrize(
        "C", [np.zeros((2, 2)), np.array([[INF, INF], [0.0, 0.0]])], ids=["finite", "inf_row"]
    )
    def test_nan_pair_rejected(self, C):
        acc = RectifiedAccumulator(C)
        acc.add_pair(FeasiblePair(np.zeros(2), np.zeros(2), "zero_pair"))
        with pytest.raises(ConfigurationError):
            acc.add_pair(FeasiblePair(np.array([np.nan, 0.0]), np.zeros(2), "user"))
        assert not np.isnan(acc.lower_envelope).any()
        assert acc.pair_count == 1
        assert acc.sup_gap_finite() == 0.0

    def test_provenance_counts(self):
        acc = generative_rectify(trivial_zero(), 2, budget=3, rng_seed=1)
        assert acc.provenance_counts == {"zero_pair": 1, "box_infimum": 9}
        assert acc.pair_count == sum(acc.provenance_counts.values())
