"""Catalog entries, the fat-set construction, instance-file round trips."""

import sys

import numpy as np
import pytest

from gaplab import (
    INF,
    ConfigurationError,
    discretize,
    dumps_instance,
    get_instance,
    load_instance,
    loads_instance,
    save_instance,
    solve_dual,
    solve_primal,
)
from gaplab.catalog import (
    catalog,
    catalog_names,
    complement_measure,
    diag_M,
    diag_inf,
    excluded_intervals,
    fat_set,
    fat_set_alpha,
    random_finite,
    rational_enumeration,
    rational_nullmod,
    trivial_zero,
)

from _oracles import brute_force_primal, merged_interval_measure


class TestFatSetConstruction:
    def test_enumeration_order(self):
        qs = [str(q) for q in rational_enumeration(8)]
        assert qs == ["0", "1", "1/2", "1/3", "2/3", "1/4", "3/4", "1/5"]

    def test_alpha_hits_target_measure(self):
        alpha = fat_set_alpha()
        assert complement_measure(alpha, 80) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("depth", [20, 80])
    @pytest.mark.parametrize("target", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_alpha_bits_match_full_bisection(self, target, depth):
        # the early stop must return what all 200 bisection steps return
        lo, hi = 0.0, 1.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if complement_measure(mid, depth) > target:
                lo = mid
            else:
                hi = mid
        assert fat_set_alpha(target, depth) == 0.5 * (lo + hi)

    def test_alpha_is_bisected_once(self, monkeypatch):
        # cached, with the bits of a fresh bisection
        assert fat_set_alpha() == fat_set_alpha.__wrapped__()
        misses = fat_set_alpha.cache_info().misses
        fat_set()
        fat_set(5)
        assert fat_set_alpha.cache_info().misses == misses

        def refused(*args):
            raise AssertionError("an explicit alpha needs no bisection")

        # the package attribute gaplab.catalog is the catalog() function
        monkeypatch.setattr(sys.modules["gaplab.catalog"], "fat_set_alpha", refused)
        assert fat_set(5, alpha=0.25).name == "fat_set_5"

    def test_complement_measure_matches_independent_sweep(self):
        alpha = fat_set_alpha()
        for K in (1, 5, 20):
            ivs = excluded_intervals(alpha, K)
            assert complement_measure(alpha, K) == pytest.approx(
                1.0 - merged_interval_measure(ivs), abs=1e-14
            )

    def test_finite_K_measure_decreases_to_half(self):
        alpha = fat_set_alpha()
        vals = [complement_measure(alpha, K) for K in (1, 5, 10, 20, 40)]
        assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))
        assert vals[-1] >= 0.5
        assert complement_measure(alpha, 20) - 0.5 <= 0.02

    def test_grid_value_reproduces_measure_exactly(self):
        inst = fat_set(20)
        lam = complement_measure(fat_set_alpha(), 20)
        for n in (16, 64):
            C, mu, nu = discretize(inst, n)
            assert solve_primal(C, mu, nu).value == pytest.approx(lam, abs=1e-6)
            assert solve_dual(C, mu, nu).value == pytest.approx(lam, abs=1e-6)


class TestCatalogEntries:
    def test_all_entries_present(self):
        names = [e.instance.name for e in catalog()]
        assert names == [
            "diag_inf",
            "diag_M_2",
            "rational_nullmod",
            "fat_set_20",
            "trivial_zero",
            "random_finite_s0_n8",
        ]

    def test_continuum_values_attached(self):
        by_name = {e.instance.name: e for e in catalog()}
        assert by_name["diag_inf"].continuum_values == {
            "P_c": 1.0,
            "D_c": 0.0,
            "P_rectified": 0.0,
        }
        assert by_name["fat_set_20"].continuum_values["P_c"] == 0.5
        assert all(
            e.notes.keys() == e.continuum_values.keys() for e in catalog()
        )

    def test_get_instance_matches_the_catalog(self):
        params = dict(M=3, K=5, seed=2, n=4)
        entries = catalog(**params)
        assert len(entries) == len(catalog_names())
        for name, entry in zip(catalog_names(), entries):
            assert get_instance(name, **params) == entry.instance, name
            assert entry.instance.name.startswith(name)

    def test_unknown_name_raises(self):
        with pytest.raises(ConfigurationError, match="unknown catalog instance"):
            get_instance("diag")

    def test_trivial_zero_solves_to_zero(self):
        C, mu, nu = discretize(trivial_zero(), 8)
        assert solve_primal(C, mu, nu).value == 0.0
        assert solve_dual(C, mu, nu).value == pytest.approx(0.0, abs=1e-12)

    def test_finite_variant_grid_value(self):
        # min(1, M/n): one backward cycle beats the identity iff M < n
        for M in (2.0, 3.0, 20.0):
            inst = diag_M(M)
            for n in (2, 4, 8, 16):
                C, mu, nu = discretize(inst, n)
                got = solve_primal(C, mu, nu).value
                assert got == pytest.approx(min(1.0, M / n), abs=1e-9)

    def test_finite_variant_requires_M_above_one(self):
        with pytest.raises(ConfigurationError):
            diag_M(1.0)

    @pytest.mark.parametrize("M", [INF, np.nan])
    def test_finite_variant_requires_finite_M(self, M):
        # M = inf is diag_inf, whose P_c is 1, not the finite variant's 0
        with pytest.raises(ConfigurationError):
            diag_M(M)

    def test_get_instance_dispatch(self):
        assert get_instance("diag_M", M=3.0).name == "diag_M_3"
        assert get_instance("fat_set", K=5).name == "fat_set_5"
        with pytest.raises(ConfigurationError):
            get_instance("nope")


class TestRandomFinite:
    def test_deterministic_per_seed(self):
        a = random_finite(3, 5)
        b = random_finite(3, 5)
        assert dumps_instance(a) == dumps_instance(b)
        assert dumps_instance(a) != dumps_instance(random_finite(4, 5))

    def test_single_atom_value_is_the_only_entry(self):
        inst = random_finite(9, 1)
        C, mu, nu = discretize(inst, 1)
        assert solve_primal(C, mu, nu).value == pytest.approx(C[0, 0], abs=1e-12)
        assert solve_dual(C, mu, nu).value == pytest.approx(C[0, 0], abs=1e-9)

    def test_matches_brute_force_at_n3(self):
        inst = random_finite(1, 3)
        C, mu, nu = discretize(inst, 3)
        bf, _ = brute_force_primal(C, mu.weights, nu.weights)
        assert solve_primal(C, mu, nu).value == pytest.approx(bf, abs=1e-10)

    def test_resolution_cap(self):
        with pytest.raises(ConfigurationError):
            random_finite(0, 65)

    @pytest.mark.parametrize("seed, n", [(0, 0), (0, -1), (-1, 4)])
    def test_bad_seed_or_resolution_raises(self, seed, n):
        with pytest.raises(ConfigurationError):
            random_finite(seed, n)


class TestInstanceFiles:
    @pytest.mark.parametrize(
        "inst",
        [
            diag_inf(),
            diag_M(2.0),
            rational_nullmod(),
            fat_set(5),
            trivial_zero(),
            random_finite(2, 4),
        ],
        ids=lambda i: i.name,
    )
    def test_round_trip_is_byte_exact(self, inst):
        text = dumps_instance(inst)
        again = dumps_instance(loads_instance(text))
        assert text == again

    def test_round_trip_preserves_grid_realization(self, tmp_path):
        inst = diag_inf()
        path = tmp_path / "diag.json"
        save_instance(inst, path)
        loaded = load_instance(path)
        C1, mu1, _ = discretize(inst, 8)
        C2, mu2, _ = discretize(loaded, 8)
        assert np.array_equal(C1, C2)
        assert np.array_equal(mu1.weights, mu2.weights)

    def test_save_over_a_longer_file_round_trips(self, tmp_path):
        path = tmp_path / "inst.json"
        save_instance(fat_set(5), path)
        longer = path.read_text()
        save_instance(diag_inf(), path)
        text = path.read_text()
        assert len(text) < len(longer)
        assert text == dumps_instance(diag_inf())
        assert dumps_instance(load_instance(path)) == text

    @pytest.mark.parametrize("where", ["missing_dir", "directory"])
    def test_unwritable_path_raises_configuration_error(self, tmp_path, where):
        path = tmp_path / "missing" / "x.json" if where == "missing_dir" else tmp_path
        with pytest.raises(ConfigurationError, match="cannot write") as info:
            save_instance(diag_inf(), path)
        assert str(path) in str(info.value)

    def test_infinity_serializes_as_string(self):
        text = dumps_instance(diag_inf())
        assert '"inf"' in text

    def test_modification_embeds_in_file(self):
        from gaplab import CountableMarker, SetDescriptor, apply_null_modification

        inst = apply_null_modification(
            rational_nullmod(), SetDescriptor((CountableMarker(),)), 0.0
        )
        text = dumps_instance(inst)
        again = loads_instance(text)
        assert again.modification == {
            "set": {"pieces": [{"kind": "countable_set"}]},
            "value": 0.0,
        }
        assert dumps_instance(again) == text

    def test_malformed_document_raises_configuration_error(self):
        with pytest.raises(ConfigurationError):
            loads_instance("{not json")
        with pytest.raises(ConfigurationError):
            loads_instance('{"name": "x"}')
