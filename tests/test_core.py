"""Grid geometry, densities, measures, extended-real serialization."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaplab import ConfigurationError, DensitySpec, DiscreteMeasure, Grid, INF
from gaplab.core import extreal_from_json, extreal_to_json, check_cost_value


class TestGrid:
    def test_atoms_are_right_endpoints(self):
        g = Grid(4)
        assert np.array_equal(g.atoms, [0.25, 0.5, 0.75, 1.0])

    def test_cell_bounds_half_open(self):
        g = Grid(4)
        assert g.cell_bounds(0) == (0.0, 0.25)
        assert g.cell_bounds(3) == (0.75, 1.0)

    def test_each_atom_in_exactly_one_coarser_dyadic_cell(self):
        fine = Grid(16)
        for k in (1, 2, 3):
            step = 1.0 / 2**k
            owners = [int(np.ceil(a / step - 1e-12)) for a in fine.atoms]
            assert all(1 <= o <= 2**k for o in owners)
            # contiguous equal-size blocks
            assert owners == sorted(owners)

    def test_rejects_zero_resolution(self):
        with pytest.raises(ConfigurationError):
            Grid(0)

    def test_dyadic_flag(self):
        assert Grid(8).is_dyadic and not Grid(6).is_dyadic


class TestDensitySpec:
    def test_uniform_integrates_to_one(self):
        assert DensitySpec.uniform().measure(0, 1) == 1.0

    def test_piecewise_measure_exact(self):
        spec = DensitySpec((0.0, 0.5, 1.0), (0.5, 1.5))
        assert spec.measure(0, 0.5) == pytest.approx(0.25)
        assert spec.measure(0.25, 0.75) == pytest.approx(0.5 * 0.25 + 1.5 * 0.25)

    def test_rejects_non_probability(self):
        with pytest.raises(ConfigurationError):
            DensitySpec((0.0, 1.0), (0.5,))

    def test_rejects_negative_density(self):
        with pytest.raises(ConfigurationError):
            DensitySpec((0.0, 0.5, 1.0), (-1.0, 3.0))

    @pytest.mark.parametrize(
        "breakpoints, values",
        [
            ((0.0, 0.5, 1.0), (math.nan, 1.0)),
            ((0.0, math.nan, 1.0), (0.5, 0.5)),
            ((math.nan, 1.0), (1.0,)),
            ((0.0, math.nan), (1.0,)),
        ],
    )
    def test_rejects_nan(self, breakpoints, values):
        with pytest.raises(ConfigurationError):
            DensitySpec(breakpoints, values)

    def test_json_round_trip(self):
        spec = DensitySpec((0.0, 0.25, 1.0), (2.0, 2.0 / 3.0))
        again = DensitySpec.from_json_dict(spec.to_json_dict())
        assert again == spec
        assert DensitySpec.from_json_dict({"kind": "uniform"}) == DensitySpec.uniform()

    @given(a=st.floats(0, 1), b=st.floats(0, 1))
    @settings(max_examples=50, deadline=None)
    def test_measure_monotone_in_interval(self, a, b):
        lo, hi = sorted((a, b))
        spec = DensitySpec((0.0, 0.3, 1.0), (2.0, 4.0 / 7.0))
        assert 0 <= spec.measure(lo, hi) <= spec.measure(0, 1) + 1e-12

    @pytest.mark.parametrize("seed", range(6))
    def test_cell_weights_equal_per_cell_measure(self, seed):
        # uniform, and seeded piecewise densities cut at multiples of 1/20
        rng = np.random.default_rng([seed, 1])
        pieces = int(rng.integers(2, 6))
        cuts = np.sort(rng.choice(np.arange(1, 20), pieces - 1, replace=False)) / 20
        bp = np.concatenate([[0.0], cuts, [1.0]])
        w = rng.uniform(0.2, 2.0, size=pieces)
        specs = [DensitySpec.uniform(), DensitySpec(tuple(bp), tuple(w / (w @ np.diff(bp))))]
        for spec in specs:
            for n in [*range(1, 130), 256, 512, 1000, 1024]:
                loop = [spec.measure(i / n, (i + 1) / n) for i in range(n)]
                assert np.array_equal(spec.cell_weights(Grid(n)), loop), n


class TestDiscreteMeasure:
    def test_from_density_uniform(self):
        m = DiscreteMeasure.from_density(DensitySpec.uniform(), Grid(5))
        assert np.allclose(m.weights, 0.2)
        assert m.total == pytest.approx(1.0)

    def test_immutable(self):
        m = DiscreteMeasure(np.array([1.0]))
        with pytest.raises(ValueError):
            m.weights[0] = 2.0

    def test_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            DiscreteMeasure(np.array([-0.1, 1.1]))

    def test_rejects_nan(self):
        with pytest.raises(ConfigurationError):
            DiscreteMeasure(np.array([np.nan, 1.0]))


class TestExtendedReal:
    def test_json_forms(self):
        assert extreal_to_json(INF) == "inf"
        assert extreal_to_json(0.25) == 0.25
        assert extreal_from_json("inf") == INF
        assert extreal_from_json(3) == 3.0
        with pytest.raises(ConfigurationError):
            extreal_from_json("three")

    def test_cost_values_validated(self):
        assert check_cost_value(INF) == INF
        with pytest.raises(ConfigurationError):
            check_cost_value(-1.0)
        with pytest.raises(ConfigurationError):
            check_cost_value(float("nan"))

    def test_conventions(self):
        # inf absorbs addition; min/max stay total
        assert INF + 5.0 == INF
        assert min(INF, 2.0) == 2.0
        assert max(INF, 2.0) == INF
