"""Descriptor sampling, grid realization and plan integrals."""

import json
import math
import typing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaplab import (
    ConfigurationError,
    CostDescriptor,
    DensitySpec,
    Grid,
    INF,
    Instance,
    diag_inf,
    diagonal_split,
    discretize,
    discretize_cost,
    fat_set,
    plan_cost,
    sample_cost,
    whole_square,
)
from gaplab.catalog import (
    catalog,
    excluded_intervals,
    fat_set_alpha,
    random_finite,
)
from gaplab.core import GEOM_TOL
from gaplab.costs import (
    SHAPE_KINDS,
    AboveDiagonal,
    BelowDiagonal,
    CellTable,
    ComplementOfIntervals,
    CountableMarker,
    Diagonal,
    Graph,
    PointSet,
    Rectangle,
    Region,
    RegionKind,
    Segment,
    _outside_fractions,
    region_from_json,
    region_to_json,
)
from gaplab.instance import dumps_instance, instance_to_json_dict, loads_instance
from gaplab.negligible import SetDescriptor, apply_null_modification

from _oracles import point_in_shape, random_finite_rectangles


DIAG = diag_inf().cost


class TestSampleCost:
    def test_below_diagonal(self):
        assert sample_cost(DIAG, 0.5, 0.25) == 0.0

    def test_on_diagonal(self):
        assert sample_cost(DIAG, 0.5, 0.5) == 1.0

    def test_above_diagonal(self):
        assert sample_cost(DIAG, 0.25, 0.5) == INF

    def test_no_matching_region_is_configuration_error(self):
        from gaplab.costs import Rectangle, Region

        desc = CostDescriptor((Region(Rectangle(0.0, 0.5, 0.0, 0.5), 1.0),))
        with pytest.raises(ConfigurationError):
            sample_cost(desc, 0.9, 0.9)

    def test_fat_set_pointwise_is_indicator(self):
        # one excluded interval around 0: atoms i/4 all stay outside it
        alpha = fat_set_alpha()
        inst = fat_set(K=1, alpha=alpha)
        ivs = excluded_intervals(alpha, 1)
        for i in range(1, 5):
            x = i / 4
            expected = 0.0 if any(a < x < b for a, b in ivs) else 1.0
            assert sample_cost(inst.cost, x, 0.5) == expected


class TestDiscretize:
    def test_diagonal_n2(self):
        C, mu, nu = discretize(diag_inf(), 2)
        assert np.array_equal(C, np.array([[1.0, INF], [0.0, 1.0]]))
        assert np.allclose(mu.weights, [0.5, 0.5])
        assert np.allclose(nu.weights, [0.5, 0.5])

    def test_zero_cost_all_zero(self):
        desc = CostDescriptor((whole_square(0.0),))
        inst = Instance("z", DensitySpec.uniform(), DensitySpec.uniform(), desc)
        for n in (2, 5, 9):
            C, _, _ = discretize(inst, n)
            assert np.all(C == 0.0)

    def test_fat_set_cells_blend_exactly(self):
        # the indicator-of-complement region realizes as the exact cell
        # fraction outside the excluded intervals
        alpha = fat_set_alpha()
        inst = fat_set(K=1, alpha=alpha)
        C, _, _ = discretize(inst, 4)
        (a, b), = excluded_intervals(alpha, 1)
        for i in range(4):
            lo, hi = i / 4, (i + 1) / 4
            covered = max(0.0, min(b, hi) - max(a, lo))
            frac = 1.0 - covered / 0.25
            assert C[i, 0] == pytest.approx(frac, abs=1e-14)
            assert np.all(C[i] == C[i, 0])  # constant along y

    # endpoints on a 1/16 lattice touch each other and the cell edges; some
    # lie outside [0, 1], and a reversed pair is an empty interval
    _END = st.one_of(st.integers(-4, 20).map(lambda k: k / 16), st.floats(-0.2, 1.2))

    @given(
        n=st.sampled_from([1, 2, 3, 7, 16, 64, 256, 1024]),
        ends=st.lists(st.tuples(_END, _END), max_size=8),
    )
    @settings(max_examples=200, deadline=None)
    def test_cell_fractions_match_the_per_cell_sweep(self, n, ends):
        kind = ComplementOfIntervals(tuple(ends))
        grid = Grid(n)
        swept = np.array([kind.outside_fraction(*grid.cell_bounds(i)) for i in range(n)])
        got = _outside_fractions(kind.intervals, n)
        assert np.array_equal(got, swept)
        assert np.array_equal(np.signbit(got), np.signbit(swept))

    @pytest.mark.parametrize("n", [7, 64, 1024])
    def test_fat_set_cell_fractions_match_the_per_cell_sweep(self, n):
        regions = fat_set().cost.regions
        kind = next(r.where for r in regions if isinstance(r.where, ComplementOfIntervals))
        grid = Grid(n)
        swept = np.array([kind.outside_fraction(*grid.cell_bounds(i)) for i in range(n)])
        assert np.array_equal(_outside_fractions(kind.intervals, n), swept)

    @given(n=st.integers(2, 24))
    @settings(max_examples=20, deadline=None)
    def test_mass_conservation_uniform(self, n):
        _, mu, nu = discretize(diag_inf(), n)
        assert abs(mu.total - 1.0) <= 1e-12
        assert abs(nu.total - 1.0) <= 1e-12

    @given(
        split=st.floats(0.1, 0.9),
        w=st.floats(0.05, 0.95),
        n=st.integers(2, 16),
    )
    @settings(max_examples=30, deadline=None)
    def test_mass_conservation_piecewise(self, split, w, n):
        # density w/split on (0, split), (1-w)/(1-split) after it
        spec = DensitySpec(
            breakpoints=(0.0, split, 1.0),
            values=(w / split, (1 - w) / (1 - split)),
        )
        grid = Grid(n)
        assert abs(spec.cell_weights(grid).sum() - 1.0) <= 1e-12

    def test_equal_densities_share_one_measure(self):
        inst = fat_set()
        assert inst.marginal_x == inst.marginal_y
        _, mu, nu = discretize(inst, 16)
        assert mu is nu
        assert np.array_equal(mu.weights, inst.marginal_x.cell_weights(Grid(16)))

    def test_different_densities_get_their_own_measures(self):
        skewed = DensitySpec(breakpoints=(0.0, 0.25, 1.0), values=(2.0, 2 / 3))
        cost = CostDescriptor((whole_square(0.0),))
        inst = Instance("skewed", DensitySpec.uniform(), skewed, cost)
        _, mu, nu = discretize(inst, 8)
        assert mu is not nu
        assert np.array_equal(mu.weights, DensitySpec.uniform().cell_weights(Grid(8)))
        assert np.array_equal(nu.weights, skewed.cell_weights(Grid(8)))


class TestPlanCost:
    def test_identity_plan_on_diagonal_instance(self):
        C, _, _ = discretize(diag_inf(), 4)
        assert plan_cost(C, np.eye(4) / 4) == 1.0

    def test_zero_plan_ignores_infinite_entries(self):
        C = np.full((3, 3), INF)
        assert plan_cost(C, np.zeros((3, 3))) == 0.0

    def test_shift_subplan_costs_nothing(self):
        C, _, _ = discretize(diag_inf(), 4)
        pi = np.zeros((4, 4))
        for i in range(1, 4):
            pi[i, i - 1] = 0.25
        assert plan_cost(C, pi) == 0.0

    def test_infinite_when_mass_sits_on_forbidden_entry(self):
        C, _, _ = discretize(diag_inf(), 4)
        pi = np.zeros((4, 4))
        pi[0, 3] = 0.25
        assert plan_cost(C, pi) == INF

    def test_shape_mismatch_is_a_configuration_error(self):
        with pytest.raises(ConfigurationError, match="shape mismatch"):
            plan_cost(np.zeros((4, 4)), np.ones((4, 8)) / 32)

    @given(
        t=st.floats(0.0, 1.0),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_linear_on_finite_support(self, t, seed):
        rng = np.random.default_rng(seed)
        C = rng.uniform(0, 5, (3, 3))
        p1 = rng.uniform(0, 1, (3, 3))
        p2 = rng.uniform(0, 1, (3, 3))
        lhs = plan_cost(C, t * p1 + (1 - t) * p2)
        rhs = t * plan_cost(C, p1) + (1 - t) * plan_cost(C, p2)
        assert lhs == pytest.approx(rhs, abs=1e-10)


class TestRectifiedDominance:
    def test_known_rectified_below_cost_on_grid(self):
        # outside the declared negligible set (the diagonal), c_r <= c holds
        # at every atom; on the diagonal c_r dips below on purpose
        from gaplab.catalog import catalog

        for entry in catalog(K=5):
            inst = entry.instance
            if inst.known_rectified is None:
                continue
            for n in (3, 4, 7):
                grid = Grid(n)
                C = discretize_cost(inst.cost, grid)
                Cr = discretize_cost(inst.known_rectified, grid)
                with np.errstate(invalid="ignore"):
                    assert np.all((Cr <= C + 1e-12) | np.isinf(C))


# ---------------------------------------------------------------------------
# region lists painted against pointwise sampling and full masks
# ---------------------------------------------------------------------------


def sampled_matrix(desc, n):
    """The scalar definition at every atom pair: last matching region wins."""
    atoms = Grid(n).atoms
    return np.array([[sample_cost(desc, x, y) for y in atoms] for x in atoms])


def grid_mask(shape, atoms):
    """``shape.mask`` at every atom pair, as an n x n boolean matrix."""
    n = atoms.size
    return np.zeros((n, n), dtype=bool) | shape.mask(atoms[:, None], atoms[None, :])


def mask_painted(desc, n):
    """Paint every region through its full n x n mask: the reference that
    ``discretize_cost`` must reproduce, with the cell table's gather, bit for
    bit."""
    grid = Grid(n)
    C = np.full((n, n), np.nan)
    painted = np.zeros((n, n), dtype=bool)
    for region in desc.regions:
        kind = region.where
        if isinstance(kind, CountableMarker):
            continue
        if isinstance(kind, ComplementOfIntervals):
            fr = np.array([kind.outside_fraction(*grid.cell_bounds(i)) for i in range(n)])
            fr = np.broadcast_to(fr[:, None] if kind.axis == "x" else fr[None, :], (n, n))
            full, empty = fr >= 1.0 - GEOM_TOL, fr <= GEOM_TOL
            partial = ~full & ~empty
            with np.errstate(invalid="ignore"):
                mixed = fr * region.value + (1.0 - fr) * C
            C[full] = region.value
            C[partial] = mixed[partial]
            painted |= ~empty
        else:
            mask = grid_mask(kind, grid.atoms)
            C[mask] = region.value
            painted |= mask
    assert painted.all()
    return C


_OFFSETS = [0.0, *(sign * f * GEOM_TOL for f in (0.5, 1.0, 2.0) for sign in (1, -1))]
_VALUES = [0.0, 0.25, 1.0, 3.0, INF]


@st.composite
def box_edge(draw, n):
    """An atom i/n (i = 0..n), nudged by 0, +-GEOM_TOL/2 or +-2 GEOM_TOL, or
    any float a little outside [0, 1]."""
    if draw(st.booleans()):
        return draw(st.integers(0, n)) / n + draw(st.sampled_from(_OFFSETS))
    return draw(st.floats(-0.25, 1.25))


@st.composite
def box_side(draw, n):
    lo = draw(box_edge(n))
    if draw(st.integers(0, 3)) == 0:  # degenerate: within GEOM_TOL of lo
        return lo, lo + draw(st.sampled_from([0.0, GEOM_TOL / 2, GEOM_TOL]))
    return lo, draw(box_edge(n))  # may be inverted (hi < lo)


@st.composite
def region_list(draw):
    n = draw(st.integers(1, 64))
    regions = [Region(Rectangle(0.0, 1.0, 0.0, 1.0), draw(st.sampled_from(_VALUES)))]
    for _ in range(draw(st.integers(0, 12))):
        value = draw(st.sampled_from(_VALUES))
        pick = draw(st.sampled_from(["box", "box", "box", "diagonal", "below"]))
        if pick == "diagonal":
            regions.append(Region(Diagonal(), value))
        elif pick == "below":
            regions.append(Region(BelowDiagonal(), value))
        else:
            (x0, x1), (y0, y1) = draw(box_side(n)), draw(box_side(n))
            regions.append(Region(Rectangle(x0, x1, y0, y1), value))
    return n, CostDescriptor(tuple(regions))


class TestSlicePainting:
    """Mask painting against point sampling.  The class keeps the name of the
    rectangle slice painter it once checked, which is gone: every region is
    now painted through its mask."""

    @given(case=region_list())
    @settings(max_examples=150, deadline=None)
    def test_matches_pointwise_sampling(self, case):
        n, desc = case
        C = discretize_cost(desc, Grid(n))
        assert np.array_equal(C, sampled_matrix(desc, n))

    @pytest.mark.parametrize("n", [1, 3, 4])
    def test_every_side_near_an_atom_matches_sampling(self, n):
        # each (lo, hi) from atoms i/n nudged by every offset, on either axis;
        # lo == hi and hi < lo are the degenerate sides
        edges = [i / n + off for i in range(n + 1) for off in _OFFSETS]
        for lo in edges:
            for hi in edges:
                for box in (Rectangle(lo, hi, 0.0, 1.0), Rectangle(0.0, 1.0, lo, hi)):
                    desc = CostDescriptor((whole_square(0.0), Region(box, 1.0)))
                    C = discretize_cost(desc, Grid(n))
                    assert np.array_equal(C, sampled_matrix(desc, n)), box

    def test_overlapping_boxes_last_one_wins(self):
        desc = CostDescriptor(
            (
                whole_square(0.0),
                Region(Rectangle(0.0, 0.75, 0.0, 0.75), 1.0),
                Region(Rectangle(0.25, 1.0, 0.25, 1.0), 2.0),
                Region(Diagonal(), 3.0),
                Region(Rectangle(0.5, 0.5, 0.0, 1.0), 4.0),  # degenerate: row 0.5
            )
        )
        C = discretize_cost(desc, Grid(4))
        assert np.array_equal(
            C,
            [[3.0, 1.0, 1.0, 0.0],
             [4.0, 4.0, 4.0, 4.0],
             [1.0, 2.0, 3.0, 2.0],
             [0.0, 2.0, 2.0, 3.0]],
        )
        assert np.array_equal(C, sampled_matrix(desc, 4))

    @pytest.mark.parametrize("n", [*range(1, 41), 64, 128, 256])
    def test_catalog_costs_match_mask_painting(self, n):
        # a random_finite cell table is compared with the rectangles it
        # stands for; the catalog's entry is random_finite(0, 8)
        pairs = [(random_finite(3, 13).cost, random_finite_rectangles(3, 13))]
        for entry in catalog(K=20):
            inst = entry.instance
            if inst.name == "random_finite_s0_n8":
                pairs.append((inst.cost, random_finite_rectangles(0, 8)))
                continue
            for desc in (inst.cost, inst.known_rectified):
                if desc is not None:
                    pairs.append((desc, desc))
        for desc, reference in pairs:
            assert np.array_equal(
                discretize_cost(desc, Grid(n)), mask_painted(reference, n)
            ), n

    @pytest.mark.parametrize("n", [1, 4, 7, 64])
    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_complements_match_mask_painting(self, n, axis):
        # the catalog's one complement (fat_set) lies on axis x over zeros;
        # here also axis y, +inf entries underneath, and intervals on cell
        # edges that leave no partial cell ((0.25, 0.5) at n = 4 and 64)
        over_inf = diagonal_split(1.0, 0.5, INF).regions
        for intervals in (((0.3, 0.55),), ((0.25, 0.5),), ((0.1, 0.2), (0.5, 0.7))):
            for below in ((whole_square(0.0),), over_inf):
                region = Region(ComplementOfIntervals(intervals, axis), 2.0)
                desc = CostDescriptor((*below, region))
                assert np.array_equal(discretize_cost(desc, Grid(n)), mask_painted(desc, n))

    @pytest.mark.parametrize("n", [1, 5, 63, 64, 100])
    def test_random_finite_64_matches_mask_painting(self, n):
        desc = random_finite(0, 64).cost
        reference = mask_painted(random_finite_rectangles(0, 64), n)
        assert np.array_equal(discretize_cost(desc, Grid(n)), reference)

    def test_uncovered_row_raises(self):
        # rows x in (0, 1/2] and (3/4, 1] are covered; the atom 3/4 is not
        desc = CostDescriptor(
            (
                Region(Rectangle(0.0, 0.5, 0.0, 1.0), 1.0),
                Region(Rectangle(0.75, 1.0, 0.0, 1.0), 2.0),
            )
        )
        with pytest.raises(ConfigurationError, match="do not cover"):
            discretize_cost(desc, Grid(4))
        with pytest.raises(ConfigurationError):
            sample_cost(desc, 0.75, 0.5)
        assert discretize_cost(desc, Grid(2)).tolist() == [[1.0, 1.0], [2.0, 2.0]]

    def test_complement_blending_into_uncovered_cells_raises(self):
        # the cell (1/2, 1] lies 3/5 outside (0.6, 0.8): it blends with the
        # value underneath, which must have been painted
        complement = Region(ComplementOfIntervals(((0.6, 0.8),)), 1.0)
        with pytest.raises(ConfigurationError, match="blends into uncovered cells"):
            discretize_cost(CostDescriptor((complement,)), Grid(2))
        C = discretize_cost(CostDescriptor((whole_square(0.0), complement)), Grid(2))
        assert C.tolist() == [[1.0, 1.0], [pytest.approx(0.6)] * 2]


# ---------------------------------------------------------------------------
# cell tables
# ---------------------------------------------------------------------------


_TABLE_GRIDS = [*range(1, 41), 63, 64, 100, 128, 256]


class TestCellTable:
    @pytest.mark.parametrize("n", [1, 2, 13, 64])
    def test_matches_mask_painted_rectangles(self, n):
        seed = 100 + n
        desc = random_finite(seed, n).cost
        rectangles = random_finite_rectangles(seed, n)
        for N in _TABLE_GRIDS:
            assert np.array_equal(
                discretize_cost(desc, Grid(N)), mask_painted(rectangles, N)
            ), N

    @pytest.mark.parametrize(
        "n, grids",
        [(1, _TABLE_GRIDS), (2, _TABLE_GRIDS), (13, _TABLE_GRIDS), (64, [1, 64, 100])],
    )
    def test_rectangle_instance_file_paints_like_the_table(self, n, grids):
        # an instance file of the old form: random_finite's cost as n^2
        # rectangle regions, read back from its JSON document
        seed = 200 + n
        uniform = DensitySpec.uniform()
        rectangles = random_finite_rectangles(seed, n)
        text = dumps_instance(Instance("old_form", uniform, uniform, rectangles))
        desc = loads_instance(text).cost
        assert len(desc.regions) == n * n
        assert all(isinstance(r.where, Rectangle) for r in desc.regions)
        table = random_finite(seed, n).cost
        for N in grids:
            assert np.array_equal(
                discretize_cost(desc, Grid(N)), discretize_cost(table, Grid(N))
            ), N

    @pytest.mark.parametrize("N", [1, 3, 13, 20, 64])
    def test_sample_cost_reads_the_matrix(self, N):
        desc = random_finite(5, 13).cost
        assert np.array_equal(sampled_matrix(desc, N), discretize_cost(desc, Grid(N)))

    @pytest.mark.parametrize("n", [1, 3, 4])
    def test_cell_edges_sample_like_the_rectangles(self, n):
        # coordinates i/n nudged by every offset, some outside every cell
        desc, rectangles = random_finite(8, n).cost, random_finite_rectangles(8, n)
        edges = [t for i in range(n + 1) for off in _OFFSETS if 0 < (t := i / n + off)]
        for x in edges:
            for y in edges:
                try:
                    want = sample_cost(rectangles, x, y)
                except ConfigurationError:
                    with pytest.raises(ConfigurationError):
                        sample_cost(desc, x, y)
                    continue
                assert sample_cost(desc, x, y) == want, (x, y)

    def test_json_round_trip_is_byte_exact(self):
        uniform = DensitySpec.uniform()
        table = CellTable([[0.0, INF, 0.5], [1e-300, 3.0, 0.1], [2.5, 1e300, 7.0]])
        inst = Instance("table", uniform, uniform, CostDescriptor((table,)))
        text = dumps_instance(inst)
        assert '"kind": "cell_table"' in text and '"inf"' in text
        again = loads_instance(text)
        assert dumps_instance(again) == text
        assert again.cost == inst.cost
        big = random_finite(4, 64)
        assert dumps_instance(loads_instance(dumps_instance(big))) == dumps_instance(big)

    def test_negligible_override_paints_over_the_table(self):
        base = random_finite(5, 8)
        A = SetDescriptor(
            (Rectangle(0.5, 0.5, 0.0, 1.0), PointSet(((0.25, 0.75),)))
        )
        mod = apply_null_modification(base, A, INF)
        override = mod.cost.regions[1:]
        assert mod.cost.regions[0] == base.cost.regions[0] and len(override) == 2
        reference = CostDescriptor(random_finite_rectangles(5, 8).regions + override)
        for N in (4, 8, 12, 16):
            C = discretize_cost(mod.cost, Grid(N))
            assert np.array_equal(C, mask_painted(reference, N)), N
        C = discretize_cost(mod.cost, Grid(8))
        table = discretize_cost(base.cost, Grid(8))
        hit = np.zeros((8, 8), dtype=bool)
        hit[3, :] = hit[1, 5] = True  # the row x = 1/2 and the point (1/4, 3/4)
        assert np.all(np.isinf(C[hit])) and np.array_equal(C[~hit], table[~hit])

    @pytest.mark.parametrize("bad", [np.nan, -1.0, -INF, -1e-300])
    def test_nan_and_negative_entries_raise(self, bad):
        with pytest.raises(ConfigurationError, match=r"\[0, inf\]"):
            CellTable([[0.0, 1.0], [bad, 2.0]])
        uniform = DensitySpec.uniform()
        doc = instance_to_json_dict(
            Instance("t", uniform, uniform, CostDescriptor((CellTable([[1.0]]),)))
        )
        doc["cost"]["regions"][0]["values"] = [[bad]]
        with pytest.raises(ConfigurationError):
            loads_instance(json.dumps(doc))

    @pytest.mark.parametrize("values", [[[1.0, 2.0]], [1.0], [], [[1.0], [2.0, 3.0]]])
    def test_non_square_tables_raise(self, values):
        with pytest.raises(ConfigurationError):
            CellTable(values)


#: one shape of every registry kind
SHAPE_EXAMPLES = {
    "below_diagonal": BelowDiagonal(),
    "diagonal": Diagonal(),
    "above_diagonal": AboveDiagonal(),
    "rectangle": Rectangle(0.25, 0.5, 0.0, 1.0),
    "graph": Graph((Segment(0.0, 0.5, 0.3, 0.3), Segment(0.5, 1.0, 0.3, 0.9))),
    "point_set": PointSet(((0.5, 0.5), (0.25, 0.75))),
    "countable_marker": CountableMarker(),
    "complement_of_intervals": ComplementOfIntervals(((0.1, 0.2), (0.5, 0.7)), "y"),
}


class TestShapeRegistry:
    def test_examples_cover_the_registry(self):
        assert set(SHAPE_EXAMPLES) == set(SHAPE_KINDS)

    @pytest.mark.parametrize("kind", sorted(SHAPE_EXAMPLES))
    @pytest.mark.parametrize("value", [0.0, 1.5, INF])
    def test_region_round_trip_is_byte_exact(self, kind, value):
        region = Region(SHAPE_EXAMPLES[kind], value)
        text = json.dumps(region_to_json(region))
        assert json.loads(text)["kind"] == kind
        again = region_from_json(json.loads(text))
        assert again == region
        assert json.dumps(region_to_json(again)) == text

    def test_countable_marker_bytes(self):
        region = Region(CountableMarker(), 0.0)
        assert json.dumps(region_to_json(region)) == (
            '{"kind": "countable_marker", "value": 0.0}'
        )

    def test_set_name_of_the_marker_reads_as_a_region(self):
        doc = {"kind": "countable_set", "value": 1.0}
        assert region_from_json(doc) == Region(CountableMarker(), 1.0)

    def test_unknown_kind_raises(self):
        with pytest.raises(ConfigurationError, match="unknown region kind"):
            region_from_json({"kind": "circle", "value": 1.0})

    @pytest.mark.parametrize(
        "doc",
        [
            {"kind": "rectangle", "box": [0, 1, 0], "value": 1.0},
            {"kind": "point_set", "points": [[0.5, 0.5, 9]], "value": 1.0},
            {"kind": "point_set", "points": [[0.5]], "value": 1.0},
            {"kind": "point_set", "points": [0.5], "value": 1.0},
            {"kind": "point_set", "value": 1.0},
        ],
    )
    def test_malformed_documents_raise(self, doc):
        with pytest.raises(ConfigurationError, match=f"malformed {doc['kind']} region"):
            region_from_json(doc)

    def test_every_region_kind_is_registered_with_a_mask(self):
        kinds = set(typing.get_args(RegionKind))
        assert kinds == {shape for shape, _, _ in SHAPE_KINDS.values()}
        for shape in kinds:
            assert callable(vars(shape).get("mask")), shape

    @pytest.mark.parametrize(
        "doc",
        [
            {"kind": "rectangle", "box": [math.nan, 0.5, 0, 1]},
            {"kind": "graph", "segments": [[0, 1, 0.5, math.nan]]},
            {"kind": "point_set", "points": [[math.nan, 0.5]]},
            {"kind": "complement_of_intervals", "intervals": [[0.1, math.nan]]},
            {"kind": "rectangle", "box": [math.inf, math.inf, 0, 1]},
            {"kind": "point_set", "points": [[0.5, -math.inf]]},
        ],
    )
    def test_non_finite_coordinates_raise(self, doc):
        with pytest.raises(ConfigurationError, match="must be finite"):
            region_from_json({**doc, "value": 1.0})


# ---------------------------------------------------------------------------
# one predicate per shape, against the scalar reference
# ---------------------------------------------------------------------------


@st.composite
def segment(draw, n):
    """Flat or sloped, over an x range that may be a single point."""
    x0, x1 = sorted((draw(box_edge(n)), draw(box_edge(n))))
    if draw(st.integers(0, 3)) == 0:  # degenerate: within GEOM_TOL of x0
        x1 = x0 + draw(st.sampled_from([0.0, GEOM_TOL / 2]))
    y_start = draw(box_edge(n))
    y_end = y_start if draw(st.booleans()) else draw(box_edge(n))
    return Segment(x0, x1, y_start, y_end)


def _pairs(n, max_size):
    return st.lists(st.tuples(box_edge(n), box_edge(n)), max_size=max_size).map(tuple)


#: kind -> strategy of shapes of that kind with coordinates near the atoms of Grid(n)
SHAPE_STRATEGIES = {
    "below_diagonal": lambda n: st.just(BelowDiagonal()),
    "diagonal": lambda n: st.just(Diagonal()),
    "above_diagonal": lambda n: st.just(AboveDiagonal()),
    "rectangle": lambda n: st.builds(
        lambda xs, ys: Rectangle(*xs, *ys), box_side(n), box_side(n)
    ),
    "graph": lambda n: st.builds(Graph, st.lists(segment(n), max_size=3).map(tuple)),
    "point_set": lambda n: st.builds(PointSet, _pairs(n, 4)),
    "countable_marker": lambda n: st.just(CountableMarker()),
    "complement_of_intervals": lambda n: st.builds(
        ComplementOfIntervals, _pairs(n, 4), st.sampled_from("xy")
    ),
}


@st.composite
def shape_case(draw, kind):
    n = draw(st.integers(1, 64))
    shape = draw(SHAPE_STRATEGIES[kind](n))
    # an edge plus GEOM_TOL can land exactly on a box's threshold
    t = st.one_of(box_edge(n), box_edge(n).map(lambda e: e + GEOM_TOL))
    return n, shape, draw(st.lists(st.tuples(t, t), max_size=8))


class TestShapeMask:
    def test_strategies_cover_the_registry(self):
        assert set(SHAPE_STRATEGIES) == set(SHAPE_KINDS)

    @pytest.mark.parametrize("kind", sorted(SHAPE_KINDS))
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_mask_matches_the_scalar_reference(self, kind, data):
        n, shape, points = data.draw(shape_case(kind))
        for x, y in points:  # plain floats in, a plain bool out
            got = shape.mask(x, y)
            assert type(got) is bool and got == point_in_shape(shape, x, y), (x, y)
        atoms = Grid(n).atoms
        want = [[point_in_shape(shape, x, y) for y in atoms.tolist()] for x in atoms.tolist()]
        assert np.array_equal(grid_mask(shape, atoms), np.array(want, dtype=bool))

    @pytest.mark.parametrize("n", [1, 3, 4])
    def test_every_edge_near_an_atom_matches_the_scalar_reference(self, n):
        # ends i/n nudged by every offset, checked at the atoms and at each
        # end nudged again: points then land exactly on the thresholds (an
        # end plus GEOM_TOL), and ends -GEOM_TOL/2 and GEOM_TOL/2 make a side
        # with hi - lo == GEOM_TOL exactly
        atoms = Grid(n).atoms
        edges = [i / n + off for i in range(n + 1) for off in _OFFSETS]
        for lo in edges:
            for shape in (BelowDiagonal(), Diagonal(), AboveDiagonal()):
                for off in _OFFSETS:
                    assert shape.mask(lo, lo + off) == point_in_shape(shape, lo, lo + off)
            for hi in edges:
                near = [e + off for e in (lo, hi) for off in _OFFSETS]
                cases = [
                    (Rectangle(lo, hi, 0.0, 1.0), [(t, 1.0) for t in near]),
                    (Rectangle(0.0, 1.0, lo, hi), [(1.0, t) for t in near]),
                    (ComplementOfIntervals(((lo, hi),), "y"), [(0.5, t) for t in near]),
                ]
                if lo <= hi:
                    cases += [
                        (Segment(lo, hi, 1.0, 1.0), [(t, 1.0) for t in near]),
                        (Segment(lo, hi, lo, hi), [(t, t) for t in near]),
                    ]
                for shape, points in cases:
                    want = [[point_in_shape(shape, x, y) for y in atoms] for x in atoms]
                    assert np.array_equal(grid_mask(shape, atoms), want), shape
                    for x, y in points:
                        assert shape.mask(x, y) == point_in_shape(shape, x, y), (shape, x, y)

    @pytest.mark.parametrize("kind", sorted(SHAPE_EXAMPLES))
    def test_examples_match_the_scalar_reference(self, kind):
        shape = SHAPE_EXAMPLES[kind]
        for n in (1, 2, 4, 7, 8, 16):
            atoms = Grid(n).atoms
            want = [[point_in_shape(shape, x, y) for y in atoms] for x in atoms]
            assert np.array_equal(grid_mask(shape, atoms), np.array(want, dtype=bool)), n
