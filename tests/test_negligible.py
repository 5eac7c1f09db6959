"""Negligibility verdicts, witnesses, mass maximization and null modifications."""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gaplab import (
    CountableMarker,
    DensitySpec,
    Graph,
    Grid,
    INF,
    NotNegligibleError,
    PointSet,
    Rectangle,
    Segment,
    SetDescriptor,
    apply_null_modification,
    diag_inf,
    discretize,
    grid_indicator,
    is_L_negligible,
    max_plan_mass,
    solve_dual,
    solve_primal,
    witness_cover_mass,
)
import gaplab.negligible
from gaplab.catalog import rational_nullmod, trivial_zero
from gaplab.core import ConfigurationError
from gaplab.negligible import set_descriptor_from_json, set_descriptor_to_json
from gaplab.solver import _check_koenig_cover, _max_matching

from _oracles import brute_force_max_matching

UNIF = DensitySpec.uniform()

DIAGONAL = SetDescriptor((Graph((Segment(0.0, 1.0, 0.0, 1.0),)),))
H_SEGMENT = SetDescriptor((Graph((Segment(0.0, 0.5, 0.3, 0.3),)),))
QXQ = SetDescriptor((CountableMarker(),))


def uniform_measures(n):
    _, mu, nu = discretize(trivial_zero(), n)
    return mu, nu


class TestVerdicts:
    def test_diagonal_not_negligible(self):
        v = is_L_negligible(DIAGONAL, UNIF, UNIF)
        assert not v.negligible
        assert v.blocking_piece == 0

    def test_horizontal_segment_negligible_with_point_witness(self):
        v = is_L_negligible(H_SEGMENT, UNIF, UNIF)
        assert v.negligible
        M, N = v.witness
        assert N.points == (0.3,)
        assert not M.points and not M.intervals

    def test_countable_marker_negligible(self):
        v = is_L_negligible(QXQ, UNIF, UNIF)
        assert v.negligible
        assert v.witness[0].countable

    def test_point_set_negligible(self):
        A = SetDescriptor((PointSet(((0.5, 0.5), (0.25, 0.75))),))
        v = is_L_negligible(A, UNIF, UNIF)
        assert v.negligible
        assert set(v.witness[0].points) == {0.5, 0.25}

    def test_zero_width_rectangle_negligible(self):
        A = SetDescriptor((Rectangle(0.7, 0.7, 0.2, 0.9),))
        v = is_L_negligible(A, UNIF, UNIF)
        assert v.negligible

    def test_fat_rectangle_blocks(self):
        A = SetDescriptor((Rectangle(0.1, 0.4, 0.2, 0.9),))
        v = is_L_negligible(A, UNIF, UNIF)
        assert not v.negligible

    def test_sloped_segment_blocks(self):
        A = SetDescriptor((Graph((Segment(0.2, 0.8, 0.1, 0.7),)),))
        assert not is_L_negligible(A, UNIF, UNIF).negligible

    def test_sloped_segment_over_null_domain_is_negligible(self):
        # density vanishing on (0, 1/2) makes the x-domain null
        spec = DensitySpec(breakpoints=(0.0, 0.5, 1.0), values=(0.0, 2.0))
        A = SetDescriptor((Graph((Segment(0.1, 0.4, 0.1, 0.4),)),))
        assert is_L_negligible(A, spec, UNIF).negligible

    def test_union_closure(self):
        v1 = is_L_negligible(H_SEGMENT, UNIF, UNIF)
        v2 = is_L_negligible(QXQ, UNIF, UNIF)
        both = SetDescriptor(H_SEGMENT.pieces + QXQ.pieces)
        v = is_L_negligible(both, UNIF, UNIF)
        assert v1.negligible and v2.negligible and v.negligible
        M, N = v.witness
        assert M.countable and N.points == (0.3,)

    @given(
        y=st.floats(0.05, 0.95),
        x0=st.floats(0.0, 0.5),
        w=st.floats(0.05, 0.45),
        px=st.floats(0.05, 0.95),
        py=st.floats(0.05, 0.95),
    )
    @settings(max_examples=30, deadline=None)
    def test_union_of_negligible_pieces_stays_negligible(self, y, x0, w, px, py):
        A = SetDescriptor(
            (
                Graph((Segment(x0, x0 + w, y, y),)),
                PointSet(((px, py),)),
                CountableMarker(),
            )
        )
        assert is_L_negligible(A, UNIF, UNIF).negligible


class TestMaxPlanMass:
    def test_empty_set(self):
        A = SetDescriptor((PointSet(()),))
        mu, nu = uniform_measures(4)
        assert max_plan_mass(A, mu, nu) == 0.0

    def test_diagonal_carries_everything(self):
        mu, nu = uniform_measures(4)
        assert max_plan_mass(DIAGONAL, mu, nu) == pytest.approx(1.0, abs=1e-9)

    def test_vertical_strip_row_bound(self):
        A = SetDescriptor((Rectangle(0.0, 0.25, 0.0, 1.0),))
        mu, nu = uniform_measures(8)
        assert max_plan_mass(A, mu, nu) == pytest.approx(0.25, abs=1e-9)

    def test_countable_marker_owns_no_atoms(self):
        mu, nu = uniform_measures(8)
        assert max_plan_mass(QXQ, mu, nu) == 0.0
        assert not grid_indicator(QXQ, Grid(8)).any()

    def test_negligible_masses_bounded_by_witness_cover(self):
        for A in (H_SEGMENT, QXQ, SetDescriptor((PointSet(((0.5, 0.5),)),))):
            v = is_L_negligible(A, UNIF, UNIF)
            assert v.negligible
            for n in (4, 8, 16):
                mu, nu = uniform_measures(n)
                mass = max_plan_mass(A, mu, nu)
                cover = witness_cover_mass(v.witness, UNIF, UNIF, n)
                assert mass <= cover + 1e-9

    def test_horizontal_segment_mass_hits_only_aligned_grids(self):
        mu, nu = uniform_measures(10)
        assert max_plan_mass(H_SEGMENT, mu, nu) == pytest.approx(0.1, abs=1e-9)
        mu, nu = uniform_measures(8)
        assert max_plan_mass(H_SEGMENT, mu, nu) == 0.0


def _atoms_of(mask):
    """A point set whose grid atoms are exactly the True entries of mask."""
    atoms = Grid(mask.shape[0]).atoms
    return SetDescriptor(
        (PointSet(tuple((atoms[i], atoms[j]) for i, j in zip(*np.nonzero(mask)))),)
    )


@st.composite
def _masks(draw, max_n=8):
    n = draw(st.integers(1, max_n))
    kind = draw(st.sampled_from(["drawn", "empty", "full", "diagonal"]))
    if kind == "drawn":
        cells = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
        return np.array(cells).reshape(n, n)
    if kind == "diagonal":
        return np.eye(n, dtype=bool)
    return np.full((n, n), kind == "full")


class TestMaxPlanMassByMatching:
    """On uniform marginals max_plan_mass is w times one maximum matching;
    it must equal the LP on the -1/0 cost to the bit."""

    @given(mask=_masks())
    @example(mask=np.ones((1, 1), dtype=bool))
    @example(mask=np.zeros((5, 5), dtype=bool))
    @example(mask=np.ones((5, 5), dtype=bool))
    @example(mask=np.eye(6, dtype=bool))
    @settings(max_examples=150, deadline=None)
    def test_equals_the_lp_exactly(self, mask):
        n = mask.shape[0]
        A = _atoms_of(mask)
        assert np.array_equal(grid_indicator(A, Grid(n)), mask)
        mu, nu = uniform_measures(n)
        lp = solve_primal(np.where(mask, -1.0, 0.0), mu, nu)
        assert lp.path == "assignment"
        mass = max_plan_mass(A, mu, nu)
        assert mass == float(-lp.value) + 0.0
        if n <= 6:
            assert mass == float(mu.weights.mean()) * brute_force_max_matching(mask)

    @given(mask=_masks(max_n=6))
    @settings(max_examples=150, deadline=None)
    def test_matching_is_maximum_and_on_the_mask(self, mask):
        col, graph = _max_matching(mask)
        rows = np.flatnonzero(col >= 0)
        assert mask[rows, col[rows]].all()
        assert np.unique(col[rows]).size == rows.size
        assert rows.size == brute_force_max_matching(mask)
        assert np.array_equal(graph.toarray(), mask)

    def test_uniform_marginals_skip_the_lp(self, monkeypatch):
        def no_lp(*args):
            raise AssertionError("uniform marginals must not reach solve_primal")

        monkeypatch.setattr(gaplab.negligible, "solve_primal", no_lp)
        mu, nu = uniform_measures(16)
        assert max_plan_mass(DIAGONAL, mu, nu) == 1.0

    def test_non_uniform_marginals_solve_the_lp(self, monkeypatch):
        calls = []

        def spy(C, mu, nu):
            calls.append(C.copy())
            return solve_primal(C, mu, nu)

        monkeypatch.setattr(gaplab.negligible, "solve_primal", spy)
        mu = np.array([0.1, 0.2, 0.3, 0.4])
        nu = np.full(4, 0.25)
        mask = np.eye(4, dtype=bool)
        mass = max_plan_mass(_atoms_of(mask), mu, nu)
        assert len(calls) == 1 and np.array_equal(calls[0], np.where(mask, -1.0, 0.0))
        # the diagonal carries min(mu_i, nu_i) at most on each row
        assert mass == pytest.approx(0.1 + 0.2 + 0.25 + 0.25, abs=1e-9)

    @pytest.mark.parametrize("nu", [np.full(8, 0.125), np.array([0.5, 0.5])])
    def test_marginals_of_unequal_length_rejected(self, nu):
        # the grid size is mu's length; a nu of another length fits no grid
        mu = np.full(4, 0.25)
        with pytest.raises(ConfigurationError, match="marginal lengths"):
            max_plan_mass(DIAGONAL, mu, nu)


class TestKoenigCover:
    """_max_matching checks every matching it returns; these hand the check
    matchings that must fail it."""

    @pytest.mark.parametrize("col", [[0, -1], [-1, -1]])
    def test_a_matching_short_of_maximum_raises(self, col):
        # row 1 -> column 0 -> row 0 -> column 1 augments [0, -1]
        mask = np.array([[True, True], [True, False]])
        _, graph = _max_matching(mask)
        with pytest.raises(RuntimeError):
            _check_koenig_cover(mask, graph, np.array(col))

    def test_an_atom_off_the_cover_raises(self):
        # the matching is maximum on the graph but misses an atom of the mask
        mask = np.eye(2, dtype=bool)
        col, graph = _max_matching(np.array([[True, False], [False, False]]))
        with pytest.raises(RuntimeError):
            _check_koenig_cover(mask, graph, col)


class TestNullModification:
    def test_rational_marker_modification_is_invisible(self):
        inst = apply_null_modification(rational_nullmod(), QXQ, 0.0)
        for n in (3, 4, 8, 16):
            C, mu, nu = discretize(inst, n)
            assert np.all(C == 1.0)
            assert solve_primal(C, mu, nu).value == pytest.approx(1.0, abs=1e-12)
            assert solve_dual(C, mu, nu).value == pytest.approx(1.0, abs=1e-12)

    def test_point_modification_routes_around_one_cell(self):
        A = SetDescriptor((PointSet(((0.5, 0.5),)),))
        inst = apply_null_modification(trivial_zero(), A, INF)
        # odd grid: the atom is never hit, matrices identical
        C5, mu5, nu5 = discretize(inst, 5)
        assert np.all(C5 == 0.0)
        assert solve_primal(C5, mu5, nu5).value == 0.0
        # even grid: one forbidden cell, plan routes around it at no cost
        C4, mu4, nu4 = discretize(inst, 4)
        assert np.isinf(C4[1, 1])
        r = solve_primal(C4, mu4, nu4)
        assert r.value == pytest.approx(0.0, abs=1e-12)
        assert r.plan.mass[1, 1] <= 1e-12

    def test_segment_modification_below_diagonal_keeps_value(self):
        A = SetDescriptor((Graph((Segment(0.5, 1.0, 0.375, 0.375),)),))
        inst = apply_null_modification(diag_inf(), A, INF)
        C, mu, nu = discretize(inst, 8)
        base, _, _ = discretize(diag_inf(), 8)
        touched = np.isinf(C) & np.isfinite(base)
        assert touched.sum() == 5  # atoms (i/8, 3/8) with i/8 >= 1/2
        assert solve_primal(C, mu, nu).value == pytest.approx(1.0, abs=1e-9)

    def test_refuses_non_negligible_set(self):
        with pytest.raises(NotNegligibleError) as exc:
            apply_null_modification(trivial_zero(), DIAGONAL, 1.0)
        assert exc.value.piece_index == 0

    def test_modification_recorded_for_serialization(self):
        inst = apply_null_modification(trivial_zero(), H_SEGMENT, 2.0)
        assert inst.modification is not None
        assert inst.modification["value"] == 2.0
        assert inst.name.endswith("+mod")

    def test_soundness_when_no_atom_is_hit(self):
        # modification on a segment no dyadic grid resolves: values unchanged
        A = SetDescriptor((Graph((Segment(0.0, 1.0, 0.3, 0.3),)),))
        inst = apply_null_modification(diag_inf(), A, INF)
        for n in (4, 8, 16):
            C, mu, nu = discretize(inst, n)
            base, _, _ = discretize(diag_inf(), n)
            assert np.array_equal(C, base)
            assert solve_primal(C, mu, nu).value == pytest.approx(1.0, abs=1e-9)


class TestSetCodec:
    @pytest.mark.parametrize(
        "piece",
        [
            Rectangle(0.7, 0.7, 0.2, 0.9),
            Graph((Segment(0.0, 0.5, 0.3, 0.3), Segment(0.5, 1.0, 0.3, 0.9))),
            PointSet(((0.5, 0.5), (0.25, 0.75))),
            CountableMarker(),
        ],
    )
    def test_piece_round_trip_is_byte_exact(self, piece):
        A = SetDescriptor((piece,))
        text = json.dumps(set_descriptor_to_json(A))
        again = set_descriptor_from_json(json.loads(text))
        assert again == A
        assert json.dumps(set_descriptor_to_json(again)) == text

    def test_countable_set_bytes(self):
        assert json.dumps(set_descriptor_to_json(QXQ)) == (
            '{"pieces": [{"kind": "countable_set"}]}'
        )

    def test_region_name_of_the_marker_reads_as_a_piece(self):
        doc = {"pieces": [{"kind": "countable_marker"}]}
        assert set_descriptor_from_json(doc) == QXQ

    @pytest.mark.parametrize(
        "doc",
        [
            {"pieces": [{"kind": "diagonal"}]},
            {"pieces": [{"kind": "complement_of_intervals", "intervals": []}]},
            {"pieces": [{"kind": "cell_table", "values": [[0.0]]}]},
            {"pieces": [{"kind": "rectangle", "box": [0, 1, 0]}]},
            {"pieces": [{"kind": "point_set"}]},
            {"pieces": [{"kind": "point_set", "points": [[0.5, 0.5, 9]]}]},
            {"pieces": [{"kind": "point_set", "points": [[0.5]]}]},
            {"pieces": [{"kind": "point_set", "points": [[float("nan"), 0.5]]}]},
            {"pieces": [{"kind": "rectangle", "box": [0, 1, float("nan"), 1]}]},
            {"box": [0, 1, 0, 1]},
            [],
        ],
    )
    def test_malformed_documents_raise(self, doc):
        with pytest.raises(ConfigurationError):
            set_descriptor_from_json(doc)
