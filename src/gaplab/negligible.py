"""Deciding L-negligibility for declarative subsets of the unit square.

A set A is L-negligible when it fits inside (M x Y) union (X x N) for null
sets M, N of the marginals.  A set is a union of pieces drawn from four of
the cost shapes of :mod:`gaplab.costs` (``Rectangle``, piecewise-linear
``Graph``, finite ``PointSet``, symbolic countable ``CountableMarker``), so a
set realizes on the grid, serializes and overrides a cost exactly as the
same shapes do as cost regions.  Over these pieces and atomless marginal
densities, the decision is rule-based and produces an explicit witness cover
(M, N) or the piece that blocks it.

The Kellerer-style numeric cross-check is :func:`max_plan_mass`: the largest
mass any coupling can place on the set's grid atoms, a maximum matching with
its Koenig cover on uniform marginals and otherwise the LP that minimizes
the cost that is -1 on the set and 0 elsewhere.  Negligible sets must see
this tend to zero with the witness cover mass; non-negligible sets stay
bounded away from it.  Finite-grid evidence only, reported as a trend.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import (
    GEOM_TOL,
    ConfigurationError,
    DensitySpec,
    Grid,
    extreal_to_json,
    malformed,
)
from .costs import (
    CostDescriptor,
    CountableMarker,
    Graph,
    PointSet,
    Rectangle,
    Region,
    _axis_mask,
    _grid_mask,
    check_cost_value,
    shape_from_json,
    shape_to_json,
)
from .instance import Instance
from .solver import _as_weights, _max_matching, _uniform_weight, solve_primal

__all__ = [
    "SetDescriptor",
    "NullSet",
    "NegligibilityVerdict",
    "is_L_negligible",
    "grid_indicator",
    "max_plan_mass",
    "witness_cover_mass",
    "apply_null_modification",
    "NotNegligibleError",
]


Piece = Rectangle | Graph | PointSet | CountableMarker
_PIECE_KINDS = ("rectangle", "graph", "point_set", "countable_marker")


@dataclass(frozen=True)
class SetDescriptor:
    pieces: tuple[Piece, ...]


@dataclass(frozen=True)
class NullSet:
    """A null subset of [0, 1]: points, zero-measure intervals, and possibly
    a countable tail that no finite list captures."""

    points: tuple[float, ...] = ()
    intervals: tuple[tuple[float, float], ...] = ()
    countable: bool = False

    def union(self, other: "NullSet") -> "NullSet":
        return NullSet(
            points=tuple(sorted(set(self.points) | set(other.points))),
            intervals=tuple(sorted(set(self.intervals) | set(other.intervals))),
            countable=self.countable or other.countable,
        )


@dataclass(frozen=True)
class NegligibilityVerdict:
    negligible: bool
    witness: tuple[NullSet, NullSet] | None = None
    blocking_piece: int | None = None

    def to_json_dict(self) -> dict:
        d = {"negligible": self.negligible}
        if self.witness is not None:
            M, N = self.witness
            d["witness"] = {
                "M": {"points": list(M.points), "intervals": [list(iv) for iv in M.intervals], "countable": M.countable},
                "N": {"points": list(N.points), "intervals": [list(iv) for iv in N.intervals], "countable": N.countable},
            }
        if self.blocking_piece is not None:
            d["blocking_piece"] = self.blocking_piece
        return d


class NotNegligibleError(ValueError):
    def __init__(self, piece_index: int):
        super().__init__(f"set is not L-negligible (blocking piece {piece_index})")
        self.piece_index = piece_index


def is_L_negligible(
    A: SetDescriptor, mu_spec: DensitySpec, nu_spec: DensitySpec
) -> NegligibilityVerdict:
    """Rule-based decision over the piece grammar, atomless marginals assumed.

    Witnesses compose by finite union: each piece contributes its own null
    cover, and the first piece with no null cover blocks the verdict.
    """
    M = NullSet()
    N = NullSet()
    for idx, piece in enumerate(A.pieces):
        if isinstance(piece, Rectangle):
            if mu_spec.measure(piece.x0, piece.x1) <= GEOM_TOL:
                M = M.union(_interval_null(piece.x0, piece.x1))
            elif nu_spec.measure(piece.y0, piece.y1) <= GEOM_TOL:
                N = N.union(_interval_null(piece.y0, piece.y1))
            else:
                return NegligibilityVerdict(False, blocking_piece=idx)
        elif isinstance(piece, Graph):
            for seg in piece.segments:
                if seg.is_constant:
                    N = N.union(NullSet(points=(seg.y_start,)))
                elif mu_spec.measure(seg.x0, seg.x1) <= GEOM_TOL:
                    M = M.union(_interval_null(seg.x0, seg.x1))
                elif nu_spec.measure(*seg.y_interval) <= GEOM_TOL:
                    N = N.union(_interval_null(*seg.y_interval))
                else:
                    # a strictly sloped segment maps positive mu-mass onto
                    # positive nu-mass: no null cover can exist
                    return NegligibilityVerdict(False, blocking_piece=idx)
        elif isinstance(piece, PointSet):
            M = M.union(NullSet(points=tuple(p[0] for p in piece.points)))
        elif isinstance(piece, CountableMarker):
            M = M.union(NullSet(countable=True))
        else:
            raise ConfigurationError(f"unknown piece {piece!r}")
    return NegligibilityVerdict(True, witness=(M, N))


def _interval_null(a: float, b: float) -> NullSet:
    if b - a <= GEOM_TOL:
        return NullSet(points=(a,))
    return NullSet(intervals=((a, b),))


# ---------------------------------------------------------------------------
# grid realization and the Kellerer cross-check
# ---------------------------------------------------------------------------


def grid_indicator(A: SetDescriptor, grid: Grid) -> np.ndarray:
    atoms = grid.atoms
    mask = np.zeros((grid.n, grid.n), dtype=bool)
    for piece in A.pieces:
        mask |= _grid_mask(piece, atoms)
    return mask


def max_plan_mass(A: SetDescriptor, mu, nu) -> float:
    """Largest mass any coupling of (mu, nu) puts on the grid atoms of A, on
    the grid with one atom per atom of mu.

    That is minus the optimal value of the cost that is -1 on A and 0
    elsewhere.  When every atom of mu and nu weighs the same w, the
    couplings are w times the Birkhoff polytope, whose vertices are
    permutations, so the answer is w times the largest matching on A's atoms:
    one Hopcroft-Karp matching, certified by its Koenig cover (the grid form
    of Kellerer's duality).  Other marginals solve the LP, which rejects a
    nu whose length differs from mu's.
    """
    a, b = _as_weights(mu), _as_weights(nu)
    ind = grid_indicator(A, Grid(a.size))
    w = _uniform_weight(a, b, float(a.sum()))
    if w is not None:
        col, _ = _max_matching(ind)
        return w * float(np.count_nonzero(col >= 0))
    report = solve_primal(np.where(ind, -1.0, 0.0), mu, nu)
    return float(-report.value) + 0.0  # normalize -0.0


def witness_cover_mass(
    witness: tuple[NullSet, NullSet],
    mu_spec: DensitySpec,
    nu_spec: DensitySpec,
    n: int,
) -> float:
    """Grid mass of the witness cover: mu-mass of atoms hit by M plus nu-mass
    of atoms hit by N (the Kellerer bound for max_plan_mass).  An atom is hit
    as a box side would hit it: a point is a degenerate side."""
    grid = Grid(n)
    total = 0.0
    for side, spec in zip(witness, (mu_spec, nu_spec)):
        hit = np.zeros(n, dtype=bool)
        for a, b in [(p, p) for p in side.points] + list(side.intervals):
            hit |= _axis_mask(a, b, grid.atoms)
        total += float(spec.cell_weights(grid)[hit].sum())
    return total


# ---------------------------------------------------------------------------
# null modifications
# ---------------------------------------------------------------------------


def set_descriptor_to_json(A: SetDescriptor) -> dict:
    return {"pieces": [shape_to_json(p, set_piece=True) for p in A.pieces]}


def set_descriptor_from_json(d: dict) -> SetDescriptor:
    with malformed("set descriptor"):
        return SetDescriptor(
            tuple(shape_from_json(p, _PIECE_KINDS, "set piece") for p in d["pieces"])
        )


def apply_null_modification(
    instance: Instance, A: SetDescriptor, new_value: float
) -> Instance:
    """Override the cost on A, refusing unless A is L-negligible.

    The override is appended as final regions (last match wins), so grid
    atoms inside A take the new value while the transport values stay within
    the mass of the touched cells; countable pieces never touch an atom.
    """
    new_value = check_cost_value(new_value)
    verdict = is_L_negligible(A, instance.marginal_x, instance.marginal_y)
    if not verdict.negligible:
        raise NotNegligibleError(verdict.blocking_piece)
    override = tuple(Region(p, new_value) for p in A.pieces)
    return replace(
        instance,
        name=instance.name + "+mod",
        cost=CostDescriptor(instance.cost.regions + override),
        modification={
            "set": set_descriptor_to_json(A),
            "value": extreal_to_json(new_value),
        },
    )
