"""Cost descriptors over the unit square and their grid realizations.

A cost is described declaratively as an ordered list of regions, each a
(shape, value) pair; sampling at a point returns the value of the last
matching region.  Matching uses the half-open convention of the grid cells:
rectangles are (x0, x1] x (y0, y1], with degenerate sides matched exactly.

Each shape has one predicate, ``mask(x, y)``, written with Python operators
and builtins only.  Given two floats it answers a point sample; given the
broadcast atoms ``atoms[:, None]`` and ``atoms[None, :]`` it answers every
atom pair of the grid at once, with the same comparisons on the same floats.
Point samples, grid painting and the indicators of L-negligible sets all go
through it.

The ``complement_of_intervals`` kind (an indicator along one axis, constant
along the other) is the one region whose grid realization is *not* point
sampling: ``discretize_cost`` blends it into each cell by the exact Lebesgue
fraction of the cell lying outside the intervals, so that cost integrals
against couplings reproduce interval measures exactly instead of atom
counts.  Point queries through ``sample_cost`` remain pointwise.

The ``cell_table`` kind (:class:`CellTable`) is a piecewise-constant cost on
an n x n cell grid that carries one value per cell, so it is a region by
itself rather than the ``where`` of a :class:`Region`.  A coordinate t lies
in cell i iff ``i/n + GEOM_TOL < t <= (i+1)/n + GEOM_TOL``, the very
thresholds a ``Rectangle`` over that cell compares against, so a table
samples and paints exactly like the n^2 cell rectangles it stands for; its
grid realization is one gather ``values[ix[:, None], ix[None, :]]``.  Like
every region it sits in the ordered list, so later regions paint over it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import and_, or_

import numpy as np

from .core import (
    GEOM_TOL,
    INF,
    ConfigurationError,
    Grid,
    check_cost_value,
    extreal_from_json,
    extreal_to_json,
    malformed,
)

# ---------------------------------------------------------------------------
# shapes: one predicate each
# ---------------------------------------------------------------------------


def _axis_mask(lo, hi, t):
    """(lo, hi] on one axis, for a float t or an array of them; a degenerate
    side (hi - lo <= GEOM_TOL) is the point lo, matched exactly."""
    if hi - lo <= GEOM_TOL:
        return abs(t - lo) <= GEOM_TOL
    return (t > lo + GEOM_TOL) & (t <= hi + GEOM_TOL)


def _check_coords(what: str, coords) -> None:
    """Reject NaN (it fails every comparison silently) and infinities."""
    bad = [c for c in coords if not math.isfinite(c)]
    if bad:
        raise ConfigurationError(f"{what} coordinates must be finite, got {bad[0]!r}")


@dataclass(frozen=True)
class BelowDiagonal:
    def mask(self, x, y):
        return y < x - GEOM_TOL


@dataclass(frozen=True)
class Diagonal:
    def mask(self, x, y):
        return abs(x - y) <= GEOM_TOL


@dataclass(frozen=True)
class AboveDiagonal:
    def mask(self, x, y):
        return y > x + GEOM_TOL


@dataclass(frozen=True)
class Rectangle:
    """(x0, x1] x (y0, y1]; a degenerate side (x0 == x1) matches exactly."""

    x0: float
    x1: float
    y0: float
    y1: float

    def __post_init__(self):
        _check_coords("rectangle", (self.x0, self.x1, self.y0, self.y1))

    def mask(self, x, y):
        return _axis_mask(self.x0, self.x1, x) & _axis_mask(self.y0, self.y1, y)


@dataclass(frozen=True)
class Segment:
    """Straight graph segment y = f(x) over [x0, x1], f affine."""

    x0: float
    x1: float
    y_start: float
    y_end: float

    def __post_init__(self):
        _check_coords("segment", (self.x0, self.x1, self.y_start, self.y_end))
        if self.x1 < self.x0:
            raise ConfigurationError("segment needs x0 <= x1")

    @property
    def is_constant(self) -> bool:
        return abs(self.y_end - self.y_start) <= GEOM_TOL

    def value_at(self, x):
        if self.x1 == self.x0:
            return self.y_start
        t = (x - self.x0) / (self.x1 - self.x0)
        return (1 - t) * self.y_start + t * self.y_end

    @property
    def y_interval(self) -> tuple[float, float]:
        return (min(self.y_start, self.y_end), max(self.y_start, self.y_end))

    def mask(self, x, y):
        over = (x >= self.x0 - GEOM_TOL) & (x <= self.x1 + GEOM_TOL)
        return over & (abs(self.value_at(x) - y) <= GEOM_TOL)


@dataclass(frozen=True)
class Graph:
    """Piecewise-linear graph: union of finitely many segments."""

    segments: tuple[Segment, ...]

    def mask(self, x, y):
        return reduce(or_, (s.mask(x, y) for s in self.segments), False)


@dataclass(frozen=True)
class PointSet:
    points: tuple[tuple[float, float], ...]

    def __post_init__(self):
        _check_coords("point", (c for p in self.points for c in p))

    def mask(self, x, y):
        hits = (
            (abs(x - px) <= GEOM_TOL) & (abs(y - py) <= GEOM_TOL)
            for px, py in self.points
        )
        return reduce(or_, hits, False)


@dataclass(frozen=True)
class CountableMarker:
    """Symbolic countable (hence L-negligible) set, e.g. all rational pairs.

    Every grid atom pair has rational coordinates, so sampling a countable
    modification would repaint the whole grid; the marker therefore never
    matches, owns no grid atom and records only that the set is null.
    """

    def mask(self, x, y):
        return False


@dataclass(frozen=True)
class ComplementOfIntervals:
    """Points whose ``axis`` coordinate avoids every open interval, constant
    along the other axis."""

    intervals: tuple[tuple[float, float], ...]
    axis: str = "x"

    def __post_init__(self):
        if self.axis not in ("x", "y"):
            raise ConfigurationError("axis must be 'x' or 'y'")
        _check_coords("interval", (c for iv in self.intervals for c in iv))

    def mask(self, x, y):
        t = x if self.axis == "x" else y
        return reduce(and_, ((t <= a) | (t >= b) for a, b in self.intervals), True)

    def outside_fraction(self, lo: float, hi: float) -> float:
        """Lebesgue fraction of (lo, hi] not covered by the open intervals."""
        if hi <= lo:
            return 0.0
        covered = union_measure(self.intervals, lo, hi)
        return max(0.0, (hi - lo) - covered) / (hi - lo)


def union_measure(intervals, lo: float = 0.0, hi: float = 1.0) -> float:
    """Lebesgue measure of (union of open intervals) intersected with [lo, hi].

    One sweep over the clipped intervals in sorted order, summing each merged
    run as it closes.
    """
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo)
    )
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in clipped:
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


RegionKind = (
    BelowDiagonal
    | Diagonal
    | AboveDiagonal
    | Rectangle
    | Graph
    | PointSet
    | CountableMarker
    | ComplementOfIntervals
)


@dataclass(frozen=True)
class Region:
    where: RegionKind
    value: float

    def __post_init__(self):
        object.__setattr__(self, "value", check_cost_value(self.value))

    def value_at(self, x: float, y: float) -> float | None:
        return self.value if self.where.mask(x, y) else None


@dataclass(frozen=True, eq=False)
class CellTable:
    """``values[i, j]`` on the cell (i/n, (i+1)/n] x (j/n, (j+1)/n].

    Every entry is checked like a region value: in [0, +inf], NaN rejected.
    """

    values: np.ndarray

    def __post_init__(self):
        try:
            v = np.array(self.values, dtype=float)
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(f"cell table values: {exc}") from exc
        if v.ndim != 2 or v.shape[0] != v.shape[1] or v.size == 0:
            raise ConfigurationError(
                f"a cell table needs n x n values with n >= 1, got shape {v.shape}"
            )
        bad = np.isnan(v) | (v < 0)
        if bad.any():
            bad_value = float(v[bad][0])
            raise ConfigurationError(f"cost values live in [0, inf], got {bad_value!r}")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def __eq__(self, other) -> bool:
        return isinstance(other, CellTable) and np.array_equal(self.values, other.values)

    def cells(self, t: np.ndarray) -> np.ndarray:
        """Index of the cell owning each coordinate; n above the last cell."""
        n = self.values.shape[0]
        return np.searchsorted(np.arange(1, n + 1) / n + GEOM_TOL, t, "left")

    def value_at(self, x: float, y: float) -> float | None:
        i, j = self.cells(np.array([x, y], dtype=float)).tolist()
        n = self.values.shape[0]
        if min(x, y) <= GEOM_TOL or max(i, j) == n:
            return None
        return float(self.values[i, j])


@dataclass(frozen=True)
class CostDescriptor:
    """Ordered region list; the last matching region wins at every point."""

    regions: tuple[Region | CellTable, ...]

    def __post_init__(self):
        if not self.regions:
            raise ConfigurationError("a cost descriptor needs at least one region")


def whole_square(value: float) -> Region:
    return Region(Rectangle(0.0, 1.0, 0.0, 1.0), value)


def diagonal_split(below: float, on: float, above: float) -> CostDescriptor:
    return CostDescriptor(
        (
            Region(BelowDiagonal(), below),
            Region(Diagonal(), on),
            Region(AboveDiagonal(), above),
        )
    )


# ---------------------------------------------------------------------------
# sampling and grid realization
# ---------------------------------------------------------------------------


def sample_cost(descriptor: CostDescriptor, x: float, y: float) -> float:
    """Evaluate the descriptor at one point of (0, 1]^2 (last match wins)."""
    if not (0 < x <= 1 + GEOM_TOL and 0 < y <= 1 + GEOM_TOL):
        raise ConfigurationError(f"sample point ({x}, {y}) outside (0, 1]^2")
    value = None
    for region in descriptor.regions:
        hit = region.value_at(x, y)
        if hit is not None:
            value = hit
    if value is None:
        raise ConfigurationError(f"descriptor has no region matching ({x}, {y})")
    return value


def _grid_mask(shape: RegionKind, atoms: np.ndarray) -> np.ndarray:
    """``shape.mask`` at every atom pair, x down the rows and y across."""
    n = atoms.size
    return np.zeros((n, n), dtype=bool) | shape.mask(atoms[:, None], atoms[None, :])


def discretize_cost(descriptor: CostDescriptor, grid: Grid) -> np.ndarray:
    """Realize the descriptor as an n x n matrix over the grid atoms.

    Regions are painted in order onto the matrix, so the last matching region
    wins.  A ``CellTable`` is one gather (see the module docstring) and every
    other shape paints its ``mask`` at the atoms, except
    ``ComplementOfIntervals``, which is blended by the exact per-cell fraction
    lying outside its intervals (cells fully outside take the region value,
    fully covered cells keep the value underneath), so that coupling
    integrals reproduce interval measures exactly.

    The matrix starts as NaN and no region value is NaN, so the NaN cells are
    the ones no region has painted yet.
    """
    n = grid.n
    atoms = grid.atoms
    C = np.full((n, n), np.nan)
    for region in descriptor.regions:
        if isinstance(region, CellTable):  # covers every atom of the grid
            ix = region.cells(atoms)
            C[...] = region.values[ix[:, None], ix[None, :]]
        elif isinstance(kind := region.where, ComplementOfIntervals):
            fracs = _outside_fractions(kind.intervals, n)
            axis_fr = np.broadcast_to(
                fracs[:, None] if kind.axis == "x" else fracs[None, :], (n, n)
            )
            full = axis_fr >= 1.0 - GEOM_TOL
            partial = ~full & (axis_fr > GEOM_TOL)
            if np.any(partial & np.isnan(C)):
                raise ConfigurationError(
                    "complement_of_intervals blends into uncovered cells"
                )
            # partial cells blend with the value underneath; inf stays inf
            with np.errstate(invalid="ignore"):
                mixed = axis_fr * region.value + (1.0 - axis_fr) * C
            C[full] = region.value
            C[partial] = mixed[partial]
        else:
            C[_grid_mask(kind, atoms)] = region.value
    if np.isnan(C).any():
        raise ConfigurationError("descriptor regions do not cover the grid")
    return C


def _outside_fractions(intervals, n: int) -> np.ndarray:
    """``outside_fraction`` of every cell (i/n, (i+1)/n], bit for bit.

    The intervals are merged into runs once, as ``union_measure`` merges
    them.  A cell's sweep meets the same runs clipped to the cell, in the
    same order, so adding each run's clipped length min(B, hi) - max(A, lo)
    to every cell, run by run, gives the same float sums (a run that misses
    a cell adds 0.0).
    """
    runs: list[list[float]] = []
    for a, b in sorted(iv for iv in intervals if iv[1] > iv[0]):
        if runs and a <= runs[-1][1]:
            runs[-1][1] = max(runs[-1][1], b)
        else:
            runs.append([a, b])
    lo, hi = np.arange(n) / n, np.arange(1, n + 1) / n
    covered = np.zeros(n)
    for a, b in runs:
        covered += np.maximum(np.minimum(b, hi) - np.maximum(a, lo), 0.0)
    return np.maximum((hi - lo) - covered, 0.0) / (hi - lo)


def plan_cost(C: np.ndarray, pi: np.ndarray) -> float:
    """Integral of the cost against a plan with the inf * 0 = 0 convention."""
    C = np.asarray(C, dtype=float)
    pi = np.asarray(pi, dtype=float)
    if C.shape != pi.shape:
        raise ValueError(f"shape mismatch: cost {C.shape} vs plan {pi.shape}")
    mask = pi > 0
    if np.any(np.isinf(C[mask])):
        return INF
    return float(np.sum(C[mask] * pi[mask]))


def max_finite_entry(C: np.ndarray) -> float:
    """Largest finite entry of C, or 0.0 if there is none."""
    C = np.asarray(C, dtype=float)
    finite = C[np.isfinite(C)]
    return float(finite.max()) if finite.size else 0.0


# ---------------------------------------------------------------------------
# serialization: one shape registry for cost regions and set pieces
# ---------------------------------------------------------------------------


#: kind -> (shape type, its fields as JSON, decoder of a document of the kind)
SHAPE_KINDS = {
    "below_diagonal": (BelowDiagonal, lambda k: {}, lambda d: BelowDiagonal()),
    "diagonal": (Diagonal, lambda k: {}, lambda d: Diagonal()),
    "above_diagonal": (AboveDiagonal, lambda k: {}, lambda d: AboveDiagonal()),
    "rectangle": (
        Rectangle,
        lambda k: {"box": [k.x0, k.x1, k.y0, k.y1]},
        lambda d: Rectangle(*map(float, d["box"])),
    ),
    "graph": (
        Graph,
        lambda k: {"segments": [[s.x0, s.x1, s.y_start, s.y_end] for s in k.segments]},
        lambda d: Graph(tuple(Segment(*map(float, s)) for s in d["segments"])),
    ),
    "point_set": (
        PointSet,
        lambda k: {"points": [list(p) for p in k.points]},
        lambda d: PointSet(tuple((float(x), float(y)) for x, y in d["points"])),
    ),
    "countable_marker": (CountableMarker, lambda k: {}, lambda d: CountableMarker()),
    "complement_of_intervals": (
        ComplementOfIntervals,
        lambda k: {"intervals": [list(iv) for iv in k.intervals], "axis": k.axis},
        lambda d: ComplementOfIntervals(
            tuple((float(a), float(b)) for a, b in d["intervals"]), d.get("axis", "x")
        ),
    ),
}
_KIND_OF = {shape: kind for kind, (shape, _, _) in SHAPE_KINDS.items()}

#: the one kind that set documents name differently; both names read anywhere
_SET_NAME = {"countable_marker": "countable_set"}
_READ_KIND = {alias: kind for kind, alias in _SET_NAME.items()}


def shape_to_json(shape: RegionKind, set_piece: bool = False) -> dict:
    """``{"kind": ..., **fields}``; a set piece is written under its set name."""
    kind = _KIND_OF.get(type(shape))
    if kind is None:
        raise ConfigurationError(f"unserializable region kind {shape!r}")
    name = _SET_NAME.get(kind, kind) if set_piece else kind
    return {"kind": name, **SHAPE_KINDS[kind][1](shape)}


def shape_from_json(d: dict, kinds=SHAPE_KINDS, what: str = "region") -> RegionKind:
    """Decode a shape document whose kind is one of ``kinds``."""
    kind = _READ_KIND.get(d.get("kind"), d.get("kind"))
    if kind not in kinds:
        raise ConfigurationError(f"unknown {what} kind {d.get('kind')!r}")
    with malformed(f"{kind} {what}"):
        return SHAPE_KINDS[kind][2](d)


def region_to_json(region: Region | CellTable) -> dict:
    if isinstance(region, CellTable):
        rows = [list(map(extreal_to_json, r)) for r in region.values.tolist()]
        return {"kind": "cell_table", "values": rows}
    return {**shape_to_json(region.where), "value": extreal_to_json(region.value)}


def region_from_json(d: dict) -> Region | CellTable:
    if d.get("kind") == "cell_table":
        return CellTable([list(map(extreal_from_json, r)) for r in d["values"]])
    return Region(shape_from_json(d), extreal_from_json(d["value"]))


def descriptor_to_json(desc: CostDescriptor) -> dict:
    return {"regions": [region_to_json(r) for r in desc.regions]}


def descriptor_from_json(d: dict) -> CostDescriptor:
    return CostDescriptor(tuple(region_from_json(r) for r in d["regions"]))
