"""Cost descriptors over the unit square and their grid realizations.

A cost is described declaratively as an ordered list of regions, each a
(matcher, value) pair; sampling at a point returns the value of the last
matching region.  Matching uses the half-open convention of the grid cells:
rectangles are (x0, x1] x (y0, y1], with degenerate sides matched exactly.

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

Rectangles are painted as index slices rather than masks.  The atoms are
sorted, so each side of a box selects a contiguous run of atom indices, and
the run's ends are ``np.searchsorted`` of the very thresholds the scalar and
mask tests compare against; a degenerate side (rare) takes its ends from its
own 1-D mask.  A run of consecutive rectangles is therefore painted with one
``C[a:b, c:d] = v`` per box that covers an atom, in region order, and gives
the same matrix, bit for bit, as painting box masks.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby

import numpy as np

from .core import (
    GEOM_TOL,
    INF,
    ConfigurationError,
    Grid,
    check_cost_value,
    extreal_from_json,
    extreal_to_json,
)

# ---------------------------------------------------------------------------
# region matchers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BelowDiagonal:
    def matches(self, x: float, y: float) -> bool:
        return y < x - GEOM_TOL


@dataclass(frozen=True)
class Diagonal:
    def matches(self, x: float, y: float) -> bool:
        return abs(x - y) <= GEOM_TOL


@dataclass(frozen=True)
class AboveDiagonal:
    def matches(self, x: float, y: float) -> bool:
        return y > x + GEOM_TOL


@dataclass(frozen=True)
class Rectangle:
    """(x0, x1] x (y0, y1]; a degenerate side (x0 == x1) matches exactly."""

    x0: float
    x1: float
    y0: float
    y1: float

    def _axis_match(self, lo: float, hi: float, t: float) -> bool:
        if hi - lo <= GEOM_TOL:
            return abs(t - lo) <= GEOM_TOL
        return lo + GEOM_TOL < t <= hi + GEOM_TOL

    def matches(self, x: float, y: float) -> bool:
        return self._axis_match(self.x0, self.x1, x) and self._axis_match(
            self.y0, self.y1, y
        )


@dataclass(frozen=True)
class Segment:
    """Straight graph segment y = f(x) over [x0, x1], f affine."""

    x0: float
    x1: float
    y_start: float
    y_end: float

    def __post_init__(self):
        if self.x1 < self.x0:
            raise ConfigurationError("segment needs x0 <= x1")

    @property
    def is_constant(self) -> bool:
        return abs(self.y_end - self.y_start) <= GEOM_TOL

    def value_at(self, x: float) -> float:
        if self.x1 == self.x0:
            return self.y_start
        t = (x - self.x0) / (self.x1 - self.x0)
        return (1 - t) * self.y_start + t * self.y_end

    @property
    def y_interval(self) -> tuple[float, float]:
        return (min(self.y_start, self.y_end), max(self.y_start, self.y_end))

    def matches(self, x: float, y: float) -> bool:
        if not (self.x0 - GEOM_TOL <= x <= self.x1 + GEOM_TOL):
            return False
        return abs(self.value_at(x) - y) <= GEOM_TOL


@dataclass(frozen=True)
class Graph:
    """Piecewise-linear graph: union of finitely many segments."""

    segments: tuple[Segment, ...]

    def matches(self, x: float, y: float) -> bool:
        return any(s.matches(x, y) for s in self.segments)


@dataclass(frozen=True)
class PointSet:
    points: tuple[tuple[float, float], ...]

    def matches(self, x: float, y: float) -> bool:
        return any(
            abs(x - px) <= GEOM_TOL and abs(y - py) <= GEOM_TOL
            for px, py in self.points
        )


@dataclass(frozen=True)
class CountableMarker:
    """Symbolic modification on a countable (hence L-negligible) set.

    Every grid atom pair has rational coordinates, so sampling a countable
    modification would repaint the whole grid; the marker therefore never
    matches and only records that the modification happened on a null set.
    """

    def matches(self, x: float, y: float) -> bool:
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

    def matches(self, x: float, y: float) -> bool:
        t = x if self.axis == "x" else y
        return all(not (a < t < b) for a, b in self.intervals)

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
        return self.value if self.where.matches(x, y) else None


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


def _axis_mask(lo: float, hi: float, atoms: np.ndarray) -> np.ndarray:
    if hi - lo <= GEOM_TOL:
        return np.abs(atoms - lo) <= GEOM_TOL
    return (atoms > lo + GEOM_TOL) & (atoms <= hi + GEOM_TOL)


def _axis_slices(
    lo: np.ndarray, hi: np.ndarray, atoms: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per side, the [start, stop) index run of the atoms ``_axis_mask`` selects.

    On sorted atoms, ``atoms > t`` holds exactly from
    ``searchsorted(atoms, t, "right")`` on, so a non-degenerate side needs
    two searches at its own thresholds.  Degenerate sides (and NaN ones,
    which fail ``hi - lo > GEOM_TOL`` too) read their run off ``_axis_mask``.
    """
    start = np.searchsorted(atoms, lo + GEOM_TOL, "right")
    stop = np.searchsorted(atoms, hi + GEOM_TOL, "right")
    for k in np.flatnonzero(~(hi - lo > GEOM_TOL)):
        hit = np.flatnonzero(_axis_mask(lo[k], hi[k], atoms))
        start[k], stop[k] = (hit[0], hit[-1] + 1) if hit.size else (0, 0)
    return start, stop


def _paint_rectangles(
    C: np.ndarray, painted: np.ndarray, run: list[Region], atoms: np.ndarray
) -> None:
    """Paint consecutive ``Rectangle`` regions in order, one slice per box."""
    boxes = np.array(
        [(r.where.x0, r.where.x1, r.where.y0, r.where.y1) for r in run], dtype=float
    )
    xs, xe = _axis_slices(boxes[:, 0], boxes[:, 1], atoms)
    ys, ye = _axis_slices(boxes[:, 2], boxes[:, 3], atoms)
    hits = np.flatnonzero((xs < xe) & (ys < ye))  # boxes that cover an atom
    for k, a, b, c, d in zip(
        hits.tolist(), xs[hits].tolist(), xe[hits].tolist(),
        ys[hits].tolist(), ye[hits].tolist(),
    ):
        C[a:b, c:d] = run[k].value
        painted[a:b, c:d] = True


def _grid_mask(kind: RegionKind, atoms: np.ndarray) -> np.ndarray:
    """Boolean atom-pair mask for a point-sampled region kind."""
    x = atoms[:, None]
    y = atoms[None, :]
    if isinstance(kind, BelowDiagonal):
        return y < x - GEOM_TOL
    if isinstance(kind, Diagonal):
        return np.abs(x - y) <= GEOM_TOL
    if isinstance(kind, AboveDiagonal):
        return y > x + GEOM_TOL
    if isinstance(kind, Rectangle):
        return (
            _axis_mask(kind.x0, kind.x1, atoms)[:, None]
            & _axis_mask(kind.y0, kind.y1, atoms)[None, :]
        )
    if isinstance(kind, Graph):
        mask = np.zeros((atoms.size, atoms.size), dtype=bool)
        for s in kind.segments:
            xs = (atoms >= s.x0 - GEOM_TOL) & (atoms <= s.x1 + GEOM_TOL)
            fx = np.array([s.value_at(a) for a in atoms])
            mask |= xs[:, None] & (np.abs(fx[:, None] - y) <= GEOM_TOL)
        return mask
    if isinstance(kind, PointSet):
        mask = np.zeros((atoms.size, atoms.size), dtype=bool)
        for px, py in kind.points:
            mask |= (np.abs(atoms - px) <= GEOM_TOL)[:, None] & (
                np.abs(atoms - py) <= GEOM_TOL
            )[None, :]
        return mask
    raise ConfigurationError(f"no grid mask for region kind {kind!r}")


def discretize_cost(descriptor: CostDescriptor, grid: Grid) -> np.ndarray:
    """Realize the descriptor as an n x n matrix over the grid atoms.

    Regions are painted in order onto the matrix.  All kinds are sampled at
    the atoms except ``ComplementOfIntervals``, which is blended by the exact
    per-cell fraction lying outside its intervals (cells fully outside take
    the region value, fully covered cells keep the value underneath), so that
    coupling integrals reproduce interval measures exactly.

    Each run of consecutive ``Rectangle`` regions is painted as index slices
    and a ``CellTable`` as one gather (see the module docstring): the same
    cells as their masks, in the same order, so the last matching region
    still wins.
    """
    n = grid.n
    atoms = grid.atoms
    C = np.full((n, n), np.nan)
    painted = np.zeros((n, n), dtype=bool)
    runs = groupby(
        descriptor.regions,
        key=lambda r: isinstance(r, Region) and isinstance(r.where, Rectangle),
    )
    for boxes, run in runs:
        if boxes:
            _paint_rectangles(C, painted, list(run), atoms)
            continue
        for region in run:
            _paint_region(C, painted, region, grid)
    if not painted.all():
        raise ConfigurationError("descriptor regions do not cover the grid")
    return C


def _paint_region(
    C: np.ndarray, painted: np.ndarray, region: Region | CellTable, grid: Grid
) -> None:
    """Paint one region that is not a ``Rectangle``."""
    n = grid.n
    if isinstance(region, CellTable):  # covers every atom of the grid
        ix = region.cells(grid.atoms)
        C[...] = region.values[ix[:, None], ix[None, :]]
        painted[...] = True
        return
    kind = region.where
    if isinstance(kind, ComplementOfIntervals):
        fracs = _outside_fractions(kind.intervals, n)
        under = np.where(painted, C, np.nan)
        axis_fr = (
            np.repeat(fracs[:, None], n, axis=1)
            if kind.axis == "x"
            else np.repeat(fracs[None, :], n, axis=0)
        )
        full = axis_fr >= 1.0 - GEOM_TOL
        empty = axis_fr <= GEOM_TOL
        partial = ~full & ~empty
        if np.any(partial & ~painted):
            raise ConfigurationError(
                "complement_of_intervals blends into uncovered cells"
            )
        # partial cells blend with the value underneath; inf stays inf
        with np.errstate(invalid="ignore"):
            mixed = axis_fr * region.value + (1.0 - axis_fr) * under
        C[full] = region.value
        C[partial] = mixed[partial]
        painted |= ~empty
    elif not isinstance(kind, CountableMarker):
        mask = _grid_mask(kind, grid.atoms)
        C[mask] = region.value
        painted |= mask


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


def truncate_cost(C: np.ndarray, level: int) -> np.ndarray:
    """min(C, level) entrywise: +inf maps to the level, and entries below
    it, negative ones included, stay as they are."""
    if level < 1:
        raise ValueError(f"truncation level must be a positive integer, got {level}")
    return np.minimum(np.asarray(C, dtype=float), float(level))


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
# serialization
# ---------------------------------------------------------------------------


def region_to_json(region: Region | CellTable) -> dict:
    if isinstance(region, CellTable):
        rows = [list(map(extreal_to_json, r)) for r in region.values.tolist()]
        return {"kind": "cell_table", "values": rows}
    k = region.where
    v = extreal_to_json(region.value)
    if isinstance(k, BelowDiagonal):
        return {"kind": "below_diagonal", "value": v}
    if isinstance(k, Diagonal):
        return {"kind": "diagonal", "value": v}
    if isinstance(k, AboveDiagonal):
        return {"kind": "above_diagonal", "value": v}
    if isinstance(k, Rectangle):
        return {"kind": "rectangle", "box": [k.x0, k.x1, k.y0, k.y1], "value": v}
    if isinstance(k, Graph):
        return {
            "kind": "graph",
            "segments": [[s.x0, s.x1, s.y_start, s.y_end] for s in k.segments],
            "value": v,
        }
    if isinstance(k, PointSet):
        return {"kind": "point_set", "points": [list(p) for p in k.points], "value": v}
    if isinstance(k, CountableMarker):
        return {"kind": "countable_marker", "value": v}
    if isinstance(k, ComplementOfIntervals):
        return {
            "kind": "complement_of_intervals",
            "intervals": [list(iv) for iv in k.intervals],
            "axis": k.axis,
            "value": v,
        }
    raise ConfigurationError(f"unserializable region kind {k!r}")


def region_from_json(d: dict) -> Region | CellTable:
    kind = d.get("kind")
    if kind == "cell_table":
        return CellTable([list(map(extreal_from_json, r)) for r in d["values"]])
    value = extreal_from_json(d["value"])
    if kind == "below_diagonal":
        return Region(BelowDiagonal(), value)
    if kind == "diagonal":
        return Region(Diagonal(), value)
    if kind == "above_diagonal":
        return Region(AboveDiagonal(), value)
    if kind == "rectangle":
        return Region(Rectangle(*map(float, d["box"])), value)
    if kind == "graph":
        segs = tuple(Segment(*map(float, s)) for s in d["segments"])
        return Region(Graph(segs), value)
    if kind == "point_set":
        pts = tuple((float(p[0]), float(p[1])) for p in d["points"])
        return Region(PointSet(pts), value)
    if kind == "countable_marker":
        return Region(CountableMarker(), value)
    if kind == "complement_of_intervals":
        ivs = tuple((float(a), float(b)) for a, b in d["intervals"])
        return Region(ComplementOfIntervals(ivs, d.get("axis", "x")), value)
    raise ConfigurationError(f"unknown region kind {kind!r}")


def descriptor_to_json(desc: CostDescriptor) -> dict:
    return {"regions": [region_to_json(r) for r in desc.regions]}


def descriptor_from_json(d: dict) -> CostDescriptor:
    return CostDescriptor(tuple(region_from_json(r) for r in d["regions"]))
