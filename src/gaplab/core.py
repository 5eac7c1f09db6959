"""Shared numeric primitives: [0, inf]-valued costs, grids, densities, measures.

Conventions used throughout the package:

* Extended-real cost values live in ``[0, inf]`` and are stored as plain
  ``float`` / ``float64`` with ``math.inf`` for the infinite value.
* ``inf * 0 == 0``: integrating an infinite cost over zero mass gives zero.
  numpy would produce ``nan`` here, so summation against plans is done with
  explicit masking (see :func:`gaplab.costs.plan_cost`), never by a bare
  elementwise product.
* The unit square is discretized by the grid of right cell endpoints
  ``i/n`` for ``i = 1..n``; the cell owning atom ``i/n`` is the half-open
  square ``((i-1)/n, i/n] x ((j-1)/n, j/n]``.

All container types are immutable after construction (arrays are frozen),
so values can be shared freely.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

INF = math.inf

#: tolerance for exact geometric matches (atom-on-segment, atom-in-box)
GEOM_TOL = 1e-12

#: tolerance for mass / measure identities
MASS_TOL = 1e-12


class ConfigurationError(ValueError):
    """Input the library rejects."""


@contextmanager
def malformed(what: str):
    """Raise a lookup, type or value error met while decoding ``what`` as a
    :class:`ConfigurationError` that names it."""
    try:
        yield
    except ConfigurationError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"malformed {what}: {exc}") from exc


def check_cost_value(v: float) -> float:
    """Validate a single extended-real cost value (finite >= 0, or +inf)."""
    v = float(v)
    if math.isnan(v) or v < 0:
        raise ConfigurationError(f"cost values live in [0, inf], got {v!r}")
    return v


def extreal_to_json(v: float):
    """Serialize an extended real: finite numbers stay numbers, +inf -> "inf"."""
    return "inf" if v == INF else float(v)


def extreal_from_json(v) -> float:
    if isinstance(v, str):
        if v.strip().lower() in ("inf", "+inf", "infinity"):
            return INF
        raise ConfigurationError(f"not an extended real: {v!r}")
    return float(v)


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Grid:
    """Uniform grid on (0, 1]: atoms at i/n, cells half-open to the left.

    The right-endpoint convention means every atom lies in exactly one cell
    at every coarser dyadic resolution, which the block-partition machinery
    relies on.
    """

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ConfigurationError(f"grid resolution must be >= 1, got {self.n}")

    @property
    def atoms(self) -> np.ndarray:
        return _frozen(np.arange(1, self.n + 1) / self.n)

    def cell_bounds(self, i: int) -> tuple[float, float]:
        """Bounds (lo, hi] of the cell owning atom ``i`` (0-based index)."""
        return (i / self.n, (i + 1) / self.n)

    @property
    def is_dyadic(self) -> bool:
        return self.n & (self.n - 1) == 0


@dataclass(frozen=True)
class DensitySpec:
    """Piecewise-constant probability density on [0, 1].

    ``breakpoints`` is the increasing sequence 0 = b_0 < ... < b_k = 1 and
    ``values[i]`` the density on (b_i, b_{i+1}).  Atomless by construction.
    """

    breakpoints: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        bp, vals = self.breakpoints, self.values
        if len(bp) != len(vals) + 1 or len(vals) == 0:
            raise ConfigurationError("need k+1 breakpoints for k density pieces")
        # every check is written so that a NaN fails it
        if not (abs(bp[0]) <= GEOM_TOL and abs(bp[-1] - 1.0) <= GEOM_TOL):
            raise ConfigurationError("density breakpoints must span [0, 1]")
        if not all(b1 > b0 for b0, b1 in zip(bp, bp[1:])):
            raise ConfigurationError("breakpoints must be strictly increasing")
        if not all(v >= 0 for v in vals):
            raise ConfigurationError("densities are non-negative")
        if not abs(self.measure(0.0, 1.0) - 1.0) <= MASS_TOL:
            raise ConfigurationError("density must integrate to 1")

    @classmethod
    def uniform(cls) -> "DensitySpec":
        return cls(breakpoints=(0.0, 1.0), values=(1.0,))

    @property
    def is_uniform(self) -> bool:
        return len(self.values) == 1

    def measure(self, a: float, b: float) -> float:
        """Exact measure of the interval (a, b) under this density."""
        if b <= a:
            return 0.0
        total = 0.0
        for lo, hi, v in zip(self.breakpoints, self.breakpoints[1:], self.values):
            overlap = min(b, hi) - max(a, lo)
            if overlap > 0:
                total += v * overlap
        return total

    def cell_weights(self, grid: Grid) -> np.ndarray:
        """Integrate the density over each grid cell.

        One vector pass per density piece, adding the pieces in order as
        ``measure`` does, so each weight has the bits of ``measure`` over its
        cell.
        """
        n = grid.n
        a = np.arange(n) / n
        b = np.arange(1, n + 1) / n
        total = np.zeros(n)
        for lo, hi, v in zip(self.breakpoints, self.breakpoints[1:], self.values):
            overlap = np.minimum(b, hi) - np.maximum(a, lo)
            total += np.where(overlap > 0, v * overlap, 0.0)
        return total

    def to_json_dict(self) -> dict:
        if self.is_uniform:
            return {"kind": "uniform"}
        return {
            "kind": "piecewise",
            "breakpoints": list(self.breakpoints),
            "values": list(self.values),
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "DensitySpec":
        if d.get("kind") == "uniform":
            return cls.uniform()
        if d.get("kind") == "piecewise":
            return cls(tuple(d["breakpoints"]), tuple(d["values"]))
        raise ConfigurationError(f"unknown density spec {d!r}")


@dataclass(frozen=True)
class DiscreteMeasure:
    """Non-negative weights on the atoms of a grid; total mass in [0, 1]."""

    weights: np.ndarray

    def __post_init__(self):
        w = _frozen(self.weights)
        if w.ndim != 1:
            raise ConfigurationError("measure weights must be a vector")
        if not np.all(w >= -MASS_TOL):  # also rejects NaN
            raise ConfigurationError("measure weights must be non-negative")
        object.__setattr__(self, "weights", w)

    @classmethod
    def from_density(cls, spec: DensitySpec, grid: Grid) -> "DiscreteMeasure":
        return cls(spec.cell_weights(grid))

    @property
    def total(self) -> float:
        return float(self.weights.sum())
