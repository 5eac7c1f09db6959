"""Canonical instance catalog: every quantitative phenomenon in one place.

Each entry couples a transport instance with its known continuum values
(primal, dual, rectified primal) and a short note on why those values hold.
The values are attached data, never recomputed here; the solver and the
acceptance suite confront them with grid results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

import numpy as np

from .core import INF, ConfigurationError, DensitySpec
from .costs import (
    CellTable,
    ComplementOfIntervals,
    CostDescriptor,
    CountableMarker,
    Region,
    diagonal_split,
    union_measure,
    whole_square,
)
from .instance import Instance

__all__ = [
    "CatalogEntry",
    "catalog",
    "catalog_names",
    "get_instance",
    "diag_inf",
    "diag_M",
    "rational_nullmod",
    "fat_set",
    "trivial_zero",
    "random_finite",
    "rational_enumeration",
    "excluded_intervals",
    "fat_set_alpha",
    "complement_measure",
]


@dataclass(frozen=True)
class CatalogEntry:
    instance: Instance
    notes: dict
    tags: tuple[str, ...]

    @property
    def continuum_values(self) -> dict:
        """The instance's attached known values; {} when it has none."""
        return self.instance.known_values or {}


# ---------------------------------------------------------------------------
# the fat closed set D = [0,1] minus a union of shrinking rational intervals
# ---------------------------------------------------------------------------


def rational_enumeration(count: int) -> list[Fraction]:
    """First ``count`` rationals in [0, 1], ordered by denominator then
    numerator, each in lowest terms (0/1, 1/1, 1/2, 1/3, 2/3, 1/4, 3/4, ...)."""
    out: list[Fraction] = []
    d = 1
    while len(out) < count:
        for p in range(0, d + 1):
            if math.gcd(p, d) == 1:
                out.append(Fraction(p, d))
                if len(out) == count:
                    return out
        d += 1
    return out


def excluded_intervals(alpha: float, count: int) -> list[tuple[float, float]]:
    """Open intervals (q_k - alpha/2^k, q_k + alpha/2^k) for k = 1..count."""
    return _intervals_around([float(q) for q in rational_enumeration(count)], alpha)


def _intervals_around(qs: list[float], alpha: float) -> list[tuple[float, float]]:
    return [(q - alpha / 2**k, q + alpha / 2**k) for k, q in enumerate(qs, start=1)]


def complement_measure(alpha: float, count: int) -> float:
    """lambda([0,1] minus the first ``count`` excluded intervals)."""
    return 1.0 - union_measure(excluded_intervals(alpha, count))


#: enough intervals that the neglected tail is far below double precision
_ALPHA_DEPTH = 80


@cache
def fat_set_alpha(target: float = 0.5, depth: int = _ALPHA_DEPTH) -> float:
    """Solve complement_measure(alpha, depth) == target by bisection.

    The interval-union measure is continuous and strictly decreasing in
    alpha until the union covers [0, 1], so plain bisection is exact to
    floating precision.  Intervals past ``depth`` have total length below
    2*alpha*2^-depth and cannot move the answer at double precision.

    Once ``mid`` equals ``lo`` or ``hi`` the bracket can no longer shrink and
    every later step yields the same ``mid``, so the loop stops there with
    the bits a full 200-step run would return.

    Cached: with its defaults the result is a constant that every
    ``fat_set()`` would otherwise bisect for again.
    """
    qs = [float(q) for q in rational_enumeration(depth)]
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return mid
        if 1.0 - union_measure(_intervals_around(qs, mid)) > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# instances
# ---------------------------------------------------------------------------

_UNIFORM = DensitySpec.uniform()


def diag_inf() -> Instance:
    """Zero below the diagonal, one on it, forbidden above it."""
    return Instance(
        name="diag_inf",
        marginal_x=_UNIFORM,
        marginal_y=_UNIFORM,
        cost=diagonal_split(0.0, 1.0, INF),
        known_rectified=diagonal_split(0.0, 0.0, INF),
        known_values={"P_c": 1.0, "D_c": 0.0, "P_rectified": 0.0},
    )


def diag_M(M: float = 2.0) -> Instance:
    """Finite variant: the forbidden region costs a finite M > 1 instead of
    +inf (M = inf would be ``diag_inf``, whose known values differ)."""
    if not (M > 1 and math.isfinite(M)):
        raise ConfigurationError(f"the finite variant needs a finite M > 1, got {M}")
    return Instance(
        name=f"diag_M_{M:g}",
        marginal_x=_UNIFORM,
        marginal_y=_UNIFORM,
        cost=diagonal_split(0.0, 1.0, M),
        known_rectified=diagonal_split(0.0, 0.0, M),
        known_values={"P_c": 0.0, "D_c": 0.0, "P_rectified": 0.0},
    )


def rational_nullmod() -> Instance:
    """c == 1 modified to 0 on the rational pairs: a null modification that
    leaves the problem equivalent to the constant-one cost."""
    return Instance(
        name="rational_nullmod",
        marginal_x=_UNIFORM,
        marginal_y=_UNIFORM,
        cost=CostDescriptor((whole_square(1.0), Region(CountableMarker(), 0.0))),
        known_rectified=CostDescriptor((whole_square(1.0),)),
        known_values={"P_c": 1.0, "D_c": 1.0, "P_rectified": 1.0},
    )


def fat_set(K: int = 20, alpha: float | None = None) -> Instance:
    """Indicator of a fat closed set D (measure 1/2 in the limit), tensored
    with zero: the cost depends on x only, so primal and dual both equal the
    measure of the K-interval approximation of D."""
    if K < 1:
        raise ConfigurationError("fat_set needs at least one excluded interval")
    if alpha is None:
        alpha = fat_set_alpha()
    intervals = tuple(excluded_intervals(alpha, K))
    cost = CostDescriptor(
        (whole_square(0.0), Region(ComplementOfIntervals(intervals, "x"), 1.0))
    )
    return Instance(
        name=f"fat_set_{K}",
        marginal_x=_UNIFORM,
        marginal_y=_UNIFORM,
        cost=cost,
        known_rectified=cost,
        known_values={"P_c": 0.5, "D_c": 0.5, "P_rectified": 0.5},
    )


def trivial_zero() -> Instance:
    return Instance(
        name="trivial_zero",
        marginal_x=_UNIFORM,
        marginal_y=_UNIFORM,
        cost=CostDescriptor((whole_square(0.0),)),
        known_rectified=CostDescriptor((whole_square(0.0),)),
        known_values={"P_c": 0.0, "D_c": 0.0, "P_rectified": 0.0},
    )


def random_finite(seed: int, n: int) -> Instance:
    """Seeded finite-cost instance: one constant value in [0, 1) per cell of
    an n x n grid (a ``CellTable``), uniform marginals.  Deterministic per
    (seed, n)."""
    if not 1 <= n <= 64:
        raise ConfigurationError(f"random instances need 1 <= n <= 64, got n = {n}")
    if seed < 0:
        raise ConfigurationError(f"random instances need a seed >= 0, got {seed}")
    values = np.random.default_rng(seed).uniform(0.0, 1.0, size=(n, n))
    return Instance(
        name=f"random_finite_s{seed}_n{n}",
        marginal_x=_UNIFORM,
        marginal_y=_UNIFORM,
        cost=CostDescriptor((CellTable(values),)),
    )


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------


#: family name -> (instance from the parameters (M, K, seed, n), notes, tags)
_FAMILIES = {
    "diag_inf": (
        lambda M, K, seed, n: diag_inf(),
        {
            "P_c": "the only finite-cost coupling is the diagonal one",
            "D_c": "feasible pairs exceed zero on at most countably many x",
            "P_rectified": "zeroing the diagonal value restores duality",
        },
        ("duality-gap", "forbidden-arcs"),
    ),
    "diag_M": (
        lambda M, K, seed, n: diag_M(M),
        {
            "P_c": "infimum 0 not attained; optimizers drift to the diagonal",
            "D_c": "bounded cost, duality holds",
            "P_rectified": "rectified cost vanishes on and below the diagonal",
        },
        ("non-attainment", "finite-cost"),
    ),
    "rational_nullmod": (
        lambda M, K, seed, n: rational_nullmod(),
        {
            "P_c": "modification lives on a null set; equivalent to cost 1",
            "D_c": "same",
            "P_rectified": "rectification leaves the constant cost alone",
        },
        ("null-modification",),
    ),
    "fat_set": (
        lambda M, K, seed, n: fat_set(K),
        {
            "P_c": "cost depends on x only: every coupling pays mu(D)",
            "D_c": "indicator pair (I_D, 0) is an optimal dual pair",
            "P_rectified": "no lower semi-continuous minorant does better",
        },
        ("fat-set", "attained"),
    ),
    "trivial_zero": (
        lambda M, K, seed, n: trivial_zero(),
        {"P_c": "zero cost", "D_c": "zero cost", "P_rectified": "zero cost"},
        ("trivial",),
    ),
    "random_finite": (
        lambda M, K, seed, n: random_finite(seed, n),
        {},
        ("random", "finite-cost"),
    ),
}


def catalog(M: float = 2.0, K: int = 20, seed: int = 0, n: int = 8) -> list[CatalogEntry]:
    """All canonical entries; parameters feed the parametrized families."""
    return [
        CatalogEntry(make(M, K, seed, n), dict(notes), tags)
        for make, notes, tags in _FAMILIES.values()
    ]


def catalog_names() -> list[str]:
    return list(_FAMILIES)


def get_instance(
    name: str,
    M: float = 2.0,
    K: int = 20,
    seed: int = 0,
    n: int = 8,
) -> Instance:
    """Instantiate a catalog family by name (CLI entry point)."""
    if name not in _FAMILIES:
        raise ConfigurationError(f"unknown catalog instance {name!r}")
    return _FAMILIES[name][0](M, K, seed, n)
