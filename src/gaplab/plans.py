"""Closed-form plan constructions used across solves, harnesses and demos."""

from __future__ import annotations

import numpy as np

from .core import DiscreteMeasure
from .solver import TransportPlan

__all__ = [
    "diagonal_plan",
    "antidiagonal_plan",
    "cyclic_shift_plan",
    "shift_subplan",
    "product_plan",
]


def diagonal_plan(n: int) -> TransportPlan:
    """Identity coupling of uniform marginals: mass 1/n on each (i, i)."""
    i = np.arange(n)
    return TransportPlan._from_support((n, n), i, i, 1 / n)


def antidiagonal_plan(n: int) -> TransportPlan:
    i = np.arange(n)
    return TransportPlan._from_support((n, n), i, i[::-1], 1 / n)


def cyclic_shift_plan(n: int) -> TransportPlan:
    """Full coupling sending atom i to i-1 and atom 1 around to atom n."""
    i = np.arange(n)
    return TransportPlan._from_support((n, n), i, np.roll(i, 1), 1 / n)


def shift_subplan(n: int) -> TransportPlan:
    """One-step-down sub-coupling of mass (n-1)/n, entirely below the diagonal."""
    i = np.arange(1, n)
    return TransportPlan._from_support((n, n), i, i - 1, 1 / n)


def product_plan(mu: DiscreteMeasure, nu: DiscreteMeasure) -> TransportPlan:
    return TransportPlan(np.outer(mu.weights, nu.weights))
