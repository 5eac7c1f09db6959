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
    return TransportPlan._own(np.eye(n) / n)


def antidiagonal_plan(n: int) -> TransportPlan:
    return TransportPlan(np.fliplr(np.eye(n)) / n)


def cyclic_shift_plan(n: int) -> TransportPlan:
    """Full coupling sending atom i to i-1 and atom 1 around to atom n."""
    m = np.zeros((n, n))
    for i in range(1, n):
        m[i, i - 1] = 1 / n
    m[0, n - 1] = 1 / n
    return TransportPlan(m)


def shift_subplan(n: int) -> TransportPlan:
    """One-step-down sub-coupling of mass (n-1)/n, entirely below the diagonal."""
    m = np.zeros((n, n))
    for i in range(1, n):
        m[i, i - 1] = 1 / n
    return TransportPlan(m)


def product_plan(mu: DiscreteMeasure, nu: DiscreteMeasure) -> TransportPlan:
    return TransportPlan(np.outer(mu.weights, nu.weights))
