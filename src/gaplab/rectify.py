"""Computable faces of cost rectification on a fixed grid.

Two independent routes to the same object:

* :func:`pointwise_dual_envelope` answers, per entry, "how high can a
  feasible dual pair reach here?".  On a full-support grid the answer has a
  closed form: the cost itself on a finite entry and +inf on a forbidden
  one (the proof is in its docstring; the test-suite checks it against
  the per-entry linear program).
* :func:`generative_rectify` builds the envelope from below as a running
  pointwise supremum of explicitly constructed feasible pairs: the zero
  pair and one box-infimum pair per dyadic index box.  Its result has a
  closed form as well: the cost itself on a finite entry, and one above the
  largest finite entry on a forbidden one (the proof is in its docstring).

The generative supremum can never exceed the pointwise envelope: every
generated pair satisfies phi_i + psi_j <= C_ij in floating point, with no
tolerance, and the test-suite checks both ways.  ``PAIR_TOL`` is the slack
allowed of pairs supplied from outside.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .core import INF, DiscreteMeasure
from .costs import max_finite_entry
from .instance import discretize
# linprog and solve_primal are not called here; they stay importable as
# gaplab.rectify.linprog and gaplab.rectify.solve_primal, where
# perfbench/tracing.py wraps them
from .solver import InputError, linprog, solve_primal  # noqa: F401

__all__ = [
    "FeasiblePair",
    "RectifiedAccumulator",
    "pointwise_dual_envelope",
    "envelope_matrix",
    "box_infimum_pairs",
    "dyadic_index_ranges",
    "generative_rectify",
]

#: feasibility slack allowed of accumulated pairs
PAIR_TOL = 1e-9

#: grid entries per (pairs, n, m) temporary of RectifiedAccumulator.add_pairs:
#: 2^18 raised the peak RSS of a 10 s ``rectify_envelope`` run from 90.7 to
#: 95.0-95.2 MB (2-core VM) and saved no time
ENTRIES_PER_BATCH = 2**15


@dataclass(frozen=True)
class FeasiblePair:
    """A dual pair phi (+) psi <= C together with where it came from."""

    phi: np.ndarray
    psi: np.ndarray
    provenance: str
    objective: float = 0.0

    def tensor(self) -> np.ndarray:
        return self.phi[:, None] + self.psi[None, :]

    def feasibility_slack(self, C: np.ndarray) -> float:
        """max of phi_i + psi_j - C_ij over the finite entries of C (-inf if
        there are none)."""
        gap = (self.tensor() - C)[np.isfinite(C)]
        return float(gap.max()) if gap.size else -INF


@dataclass
class RectifiedAccumulator:
    """Pointwise supremum of accumulated feasible pairs against a fixed cost."""

    C: np.ndarray
    lower_envelope: np.ndarray = field(init=False)
    pair_count: int = field(init=False, default=0)
    provenance_counts: dict = field(init=False)
    log: list = field(init=False)

    def __post_init__(self):
        self.C = np.asarray(self.C, dtype=float)
        self.lower_envelope = np.full(self.C.shape, -INF)
        self.provenance_counts = {}
        self.log = []

    def add_pair(self, pair: FeasiblePair) -> None:
        self.add_pairs([pair])

    def add_pairs(self, pairs: Sequence[FeasiblePair]) -> None:
        """Fold pairs into the envelope in order, as one add per pair would.

        A pair whose slack exceeds ``PAIR_TOL``, or whose tensor holds a NaN,
        raises InputError; the pairs before it are added, the rest are not.
        The tensors are taken ``ENTRIES_PER_BATCH // C.size`` pairs at a
        time, so the temporaries stay small whatever the batch.
        """
        finite = np.isfinite(self.C)
        per_chunk = max(1, ENTRIES_PER_BATCH // max(1, self.C.size))
        for start in range(0, len(pairs), per_chunk):
            part = pairs[start : start + per_chunk]
            tensor = (
                np.stack([p.phi for p in part])[:, :, None]
                + np.stack([p.psi for p in part])[:, None, :]
            )
            gap = tensor - self.C
            gap[:, ~finite] = -INF  # the slack is over the finite entries
            slack = gap.reshape(len(part), -1).max(axis=1, initial=-INF)
            # written so that a NaN slack fails; NaN on a forbidden entry, which
            # the slack does not see, would still poison the running maximum
            bad = ~(slack <= PAIR_TOL) | np.isnan(tensor).any(axis=(1, 2))
            good = int(bad.argmax()) if bad.any() else len(part)
            if good:
                # on a tie np.maximum keeps its second operand, so a -0.0 sum
                # would replace a 0.0; adding 0.0 turns -0.0 into 0.0
                top = tensor[:good].max(axis=0)
                self.lower_envelope = np.maximum(self.lower_envelope, top) + 0.0
            for pair, s in zip(part[:good], slack[:good].tolist()):
                self.pair_count += 1
                key = pair.provenance.split("(")[0]
                self.provenance_counts[key] = self.provenance_counts.get(key, 0) + 1
                self.log.append((pair.provenance, float(pair.objective), s))
            if good < len(part):
                pair = part[good]
                raise InputError(
                    f"pair {pair.provenance} is infeasible or NaN "
                    f"(slack {slack[good]:.3e})"
                )

    def sup_gap_finite(self) -> float:
        """max over finite entries of C - lower_envelope (0 when saturated)."""
        finite = np.isfinite(self.C)
        if not finite.any():
            return 0.0
        return float((self.C - self.lower_envelope)[finite].max())


# ---------------------------------------------------------------------------
# pointwise envelope
# ---------------------------------------------------------------------------


def _require_full_support(mu: DiscreteMeasure, nu: DiscreteMeasure) -> None:
    if np.any(mu.weights <= 0) or np.any(nu.weights <= 0):
        raise InputError("the envelope oracle needs full-support marginals")


def pointwise_dual_envelope(
    C: np.ndarray, mu: DiscreteMeasure, nu: DiscreteMeasure, i: int, j: int
) -> float:
    """sup of phi[i] + psi[j] over pairs feasible against C (+inf if unbounded).

    Requires full-support marginals so that the grid has no null atoms and
    the supremum is the honest entrywise rectification.  The supremum has a
    closed form: C[i, j] on a finite entry, +inf on a forbidden one.

    Proof.  Let B exceed twice the largest |C| over finite entries, plus
    |t| for the t below.  On a finite entry the constraint
    phi[i] + psi[j] <= C[i, j] bounds the sum, and phi[i] = C[i, j],
    psi[j] = 0 with every other potential at -B attains it: every other
    constraint then has at least one potential at -B on its left side.  On a
    +inf (or otherwise non-finite) entry no constraint ties phi[i] to
    psi[j], so phi[i] = psi[j] = t with every other potential at -B is
    feasible for every t, and the supremum is +inf.
    """
    _require_full_support(mu, nu)
    c = float(np.asarray(C, dtype=float)[i, j])
    return c if math.isfinite(c) else INF


def envelope_matrix(
    C: np.ndarray, mu: DiscreteMeasure, nu: DiscreteMeasure
) -> np.ndarray:
    """:func:`pointwise_dual_envelope` at every entry of C, in closed form."""
    _require_full_support(mu, nu)
    C = np.asarray(C, dtype=float)
    return np.where(np.isfinite(C), C, INF)


# ---------------------------------------------------------------------------
# generative construction
# ---------------------------------------------------------------------------


def dyadic_index_ranges(n: int) -> list[tuple[int, int]]:
    """All ranges of the dyadic halving tree over {0, ..., n-1}, down to
    singletons: [0, n), its halves, their halves, ..."""
    out: list[tuple[int, int]] = []
    stack = [(0, n)]
    while stack:
        lo, hi = stack.pop()
        out.append((lo, hi))
        if hi - lo > 1:
            mid = (lo + hi) // 2
            stack.append((lo, mid))
            stack.append((mid, hi))
    return sorted(set(out))


def box_infimum_pairs(C: np.ndarray, boxes=None) -> list[FeasiblePair]:
    """One feasible pair per index box U x V, achieving the box infimum of C
    on the box and -inf off it.

    Boxes with an infinite infimum contribute pairs clamped just above the
    largest finite entry, so forbidden regions still receive witnesses that
    dominate every finite cost value.  The potentials off the box are -inf:
    that violates no constraint, and since no potential is +inf, no sum
    phi_i + psi_j is NaN and none overflows.
    """
    C = np.asarray(C, dtype=float)
    n, m = C.shape
    if boxes is None:
        boxes = [
            (u, v) for u in dyadic_index_ranges(n) for v in dyadic_index_ranges(m)
        ]
    top = max_finite_entry(C)
    pairs = []
    for (ulo, uhi), (vlo, vhi) in boxes:
        e = float(C[ulo:uhi, vlo:vhi].min())
        if math.isinf(e):
            e = top + 1.0  # clamp: still below +inf, above all finite values
        phi = np.full(n, -INF)
        psi = np.full(m, -INF)
        phi[ulo:uhi] = e
        psi[vlo:vhi] = 0.0
        pairs.append(
            FeasiblePair(
                phi=phi,
                psi=psi,
                provenance=f"box_infimum(x[{ulo},{uhi})*y[{vlo},{vhi}))",
                objective=e,
            )
        )
    return pairs


def generative_rectify(
    instance, n: int, budget: int, rng_seed: int
) -> RectifiedAccumulator:
    """Accumulate the generative envelope at resolution n: the zero pair,
    then every dyadic box-infimum pair as one batch.

    ``budget`` must be non-negative; it and ``rng_seed`` are accepted and
    have no effect.

    The envelope is, bit for bit,
    ``np.where(np.isfinite(C), C, max_finite_entry(C) + 1.0) + 0.0``.

    Proof.  Let top = max_finite_entry(C).  A box pair is e on its box and
    -inf off it, where e is the minimum of C over the box, or top + 1 on a
    box with no finite entry.  So at (i, j) the pairs whose box misses it
    give -inf, and the others give e + 0.0 (psi is 0.0 on the box):

    * on a finite entry, the singleton box {i} x {j} attains C_ij + 0.0,
      and every box containing (i, j) holds that finite entry, so its e is
      a minimum of C and at most C_ij;
    * on a forbidden entry, the singleton box attains top + 1, and every
      box containing (i, j) has e at most top + 1: a finite minimum is at
      most top, and the clamp is top + 1.

    The zero pair gives 0, which never binds: an instance's costs live in
    [0, inf], so C_ij >= 0 on a finite entry and top + 1 >= 1.  Adding 0.0
    changes only a -0.0, to 0.0, and the accumulator adds it after every
    batch as the closed form does.
    """
    if budget < 0:
        raise InputError("budget must be non-negative")
    C, _, _ = discretize(instance, n)
    acc = RectifiedAccumulator(C)
    acc.add_pair(
        FeasiblePair(
            phi=np.zeros(n), psi=np.zeros(n), provenance="zero_pair", objective=0.0
        )
    )
    acc.add_pairs(box_infimum_pairs(C))
    return acc
