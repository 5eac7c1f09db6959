"""Computable faces of cost rectification on a fixed grid.

Two independent routes to the same object:

* :func:`envelope_matrix` answers, at every entry, "how high can a
  feasible dual pair reach here?".  On a full-support grid the answer has a
  closed form: the cost itself on a finite entry and +inf on a forbidden
  one (the proof is in its docstring; the test-suite checks it against
  the per-entry linear program).
* :func:`generative_rectify` gives the envelope from below: the pointwise
  supremum of the zero pair and one box-infimum pair per dyadic index box
  (:func:`box_infimum_pairs`).  That supremum has a closed form as well,
  which it writes down without building the pairs: the cost itself on a
  finite entry, and one above the largest finite entry on a forbidden one
  (the proof is in its docstring).

The generative supremum can never exceed the pointwise envelope: every box
pair satisfies phi_i + psi_j <= C_ij in floating point, with no tolerance,
and the test-suite checks both ways.  ``PAIR_TOL`` is the slack allowed of
pairs folded in through :meth:`RectifiedAccumulator.add_pair`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import INF, ConfigurationError, DiscreteMeasure
from .costs import max_finite_entry
from .instance import discretize
# linprog and solve_primal are not called here; they stay importable as
# gaplab.rectify.linprog and gaplab.rectify.solve_primal, where
# perfbench/tracing.py wraps them
from .solver import linprog, solve_primal  # noqa: F401

__all__ = [
    "FeasiblePair",
    "RectifiedAccumulator",
    "envelope_matrix",
    "box_infimum_pairs",
    "dyadic_index_ranges",
    "generative_rectify",
]

#: feasibility slack allowed of accumulated pairs
PAIR_TOL = 1e-9


@dataclass(frozen=True)
class FeasiblePair:
    """A dual pair phi (+) psi <= C together with where it came from."""

    phi: np.ndarray
    psi: np.ndarray
    provenance: str

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

    def __post_init__(self):
        self.C = np.asarray(self.C, dtype=float)
        self.lower_envelope = np.full(self.C.shape, -INF)
        self.provenance_counts = {}

    def add_pair(self, pair: FeasiblePair) -> None:
        """Fold one pair into the envelope.

        A pair whose slack exceeds ``PAIR_TOL`` or is NaN, or whose tensor
        holds a NaN anywhere (forbidden entries included, which the slack
        does not see but which would poison the running maximum), raises
        ConfigurationError and leaves the accumulator as it was.
        """
        tensor = pair.tensor()
        slack = pair.feasibility_slack(self.C)
        if not slack <= PAIR_TOL or np.isnan(tensor).any():
            raise ConfigurationError(
                f"pair {pair.provenance} is infeasible or NaN (slack {slack:.3e})"
            )
        # on a tie np.maximum keeps its second operand, so a -0.0 sum would
        # replace a 0.0; adding 0.0 turns -0.0 into 0.0
        self.lower_envelope = np.maximum(self.lower_envelope, tensor) + 0.0
        self.pair_count += 1
        key = pair.provenance.split("(")[0]
        self.provenance_counts[key] = self.provenance_counts.get(key, 0) + 1

    def sup_gap_finite(self) -> float:
        """max over finite entries of C - lower_envelope (0 when saturated)."""
        finite = np.isfinite(self.C)
        if not finite.any():
            return 0.0
        return float((self.C - self.lower_envelope)[finite].max())


# ---------------------------------------------------------------------------
# pointwise envelope
# ---------------------------------------------------------------------------


def envelope_matrix(
    C: np.ndarray, mu: DiscreteMeasure, nu: DiscreteMeasure
) -> np.ndarray:
    """The pointwise dual envelope of C: at each entry (i, j), the sup of
    phi[i] + psi[j] over pairs feasible against C (+inf if unbounded).

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
    if np.any(mu.weights <= 0) or np.any(nu.weights <= 0):
        raise ConfigurationError("the envelope oracle needs full-support marginals")
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


def _box_minima(C: np.ndarray, row_ranges, col_ranges) -> np.ndarray:
    """min C over every box U x V, U in ``row_ranges`` and V in
    ``col_ranges`` (non-empty (lo, hi) ranges), as a (rows, cols) table, with
    a box of infinite minimum clamped to ``max_finite_entry(C) + 1.0``.  Each
    ``np.minimum.reduceat`` pass reads C padded with +inf at the interleaved
    indices lo_0, hi_0, lo_1, ...: the even results are the box minima, and
    the padding keeps hi = n in bounds.
    """
    padded = np.pad(C, ((0, 1), (0, 1)), constant_values=INF)
    rows = np.minimum.reduceat(padded, np.ravel(row_ranges), axis=0)[::2]
    table = np.minimum.reduceat(rows, np.ravel(col_ranges), axis=1)[:, ::2]
    return np.where(np.isinf(table), max_finite_entry(C) + 1.0, table)


def box_infimum_pairs(C: np.ndarray, boxes=None) -> list[FeasiblePair]:
    """One feasible pair per index box U x V, achieving the box infimum of C
    on the box and -inf off it.

    Boxes with an infinite infimum contribute pairs clamped just above the
    largest finite entry, so forbidden regions still receive witnesses that
    dominate every finite cost value.  The potentials off the box are -inf:
    that violates no constraint, and since no potential is +inf, no sum
    phi_i + psi_j is NaN and none overflows.  The box values are one
    :func:`_box_minima` table over the distinct ranges that ``boxes`` names.
    """
    C = np.asarray(C, dtype=float)
    n, m = C.shape
    if boxes is None:
        boxes = [
            (u, v) for u in dyadic_index_ranges(n) for v in dyadic_index_ranges(m)
        ]
    if any(lo >= hi for box in boxes for lo, hi in box):
        raise ConfigurationError("every box range (lo, hi) needs lo < hi")
    rows = {u: k for k, u in enumerate(sorted({u for u, _ in boxes}))}
    cols = {v: k for k, v in enumerate(sorted({v for _, v in boxes}))}
    table = _box_minima(C, list(rows), list(cols)).tolist()
    pairs = []
    for u, v in boxes:
        phi = np.full(n, -INF)
        psi = np.full(m, -INF)
        phi[u[0] : u[1]] = table[rows[u]][cols[v]]
        psi[v[0] : v[1]] = 0.0
        pairs.append(FeasiblePair(phi, psi, "box_infimum(x[{},{})*y[{},{}))".format(*u, *v)))
    return pairs


def generative_rectify(
    instance, n: int, budget: int, rng_seed: int
) -> RectifiedAccumulator:
    """Accumulate the generative envelope at resolution n: the zero pair,
    then every dyadic box-infimum pair, folded in one step from the closed
    form below without building the pairs.

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
    changes only a -0.0, to 0.0, as the accumulator does after every pair.
    """
    if budget < 0:
        raise ConfigurationError("budget must be non-negative")
    C, _, _ = discretize(instance, n)
    acc = RectifiedAccumulator(C)
    acc.add_pair(FeasiblePair(np.zeros(n), np.zeros(n), "zero_pair"))
    closed = np.where(np.isfinite(C), C, max_finite_entry(C) + 1.0)
    acc.lower_envelope = np.maximum(acc.lower_envelope, closed) + 0.0
    boxes = len(dyadic_index_ranges(n)) ** 2
    acc.pair_count += boxes
    acc.provenance_counts["box_infimum"] = boxes
    return acc
