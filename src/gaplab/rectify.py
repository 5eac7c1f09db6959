"""Computable faces of cost rectification on a fixed grid.

Two independent routes to the same object:

* :func:`pointwise_dual_envelope` answers, per entry, "how high can a
  feasible dual pair reach here?".  On a full-support grid the answer has a
  closed form: the cost itself on a finite entry and +inf on a forbidden
  one (the proof is in its docstring; the test-suite checks it against
  the per-entry linear program).
* :func:`generative_rectify` builds the envelope from below as a running
  pointwise supremum of explicitly constructed feasible pairs: the zero
  pair, box-infimum pairs over all dyadic index boxes, and dual optimizers
  of reweighted marginals solved against a truncation ladder of the cost.
  Each of those dual LPs keeps only the arcs between the atoms of positive
  weight; the zero-weight atoms get exact c-transforms.

The generative supremum can never exceed the pointwise envelope: every
generated pair satisfies phi_i + psi_j <= C_ij in floating point, with no
tolerance, and the test-suite checks both ways.  ``PAIR_TOL`` is the slack
allowed of pairs supplied from outside.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from .core import INF, DiscreteMeasure
from .costs import max_finite_entry, truncate_cost
from .instance import discretize
from .solver import _HIGHS_OPTS, InputError, solve_primal

__all__ = [
    "FeasiblePair",
    "ReweightPair",
    "RectifiedAccumulator",
    "pointwise_dual_envelope",
    "envelope_matrix",
    "sample_reweight_pair",
    "reweighted_dual_optimizer",
    "box_infimum_pairs",
    "dyadic_index_ranges",
    "generative_rectify",
]

#: feasibility slack allowed of accumulated pairs
PAIR_TOL = 1e-9

#: arcs (constraints) per batched dual LP: small LPs pay per-call overhead,
#: large ones pay in HiGHS time and peak memory
ARCS_PER_LP = 8192


def _finite_slack(tensor: np.ndarray, C: np.ndarray) -> float:
    """max of tensor - C over the finite entries of C (-inf if there are none)."""
    gap = (tensor - C)[np.isfinite(C)]
    return float(gap.max()) if gap.size else -INF


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
        return _finite_slack(self.tensor(), C)


@dataclass(frozen=True)
class ReweightPair:
    """Densities f, g in [0,1] on the atoms with matching reweighted mass."""

    f: np.ndarray
    g: np.ndarray

    def balance_error(self, mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
        return abs(float(self.f @ mu.weights) - float(self.g @ nu.weights))


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
        tensor = pair.tensor()
        slack = _finite_slack(tensor, self.C)
        # written so that a NaN slack fails; NaN on a forbidden entry, which
        # the slack does not see, would still poison the running maximum
        if not slack <= PAIR_TOL or np.isnan(tensor).any():
            raise InputError(
                f"pair {pair.provenance} is infeasible or NaN (slack {slack:.3e})"
            )
        self.lower_envelope = np.maximum(self.lower_envelope, tensor)
        self.pair_count += 1
        key = pair.provenance.split("(")[0]
        self.provenance_counts[key] = self.provenance_counts.get(key, 0) + 1
        self.log.append((pair.provenance, float(pair.objective), float(slack)))

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


def sample_reweight_pair(
    mu: DiscreteMeasure, nu: DiscreteMeasure, rng_seed
) -> ReweightPair:
    """Draw (f, g) from a mixture of uniform and step profiles, then rescale
    one side so the reweighted masses balance.  Deterministic per seed."""
    rng = (
        rng_seed
        if isinstance(rng_seed, np.random.Generator)
        else np.random.default_rng(rng_seed)
    )
    for _ in range(100):
        f = _draw_profile(rng, mu.n)
        g = _draw_profile(rng, nu.n)
        If = float(f @ mu.weights)
        Ig = float(g @ nu.weights)
        if If <= 1e-15 or Ig <= 1e-15:
            continue  # degenerate draw, retry with the next substream
        if If <= Ig:
            g = g * (If / Ig)
        else:
            f = f * (Ig / If)
        return ReweightPair(f=f, g=g)
    raise RuntimeError("could not draw a non-degenerate reweight pair in 100 tries")


def _draw_profile(rng: np.random.Generator, n: int) -> np.ndarray:
    if rng.integers(2) == 0:
        return rng.uniform(0.0, 1.0, size=n)
    lo = int(rng.integers(0, n))
    hi = int(rng.integers(lo, n)) + 1
    prof = np.zeros(n)
    prof[lo:hi] = 1.0
    return prof


def reweighted_dual_optimizer(
    C: np.ndarray, mu: DiscreteMeasure, nu: DiscreteMeasure, pair: ReweightPair
) -> FeasiblePair:
    """Dual optimizer of the transport problem between f*mu and g*nu.

    C must be bounded (truncate first); the LP constrains phi (+) psi <= C on
    every grid pair, not only on the reweighted supports, so the returned
    pair is feasible against the full bounded cost.
    """
    C = np.asarray(C, dtype=float)
    if not np.all(np.isfinite(C)):
        raise InputError("reweighted dual solves need a bounded (truncated) cost")
    a = pair.f * mu.weights
    b = pair.g * nu.weights
    if abs(a.sum() - b.sum()) > 1e-10:
        raise InputError("reweight pair is out of balance")
    if a.sum() <= 1e-15:
        zero = FeasiblePair(
            phi=np.zeros(C.shape[0]),
            psi=np.zeros(C.shape[1]),
            provenance="zero_pair",
        )
        return zero
    report = solve_primal(C, DiscreteMeasure(a), DiscreteMeasure(b))
    pot = report.potentials
    return FeasiblePair(
        phi=pot.phi,
        psi=pot.psi,
        provenance="reweighted_dual",
        objective=pot.objective,
    )


def _batched_reweighted_duals(
    C: np.ndarray, marginals: list[tuple[np.ndarray, np.ndarray]]
) -> list[tuple[np.ndarray, np.ndarray, float]]:
    """Dual optimizers for many independent transport problems over the same
    bounded cost, solved a few at a time as one block-diagonal LP.

    Each block is the dual LP itself: maximise a.phi + b.psi subject to
    phi_i + psi_j <= C_ij with free potentials, so a block has n + m columns
    rather than n * m, and (phi, psi) is read off the solution directly.
    A block keeps only the rows of its support arcs S x T, where
    S = {a > 0} and T = {b > 0}; each (a, b) needs positive mass on both
    sides.  The zero-weight atoms are then filled by c-transforms, first
    psi_j = min over i in S of (C_ij - phi_i) for j not in T, then
    phi_i = min over all j of (C_ij - psi_j) for i not in S.  This is exact:

    * every plan with marginals (a, b) lives on S x T, so the restricted LP
      has the optimal value of the full one;
    * the filled atoms carry zero weight, so the objective does not change;
    * the fill makes every arc feasible by construction: the S x not-T arcs
      through the first transform, the not-S rows through the second.

    Rounding can still leave phi_i + psi_j above C_ij by an ulp or so, on a
    filled arc or on a support arc of HiGHS's vertex.  So a potential whose
    arcs exceed C is stepped down by its largest excess and one more ulp,
    until no sum exceeds C in floating point: first psi against the rows in
    S, then phi against every column.  Every returned pair is feasible
    against all of C with no tolerance.

    Every block reaches its problem's optimal value, though not necessarily
    the same optimal pair as one primal solve per problem would report.
    One LP holds at most ``max(1, ARCS_PER_LP // C.size)`` blocks.
    """
    n, m = C.shape
    narc = n * m
    rows, cols = np.divmod(np.arange(narc), m)
    per_lp = max(1, ARCS_PER_LP // narc)
    out = []
    for start in range(0, len(marginals), per_lp):
        part = marginals[start : start + per_lp]
        k = len(part)
        a = np.stack([ab[0] for ab in part])
        b = np.stack([ab[1] for ab in part])
        S, T = a > 0, b > 0
        block, arc = np.nonzero(S[:, rows] & T[:, cols])
        base = block * (n + m)
        indices = np.stack([base + rows[arc], base + n + cols[arc]], axis=-1).ravel()
        A_ub = sparse.csr_matrix(
            (np.ones(indices.size), indices, np.arange(0, indices.size + 1, 2)),
            shape=(arc.size, k * (n + m)),
        )
        res = linprog(
            -np.concatenate([a, b], axis=1).ravel(),
            A_ub=A_ub,
            b_ub=C.ravel()[arc],
            bounds=(None, None),
            method="highs",
            options=_HIGHS_OPTS,
        )
        if res.status != 0:
            raise RuntimeError(f"batched dual solve failed: {res.message}")
        pots = np.asarray(res.x, dtype=float).reshape(k, n + m)
        phi, psi = pots[:, :n], pots[:, n:]
        fill = np.where(S[:, :, None], C - phi[:, :, None], INF).min(axis=1)
        psi = _lower_until_feasible(np.where(T, psi, fill), phi, S, C)
        phi = np.where(S, phi, (C - psi[:, None, :]).min(axis=2))
        phi = _lower_until_feasible(phi, psi, np.ones_like(T), C.T)
        for (at, bt), ph, ps in zip(part, phi, psi):
            out.append((ph, ps, float(ph @ at + ps @ bt)))
    return out


def _lower_until_feasible(
    pot: np.ndarray, other: np.ndarray, rows: np.ndarray, C: np.ndarray
) -> np.ndarray:
    """Lower pot[t, j] until other[t, i] + pot[t, j] <= C[i, j] holds in
    floating point for every i with rows[t, i].

    An offending potential drops by its largest excess and then one ulp, and
    the check repeats: near 0 an ulp is ~5e-324, so one ulp at a time
    would never finish.
    """
    while True:
        excess = np.where(
            rows[:, :, None], other[:, :, None] + pot[:, None, :] - C, -INF
        ).max(axis=1)
        over = excess > 0
        if not over.any():
            return pot
        pot = np.where(over, np.nextafter(pot - excess, -INF), pot)


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
    on the box and staying strictly below zero off it.

    Boxes with an infinite infimum contribute pairs clamped just above the
    largest finite entry, so forbidden regions still receive witnesses that
    dominate every finite cost value.
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
        block = C[ulo:uhi, vlo:vhi]
        e = float(block.min())
        if math.isinf(e):
            e = top + 1.0  # clamp: still below +inf, above all finite values
        B = abs(e) + top + 1.0
        phi = np.full(n, -B)
        psi = np.full(m, -B)
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


def truncation_ladder(C: np.ndarray) -> list[int]:
    """Powers of two covering the finite range of C (at least level 1)."""
    top = max_finite_entry(C)
    levels = [1]
    k = 1
    while 2**k <= max(2.0 * top, 1.0):
        levels.append(2**k)
        k += 1
    return levels


def generative_rectify(
    instance, n: int, budget: int, rng_seed: int
) -> RectifiedAccumulator:
    """Accumulate the generative envelope at resolution n.

    Seeds with the zero pair and every dyadic box-infimum pair, then spends
    ``budget`` reweighted-dual pairs round-robin across the truncation
    ladder.  The envelope is pointwise non-decreasing in the budget.
    """
    if budget < 0:
        raise InputError("budget must be non-negative")
    C, mu, nu = discretize(instance, n)
    acc = RectifiedAccumulator(C)
    acc.add_pair(
        FeasiblePair(
            phi=np.zeros(n), psi=np.zeros(n), provenance="zero_pair", objective=0.0
        )
    )
    for pair in box_infimum_pairs(C):
        acc.add_pair(pair)
    levels = truncation_ladder(C)
    truncated = {level: truncate_cost(C, level) for level in levels}
    rng = np.random.default_rng(rng_seed)
    # draw all pairs in schedule order, then solve each ladder level as one
    # block-diagonal LP; the pointwise max makes the merge order irrelevant
    drawn = []
    for t in range(budget):
        level = levels[t % len(levels)]
        rw = sample_reweight_pair(mu, nu, rng)
        drawn.append((t, level, rw.f * mu.weights, rw.g * nu.weights))
    results: list[FeasiblePair | None] = [None] * budget
    for level in levels:
        group = [d for d in drawn if d[1] == level]
        solved = _batched_reweighted_duals(
            truncated[level], [(a, b) for _, _, a, b in group]
        )
        for (t, lvl, _, _), (phi, psi, obj) in zip(group, solved):
            results[t] = FeasiblePair(
                phi=phi,
                psi=psi,
                provenance=f"reweighted_dual(level={lvl})",
                objective=obj,
            )
    for fp in results:
        acc.add_pair(fp)
    return acc
