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
  Each of those optimizers comes from a transport LP that keeps only the
  arcs between the atoms of positive weight; the zero-weight atoms get
  exact c-transforms.  The LPs run on classes of identical rows and
  columns, which is exact because a class plan splits proportionally into
  an atom plan of the same cost, and a block with one class on a side has
  a forced plan and needs no LP.  Each LP is posed as the class-level
  transport primal, one equality row per class and one column per arc, and
  its row duals are optimal class potentials.

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
from .costs import max_finite_entry, truncate_cost
from .instance import discretize
from .solver import _HIGHS_OPTS, InputError, linprog, solve_primal

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

#: grid entries per chunk of blocks of the batched transport LPs (blocks x
#: n x m): small LPs pay per-call overhead, large ones pay in HiGHS time and
#: peak memory
ARCS_PER_LP = 8192

#: grid entries per (pairs, n, m) temporary of RectifiedAccumulator.add_pairs:
#: 2^18 raised the peak RSS of a 10 s ``rectify_envelope`` run from 90.7 to
#: 95.0-95.2 MB (2-core VM) and saved no time
ENTRIES_PER_BATCH = 2**15

#: HiGHS's dual simplex edge weights for the class transport LPs: devex (1)
#: solved the 56 LPs of a seed-0 ``rectify_envelope`` pass in 0.42 s, HiGHS's
#: default choice, steepest edge and Dantzig's rule in 0.46 s (best of 7,
#: 2-core VM); on the ``diag_inf`` ones that set job_max_s, 0.136 s vs 0.154 s
_DEVEX = 1
_CLASS_LP_OPTS = {**_HIGHS_OPTS, "simplex_dual_edge_weight_strategy": _DEVEX}


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

    Identical rows of C form a row class and identical columns a column
    class; Cc is the r x c cost between classes.  A block sums its weights
    per class into masses A and B, and its LP is the class-level transport
    primal: minimise Cc.x over x >= 0 on the class arcs where both class
    masses are positive, with one equality row per class (row class r ships
    A_r, column class c receives B_c).  Its dual is maximise A.phi + B.psi
    subject to phi_r + psi_c <= Cc_rc on those arcs, so the row duals of an
    optimal basis are optimal class potentials: dual feasible (the reduced
    costs Cc_rc - phi_r - psi_c of an optimal basis are non-negative, to
    HiGHS's dual feasibility tolerance) with A.phi + B.psi equal to the
    primal value.  A class without mass has an empty row, and its potential
    is unused.  Each class potential is then copied to the atoms of
    positive weight in it.  This is exact:

    * a class-level plan splits proportionally, pi_ij = P_rc a_i b_j /
      (A_r B_c), into an atom-level plan with marginals (a, b) and the same
      cost, and an atom-level plan sums to a class-level one, so both LPs
      have the same optimal value;
    * twin rows (columns) carry identical constraints, so the class
      potential is feasible and optimal for every member.

    A block whose support has a single row class r needs no LP: its plan is
    forced (all of A_r goes to B), and phi = 0 on r, psi = Cc[r, .] meets
    every support arc with equality, so the pair is feasible with the forced
    plan's cost.  A single column class is the transpose.

    HiGHS's tolerances are absolute and it reads 1e20 as infinite, so the
    LP's cost is Cc scaled by the power of two that brings max |Cc| into
    [1/2, 1); a power of two scales a float exactly, and the potentials are
    scaled back the same way.  Scaling alone keeps huge truncation levels
    solvable: the columns are bounded below by 0 and above by nothing, the
    right-hand sides are masses of at most 1, and the duals of a basis solve
    phi_r + psi_c = Cs_rc along a spanning tree of basic arcs, so every
    number HiGHS sees or returns stays within a few units of 1.  With only
    support arcs of distinct classes presolve has nothing to remove, and
    ``_HIGHS_OPTS`` leaves it off.

    The zero-weight atoms, S = {a > 0} and T = {b > 0} being the rest, are
    then filled by c-transforms, first psi_j = min over i in S of
    (C_ij - phi_i) for j not in T, then phi_i = min over all j of
    (C_ij - psi_j) for i not in S.  This is exact:

    * every plan with marginals (a, b) lives on S x T, so the restricted LP
      has the optimal value of the full one;
    * the filled atoms carry zero weight, so the objective does not change;
    * the fill makes every arc feasible by construction: the S x not-T arcs
      through the first transform, the not-S rows through the second.

    Rounding can still leave phi_i + psi_j above C_ij by an ulp or so, on a
    filled arc or on a support arc of HiGHS's basis, whose reduced costs
    are non-negative only to tolerance.  So a potential whose arcs exceed C
    is stepped down by its largest excess and one more ulp, until no sum
    exceeds C in floating point: first psi against the rows in S, then phi
    against every column.  Every returned pair is feasible against all of C
    with no tolerance.  Each (a, b) needs positive mass on both sides.

    Every block reaches its problem's optimal value, though not necessarily
    the same optimal pair as one primal solve per problem would report.
    The blocks are taken ``max(1, ARCS_PER_LP // C.size)`` at a time, so
    every (blocks, n, m) temporary holds at most ``ARCS_PER_LP`` entries;
    the blocks of one such chunk that need an LP share one.
    """
    n, m = C.shape
    per_lp = max(1, ARCS_PER_LP // (n * m))
    _, row_rep, row_cls = np.unique(C, axis=0, return_index=True, return_inverse=True)
    _, col_rep, col_cls = np.unique(C, axis=1, return_index=True, return_inverse=True)
    Cc = C[np.ix_(row_rep, col_rep)]
    r, c = Cc.shape
    # sum a block's weights per class: a @ row_sum is (blocks, r)
    row_sum, col_sum = np.eye(r)[row_cls], np.eye(c)[col_cls]
    crow, ccol = np.divmod(np.arange(r * c), c)
    scale = math.ldexp(1.0, -math.frexp(float(np.abs(Cc).max()))[1])
    Cs = Cc * scale
    out = []
    for start in range(0, len(marginals), per_lp):
        part = marginals[start : start + per_lp]
        a = np.stack([ab[0] for ab in part])
        b = np.stack([ab[1] for ab in part])
        A, B = a @ row_sum, b @ col_sum
        Sc, Tc = A > 0, B > 0
        one_row = Sc.sum(axis=1) == 1
        one_col = ~one_row & (Tc.sum(axis=1) == 1)
        phi_c = np.where(one_col[:, None], Cc[:, Tc.argmax(axis=1)].T, 0.0)
        psi_c = np.where(one_row[:, None], Cc[Sc.argmax(axis=1)], 0.0)
        lp = np.flatnonzero(~(one_row | one_col))
        if lp.size:
            from scipy import sparse

            # a block's rows are its r row classes, then its c column
            # classes; the column of its arc between row class i and column
            # class j holds a one in rows i and r + j
            block, arc = np.nonzero(Sc[lp][:, crow] & Tc[lp][:, ccol])
            base = block * (r + c)
            indices = np.stack([base + crow[arc], base + r + ccol[arc]], axis=-1).ravel()
            A_eq = sparse.csc_array(
                (np.ones(indices.size), indices, np.arange(0, indices.size + 1, 2)),
                shape=(lp.size * (r + c), arc.size),
            )
            res = linprog(
                Cs.ravel()[arc],
                A_eq=A_eq,
                b_eq=np.concatenate([A[lp], B[lp]], axis=1).ravel(),
                options=_CLASS_LP_OPTS,
            )
            if res.status != 0:
                raise RuntimeError(f"batched dual solve failed: {res.message}")
            pots = np.asarray(res.eqlin.marginals, dtype=float).reshape(lp.size, r + c)
            pots /= scale
            phi_c[lp], psi_c[lp] = pots[:, :r], pots[:, r:]
        phi, psi = phi_c[:, row_cls], psi_c[:, col_cls]
        S, T = a > 0, b > 0
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
    """Powers of two covering the finite range of C (at least level 1), up
    to 2**1023, the largest power of two a float holds."""
    top = max_finite_entry(C)
    levels = [1]
    k = 1
    # an int against a float compares exactly, with no 2 * top to overflow
    while k <= 1023 and 2 ** (k - 1) <= top:
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
    acc.add_pairs(box_infimum_pairs(C))
    levels = truncation_ladder(C)
    rng = np.random.default_rng(rng_seed)
    # draw all pairs in schedule order, then solve each ladder level as one
    # block-diagonal LP; the pointwise max makes the merge order irrelevant
    drawn = []
    for t in range(budget):
        level = levels[t % len(levels)]
        rw = sample_reweight_pair(mu, nu, rng)
        drawn.append((t, level, rw.f * mu.weights, rw.g * nu.weights))
    results: list[FeasiblePair | None] = [None] * budget
    # round-robin: level k drew pairs k, k + L, k + 2L, ...; a level beyond
    # the budget drew none and is never truncated
    for k, level in enumerate(levels[:budget]):
        group = drawn[k :: len(levels)]
        solved = _batched_reweighted_duals(
            truncate_cost(C, level), [(a, b) for _, _, a, b in group]
        )
        for (t, lvl, _, _), (phi, psi, obj) in zip(group, solved):
            results[t] = FeasiblePair(
                phi=phi,
                psi=psi,
                provenance=f"reweighted_dual(level={lvl})",
                objective=obj,
            )
    acc.add_pairs(results)
    return acc
