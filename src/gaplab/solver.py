"""Exact discrete transport solves: primal, dual potentials, partial relaxation.

Every solve takes one of two paths, picked from the input alone:

* **assignment** -- C is square and every weight of both marginals is the
  same w > 0 (to 1e-12 relative).  The transport polytope is then
  w * Birkhoff, so a full solve is an assignment problem, handed to
  scipy.optimize.linear_sum_assignment.  A partial solve whose cap on
  dropped mass is k*w for an integer k is one too: network flows with
  integral data have integral optima, so the optimum P_k drops k whole
  atoms at most, and linear_sum_assignment finds it with k zero-cost dummy
  rows and columns (Chapel, Alaya & Gasso, NeurIPS 2020).  A cap of
  (k + theta)*w, 0 < theta < 1, lies between two such solves, and the value
  is linear in the cap between them: the solve mixes P_k and P_k+1.  The
  k dummies serve linear_sum_assignment only: every capped solve is posed
  with one dummy row and one dummy column of mass cap, and reads its
  potentials off the residual graph of the mix there (_assignment_lp; the
  mix is P_k alone on the lattice).  A full solve with a forbidden arc is
  first split along the Dulmage-Mendelsohn decomposition of its finite
  arcs (Dulmage & Mendelsohn 1958; Pothen & Fan, ACM TOMS 16, 1990): one
  Hopcroft-Karp matching, then the strong components of its alternating
  row graph.  No perfect matching uses an arc between two components, so
  each component's block is its own assignment problem, and a one-row
  block is a forced arc that needs no solve (every arc on ``diag_inf``).
* **highs** -- everything else (non-square C, unequal or zero weights) is a
  linear program in equality form, A_eq x = b_eq and x >= 0, posed to HiGHS
  through the bindings scipy ships (scipy.optimize._highspy, see
  ``linprog``), which is also the cross-check of the first path.  Its
  constraint matrix is built in CSC form at every size; no dense copy is
  made for small LPs.  A partial solve is posed the assignment path's way,
  with one dummy row and one dummy column of mass cap each, and solved as a
  full transport LP.  A cap whose share of an atom underflows to 0.0 is
  solved here too.  HiGHS does not start cold: a matrix-minimum greedy gives
  a basic tree, and the model starts with the tree's arcs and each row's
  and column's _START_ARCS cheapest (the shortlist of Gottschlich &
  Schuhmacher, PLoS ONE 9, 2014; _greedy_start).  Primal simplex solves
  that restricted LP; every arc left out is priced at its duals, each one
  with a negative reduced cost joins the model, and the rounds stop when
  none does, so the duals are feasible on every finite arc (``linprog``).
  Only the LP over every finite arc may report infeasibility.

On both paths arcs with a non-finite cost are forbidden, so they can never
carry mass, and infeasibility over the remaining arcs is exactly the
statement "no finite-cost coupling exists".

Dual potentials are the equality-constraint multipliers of the optimal
basis on the HiGHS path, and shortest-path distances on the residual graph
of the optimal plan on the other.  A partial solve also reports the
multipliers alpha, beta >= 0 of its two caps on dropped mass, read off
the dummies' potentials, with phi <= alpha and psi <= beta.  Either way the
dual objective a.phi + b.psi - cap*(alpha + beta) equals the primal value,
and the feasibility slack phi[i] + psi[j] - C[i][j] is non-positive on every
finite arc up to solver tolerance (well below the 1e-9 contract).

scipy is imported on first use, not with the module: importing the package
and building the CLI's parser need none of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import INF, MASS_TOL, ConfigurationError, DiscreteMeasure

__all__ = [
    "TransportPlan",
    "DualPotentials",
    "SolveReport",
    "solve_primal",
    "solve_dual",
    "solve_partial",
    "relaxed_value",
    "RelaxedReport",
    "check_complementary_slackness",
]

_HIGHS_OPTS = {
    # a transport LP (two unit entries per arc column) leaves presolve little
    # to remove, and its pass costs more than it saves
    "presolve": False,
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
}

#: plan entries below this are treated as numerically zero
SUPPORT_TOL = 1e-12

#: primal/dual agreement required of an optimal report
DUALITY_TOL = 1e-7

#: plain sweeps of _assignment_potentials before each sweep is followed by a
#: walk down the shortest-path forest: the assignment solves of a
#: ``many_small`` benchmark pass settle within 18 sweeps, most within 6,
#: while ``diag_inf`` at n atoms needs n - 1.  Fewer do not pay there, where a
#: walking sweep (argmin, forest order, walk) costs more than a plain one:
#: calibrated ``many_small`` pass_s over two 15 s runs (2-core VM) was
#: 0.070/0.071 s at 16, 0.070/0.073 s at 4 and 0.077/0.076 s at 1.  A full
#: solve whose split leaves only one-row blocks (every matched arc forced)
#: walks after the first sweep instead: its matching is unique and its
#: residual row graph acyclic, so a shortest path may pass every row, as on
#: ``diag_inf``, where one walk settles them all.  So does a partial solve
#: whose optimum at k dropped atoms is such a solve
_PLAIN_SWEEPS = 16

#: entries of D - u a sweep of _assignment_potentials holds at a time (its
#: blocks are whole rows): 512 KB of floats, so every N <= 256 is one block
#: and a large N never holds an N x N temporary.  A capped solve sweeps C
#: padded to N = n + 1, so a full solve is one block up to n = 256 and a
#: partial one up to n = 255
_SWEEP_BLOCK = 2**16

#: relative spread allowed among equal weights, and between a slack cap and
#: k times the weight for k >= 1, on the assignment path (n=7's cell weights
#: differ by one ulp); a cap below one atom is never rounded to 0
UNIFORM_RTOL = 1e-12


#: HiGHS options scipy.optimize.linprog(method="highs") always sends: dual
#: simplex, no log output, no debug checks
_HIGHS_FIXED = {
    "output_flag": False,
    "log_to_console": False,
    "highs_debug_level": 0,
    "simplex_strategy": 1,
}


#: a column outside the restricted model of a started solve whose reduced
#: cost is below minus this joins the model (the dual-feasibility certificate
#: on every column, far inside the 1e-9 contract)
_PRICE_TOL = 1e-12

#: cheapest finite arcs of each row and of each column that join the greedy
#: tree in the start set of a transport LP (_greedy_start)
_START_ARCS = 4


def linprog(c, *, A_eq, b_eq, start=None):
    """min c.x subject to A_eq x = b_eq and x >= 0, posed to HiGHS through
    the bindings scipy ships.

    Without ``start``, the model and the options are the ones
    scipy.optimize.linprog(c, A_eq=A_eq, b_eq=b_eq, method="highs",
    options=_HIGHS_OPTS) hands HiGHS: A_eq as a CSC matrix (passed as is
    when already CSC), both sides of each row b_eq, column bounds 0 and
    HiGHS's infinity, and _HIGHS_OPTS on top of _HIGHS_FIXED, so the solve
    is the same to the bit.

    ``start = (cols, basic, basic_rows)`` solves the LP by column
    generation from a basis instead: ``cols`` indexes the columns the model
    starts with, ``basic`` (a boolean mask over cols) and ``basic_rows`` (one
    over the rows, each a basic logical) name a nonsingular basis of them,
    and primal simplex runs from it.  Each round prices every column outside
    the model by c - A_eq^T y at the row duals y, adds each one below
    -_PRICE_TOL and reruns from the current basis; the solve ends when none
    prices in, so y is dual feasible on every column to _PRICE_TOL.  A
    restricted model that is infeasible says nothing of the LP: every column
    left out joins it and the rerun decides.  A restricted model that is
    unbounded makes the LP unbounded.

    The result carries scipy's status codes (0 optimal, 2 infeasible or a
    malformed model, 3 unbounded, 4 anything else), ``message``, ``nit``
    (summed over the rounds), ``rounds`` (HiGHS runs) and, when optimal,
    ``x`` over every column, ``fun`` and the row duals as
    ``eqlin.marginals``; scipy's bound multipliers and residuals are not
    computed.  scipy is imported on the first call.
    """
    from scipy import sparse
    from scipy.optimize import OptimizeResult
    from scipy.optimize._highspy import _core as highs

    c = np.asarray(c, dtype=float)
    n = c.size
    A = A_eq.tocsc() if sparse.issparse(A_eq) else sparse.csc_array(A_eq)
    b_eq = np.asarray(b_eq, dtype=float)
    # HiGHS reads each array up to the sizes passed with it
    if A.shape != (b_eq.size, n):
        raise ValueError(
            f"an LP with {n} columns and {b_eq.size} rows got a {A.shape} "
            "constraint matrix"
        )

    h = highs._Highs()
    options = {**_HIGHS_FIXED, **_HIGHS_OPTS}
    cols, arrays = None, (A.indptr, A.indices, A.data)
    if start is not None:
        cols, basic, basic_rows = start
        cols = np.asarray(cols, dtype=np.intp)
        arrays = _csc_columns(A, cols)
        # primal simplex: the basis a round leaves stays primal feasible when
        # columns join; from the same starts dual simplex took 1,002
        # iterations where primal took 14 (a non-uniform diag_M LP, n = 64)
        options["simplex_strategy"] = 4
    for key, val in options.items():
        if key == "presolve":  # scipy's boolean, HiGHS's "on"/"off"
            val = "on" if val else "off"
        if h.setOptionValue(key, val) != highs.HighsStatus.kOk:
            raise ValueError(f"HiGHS rejects option {key}={val!r}")
    k = n if cols is None else cols.size
    # the array overload of passModel: a HighsLp's index vectors would be
    # converted one Python int at a time
    passed = h.passModel(
        k,
        A.shape[0],
        arrays[1].size,
        int(highs.MatrixFormat.kColwise),
        int(highs.ObjSense.kMinimize),
        0.0,
        c if cols is None else c[cols],
        np.zeros(k),
        np.full(k, highs.kHighsInf),
        b_eq,
        b_eq,
        *arrays,
        np.zeros(k, dtype=np.int32),  # every column continuous
    )
    S = highs.HighsModelStatus
    nit = rounds = 0
    if passed == highs.HighsStatus.kError:
        model = S.kModelError
    else:
        if cols is not None:
            # one enum lookup per status: HighsBasisStatus(int) per entry
            # costs more than the solve at small sizes
            kb, kl = highs.HighsBasisStatus.kBasic, highs.HighsBasisStatus.kLower
            basis = highs.HighsBasis()
            basis.col_status = [kb if t else kl for t in np.asarray(basic).tolist()]
            basis.row_status = [kb if t else kl for t in np.asarray(basic_rows).tolist()]
            basis.valid, basis.alien = True, False
            if h.setBasis(basis) != highs.HighsStatus.kOk:
                raise ValueError("HiGHS rejects the start basis")
            outside = np.ones(n, dtype=bool)
            outside[cols] = False
            At = A.T  # CSR, sharing A's arrays: A^T y is one sparse product
        while True:
            h.run()
            rounds += 1
            model = h.getModelStatus()
            # the one count, not the whole HighsInfo, each round
            nit += h.getInfoValue("simplex_iteration_count")[1]
            if cols is None or model not in (S.kOptimal, S.kInfeasible):
                break
            if model == S.kOptimal:
                price = c - At @ np.array(h.getSolution().row_dual)
                add = np.flatnonzero(outside & (price < -_PRICE_TOL))
            else:  # the restricted model is infeasible: pose the whole LP
                add = np.flatnonzero(outside)
            if not add.size:
                break
            starts, indices, data = _csc_columns(A, add)
            h.addCols(
                add.size,
                c[add],
                np.zeros(add.size),
                np.full(add.size, highs.kHighsInf),
                indices.size,
                starts,
                indices,
                data,
            )
            outside[add] = False
            cols = np.concatenate([cols, add])
    status = {S.kOptimal: 0, S.kInfeasible: 2, S.kModelError: 2, S.kUnbounded: 3}
    res = OptimizeResult(
        status=status.get(model, 4),
        message=h.modelStatusToString(model),
        nit=nit,
        rounds=rounds,
        x=None,
        fun=None,
        eqlin=OptimizeResult(marginals=None),
    )
    if res.status == 0:
        sol = h.getSolution()
        res.x = np.array(sol.col_value)
        if cols is not None:  # model column k is column cols[k] of the LP
            res.x, model_x = np.zeros(n), res.x
            res.x[cols] = model_x
        res.fun = h.getInfo().objective_function_value
        res.eqlin.marginals = np.array(sol.row_dual)
    return res


def _csc_columns(A, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """indptr, indices and data of the columns ``cols`` of the CSC matrix A,
    in that order, with int32 index arrays as HiGHS reads them."""
    lo = A.indptr[cols]
    counts = A.indptr[cols + 1] - lo
    indptr = np.zeros(cols.size + 1, dtype=np.int32)
    np.cumsum(counts, out=indptr[1:])
    # each column's run of A's entries, one gather for them all
    take = np.repeat(lo - indptr[:-1], counts) + np.arange(indptr[-1])
    return indptr, A.indices[take].astype(np.int32), A.data[take]


def _frozen_plan(m: np.ndarray) -> np.ndarray:
    """m, a float array, checked to be a non-negative matrix, its solver dust
    clipped and itself made read-only, all in place."""
    if m.ndim != 2:
        raise ConfigurationError("a transport plan is a matrix")
    # one pass finds the minimum; NaN is not >= 0 either, and is left
    # alone while any solver dust beside it is clipped
    if m.size and not m.min() >= 0:
        if np.any(m < -SUPPORT_TOL):
            raise ConfigurationError("plan entries must be non-negative")
        m[m < 0] = 0.0  # clip solver dust
    m.setflags(write=False)
    return m


@dataclass(frozen=True)
class TransportPlan:
    """Sub-coupling matrix; rows ship mass from x-atoms, columns to y-atoms."""

    mass: np.ndarray

    def __post_init__(self):
        # our own copy, so the caller's array is neither frozen nor shared
        object.__setattr__(self, "mass", _frozen_plan(np.array(self.mass, dtype=float)))

    @classmethod
    def _own(cls, mass: np.ndarray) -> TransportPlan:
        """The plan of a float matrix that the caller built and hands over:
        checked, clipped and made read-only in place, with no copy."""
        plan = object.__new__(cls)
        object.__setattr__(plan, "mass", _frozen_plan(mass))
        return plan

    @property
    def row_sums(self) -> np.ndarray:
        return self.mass.sum(axis=1)

    @property
    def col_sums(self) -> np.ndarray:
        return self.mass.sum(axis=0)

    @property
    def total(self) -> float:
        return float(self.mass.sum())

    def is_subcoupling_of(self, mu: DiscreteMeasure, nu: DiscreteMeasure) -> bool:
        return bool(
            np.all(self.row_sums <= mu.weights + MASS_TOL)
            and np.all(self.col_sums <= nu.weights + MASS_TOL)
        )


@dataclass(frozen=True)
class DualPotentials:
    """Feasible dual pair (phi, psi) with its objective against (mu, nu).

    A partial solve that may drop ``cap`` mass on each side adds the
    multipliers alpha, beta >= 0 of the two caps (phi <= alpha,
    psi <= beta); its objective a.phi + b.psi - cap*(alpha + beta) is a
    lower bound on the partial value.  Both are 0.0 for a full solve.
    """

    phi: np.ndarray
    psi: np.ndarray
    objective: float
    alpha: float = 0.0
    beta: float = 0.0

    def __post_init__(self):
        phi = np.asarray(self.phi, dtype=float)
        psi = np.asarray(self.psi, dtype=float)
        phi.setflags(write=False)
        psi.setflags(write=False)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "psi", psi)

    def feasibility_slack(self, C: np.ndarray) -> float:
        """max over finite arcs of phi[i] + psi[j] - C[i][j] (<= 0 when feasible)."""
        gap = self.phi[:, None] + self.psi[None, :] - C
        gap = gap[np.isfinite(C)]
        return float(gap.max()) if gap.size else -INF


@dataclass(frozen=True)
class SolveReport:
    value: float
    status: str  # optimal | infeasible_finite
    plan: TransportPlan | None = None
    potentials: DualPotentials | None = None
    path: str = "highs"  # assignment | highs: the solver path that ran


def _as_weights(m) -> np.ndarray:
    if isinstance(m, DiscreteMeasure):
        return m.weights
    return np.asarray(m, dtype=float)


def _check_marginals(C: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    n, m = C.shape
    if a.shape != (n,) or b.shape != (m,):
        raise ConfigurationError("marginal lengths do not match the cost matrix")
    # each check is written so that NaN fails it
    if not (np.all(a >= -SUPPORT_TOL) and np.all(b >= -SUPPORT_TOL)):
        raise ConfigurationError("marginals must be non-negative")
    if not abs(a.sum() - b.sum()) <= 1e-9:
        raise ConfigurationError(
            f"marginal totals differ: {a.sum():.12g} vs {b.sum():.12g}"
        )


def _transport_lp(
    C: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    slack_cap: float | None = None,
) -> SolveReport:
    """Min-cost (sub-)coupling over the finite arcs of C, dropping at most
    ``slack_cap`` mass on each side; exact assignment when the input allows
    it (see the module docstring), HiGHS otherwise."""
    drops = _assignment_drops(C, a, b, slack_cap)
    if drops is None:
        return _highs_lp(C, a, b, slack_cap)
    return _assignment_lp(C, a, b, *drops, slack_cap)


def _assignment_drops(
    C: np.ndarray, a: np.ndarray, b: np.ndarray, slack_cap: float | None
) -> tuple[int, float] | None:
    """Whole atoms k and fraction theta of an atom that the solve may drop
    when it is an assignment problem (C square, all weights one w > 0), else
    None.

    A full solve drops (0, 0.0).  A cap within UNIFORM_RTOL of k*w, k >= 1,
    drops (k, 0.0), one assignment solve.  Any other cap up to the total
    mass is (k + theta)*w with k = floor(cap/w) and 0 < theta < 1, solved
    from the optima that drop k and k + 1 atoms; a cap below one atom is
    k = 0 and theta = cap/w, however small (None when cap/w underflows).
    """
    n, m = C.shape
    w = _uniform_weight(a, b) if n == m else None
    if w is None:
        return None
    if slack_cap is None:
        return 0, 0.0
    k = round(slack_cap / w)
    if k and abs(slack_cap - k * w) <= UNIFORM_RTOL * max(slack_cap, w):
        return k, 0.0
    k = math.floor(slack_cap / w)
    theta = slack_cap / w - k
    # a cap so far below one atom that cap/w underflows to 0 has no mix to
    # pose on the atom lattice: HiGHS takes it
    return (k, theta) if k or theta else None


def _uniform_weight(a: np.ndarray, b: np.ndarray) -> float | None:
    """The one weight w > 0 of every atom of a and b (to UNIFORM_RTOL), or
    None when the weights differ, vanish, or a and b differ in length."""
    if a.shape != b.shape or not a.size:
        return None
    w = float(a.sum()) / a.size  # a.mean() to the bit, at a third of the cost
    if not w > 0:
        return None
    tol = UNIFORM_RTOL * w
    if np.abs(a - w).max() > tol or np.abs(b - w).max() > tol:
        return None
    return w


def _optimal_assignment(
    D: np.ndarray, finite: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray, bool] | None:
    """The square D (C with +inf on its forbidden arcs, ``finite`` its finite
    arcs) padded with k zero-cost dummy rows and columns, an optimal
    assignment i -> col[i] of it, and whether every matched arc is forced;
    None when no perfect matching is finite.  The dummies are how
    linear_sum_assignment leaves up to k atoms unmatched (col[i] >= n), and
    their zero dummy-dummy block lets it drop fewer, which keeps the
    reduction exact under negative costs."""
    from scipy.optimize import linear_sum_assignment

    n = D.shape[0]
    if k:
        padded = np.zeros((n + k, n + k))
        padded[:n, :n] = D
        D = padded
    elif not finite.all():
        split = _split_assignment(D, finite)
        return None if split is None else (D, *split)
    try:
        return D, linear_sum_assignment(D)[1], False
    except ValueError:  # no perfect matching over the finite arcs
        return None


def _assignment_lp(
    C: np.ndarray, a: np.ndarray, b: np.ndarray, k: int, theta: float, cap: float | None
) -> SolveReport:
    """Exact solve of a transport problem with n equal weights w that may drop
    cap = (k + theta)*w mass on each side, 0 <= theta < 1 (a full solve when
    cap is None): the (1 - theta, theta) mix of the optima P_k and P_k+1
    that drop k and k + 1 atoms (P_k alone when theta = 0), with potentials
    from the residual graph of the mix.

    Value.  Pose the problem with one dummy row and one dummy column of mass
    cap (the HiGHS path's posing) and scale it by 1/w: a min-cost flow whose
    data are integers but for the dummies' mass c = k + theta.  At theta = 0
    the data are integral, so an integral plan is optimal (Ahuja, Magnanti &
    Orlin 1993, *Network Flows*); it drops at most k whole atoms on each side,
    the dummy-dummy arc taking the rest of the cap, and such plans are the
    assignments P_k ranges over.  For theta > 0, a basis is a spanning tree,
    and the flow on a tree arc is the net supply on one side of it, where the
    dummy row's supply c and the dummy column's demand c cancel or one of
    them stands alone: x_B = p + c*q with p integral and q in {-1, 0, 1}.  So
    a basis optimal at c stays feasible, and hence optimal, on all of
    [k, k + 1], and the value V is linear there.  The mix drops at most
    (1 - theta)*k + theta*(k + 1) = c atoms on each side, the dummy-dummy arc
    taking the rest of the cap, so it is feasible at c, and it costs
    (1 - theta)*V(k) + theta*V(k + 1) = V(c): it is optimal.  When no plan
    over the finite arcs drops only k atoms, their integral max-flow is below
    n - k atoms, so no plan ships n - k - theta either: infeasible.

    Potentials.  Let X be the mix on E, C padded with the dummy row and
    column at cost 0 (a full solve pads nothing).  X is optimal, so its
    residual graph (an arc of length E_ij from row i to column j on every
    finite arc, one of length -E_ij back on X's support) has no negative
    cycle, and Bellman-Ford on it gives u_i + v_j <= E_ij on every finite
    arc with equality on the support: complementary slackness with X, so
    (u, v) is optimal, and the dummy column's -v and the dummy row's -u are
    the multipliers alpha, beta of the caps (_cap_potentials).
    _assignment_potentials runs the sweeps, and walks their forest from the
    first sweep when P_k is fully forced.

    Memory.  D is C itself, only ever read, unless C holds a NaN or a -inf;
    then D is C with +inf on every non-finite arc.  A mixed cap releases
    P_k's padded matrix before padding for k + 1, so one is alive at a time.
    """
    n = C.shape[0]
    w = float(a.sum()) / n
    finite = np.isfinite(C)
    # C.min() is NaN or -inf when C holds one; else C is its own +inf copy,
    # and nothing below writes D (linear_sum_assignment, the split's blocks,
    # the padding and the sweeps only read it)
    D = C if C.min() > -INF else np.where(finite, C, INF)
    low = _optimal_assignment(D, finite, k)
    if low is None:
        return SolveReport(value=INF, status="infeasible_finite", path="assignment")
    padded, col, forced = low
    mix = [(col, 1.0 - theta)]
    if theta:
        low = padded = None  # one padded matrix at a time
        padded, col, _ = _optimal_assignment(D, finite, k + 1)
        mix.append((col, theta))
    # C padded with the dummy row and column of mass cap: the top left of
    # the last optimum's k or k + 1 dummies
    E = D if cap is None else padded[: n + 1, : n + 1]
    # a copy D that E does not keep is freed here, so the plan reuses its
    # pages instead of faulting in fresh ones
    del D
    plan = np.zeros((n, n))
    support = np.zeros(E.shape, dtype=bool)  # X's support on E
    parts = []
    for i, (col, share) in enumerate(mix):
        rows = np.flatnonzero(col[:n] < n)  # the real arcs i -> col[i]
        cols = col[rows]
        if i:
            plan[rows, cols] += share * w
        else:  # a read first would fault each fresh zero page in twice
            plan[rows, cols] = share * w
        parts.append(share * float(C[rows, cols].sum()))
        if cap is None:
            support[rows, cols] = True
        else:  # the dummies fold into E's one: a dropped atom ships to it,
            # and a dummy-dummy arc carries cap that X leaves unused
            support[np.minimum(np.arange(col.size), n), np.minimum(col, n)] = True
    u, v = _assignment_potentials(E, support, forced)
    return SolveReport(
        # (1 - theta)*V(k) + theta*V(k + 1); a 0.0 start would turn -0.0 to 0.0
        value=w * sum(parts[1:], parts[0]),
        status="optimal",
        plan=TransportPlan._own(plan),
        potentials=_cap_potentials(u, v, a, b, cap),
        path="assignment",
    )


def _split_assignment(
    D: np.ndarray, finite: np.ndarray
) -> tuple[np.ndarray, bool] | None:
    """Optimal assignment i -> col[i] of the square D over its finite arcs,
    solved one Dulmage-Mendelsohn block at a time, and whether every block
    has one row; None when the finite arcs hold no perfect matching.

    Take one perfect matching, owner[c] the row matched to column c, and the
    row graph with an edge r -> owner[c] for each finite arc (r, c).  An
    unmatched arc (i, j) lies in some perfect matching only if it closes an
    alternating cycle, that is only if a path leads from owner[j] back to i:
    i and owner[j] sit in one strong component (Dulmage & Mendelsohn 1958;
    Pothen & Fan 1990).  So every perfect matching, the optimal ones
    included, stays inside the blocks formed by a component's rows and their
    matched columns, and each block is an assignment problem of its own.  A
    one-row block is a forced arc and needs no solve.
    """
    from scipy import sparse
    from scipy.optimize import linear_sum_assignment
    from scipy.sparse.csgraph import connected_components

    n = D.shape[0]
    col, graph = _max_matching(finite)
    if np.any(col < 0):
        return None
    owner = np.empty(n, dtype=np.int32)
    owner[col] = np.arange(n)
    count, labels = connected_components(
        sparse.csr_matrix(
            (graph.data, owner[graph.indices], graph.indptr), shape=(n, n)
        ),
        connection="strong",
    )
    order = np.argsort(labels, kind="stable")
    sizes = np.bincount(labels, minlength=count)
    starts = np.cumsum(sizes) - sizes
    shared = sizes > 1  # the other components are forced arcs
    for lo, size in zip(starts[shared].tolist(), sizes[shared].tolist()):
        block = order[lo : lo + size]
        block_cols = col[block]
        _, sub = linear_sum_assignment(D[np.ix_(block, block_cols)])
        col[block] = block_cols[sub]
    return col, not shared.any()


def _max_matching(mask: np.ndarray) -> tuple[np.ndarray, "sparse.csr_matrix"]:
    """A maximum matching of the bipartite graph with an arc (i, j) wherever
    mask[i, j]: col[i] is the column matched to row i, -1 if none; with the
    graph as the CSR matrix it was found on.

    The matching is certified by Koenig's theorem.  Let Z be the unmatched
    rows and all that alternating paths reach from them: row to column over
    any arc, column to row over the matching.  No arc leaves Z's rows for a
    column outside Z, so (rows not in Z) + (columns in Z) covers every arc;
    a maximum matching leaves no augmenting path, so every column in Z is
    matched to a row in Z, and the cover has as many lines as the matching
    has arcs.  Any cover has at least that many, so both are optimal.  A
    matching that fails either check raises RuntimeError.
    """
    from scipy import sparse
    from scipy.sparse.csgraph import maximum_bipartite_matching

    n, m = mask.shape
    flat = np.flatnonzero(mask)
    row_starts = np.arange(0, n * m + 1, m)
    # int32 index arrays let csr_matrix take them without a checked copy
    indptr = np.searchsorted(flat, row_starts).astype(np.int32)
    indices = (flat - np.repeat(row_starts[:-1], np.diff(indptr))).astype(np.int32)
    graph = sparse.csr_matrix(
        (np.ones(flat.size, dtype=bool), indices, indptr), shape=(n, m)
    )
    col = maximum_bipartite_matching(graph, perm_type="column").astype(np.intp)
    _check_koenig_cover(mask, graph, col)
    return col, graph


def _check_koenig_cover(mask: np.ndarray, graph, col: np.ndarray) -> None:
    """Raise RuntimeError unless the matching i -> col[i] on the arcs of
    ``mask`` (the CSR ``graph``) has a Koenig cover as large as itself (see
    _max_matching): one alternating breadth-first search from the unmatched
    rows, one level of the frontier at a time."""
    n, m = mask.shape
    matched = np.flatnonzero(col >= 0)
    owner = np.full(m, -1, dtype=np.intp)
    owner[col[matched]] = matched
    z_rows = col < 0
    z_cols = np.zeros(m, dtype=bool)
    frontier = np.flatnonzero(z_rows)
    while frontier.size:
        starts = graph.indptr[frontier]
        counts = graph.indptr[frontier + 1] - starts
        # the arcs of the frontier rows: each row's run of the CSR indices
        offsets = np.repeat(starts - (np.cumsum(counts) - counts), counts)
        reached = graph.indices[offsets + np.arange(offsets.size)]
        reached = np.unique(reached[~z_cols[reached]])
        z_cols[reached] = True
        frontier = owner[reached]
        frontier = frontier[frontier >= 0]
        z_rows[frontier] = True
    uncovered = (mask[z_rows] & ~z_cols).any()  # an atom of A off the cover
    lines = n - np.count_nonzero(z_rows) + np.count_nonzero(z_cols)
    if uncovered or lines != matched.size:
        raise RuntimeError(
            f"matching of {matched.size} arcs has no Koenig cover of that size"
        )


def _assignment_potentials(
    D: np.ndarray, support: np.ndarray, forced: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Dual pair (u, v) of an optimal plan of the square assignment matrix D
    with boolean support ``support``, every row on at least one arc of it:
    u_i + v_j <= D_ij on every finite arc, with equality on the support.

    Bellman-Ford on the residual graph, from u = 0.  Row i stands on one
    support arc (i, col[i]); a row with several takes, on each sweep, the one
    with the largest D_ij - v_j.  Each sweep sets u_i = D_i,col[i] - v_col[i],
    which makes those arcs tight, then v_j = min_i (D_ij - u_i), which keeps
    the pair feasible.  Together that is u <- F(u) with F(u)_i the largest
    D_ij - min_r (D_rj - u_r) over row i's support arcs, monotone in u.  An
    optimal plan leaves no negative cycle, so the plain sweeps reach the
    least fixed point L >= 0 of F within N + 1 sweeps; the cap only guards
    against rounding drift around a zero-length cycle, and leaves the pair
    feasible if it is ever reached.  At a fixed point every support arc of
    row i has D_ij - v_j >= u_i (feasibility) and <= u_i (the largest is
    u_i), so the whole support is tight.

    A shortest path of d arcs takes d plain sweeps (N - 1 on
    ``diag_inf``).  So once _PLAIN_SWEEPS sweeps have not settled u (one
    sweep when ``forced`` says every matched arc is forced), each further
    sweep is followed by one walk down the shortest-path forest: p(i) is the
    row attaining the minimum of column col[i] in the last sweep, and the
    rows are visited parents first from the roots (p(i) = i) down, each
    taking u_i <- max(u_i, D_i,col[i] - (D_p(i),col[i] - u_p(i))) in Python
    floats.  Rows whose pointers reach no root are left to the sweeps.  The
    result is the plain sweeps' to the bit.  The parent's term is one of
    those F(u)_i minimises over, so the walk never lifts u_i above F(u)_i,
    and the max keeps u_i from falling (it never binds: p(i) attained that
    minimum against the lower u of the last sweep).  F is monotone in
    floating point (rounding is monotone), so every update, applied to a
    state u with u <= F(u) and u <= L, keeps both.  u only grows, and the
    loop still stops only when a full sweep returns u unchanged, i.e. at a
    fixed point below L, which is L itself.

    A sweep reads D - u a block of whole rows at a time, at most
    _SWEEP_BLOCK entries (one block for every N <= 256, where a capped
    solve's N is n + 1), so no N x N temporary is held at large N.  Min is
    exact, so folding the blocks' column minima gives the one-block v; a
    walking sweep keeps the first row attaining each column's minimum,
    since a later block replaces it only with a strictly smaller value
    (_block_sweep).
    """
    N = D.shape[0]
    rows = np.arange(N)
    col = support.argmax(axis=1)  # each row's first support arc
    matched = D[rows, col]
    several = ()  # rows on several support arcs, which pick again each sweep
    if np.count_nonzero(support) > N:
        several = np.flatnonzero(support.sum(axis=1) > 1)
        # off the support -inf - v stays -inf, so argmax picks a support arc
        on_support = np.where(support[several], D[several], -INF)
    plain_sweeps = 1 if forced else _PLAIN_SWEEPS
    step = max(1, _SWEEP_BLOCK // N)  # rows a sweep takes at a time
    blocks = [(lo, D[lo : lo + step]) for lo in range(0, N, step)]
    u = np.zeros(N)
    v = D.min(axis=0)
    best = None
    for sweep in range(N + 1):
        if len(several):
            col[several] = (on_support - v).argmax(axis=1)
            matched[several] = D[several, col[several]]
        tight = matched - v[col]
        if np.array_equal(tight, u):
            break
        u = tight
        if best is not None:
            pred = best[col]
            order = _forest_order(pred)
            parent = pred[order]
            u = u.tolist()
            for i, p, m, d in zip(
                order.tolist(),
                parent.tolist(),
                matched[order].tolist(),
                D[parent, col[order]].tolist(),
            ):
                t = m - (d - u[p])
                if t > u[i]:
                    u[i] = t
            u = np.array(u)
        v, best = _block_sweep(blocks, u, sweep + 1 >= plain_sweeps, rows)
    return u, v


def _block_sweep(
    blocks: list[tuple[int, np.ndarray]], u: np.ndarray, walk: bool, cols: np.ndarray
) -> tuple[np.ndarray, np.ndarray | None]:
    """One sweep of _assignment_potentials over D given as ``blocks``, each
    its first row and a view of its rows: v_j = min_i (D_ij - u_i) and, when
    ``walk``, the first row attaining it (else None); ``cols`` is arange(N).
    A later block takes a column only with a strictly smaller value, so the
    first row of a tie keeps it."""
    v = best = None
    for lo, B in blocks:
        R = B - u[lo : lo + len(B), None]
        if not walk:
            m = R.min(axis=0)
            v = m if v is None else np.minimum(v, m, out=v)
            continue
        # the first row of each column's minimum, as argmin finds it, but a
        # column min and a compare sweep C-ordered R several times faster
        at = (R == R.min(axis=0)).argmax(axis=0)
        m = R[at, cols]  # not the column min, whose zero may carry the other sign
        if v is None:
            v, best = m, at
        else:
            lower = m < v
            v[lower] = m[lower]
            best[lower] = at[lower] + lo
    return v, best


def _forest_order(pred: np.ndarray) -> np.ndarray:
    """Rows of the pointer forest i -> pred[i] that reach a root
    (pred[i] = i), parents before children: sorted by depth, roots first.
    Rows whose pointers end in a cycle without a root are left out.  Depths
    come from pointer doubling: after r rounds top[i] is the 2^r-th ancestor
    of i and depth[i] counts the non-root rows among the 2^r steps to it."""
    N = pred.size
    depth = (pred != np.arange(N)).astype(np.int64)
    top = pred.copy()
    for _ in range(N.bit_length()):  # 2^rounds > N > any depth
        depth += depth[top]
        top = top[top]
    reached = np.flatnonzero(pred[top] == top)
    return reached[np.argsort(depth[reached], kind="stable")]


def _highs_lp(
    C: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    slack_cap: float | None = None,
) -> SolveReport:
    """Min-cost (sub-)coupling LP over the finite arcs of C, solved by HiGHS.

    With ``slack_cap`` set, C gets one dummy row and one dummy column of mass
    slack_cap each, joined to every atom and to each other at cost 0, and
    the full transport LP of the padded problem is solved: mass a real atom
    sends to a dummy is dropped, and the dummy-dummy arc absorbs the part of
    the cap left unused.  That is exactly the relaxed problem with mass
    floor total - slack_cap, posed as the assignment path poses it.

    ``linprog`` receives the whole LP with a start from _greedy_start, and
    solves it by pricing rounds from there.
    """
    from scipy import sparse

    n, m = C.shape
    if slack_cap is not None:
        C = np.pad(C, ((0, 1), (0, 1)))
        a, b = np.append(a, slack_cap), np.append(b, slack_cap)
    finite = np.isfinite(C)
    rows, cols = np.nonzero(finite)
    narc = rows.size
    if narc == 0:  # a full solve without a finite arc
        if a.sum() <= SUPPORT_TOL:  # nothing to ship
            return SolveReport(
                value=0.0,
                status="optimal",
                plan=TransportPlan._own(np.zeros((n, m))),
                potentials=DualPotentials(np.zeros(n), np.zeros(m), 0.0),
            )
        return SolveReport(value=INF, status="infeasible_finite")
    N, M = C.shape

    # rows of A_eq: N row-sum constraints then M column-sum constraints; the
    # column of arc (i, j) holds a one in row i and one in row N + j
    indices = np.stack([rows, N + cols], axis=1).ravel().astype(np.int32)
    indptr = np.arange(0, 2 * narc + 1, 2, dtype=np.int32)
    A_eq = sparse.csc_array((np.ones(2 * narc), indices, indptr), shape=(N + M, narc))
    costs = C[rows, cols]
    b_eq = np.concatenate([a, b])
    start = _greedy_start(C, finite, rows, cols, costs, b_eq)
    res = linprog(costs, A_eq=A_eq, b_eq=b_eq, start=start)
    if res.status == 2:  # infeasible over finite arcs
        return SolveReport(value=INF, status="infeasible_finite")
    if res.status != 0:
        raise RuntimeError(f"LP solver failed: {res.message}")

    plan = np.zeros((N, M))
    plan[rows, cols] = np.maximum(res.x, 0.0)
    duals = np.asarray(res.eqlin.marginals, dtype=float)
    return SolveReport(
        value=float(res.fun),
        status="optimal",
        plan=TransportPlan._own(plan[:n, :m]),
        potentials=_cap_potentials(duals[:N], duals[N:], a[:n], b[:m], slack_cap),
    )


def _greedy_start(
    C: np.ndarray,
    finite: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    costs: np.ndarray,
    amounts: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ``start`` of linprog for the transport LP over the finite arcs
    (rows, cols) of the N x M cost C, arc k costing costs[k]; amounts holds
    the N row masses, then the M column masses.

    Basis.  The matrix-minimum rule: in stable cost order, each arc whose
    row and column are both open ships the smaller of what is left at its
    two ends, and one end closes, the row when its amount is <= the
    column's, else the column.  Every component of the arcs taken keeps
    exactly one open node: each node starts alone and open, and an arc joins
    two open nodes, so two components (one holds only one open node), and
    closes one of them.  So the arcs form a forest, and with each open
    node's constraint row basic the basis is a rooted tree per component,
    nonsingular, also when forbidden arcs stop the greedy early.  Its basic
    arcs carry what the greedy shipped, which is primal feasible whenever
    the greedy shipped every mass (the open nodes have nothing left); primal
    simplex starts from phase 1 otherwise.

    Columns.  The forest's arcs, and each row's and each column's
    _START_ARCS cheapest finite arcs, the Gottschlich-Schuhmacher
    shortlist (PLoS ONE 9, 2014); pricing adds the rest that an optimum
    needs.
    """
    N, M = C.shape
    order = np.argsort(costs, kind="stable")
    ends = N + cols  # the column constraints come after the row ones
    left = amounts.tolist()
    live = [True] * (N + M)
    is_open = np.ones(N + M, dtype=bool)
    tree = []
    open_rows, open_cols = N, M
    # a block of arcs drops those with an end closed before it in one
    # vectorised pass; within the block the Python lists decide
    step = N + M
    for lo in range(0, order.size, step):
        if not (open_rows and open_cols):
            break
        block = order[lo : lo + step]
        block = block[is_open[rows[block]] & is_open[ends[block]]]
        for k, i, j in zip(block.tolist(), rows[block].tolist(), ends[block].tolist()):
            if not (live[i] and live[j]):
                continue
            tree.append(k)
            if left[i] <= left[j]:
                left[j] -= left[i]
                live[i] = is_open[i] = False
                open_rows -= 1
            else:
                left[i] -= left[j]
                live[j] = is_open[j] = False
                open_cols -= 1
            if not (open_rows and open_cols):
                break
    # each row's and each column's cheapest arcs (+inf sorts last), then
    # the tree, marked on C; arcs are numbered in row-major order, so the
    # finite entries of the mask are the start columns' mask
    D = C if C.min() > -INF else np.where(finite, C, INF)
    kr, kc = min(_START_ARCS, M), min(_START_ARCS, N)
    pick = np.zeros((N, M), dtype=bool)
    pick[np.arange(N)[:, None], np.argpartition(D, kr - 1, axis=1)[:, :kr]] = True
    pick[np.argpartition(D, kc - 1, axis=0)[:kc], np.arange(M)] = True
    tree = np.array(tree, dtype=np.intp)
    pick[rows[tree], cols[tree]] = True
    start_cols = np.flatnonzero(pick[finite])
    basic = np.zeros(order.size, dtype=bool)
    basic[tree] = True
    return start_cols, basic[start_cols], is_open


def _cap_potentials(
    phi: np.ndarray, psi: np.ndarray, a: np.ndarray, b: np.ndarray, cap: float | None
) -> DualPotentials:
    """The potentials of a solve that may drop ``cap`` mass on each side,
    posed with one dummy row and one dummy column of mass cap, whose
    potentials come last in phi and psi: the dummy column's is -alpha, the
    dummy row's -beta.  A full solve (cap None) has no dummy and
    alpha = 0 = beta.

    A real row may ship to a dummy column at cost 0, so phi <= alpha;
    likewise psi <= beta, and the zero dummy-dummy arcs give
    alpha + beta >= 0.  Shifting t from psi to phi keeps every arc sum and
    makes both caps' multipliers non-negative.
    """
    alpha = beta = 0.0
    if cap is not None:
        alpha, beta = -float(psi[-1]), -float(phi[-1])
        phi, psi = phi[:-1], psi[:-1]
    t = -alpha if alpha < 0 else min(beta, 0.0)
    if t:
        phi, psi, alpha, beta = phi + t, psi - t, alpha + t, beta - t
    alpha, beta = alpha + 0.0, beta + 0.0  # no -0.0
    return DualPotentials(
        phi=phi,
        psi=psi,
        objective=float(phi @ a + psi @ b) - (cap or 0.0) * (alpha + beta),
        alpha=alpha,
        beta=beta,
    )


def solve_primal(C: np.ndarray, mu, nu) -> SolveReport:
    """Minimum-cost full coupling of mu and nu; +inf entries are forbidden arcs."""
    C = np.asarray(C, dtype=float)
    a, b = _as_weights(mu), _as_weights(nu)
    _check_marginals(C, a, b)
    return _transport_lp(C, a, b)


def solve_dual(C: np.ndarray, mu, nu) -> SolveReport:
    """Optimal dual potentials; value is the dual objective (= primal by LP duality)."""
    report = solve_primal(C, mu, nu)
    if report.status != "optimal":
        return report
    return replace(report, value=report.potentials.objective)


def solve_partial(C: np.ndarray, mu, nu, eps: float) -> SolveReport:
    """Cheapest sub-coupling with row sums <= mu, col sums <= nu and total
    mass >= total - eps (the relaxed problem; eps in absolute mass units)."""
    if not eps >= 0:  # also rejects NaN
        raise ConfigurationError(f"eps must be non-negative, got {eps}")
    C = np.asarray(C, dtype=float)
    a, b = _as_weights(mu), _as_weights(nu)
    _check_marginals(C, a, b)
    if eps == 0:
        return _transport_lp(C, a, b)
    return _transport_lp(C, a, b, slack_cap=min(eps, float(a.sum())))


@dataclass(frozen=True)
class RelaxedReport:
    """Partial values along a decreasing eps schedule plus the limit bracket."""

    table: tuple[tuple[float, float], ...]
    primal_value: float
    limit_estimate: float


def relaxed_value(instance, n: int, eps_schedule) -> RelaxedReport:
    """Partial transport values P^eps along the schedule; the eps -> 0 limit
    is reported as the last value bracketed by the full primal value."""
    from .instance import discretize

    eps_schedule = [float(e) for e in eps_schedule]
    if not all(e > 0 for e in eps_schedule):  # also rejects NaN
        raise ConfigurationError("eps schedule must stay positive")
    if any(e2 >= e1 for e1, e2 in zip(eps_schedule, eps_schedule[1:])):
        raise ConfigurationError("eps schedule must be strictly decreasing")
    C, mu, nu = discretize(instance, n)
    rows = []
    prev = None
    for eps in eps_schedule:
        val = solve_partial(C, mu, nu, eps).value
        if prev is not None and val < prev - 1e-9:
            raise RuntimeError(
                f"partial value decreased as eps shrank: {prev} -> {val}"
            )
        prev = val
        rows.append((eps, val))
    primal = solve_primal(C, mu, nu).value
    return RelaxedReport(
        table=tuple(rows),
        primal_value=primal,
        limit_estimate=rows[-1][1] if rows else primal,
    )


def check_complementary_slackness(
    report: SolveReport, C: np.ndarray
) -> tuple[bool, list[tuple[int, int, float]]]:
    """Certify optimality: wherever the plan carries mass, the dual constraint
    must be tight.  Returns (ok, violations) with one (i, j, gap) per bad pair."""
    if report.status != "optimal":
        raise ConfigurationError("complementary slackness needs an optimal report")
    C = np.asarray(C, dtype=float)
    pi = report.plan.mass
    pot = report.potentials
    gap = C - (pot.phi[:, None] + pot.psi[None, :])
    bad = (pi > SUPPORT_TOL) & (np.abs(gap) > DUALITY_TOL)
    violations = [(int(i), int(j), float(gap[i, j])) for i, j in zip(*np.nonzero(bad))]
    return (not violations, violations)
