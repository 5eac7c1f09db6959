"""Which cost modifications can no coupling ever notice?

A subset of the square is L-negligible when it hides inside
(M x Y) u (X x N) for null sets M, N of the marginals; modifications
there cannot change any transport value.  The rule-based verdict produces
the witness (M, N); the numeric cross-check maximizes coupling mass on the
set and watches it vanish (negligible) or stay put (not negligible).
"""

from gaplab import (
    CountableMarker,
    DensitySpec,
    Graph,
    PointSet,
    Segment,
    SetDescriptor,
    apply_null_modification,
    discretize,
    is_L_negligible,
    max_plan_mass,
    solve_primal,
)
from gaplab.catalog import rational_nullmod, trivial_zero

UNIF = DensitySpec.uniform()

battery = {
    "diagonal y=x": SetDescriptor((Graph((Segment(0.0, 1.0, 0.0, 1.0),)),)),
    "segment y=0.3, x in [0, 0.5]": SetDescriptor(
        (Graph((Segment(0.0, 0.5, 0.3, 0.3),)),)
    ),
    "point (0.5, 0.5)": SetDescriptor((PointSet(((0.5, 0.5),)),)),
    "all rational pairs": SetDescriptor((CountableMarker(),)),
}

print(f"{'set':35}  verdict          mass at n=4, 8, 16, 32")
for name, A in battery.items():
    v = is_L_negligible(A, UNIF, UNIF)
    masses = []
    for n in (4, 8, 16, 32):
        _, mu, nu = discretize(trivial_zero(), n)
        masses.append(max_plan_mass(A, mu, nu))
    verdict = "negligible" if v.negligible else "NOT negligible"
    print(f"{name:35}  {verdict:15}  " + ", ".join(f"{m:.4f}" for m in masses))

print()
print("null modification in action: start from cost == 1, zero it on the")
print("rational pairs.  Every grid atom is rational, yet the modification is")
print("symbolic on a null set, so nothing changes:")
inst = apply_null_modification(
    rational_nullmod(), SetDescriptor((CountableMarker(),)), 0.0
)
for n in (4, 16):
    C, mu, nu = discretize(inst, n)
    print(f"  n={n:2d}  primal = {solve_primal(C, mu, nu).value:.1f}  (still the cost-1 problem)")
