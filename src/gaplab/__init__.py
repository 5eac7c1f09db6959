"""gaplab: a desk-scale laboratory for duality gaps in discrete optimal transport.

The package discretizes cost functions on the unit square, solves the primal
and dual transport problems exactly (forbidden arcs included), relaxes the
mass constraint to expose the gap between them, rectifies costs through dual
envelopes, decides L-negligibility of cost modifications, and replays the
block-partition approximation that connects rectified costs to plan limits.
"""

from .approximate import (
    ApproximationStep,
    BlockPartition,
    InfiniteRectifiedCostError,
    LiminfReport,
    block_approximate_plan,
    liminf_harness,
    restrict_plan,
    weak_star_distance,
)
from .catalog import (
    CatalogEntry,
    catalog,
    diag_M,
    diag_inf,
    fat_set,
    get_instance,
    random_finite,
    rational_nullmod,
    trivial_zero,
)
from .core import (
    INF,
    ConfigurationError,
    DensitySpec,
    DiscreteMeasure,
    Grid,
)
from .costs import (
    CellTable,
    CostDescriptor,
    CountableMarker,
    Graph,
    PointSet,
    Rectangle,
    Region,
    Segment,
    diagonal_split,
    discretize_cost,
    max_finite_entry,
    plan_cost,
    sample_cost,
    whole_square,
)
from .instance import (
    Instance,
    discretize,
    dumps_instance,
    load_instance,
    loads_instance,
    save_instance,
)
from .negligible import (
    NegligibilityVerdict,
    NotNegligibleError,
    SetDescriptor,
    apply_null_modification,
    grid_indicator,
    is_L_negligible,
    max_plan_mass,
    witness_cover_mass,
)
from .plans import (
    antidiagonal_plan,
    cyclic_shift_plan,
    diagonal_plan,
    product_plan,
    shift_subplan,
)
from .rectify import (
    FeasiblePair,
    RectifiedAccumulator,
    box_infimum_pairs,
    envelope_matrix,
    generative_rectify,
    pointwise_dual_envelope,
)
from .solver import (
    DualPotentials,
    RelaxedReport,
    SolveReport,
    TransportPlan,
    check_complementary_slackness,
    relaxed_value,
    solve_dual,
    solve_partial,
    solve_primal,
)

__version__ = "0.1.0"
