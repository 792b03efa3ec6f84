"""ergodim: numerical ergodic theory on exact model systems.

Computes local (Bowen-ball) entropy, maximal Lyapunov exponents via pointwise
Lipschitz constants, and box/local-mass dimension proxies of local unstable
sets, then checks that the dimension proxy dominates entropy / expansion rate
on systems with known ground truth.  All randomness is seed-derived;
arithmetic on model systems is exact (dyadic torus grid, stored symbol
windows).
"""

__version__ = "0.1.0"

from .dimension import (
    DimensionEstimate,
    PointCloud,
    VerifyReport,
    box_counting_dimension,
    local_dimension_lower,
    sample_unstable_set,
    unstable_cover_counts,
    verify_main_inequality,
)
from .entropy import (
    BrinKatokReport,
    EntropyEstimate,
    block_entropy_rate,
    brin_katok_local,
    conditional_entropy,
)
from .errors import *  # noqa: F403 - errors defines a curated __all__
from .geometry import (
    InclusionReport,
    check_ball_inclusion,
    lipschitz_table,
)
from .harness import ExperimentConfig, Report, emit_report, run_experiment
from .lyapunov import ChiEstimate, SubadditiveSeries, estimate_chi, fekete_limit
from .measures import (
    BernoulliIID,
    ConditionalShiftOracle,
    LebesgueTorus,
    MarkovStationary,
    entropy_rate,
    fixed_coords_log_measure,
    fixed_coords_measure,
    rng_for,
    sample_point,
    sample_points,
    word_distribution,
)
from .partitions import (
    CylinderPartition,
    SubordinatePlan,
    check_atom_in_unstable,
    construct_subordinate_partition,
    cylinder_window,
    delta_constant,
    disintegrate_past,
    hamming_ball_bound_check,
    local_smb_check,
    orbit_join,
    past_join,
    pullback,
    refine,
    shift_lemma_check,
)
from .systems import (
    FullShift,
    SymbolicPoint,
    ToralAutomorphism,
    TorusPoint,
    TorusTranslation,
    WeightSequence,
    default_weights,
    distance,
    invert,
    iterate,
    operator_norm_power,
    resolution_floor,
)
