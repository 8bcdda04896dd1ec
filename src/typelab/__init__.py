"""typelab: numerical machinery for the exponential type of a measure."""

from .core import (
    DiscreteMeasure,
    Interval,
    Partition,
    RealSequence,
    SumVerdict,
    TypelabError,
    WeightTable,
    poisson_tail_sum,
)
from .energy import EnergyReport, coulomb_energy, energy_report, grid_energy_closed_form
from .partitions import classify_family, find_short_partition, short2I_diagnostic
from .density import (
    DensityEstimate,
    counting_function,
    exterior_density,
    interior_density,
    regularity_block_scan,
    strong_regularity_defect,
)
from .uniformity import UniformityReport, check_d_uniform
from .typeproblem import (
    TheoremVerdict,
    TypeEstimate,
    benedicks_conditions,
    beurling_gap_check,
    borichev_sodin_compare,
    debranges_check,
    duffin_schaeffer_check,
    hybrid_check,
    krein_lm_check,
    levinson_check,
    polynomial_rescale,
    suffgen_bound,
    type_discrete,
    type_separated,
)
from .constructions import (
    alternating_partition,
    arithmetic,
    auxiliary_sequence,
    benedicks_sequence,
    measure_from_weights,
    perturb_exponential,
    weight_families,
)
from .oracle import ResidualCurve, annihilation_matrix, residual_scan

__version__ = "0.1.0"
