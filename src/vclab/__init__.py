"""Desk-scale laboratory for growth functions, VC-density, and
sample-complexity bounds of small neural hypothesis classes."""

from .bounds import (
    BoundQuery,
    BoundReport,
    bound_report,
    classical_reference_bounds,
    deviation_bound_growth,
    deviation_bound_rademacher,
    k_elementary,
    k_rademacher,
    rademacher_cap,
)
from .dichotomy import (
    DensityEstimate,
    GrowthEstimate,
    GrowthSample,
    estimate_vc_density,
    growth_function_oracle,
    growth_samples,
    is_shattered,
    sauer_shelah_cap,
    trace_set,
    vc_dim_bruteforce,
)
from .errors import CapExceededError, ConfigError, IndeterminateLabelingError, VclabError
from .hypotheses import (
    ActivationSpec,
    ExplicitFinite,
    LayerSpec,
    LinearThreshold,
    NetworkSpec,
    UnionOfMPoints,
    load_class_spec,
)
from .pointsets import PointSet, random_general_position
from .ucheck import (
    DiscreteDistribution,
    UCExperimentResult,
    load_distribution,
    run_uc_experiment,
    sup_deviation_exact,
)

__all__ = [name for name in dir() if not name.startswith("_")]
