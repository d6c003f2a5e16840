"""Desk-scale laboratory for growth functions, VC-density, and
sample-complexity bounds of small neural hypothesis classes."""

from .bounds import (
    BoundConstants,
    BoundQuery,
    BoundReport,
    bound_report,
    classical_reference_bounds,
    deviation_bound_growth,
    deviation_bound_rademacher,
    k_elementary,
    k_rademacher,
    rademacher_cap,
    solve_k_log_inequality,
)
from .dichotomy import (
    DensityEstimate,
    FitPolicy,
    GrowthEstimate,
    GrowthSample,
    Trace,
    count_dichotomies_exact_ltf,
    count_dichotomies_sampled,
    estimate_vc_density,
    growth_function_oracle,
    growth_samples,
    is_shattered,
    sauer_shelah_cap,
    trace,
    trace_set,
    vc_dim_bruteforce,
)
from .errors import CapExceededError, ConfigError, IndeterminateLabelingError, VclabError
from .hypotheses import (
    ActivationSpec,
    ExplicitFinite,
    Hypothesis,
    LayerSpec,
    LinearThreshold,
    NetworkSpec,
    UnionOfMPoints,
    WeightVector,
    apply_activation,
    baseline_membership,
    evaluate,
    load_class_spec,
)
from .pointsets import PointSet, random_general_position
from .ucheck import (
    DiscreteDistribution,
    UCExperimentResult,
    empirical_loss,
    load_distribution,
    run_uc_experiment,
    sup_deviation_exact,
    true_loss,
)

__all__ = [name for name in dir() if not name.startswith("_")]
