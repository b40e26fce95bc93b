"""Exact limiting risks of spectral shrinkage estimators under spiked
covariance, synthesis of the risk-optimal rule as multi-step
self-distillation (single-client and federated), and a finite-sample
Monte Carlo validator."""

from .errors import AssumptionError, NumericalError, StructuralError
from .spectra import (
    SpikedModel,
    MixtureWeights,
    mixture_weights,
    mp_support,
    mp_density,
    bulk_densities,
    outlier_location,
    mp_quantile_inverse,
    get_grid,
)
from .measures import (
    RnPolynomials,
    GramSystem,
    rn_polynomials,
    gram_system,
)
from .shrinkage import (
    SDParams,
    ShrinkageFn,
    Ridge,
    RationalRule,
    SDChain,
    GDPoly,
    SharpCut,
    RiskBreakdown,
    eval_shrinkage,
    limiting_pred_risk,
    limiting_est_risk,
    ridge_risk_curve,
    best_ridge,
    pcr_rule,
    min_norm_rule,
    pcr_sharp_pred_risk,
    pcr_component_limit_risk,
)
from .optimal import (
    optimal_pred_rule,
    optimal_est_rule,
    denominator_roots,
    synthesize_sd_params,
    fixed_point_residual,
    sd_round_trip_error,
)
from .federated import (
    FederatedOptimum,
    federated_optimum,
    federated_b,
    federated_risk,
)
from .montecarlo import (
    SimConfig,
    HarnessReport,
    gen_data,
    sample_gram,
    decompose,
    fit_coords,
    sigma_risk,
    coordinate_risk,
    harness_suite,
)

__version__ = "0.1.0"
