"""Exact limiting risks of spectral shrinkage estimators under spiked
covariance, synthesis of the risk-optimal rule as multi-step
self-distillation (single-client and federated), and a finite-sample
Monte Carlo validator."""

from .errors import AssumptionError, NumericalError, StructuralError
from .spectra import (
    SpikedModel,
    SpectralMeasure,
    mp_support,
    mp_density,
    mp_stieltjes,
    companion_stieltjes,
    spiked_stieltjes,
    outlier_location,
    spiked_measure,
    mp_measure,
    mp_quantile_inverse,
    get_grid,
)
from .measures import (
    MixtureWeights,
    RnPolynomials,
    GramSystem,
    mixture_weights,
    rn_polynomials,
    mu_j,
    weight_w,
    target_g,
    basis_h,
    inner_w,
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
    Tabulated,
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
    OptimalCoefficients,
    optimal_pred_rule,
    optimal_est_rule,
    isotropic_optimal,
    denominator_roots,
    synthesize_sd_params,
    coprimality_check,
    fixed_point_residual,
    sd_round_trip_error,
)
from .federated import (
    FederatedOptimum,
    federated_optimum,
    federated_b,
    b0_noise_limit,
    product_form_limit,
    federated_risk,
)
from .montecarlo import (
    SimConfig,
    HarnessReport,
    gen_data,
    sample_gram,
    decompose,
    apply_rule_to_vector,
    fit_coords,
    sigma_risk,
    coordinate_risk,
    harness_suite,
)

__version__ = "0.1.0"
