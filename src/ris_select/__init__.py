"""Location-based selection of reflecting surfaces over planar Poisson
deployments: analytic distance distributions, outage and rate formulas,
limited-feedback variants, and an independent Monte Carlo cross-validator.
"""

from .analytic import (
    DEFAULT_QUADRATURE,
    DistCdf,
    RATE_CLOSED_FORM_CUTOFF,
    RateQuadrature,
    cdf_lambda_opt,
    cdf_upsilon_opt,
    outage_exp,
    outage_exp_fb,
    outage_pow,
    outage_pow_fb,
    pdf_lambda_opt,
    pdf_upsilon_opt,
    pdf_y_exp,
    pdf_y_pow,
    pdf_y_pow_from_upsilon,
    rate_exp,
    rate_fading_closed,
    rate_fading_quad,
    rate_fading_ub,
    rate_pow,
    xi_exp,
    xi_pow,
)
from .channel import (
    GammaApprox,
    NetworkConfig,
    PathLossModel,
    ez2,
    gamma_params,
    sample_z,
    snr_score_cap,
)
from .errors import (
    DomainError,
    NonConvergenceError,
    PoleError,
    QuadratureError,
    SingularityError,
    UnsupportedRegionError,
)
from .geometry import (
    ScoreKind,
    critical_score,
    enclosing_radius,
    min_product_region_area,
    min_sum_region_area,
)
from .montecarlo import (
    EmpiricalDist,
    Estimate,
    coverage_radius,
    mc_distance_dist,
    mc_feedback_dist,
    mc_outage,
    mc_rate,
    poisson_gof,
    policy_scores,
)
from .policies import OPTIMUM, PolicyKind, SelectionPolicy
from .specfun import (
    digamma,
    ellip_e,
    ellip_k,
    genhyp,
    log_gamma,
)

__version__ = "0.1.0"
