"""Adaptive transfer learning for domain-varying coefficient models.

Estimates coefficient curves theta(u) of (generalized) linear models
whose coefficients drift across domains, by pooling source domains with
kernel-weighted local-polynomial regression and fine-tuning on the
target with a data-driven ridge penalty that provably guards against
negative transfer.  Includes bandwidth rules, covariance estimation for
Wald-type inference, a reproducible Monte-Carlo harness, and a CSV
pipeline with a command-line front end (``dvcm``).
"""

from .bandwidth import (
    BandwidthChoice,
    gamma_moment_estimate,
    select_bandwidth,
    select_bandwidth_median,
    select_bandwidth_undersmoothed,
)
from .design import (
    DomainSample,
    LocalDesign,
    Panel,
    build_local_design,
    domain_distances,
    poly_features,
    uniform_kernel,
)
from .errors import (
    DegenerateScaleError,
    DegenerateVarianceError,
    DomainError,
    DvcmError,
    EmptyWindowError,
    ExperimentError,
    ParseError,
    SchemaError,
    SingularSystemError,
)
from .estimators import LocalFit, TLFit, fit_dvcm, fit_target_only, fit_tl, newton_weighted
from .families import GAUSSIAN, LOGISTIC, POISSON, ModelFamily, get_family
from .inference import (
    CovarianceReport,
    TransferProblem,
    confidence_intervals,
    contrast_test,
    psi_hat,
    sigma_tl,
    v_hat_target,
    wald_test,
)
from .penalty import (
    PenaltyEstimate,
    estimate_bias,
    estimate_derivative,
    estimate_q,
    estimate_scale,
    estimate_variance_sandwich,
    zeta_hat,
)
from .simulation import (
    InferenceRecords,
    McMseResult,
    SimConfig,
    fit_loglog_slopes,
    generate_dataset,
    ks_normality,
    mc_inference,
    mc_mse,
    mc_sweep,
    rng_stream,
)

__version__ = "0.1.0"
