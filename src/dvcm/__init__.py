"""Adaptive transfer learning for domain-varying coefficient models.

Estimates coefficient curves theta(u) of (generalized) linear models
whose coefficients drift across domains, by pooling source domains with
kernel-weighted local-polynomial regression and fine-tuning on the
target with a ridge penalty built from the pilot's estimated bias and
variance; at wide bandwidths (h >= 0.45 in the README sweep) that bias
estimate overshoots and transfer is negative. Includes bandwidth rules,
covariance estimation for Wald-type inference, a reproducible
Monte-Carlo harness, and a CSV pipeline with a command-line front end
(``dvcm``).

dvcm runs in parallel with processes and solves systems of a few dozen
columns, so when it is first to import numpy it loads OpenBLAS
single-threaded; to keep BLAS threads, import numpy first or set
``OPENBLAS_NUM_THREADS``.
"""

import os as _os
import sys as _sys

# numpy's and scipy's OpenBLAS both load during the imports below; unless
# numpy came first or the caller chose a thread count, they load with one
# thread, and the variable is gone afterwards, so no subprocess inherits it
_SINGLE_BLAS = "numpy" not in _sys.modules and not any(
    v in _os.environ for v in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"))
if _SINGLE_BLAS:
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
try:
    from .bandwidth import (
        BandwidthChoice,
        gamma_moment_estimate,
        select_bandwidth,
    )
    from .design import (
        LocalDesign,
        Panel,
        build_local_design,
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
        estimate_derivative,
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
        mc_sweep,
        rng_stream,
    )
finally:
    if _SINGLE_BLAS:
        del _os.environ["OPENBLAS_NUM_THREADS"]

__version__ = "0.1.0"
