"""Detection statistics for correlated gamma-fluctuating targets in
correlated compound (K-distributed) clutter.

Analytic survival/detection curves come from saddle-point inversion of the
effective rational MGF (with DMG and diagonal fast paths); the
first-principles quadrature-level model is sampled by Monte Carlo and the
two are compared through replicated Kolmogorov-Smirnov ensembles.
"""

from .corrmodel import (
    CorrelationSpec,
    EigenSystem,
    build_matrix,
    cross_looks,
    dmg_spectrum,
    effective_looks,
    eigen_decompose,
    loading_matrix,
)
from .detector import DetectionCurve, pd_curve, threshold_for_pfa
from .fpm_mc import McConfig, simulate_returns
from .gof_stats import (
    KSEnsemble,
    epsilon_from_delta,
    ks_ensemble,
    ks_statistic,
    power_study,
)
from .mgf_core import (
    KAPPA_INF,
    MomentReport,
    PoleMgf,
    ScenarioContext,
    ScenarioParams,
    Scheme,
    aggregated_corr,
    analytic_moments,
    scenario,
)
from .texture import (
    Method,
    TextureRule,
    compound_survival,
    gamma_texture_rule,
    survival_curve,
    survival_interpolator,
)

__version__ = "0.1.0"
