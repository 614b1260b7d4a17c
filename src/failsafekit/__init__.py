"""failsafekit: reliability comparison of fail-safe ((n-1)-out-of-n)
systems whose component lifetimes are dependent (Archimedean copula) and
heterogeneous (semi-parametric distribution families).

The analytic core evaluates closed-form survival curves of the smallest
and second-smallest order statistics, checks vector preorders and shape
hypotheses, and audits every claimed dominance on a grid; an independent
Monte-Carlo path cross-checks the analytics, and a fitting pipeline takes
raw strength data to marginal fits, copula goodness of fit, and subset
recommendations.
"""

from .errors import (
    FailsafeKitError,
    InconsistencyError,
    UnsupportedGeneratorError,
    ValidationError,
)
from .generators import (
    GeneratorSpec,
    LogShape,
    LogShapeReport,
    classify_log_shape,
    is_log_concave,
    is_log_convex,
    log_psi,
    phi,
    psi,
)
from .gridpolicy import GridPolicy
from .mcsim import (
    SampleBatch,
    empirical_survival_x2n,
    sample_copula,
    sample_lifetimes,
    second_smallest,
)
from .models import (
    BaselineSpec,
    HypothesisCheck,
    SemiParamModel,
    check_dfr,
    check_dpfr,
    check_theorem1_condition2,
    check_theorem2_condition2,
    hazard,
    quantile,
    sf,
    sp_quantile,
    sp_survival,
)
from .ordering import (
    ConditionReport,
    DominanceVerdict,
    Relation,
    compare_curves,
    schur_condition_probe,
    verify_prop_ls,
    verify_prop_mphrs,
    verify_theorem1,
    verify_theorem2,
)
from .preorders import OrderReport, Preorder, classify, holds
from .systems import (
    SurvivalCurve,
    SystemSpec,
    curve,
    curves,
    default_grid,
    homogeneous_x2n,
    lower_bound_plarger,
    lower_bound_rm,
    survival_x2n,
)

__version__ = "0.1.0"

__all__ = [
    "BaselineSpec",
    "ConditionReport",
    "DominanceVerdict",
    "FailsafeKitError",
    "GeneratorSpec",
    "GridPolicy",
    "HypothesisCheck",
    "InconsistencyError",
    "LogShape",
    "LogShapeReport",
    "OrderReport",
    "Preorder",
    "Relation",
    "SampleBatch",
    "SemiParamModel",
    "SurvivalCurve",
    "SystemSpec",
    "UnsupportedGeneratorError",
    "ValidationError",
    "check_dfr",
    "check_dpfr",
    "check_theorem1_condition2",
    "check_theorem2_condition2",
    "classify",
    "classify_log_shape",
    "compare_curves",
    "curve",
    "curves",
    "default_grid",
    "empirical_survival_x2n",
    "hazard",
    "holds",
    "homogeneous_x2n",
    "is_log_concave",
    "is_log_convex",
    "log_psi",
    "lower_bound_plarger",
    "lower_bound_rm",
    "phi",
    "psi",
    "quantile",
    "sample_copula",
    "sample_lifetimes",
    "schur_condition_probe",
    "second_smallest",
    "sf",
    "sp_quantile",
    "sp_survival",
    "survival_x2n",
    "verify_prop_ls",
    "verify_prop_mphrs",
    "verify_theorem1",
    "verify_theorem2",
]
