"""Fractional inverse powers of self-adjoint positive operators.

Gauss-Laguerre discretization of the power function's integral
representation yields rational approximations whose operator
application is a short sum of shifted solves, with closed-form
a-priori error estimates driving order selection and truncation.
"""

from .quadrature import (
    N_MAX,
    OrderOutOfRangeError,
    QuadratureRule,
    gauss_laguerre,
    tail_weight_sum,
    truncation_index,
)
from .scalar_core import (
    ErrorEstimate,
    RationalForm,
    ToleranceUnreachableError,
    TruncationPlan,
    build_rational,
    check_alpha,
    estimate_balanced_error,
    estimate_operator_error,
    estimate_scalar_error,
    eval_scalar,
    g1,
    g2,
    gamma_pm,
    lambda_n_exact,
    lambda_n_tilde,
    n_star,
    order_ranges,
    plan_balanced,
    plan_equalized,
    plan_full,
    select_n,
)
from .operator_apply import (
    DENSE_DIM_CAP,
    DenseOperator,
    DiagonalOperator,
    DimensionMismatchError,
    KroneckerSumOperator,
    NotPositiveDefiniteError,
    OperatorHandle,
    TridiagonalOperator,
    apply_fractional_inverse,
    builtin_operator,
    dense_fractional_inverse,
)
from .oracle_baselines import (
    AccuracyNotReachedError,
    OracleResult,
    oracle_diag_norm_error,
    oracle_integral,
    oracle_scalar_power,
    sinc_baseline_error,
)

__version__ = "0.1.0"
