"""Every order, count and size goes through one integer rule, quadrature.is_int_in.

An int or numpy integer in the site's range passes; a float (even an
integral one), a bool, a string, NaN, inf or a value just outside the range
is refused with a ValueError that names it, and nothing is truncated.
"""

import math
import re

import numpy as np
import pytest

from glfrac import (
    N_MAX,
    AccuracyNotReachedError,
    DiagonalOperator,
    OperatorHandle,
    OrderOutOfRangeError,
    QuadratureRule,
    TruncationPlan,
    apply_fractional_inverse,
    build_rational,
    builtin_operator,
    estimate_balanced_error,
    gauss_laguerre,
    oracle_integral,
    plan_full,
    sinc_baseline_error,
    tail_weight_sum,
)
from glfrac.quadrature import check_order


class _Scaled(OperatorHandle):
    def _solve(self, sigma, tau, b):
        return b / (sigma + tau * self.lambda_min)


def _oracle_budget(v):
    # 16 evaluations pass the rule but are too few to certify anything
    with pytest.raises(AccuracyNotReachedError):
        oracle_integral(1, 2.0, 0.5, max_evals=v)


def _max_workers(v):
    form = build_rational(0.5, plan_full(2))
    apply_fractional_inverse(DiagonalOperator([1.0, 2.0]), np.ones(2), form, parallel=True, max_workers=v)


# site: (call with the integer under test, lo, hi, error raised on refusal)
SITES = {
    "check_order": (check_order, 1, N_MAX, OrderOutOfRangeError),
    "QuadratureRule.order": (lambda v: QuadratureRule(v, [1.0], [1.0]), 1, math.inf, ValueError),
    "tail_weight_sum.k": (lambda v: tail_weight_sum(gauss_laguerre(3), v), 0, 3, ValueError),
    "estimate_balanced_error.k": (lambda v: estimate_balanced_error(v, 0.5), 1, math.inf, ValueError),
    "sinc_baseline_error.total_solves": (lambda v: sinc_baseline_error([1.0, 2.0], 0.5, v), 3, math.inf, ValueError),
    "oracle_integral.family": (lambda v: oracle_integral(v, 2.0, 0.5), 1, 2, ValueError),
    "oracle_integral.max_evals": (_oracle_budget, 16, math.inf, ValueError),
    "OperatorHandle.dimension": (lambda v: _Scaled(v, 1.0), 1, math.inf, ValueError),
    "builtin_operator.size": (lambda v: builtin_operator("diag-power", size=v, exponent=2.0), 1, math.inf,
                              ValueError),
    "builtin_operator.m.1d": (lambda v: builtin_operator("fd-laplacian-1d", m=v), 1, math.inf, ValueError),
    "builtin_operator.m.2d": (lambda v: builtin_operator("fd-laplacian-2d", m=v), 1, math.inf, ValueError),
    "apply_fractional_inverse.max_workers": (_max_workers, 1, math.inf, ValueError),
    "TruncationPlan.n1": (lambda v: TruncationPlan("balanced", v, 3, 1, 3), 1, N_MAX, OrderOutOfRangeError),
    "TruncationPlan.n2": (lambda v: TruncationPlan("balanced", 3, v, 3, 1), 1, N_MAX, OrderOutOfRangeError),
    "TruncationPlan.k1": (lambda v: TruncationPlan("balanced", 3, 3, v, 3), 1, 3, ValueError),
    "TruncationPlan.k2": (lambda v: TruncationPlan("balanced", 3, 3, 3, v), 1, 3, ValueError),
}


@pytest.mark.parametrize("site", SITES)
def test_integer_rule_at_every_site(site):
    call, lo, hi, error = SITES[site]
    bad = [2.5, 3.0, np.float64(3.0), True, False, "3", math.nan, math.inf, lo - 1]
    if hi < math.inf:
        bad.append(hi + 1)
    for value in bad:
        # the value's repr, not part of a longer number or name
        named = rf"(?<![\w.-]){re.escape(repr(value))}(?![\w.(])"
        with pytest.raises(error, match=named):
            call(value)
    for value in (lo, np.int64(lo)):
        call(value)
