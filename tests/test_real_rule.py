"""Every real input goes through one rule: quadrature.is_real for scalars, quadrature._real for arrays.

A real scalar is an int, float, numpy integer or numpy floating, not a bool,
that a float can hold: strings, bools, NaN, +-inf, ints too large for a
float, complex numbers and arrays (even 0-d or one-element ones) are refused
with a ValueError that names the value. A real array has an integer or
floating dtype: bool, str, bytes, object and complex arrays are refused
with a ValueError saying the input "must be real".
"""

import math
import re

import numpy as np
import pytest

from glfrac import (
    DenseOperator,
    DiagonalOperator,
    OperatorHandle,
    QuadratureRule,
    RationalForm,
    TridiagonalOperator,
    apply_fractional_inverse,
    build_rational,
    builtin_operator,
    check_alpha,
    eval_scalar,
    g1,
    oracle_diag_norm_error,
    oracle_integral,
    oracle_scalar_power,
    plan_full,
    select_n,
    sinc_baseline_error,
)


class _Scaled(OperatorHandle):
    def _solve(self, sigma, tau, b):
        return b / (sigma + tau * self.lambda_min)


def _form():
    return build_rational(0.5, plan_full(2))


# site: (call with the real under test, good values); the good values are in the site's range
SCALAR_SITES = {
    # no int lies in (0, 1)
    "check_alpha": (check_alpha, (0.5, np.float32(0.5), np.float64(0.25))),
    "select_n.tol": (lambda v: select_n(0.5, v), (1e-6, 1, np.float32(1e-3))),
    "OperatorHandle.lambda_min": (lambda v: _Scaled(2, v), (0.5, 2, np.float32(0.5))),
    "DenseOperator.lambda_min": (lambda v: DenseOperator(np.eye(2), lambda_min=v), (0.5, 1, np.float32(0.5))),
    # eigenvalues 1 and 3
    "TridiagonalOperator.lambda_min": (lambda v: TridiagonalOperator([2.0, 2.0], [-1.0], lambda_min=v),
                                       (0.5, 1, np.float32(0.5))),
    "shifted_solve.sigma": (lambda v: DiagonalOperator([1.0, 2.0]).shifted_solve(v, 1.0, np.ones(2)),
                            (0.5, 1, np.float32(0.5))),
    "shifted_solve.tau": (lambda v: DiagonalOperator([1.0, 2.0]).shifted_solve(1.0, v, np.ones(2)),
                          (0.5, 1, np.float32(0.5))),
    "builtin_operator.exponent": (lambda v: builtin_operator("diag-power", size=3, exponent=v),
                                  (2.0, 2, np.float32(2.0))),
    "oracle_integral.abs_tol": (lambda v: oracle_integral(1, 2.0, 0.5, abs_tol=v), (1e-10, 1, np.float32(1e-6))),
}

BAD_SCALARS = ("0.5", True, False, math.nan, math.inf, -math.inf, np.float32(math.inf), 10**400, 1 + 0j, np.array(0.5),
               np.array([0.5]))


@pytest.mark.parametrize("site", SCALAR_SITES)
def test_real_rule_at_every_scalar_site(site):
    call, good = SCALAR_SITES[site]
    for value in BAD_SCALARS:
        # the value's repr, not part of a longer number or name
        named = rf"(?<![\w.-]){re.escape(repr(value))}(?![\w.(])"
        with pytest.raises(ValueError, match=named):
            call(value)
    for value in good:
        call(value)


def _rhs(b):
    return apply_fractional_inverse(DiagonalOperator([1.0, 2.0]), b, _form())


# site: (call with the array under test, a good float array, the name the refusal gives)
ARRAY_SITES = {
    "apply_fractional_inverse.b": (_rhs, np.array([1.0, 2.0]), "right-hand side"),
    "shifted_solve.b": (lambda a: DiagonalOperator([1.0, 2.0]).shifted_solve(1.0, 1.0, a), np.array([1.0, 2.0]),
                        "right-hand side"),
    "DiagonalOperator.eigenvalues": (DiagonalOperator, np.array([1.0, 2.0]), "eigenvalues"),
    "TridiagonalOperator.diag": (lambda a: TridiagonalOperator(a, [-1.0]), np.array([2.0, 2.0]), "main diagonal"),
    "DenseOperator.matrix": (lambda a: DenseOperator(a, lambda_min=0.5), np.eye(2), "matrix entries"),
    "g1.lam": (lambda a: g1(4, 0.5, a), np.array([1.0, 2.0]), "lambda"),
    "eval_scalar.lam": (lambda a: eval_scalar(_form(), a), np.array(2.0), "lambda"),
    "oracle_scalar_power.lam": (lambda a: oracle_scalar_power(a, 0.5), np.array(2.0), "lambda"),
    "oracle_diag_norm_error.eigenvalues": (lambda a: oracle_diag_norm_error(a, _form()), np.array([1.0, 2.0]),
                                           "lambda"),
    "sinc_baseline_error.eigenvalues": (lambda a: sinc_baseline_error(a, 0.5, 5), np.array([1.0, 2.0]), "lambda"),
    "QuadratureRule.nodes": (lambda a: QuadratureRule(2, a, [0.5, 0.5]), np.array([1.0, 2.0]), "nodes"),
    "QuadratureRule.weights": (lambda a: QuadratureRule(2, [1.0, 2.0], a), np.array([0.5, 0.5]), "weights"),
    "RationalForm.term_arrays": (lambda a: RationalForm(0.5, "full", 2, 2, 2, 2, a), _form().term_arrays,
                                 "term_arrays"),
}


@pytest.mark.parametrize("site", ARRAY_SITES)
def test_real_rule_at_every_array_site(site):
    call, good, name = ARRAY_SITES[site]
    for dtype, kind in ((str, "str"), (bytes, "bytes"), (bool, "bool"), (object, "object"),
                        (complex, "complex")):
        bad = good.astype(dtype)
        with pytest.raises(ValueError, match=rf"^{name} must be real, got {kind} dtype {re.escape(str(bad.dtype))}$"):
            call(bad)
    call(good)
    call(good.astype(np.float32))


def test_a_bool_scalar_lambda_is_refused():
    # a bare True used to be read as lambda = 1
    with pytest.raises(ValueError, match="^lambda must be real, got bool dtype bool$"):
        eval_scalar(_form(), True)


def test_real_rule_keeps_every_accepted_value_bit_for_bit():
    # the rule only refuses: a numpy or int value gives the bits its float gives
    assert select_n(0.5, np.float64(1e-6)) == select_n(0.5, 1e-6)
    assert np.array_equal(builtin_operator("diag-power", size=5, exponent=2).eigenvalues,
                          builtin_operator("diag-power", size=5, exponent=2.0).eigenvalues)
    assert oracle_integral(1, 2.0, 0.5, abs_tol=np.float64(1e-10)) == oracle_integral(1, 2.0, 0.5, abs_tol=1e-10)
