import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from glfrac import (
    AccuracyNotReachedError,
    build_rational,
    estimate_scalar_error,
    eval_scalar,
    oracle_diag_norm_error,
    oracle_integral,
    oracle_scalar_power,
    plan_balanced,
    plan_full,
    sinc_baseline_error,
)


def _prefactors(alpha):
    return (
        math.sin(alpha * math.pi) / (alpha * math.pi),
        math.sin(alpha * math.pi) / ((1.0 - alpha) * math.pi),
    )


def test_scalar_power_trivia():
    assert oracle_scalar_power(1.0, 0.3) == 1.0
    assert oracle_scalar_power(10.0, 0.5) == pytest.approx(10.0**-0.5, rel=1e-15)
    assert oracle_scalar_power(1e16, 0.25) == pytest.approx(1e-4, rel=1e-12)
    for bad in (0.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="lambda out of range"):
            oracle_scalar_power(bad, 0.5)


def test_oracles_refuse_a_non_scalar_lambda():
    with pytest.raises(ValueError, match=r"lambda must be a scalar, got shape \(1,\)"):
        oracle_scalar_power(np.array([2.0]), 0.5)
    with pytest.raises(ValueError, match=r"lambda must be a scalar, got shape \(1,\)"):
        oracle_integral(1, [2.0], 0.5)
    assert oracle_scalar_power(np.array(4.0), 0.5) == 0.5


def test_integral_combination_reproduces_power():
    for alpha, lam in ((0.5, 10.0), (0.25, 3.0), (0.9, 1.5), (0.1, 1e10)):
        p1, p2 = _prefactors(alpha)
        r1 = oracle_integral(1, lam, alpha)
        r2 = oracle_integral(2, lam, alpha)
        combo = p1 * r1.value + p2 * r2.value
        assert abs(combo - oracle_scalar_power(lam, alpha)) <= 1e-10
        for r in (r1, r2):
            assert r.estimated_accuracy <= 2e-12
            assert r.evaluations <= 10**6


def test_integral_handles_extreme_exponents_cheaply():
    # the boundary layer at x ~ alpha must not exhaust the budget
    r = oracle_integral(1, 100.0, 1e-3)
    assert r.evaluations < 10_000
    assert abs(r.value - 1.0) <= 1e-2  # family 1 tends to 1 as alpha -> 0
    for lam in (1.0, 100.0, 1e4):
        r = oracle_integral(1, lam, 1e-3)
        assert abs(r.value - 1.0) <= 1e-2
    for lam in (1.0, 100.0, 1e4):
        r = oracle_integral(2, lam, 0.999)  # family 2 tends to 1/lambda as alpha -> 1
        assert abs(r.value - 1.0 / lam) * lam <= 1e-2


def test_integral_validation_and_budget():
    with pytest.raises(ValueError, match="family"):
        oracle_integral(3, 2.0, 0.5)
    for bad in (0.9, math.nan, math.inf):
        with pytest.raises(ValueError, match="lambda out of range"):
            oracle_integral(1, bad, 0.5)
    with pytest.raises(AccuracyNotReachedError, match="accuracy not reached"):
        oracle_integral(1, 2.0, 0.5, abs_tol=1e-16, max_evals=100)


def test_quadrature_agrees_with_oracle_within_estimate():
    for alpha, lam in ((0.5, 100.0), (0.25, 300.0), (0.1, 100.0)):
        p1, p2 = _prefactors(alpha)
        reference = p1 * oracle_integral(1, lam, alpha).value + p2 * oracle_integral(2, lam, alpha).value
        form = build_rational(alpha, plan_full(128))
        assert abs(eval_scalar(form, lam) - reference) <= estimate_scalar_error(128, alpha, lam)


def test_diag_norm_error_definition():
    eigs = np.array([1.0, 7.0, 123.0])
    form = build_rational(0.5, plan_full(12))
    got = oracle_diag_norm_error(eigs, form)
    expected = max(abs(oracle_scalar_power(e, 0.5) - eval_scalar(form, e)) for e in eigs)
    # libm and vectorized numpy powers differ by an ulp, nothing more
    assert math.isclose(got, expected, rel_tol=1e-12)
    single = oracle_diag_norm_error(np.array([1.0]), form)
    assert single == abs(1.0 - eval_scalar(form, 1.0))
    for bad in (0.5, math.nan, math.inf):
        for eigs in (np.array([1.0, bad]), np.array([bad])):
            with pytest.raises(ValueError, match=r"^lambda out of range \[1, inf\)$"):
                oracle_diag_norm_error(eigs, form)


def test_diag_norm_error_uses_the_forms_alpha():
    eigs = np.arange(1.0, 101.0) ** 8
    for alpha in (0.25, 0.75):
        form = build_rational(alpha, plan_full(30))
        direct = float(np.max(np.abs(eigs ** (-form.alpha) - eval_scalar(form, eigs))))
        assert oracle_diag_norm_error(eigs, form) == pytest.approx(direct, rel=1e-12)


@given(perm_seed=st.integers(0, 1000))
def test_diag_norm_error_permutation_invariant(perm_seed):
    rng = np.random.default_rng(perm_seed)
    eigs = np.array([1.0, 2.0, 9.0, 64.0, 1e5])
    form = build_rational(0.25, plan_full(10))
    shuffled = rng.permutation(eigs)
    assert oracle_diag_norm_error(eigs, form) == oracle_diag_norm_error(shuffled, form)


def test_sinc_validation():
    eigs = np.array([1.0, 2.0])
    for bad in (0, 1, 2, 10, 5.9, math.nan, math.inf):
        with pytest.raises(ValueError, match=rf"odd integer >= 3, got {bad!r}$"):
            sinc_baseline_error(eigs, 0.5, bad)
    assert sinc_baseline_error(eigs, 0.5, 5.0) == sinc_baseline_error(eigs, 0.5, 5)
    for bad in (0.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="lambda out of range"):
            sinc_baseline_error(np.array([bad]), 0.5, 11)


def test_sinc_frozen_convergence():
    eigs = np.arange(1.0, 101.0) ** 8
    frozen = {
        11: 2.8022243246689005e-02,
        21: 3.560834044821215e-03,
        41: 1.9388323731628354e-04,
        81: 3.1650728560261854e-06,
    }
    values = {t: sinc_baseline_error(eigs, 0.5, t) for t in frozen}
    for t, expect in frozen.items():
        assert values[t] == pytest.approx(expect, rel=1e-10)
    seq = [values[t] for t in sorted(values)]
    assert all(a > b for a, b in zip(seq, seq[1:]))


def test_balanced_beats_sinc_at_matched_budgets(capsys):
    # soft comparison, reported rather than tabulated: the rational form
    # should win at every matched solve count on this spectrum
    eigs = np.arange(1.0, 101.0) ** 8
    alpha = 0.5
    for budget in (31, 41, 61):
        sinc_err = sinc_baseline_error(eigs, alpha, budget)
        n = max(m for m in range(1, 400) if plan_balanced(m, alpha).predicted_inversions <= budget)
        plan = plan_balanced(n, alpha)
        form = build_rational(alpha, plan)
        bal_err = oracle_diag_norm_error(eigs, form)
        print(
            f"budget {budget}: balanced({plan.predicted_inversions} solves) {bal_err:.3e}"
            f" vs sinc({budget} solves) {sinc_err:.3e}"
        )
        assert bal_err < sinc_err
