import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from glfrac import (
    N_MAX,
    OrderOutOfRangeError,
    QuadratureRule,
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
    gauss_laguerre,
    lambda_n_exact,
    lambda_n_tilde,
    n_star,
    oracle_diag_norm_error,
    oracle_integral,
    oracle_scalar_power,
    order_ranges,
    plan_balanced,
    plan_equalized,
    plan_full,
    select_n,
    sinc_baseline_error,
)

ALPHAS = (0.25, 0.5, 0.75)


def test_check_alpha_bounds():
    assert check_alpha(0.5) == 0.5
    for bad in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(ValueError, match="alpha out of range"):
            check_alpha(bad)


def test_gamma_at_one_is_sqrt_pi():
    gm, gp = gamma_pm(1.0)
    assert gm == pytest.approx(math.sqrt(math.pi), abs=1e-15)
    assert gp == pytest.approx(math.sqrt(math.pi), abs=1e-15)


def test_gamma_rejects_below_one():
    for bad in (0.999, math.nan, math.inf):
        with pytest.raises(ValueError, match="lambda out of range"):
            gamma_pm(bad)
        with pytest.raises(ValueError, match="lambda out of range"):
            estimate_scalar_error(10, 0.5, [2.0, bad])


def test_lambda_checks_refuse_nan_and_accept_empty():
    form = build_rational(0.5, plan_full(4))
    for f in (lambda lam: gamma_pm(lam)[1], lambda lam: g1(4, 0.5, lam), lambda lam: g2(4, 0.5, lam),
              lambda lam: estimate_scalar_error(4, 0.5, lam), lambda lam: eval_scalar(form, lam)):
        for bad in (math.nan, [2.0, math.nan], [[3.0], [math.nan]], -math.inf, [1.0, math.inf], 0.5):
            with pytest.raises(ValueError, match="lambda out of range"):
                f(bad)
        for empty in (np.empty(0), np.empty((0, 3)), []):
            assert np.shape(f(empty)) == np.shape(empty)


def test_lambda_checks_refuse_complex():
    # casting a complex array to float would evaluate at the real part and only warn;
    # the oracles check lambda and spectra with the same rule
    form = build_rational(0.5, plan_full(4))
    for f in (lambda lam: gamma_pm(lam)[1], lambda lam: g1(4, 0.5, lam), lambda lam: g2(4, 0.5, lam),
              lambda lam: estimate_scalar_error(4, 0.5, lam), lambda lam: eval_scalar(form, lam),
              lambda lam: oracle_scalar_power(lam, 0.5), lambda lam: oracle_integral(1, lam, 0.5),
              lambda lam: oracle_diag_norm_error(lam, form), lambda lam: sinc_baseline_error(lam, 0.5, 11)):
        for bad in (np.array([2.0 + 1.0j]), np.complex128(2.0), np.array([3.0, 4.0], dtype=complex), [2.0 + 1.0j]):
            with pytest.raises(ValueError, match="lambda must be real, got complex dtype complex128"):
                f(bad)


@pytest.mark.parametrize("alpha", (0.02, 0.25, 0.5, 0.75, 0.98))
def test_scalar_estimate_bits_on_a_grid(alpha):
    # transliterations of g1, g2 and 4 sin(alpha pi) (g1 + g2), equal to the last bit
    lams = np.array([1.0, 1.5, 10.0, 1e4, 1e9, 1e16])
    u = np.log(lams)
    gp = np.sqrt(np.sqrt(u * u + math.pi * math.pi) + u)
    for n in (1, 2, 20, 150, 200, 2048):
        nbar = 4.0 * n + 2.0
        ref1 = np.exp(-alpha * u - (math.pi / gp) * math.sqrt(2.0 * alpha * nbar))
        ref2 = lams ** (-alpha) * np.exp(-gp * math.sqrt(2.0 * (1.0 - alpha) * nbar))
        est = 4.0 * math.sin(alpha * math.pi) * (ref1 + ref2)
        for f, ref in ((g1, ref1), (g2, ref2), (estimate_scalar_error, est)):
            assert f(n, alpha, lams).tolist() == ref.tolist()
            assert f(n, alpha, lams.reshape(2, 3)).tolist() == ref.reshape(2, 3).tolist()
            scalars = [f(n, alpha, lam) for lam in lams.tolist()]
            assert all(type(v) is float for v in scalars) and scalars == ref.tolist()


@given(u=st.floats(0.0, 36.0))
def test_gamma_product_is_pi(u):
    gm, gp = gamma_pm(math.exp(u))
    assert gm * gp == pytest.approx(math.pi, rel=1e-12)


def test_g_factors_closed_form_at_one():
    # gamma_pm(1) = sqrt(pi), so both factors reduce to a plain exponential
    for n, alpha in ((20, 0.5), (7, 0.25), (33, 0.9)):
        nbar = 4 * n + 2
        assert g1(n, alpha, 1.0) == pytest.approx(
            math.exp(-math.sqrt(math.pi) * math.sqrt(2 * alpha * nbar)), rel=1e-14
        )
        assert g2(n, alpha, 1.0) == pytest.approx(
            math.exp(-math.sqrt(math.pi) * math.sqrt(2 * (1 - alpha) * nbar)), rel=1e-14
        )


@given(
    u1=st.floats(0.0, 27.0),
    u2=st.floats(0.0, 27.0),
    alpha=st.sampled_from(ALPHAS),
    n=st.integers(1, 100),
)
def test_g2_strictly_decreasing(u1, u2, alpha, n):
    lo, hi = sorted((u1, u2))
    if hi - lo < 1e-12:
        return
    assert g2(n, alpha, math.exp(lo)) > g2(n, alpha, math.exp(hi))


def test_g1_unimodal_with_interior_max():
    n, alpha = 30, 0.75
    lams = np.logspace(0.0, 10.0, 200)
    vals = g1(n, alpha, lams)
    i = int(np.argmax(vals))
    assert 0 < i < len(lams) - 1
    d = np.diff(vals)
    assert np.all(d[:i] > 0.0)
    assert np.all(d[i:] < 0.0)


def test_lambda_n_sits_at_the_g1_maximum():
    for n, alpha in ((30, 0.5), (60, 0.25)):
        lam_n = lambda_n_exact(n, alpha)
        lams = np.logspace(0.0, math.log10(lam_n) + 2.0, 20001)
        grid_max = float(np.max(g1(n, alpha, lams)))
        peak = g1(n, alpha, lam_n)
        assert grid_max <= peak * (1.0 + 1e-12)
        assert peak <= grid_max * (1.0 + 1e-5)


def _root_residual(n, alpha, lam):
    u = math.log(lam)
    r2 = u * u + math.pi**2
    return abs((math.sqrt(r2) - u) / r2 - 2.0 * alpha / (4.0 * n + 2.0))


@pytest.mark.parametrize("alpha", (0.1, 0.25, 0.5, 0.75, 0.9))
@pytest.mark.parametrize("n", (1, 2, 5, 10, 30, 60, 120, 512, 2048))
def test_lambda_n_residual(n, alpha):
    lam = lambda_n_exact(n, alpha)
    if lam == 1.0:
        # boundary: the defining equation has no root with lambda >= 1
        assert 2.0 * alpha / (4.0 * n + 2.0) >= 1.0 / math.pi - 1e-15
    else:
        assert _root_residual(n, alpha, lam) <= 1e-10


def test_lambda_n_boundary_case():
    assert lambda_n_exact(1, 0.97) == 1.0


def test_lambda_n_frozen_value():
    assert lambda_n_exact(30, 0.5) == pytest.approx(2825.268604425632, rel=1e-12)


def test_lambda_n_tilde_frozen_and_boundary():
    assert lambda_n_tilde(30, 0.5) == pytest.approx(2534.4237765303924, rel=1e-12)
    # radicand is exactly zero at alpha = 3/(2 pi) for n = 1
    assert lambda_n_tilde(1, 3.0 / (2.0 * math.pi)) == 1.0
    with pytest.raises(ValueError, match="n too small"):
        lambda_n_tilde(1, 0.5)


def test_lambda_n_tilde_tracks_exact():
    for alpha in ALPHAS:
        for n in (10, 40, 100):
            le = math.log(lambda_n_exact(n, alpha))
            lt = math.log(lambda_n_tilde(n, alpha))
            assert abs(le - lt) / le <= 0.15


def test_n_star_frozen():
    assert n_star(0.5) == 2.25
    assert n_star(0.75) == 91.125
    assert n_star(0.01) < 1e-6


def test_estimate_branch_selection():
    assert estimate_operator_error(10, 0.5).branch == "g1_at_lambda_n"
    assert estimate_operator_error(10, 0.75).branch == "g2_at_one"  # n < n_star = 91.125
    assert estimate_operator_error(92, 0.75).branch == "g1_at_lambda_n"
    est = estimate_operator_error(20, 0.5)
    assert est.value == pytest.approx(4.0 * math.sin(0.5 * math.pi) * g1(20, 0.5, lambda_n_exact(20, 0.5)), rel=1e-14)


def test_fast_branch_estimate_is_g2_at_one_bit_for_bit():
    # the branch evaluates g2 at lambda = 1 without checking n, alpha and lambda again
    for alpha in np.linspace(0.5, 0.99, 50)[1:]:
        for n in range(1, min(math.floor(n_star(alpha)), N_MAX) + 1):
            est = estimate_operator_error(n, alpha)
            assert est.branch == "g2_at_one"
            assert est.value == 4.0 * math.sin(alpha * math.pi) * g2(n, alpha, 1.0), (alpha, n)


def test_plan_orders_are_checked():
    # orders past N_MAX or not integers used to pass the plan and the form, and fail only in build_rational
    for n1, n2 in ((5000, 5000), (5.5, 5.5), (N_MAX + 1, 3), (3, 0), (3.0, 3)):
        message = f"orders must be integers in [1, {N_MAX}], got n1={n1!r}, n2={n2!r}"
        with pytest.raises(OrderOutOfRangeError, match=f"^{re.escape(message)}$"):
            TruncationPlan("balanced", n1, n2, 3, 3)
    terms = build_rational(0.5, plan_balanced(5, 0.5)).term_arrays
    k = plan_balanced(5, 0.5).k1
    with pytest.raises(OrderOutOfRangeError, match="n1=5000, n2=5000"):
        RationalForm(0.5, "balanced", 5000, 5000, k, k, terms)
    assert TruncationPlan("balanced", np.int64(N_MAX), N_MAX, 3, 3).n1 == N_MAX


def test_estimate_refuses_orders_no_plan_can_build():
    assert estimate_operator_error(N_MAX, 0.5).n == N_MAX
    for n in (0, N_MAX + 1, 5000):
        with pytest.raises(OrderOutOfRangeError, match="order out of range"):
            estimate_operator_error(n, 0.5)
        with pytest.raises(OrderOutOfRangeError, match="order out of range"):
            plan_full(n)
    for f in (lambda_n_exact, lambda_n_tilde):
        with pytest.raises(OrderOutOfRangeError, match="order out of range"):
            f(N_MAX + 1, 0.5)


@pytest.mark.parametrize("f, n", [
    (lambda n: plan_full(n), 2.9),
    (lambda n: plan_balanced(n, 0.5), 5.5),
    (lambda n: plan_equalized(n, 0.5), 5.5),
    (lambda n: estimate_operator_error(n, 0.5), 3.7),
    (lambda n: lambda_n_exact(n, 0.5), 2.5),
    (lambda n: lambda_n_tilde(n, 0.5), 30.5),
    (lambda n: g1(n, 0.5, 10.0), 0),
    (lambda n: g1(n, 0.5, 10.0), -1),
    (lambda n: g1(n, 0.5, 10.0), 2.5),
    (lambda n: g2(n, 0.5, 10.0), 2.5),
    (lambda n: estimate_scalar_error(n, 0.5, 10.0), math.nan),
], ids=["plan_full", "plan_balanced", "plan_equalized", "estimate_operator_error", "lambda_n_exact",
        "lambda_n_tilde", "g1-0", "g1-neg", "g1-frac", "g2-frac", "estimate_scalar_error-nan"])
def test_every_order_goes_through_one_rule(f, n):
    # non-integral orders are refused, never truncated
    with pytest.raises(OrderOutOfRangeError, match="order out of range"):
        f(n)


def test_integral_orders_of_any_type_agree():
    n = np.int64(30)
    assert plan_full(n) == plan_full(30)
    assert estimate_operator_error(n, 0.5) == estimate_operator_error(30, 0.5)
    assert g1(n, 0.5, 10.0) == g1(30, 0.5, 10.0)
    # an integral float is not an integer: it is refused, not converted
    for call in (plan_full, lambda n: estimate_operator_error(n, 0.5), lambda n: g1(n, 0.5, 10.0)):
        with pytest.raises(OrderOutOfRangeError, match=r"order out of range: 30\.0 is not an integer"):
            call(30.0)


def test_estimate_branch_switch_blip_frozen():
    # the estimate takes one upward step where the dominating family changes
    assert estimate_operator_error(9, 0.6).value == pytest.approx(2.1680254587835206e-04, rel=1e-10)
    assert estimate_operator_error(10, 0.6).value == pytest.approx(2.2156963276799546e-04, rel=1e-10)
    assert estimate_operator_error(40, 0.7).value == pytest.approx(8.334525088296415e-08, rel=1e-10)
    assert estimate_operator_error(41, 0.7).value == pytest.approx(9.388945825692047e-08, rel=1e-10)


@pytest.mark.parametrize("alpha", (0.1, 0.3, 0.5, 0.6, 0.7, 0.9))
def test_estimate_decreases_within_each_branch(alpha):
    ests = [estimate_operator_error(n, alpha) for n in range(2, 61)]
    switches = 0
    for a, b in zip(ests, ests[1:]):
        if b.value >= a.value:
            assert b.branch != a.branch  # increases only at the branch change
        if b.branch != a.branch:
            switches += 1
    assert switches <= 1


@given(
    alpha=st.floats(0.1, 0.9),
    log_tol=st.floats(-7.0, -1.0),
)
def test_select_n_sandwich(alpha, log_tol):
    tol = 10.0**log_tol
    n, est = select_n(alpha, tol)
    assert est.value <= tol
    assert est == estimate_operator_error(n, alpha)  # the probes' arithmetic is the public estimate's
    if n > 1:
        assert estimate_operator_error(n - 1, alpha).value > tol


def test_select_n_frozen():
    n, est = select_n(0.5, 1e-6)
    assert n == 54
    assert est.value == pytest.approx(9.54490651300883e-07, rel=1e-12)


def test_tiny_alpha_estimate_is_evaluated_in_log_lambda():
    # lambda_n = exp(u) is far beyond float64 here; the estimate never forms it
    n, alpha = 2048, 1e-6
    nbar = 4.0 * n + 2.0

    def slope_gap(u):  # decreasing in u; zero at u = ln(lambda_n)
        r2 = u * u + math.pi**2
        return math.pi**2 / ((math.sqrt(r2) + u) * r2) - 2.0 * alpha / nbar

    lo, hi = 0.0, 1e4
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if slope_gap(mid) > 0.0 else (lo, mid)
    u = 0.5 * (lo + hi)
    assert u > 709.0
    ln_g1 = -alpha * u - math.pi / math.sqrt(math.sqrt(u * u + math.pi**2) + u) * math.sqrt(2.0 * alpha * nbar)
    est = estimate_operator_error(n, alpha)
    assert est.branch == "g1_at_lambda_n"
    assert math.isfinite(est.value) and est.value > 0.0
    assert math.log(est.value / (4.0 * math.sin(alpha * math.pi))) == pytest.approx(ln_g1, rel=1e-12)
    n, est = select_n(alpha, 1e-2)
    assert n == 1 and est.value <= 1e-2


def test_tiny_alpha_estimate_returns_or_refuses():
    # every case returns a finite positive estimate or refuses with a named
    # error; refusals start only where f = pi**2 / ((r + u) r**2) underflows
    for n in (1, 100, 2048):
        for e in range(1, 324):
            alpha = 10.0**-e
            try:
                value = estimate_operator_error(n, alpha).value
            except (ValueError, RuntimeError) as exc:
                assert e > 300, (n, e, exc)
                assert f"alpha={alpha!r}" in str(exc) and f"n={n}" in str(exc)
            else:
                assert math.isfinite(value) and value > 0.0, (n, e, value)


def test_select_n_unreachable():
    with pytest.raises(ToleranceUnreachableError, match="tolerance unreachable"):
        select_n(0.1, 1e-9)
    with pytest.raises(ToleranceUnreachableError,
                       match=r"alpha=0\.1, tol=1e-08, estimate at N_MAX=2048 is 2\.8e-08"):
        select_n(0.1, 1e-8)


@pytest.mark.parametrize("alpha, expected", [(0.6, 9), (0.75, 91), (0.8, 230)])
def test_select_n_is_minimal_across_the_branch_switch(alpha, expected):
    # the estimate jumps upwards just past n_star, so a tolerance equal to
    # the last fast-family estimate is met again only a few orders later
    last_fast = math.floor(n_star(alpha))
    tol = estimate_operator_error(last_fast, alpha).value
    n, est = select_n(alpha, tol)
    assert n == last_fast == expected
    assert est.value <= tol
    assert all(estimate_operator_error(m, alpha).value > tol for m in range(1, n))


def test_order_ranges_split_at_the_branch_switch():
    assert order_ranges(0.5) == [range(1, 2049)]
    assert order_ranges(0.75) == [range(1, 92), range(92, 2049)]
    assert order_ranges(0.95) == [range(1, 2049)]  # n_star(0.95) is past N_MAX
    for alpha in (0.25, 0.75, 0.8):
        for orders in order_ranges(alpha):
            assert len({estimate_operator_error(n, alpha).branch for n in (orders[0], orders[-1])}) == 1


@pytest.mark.parametrize("alpha", (0.25, 0.5, 0.6, 0.75, 0.8, 0.9))
def test_predicted_inversions_rise_within_each_order_range(alpha):
    for orders in order_ranges(alpha):
        for plan in (plan_balanced, plan_equalized):
            counts = [plan(n, alpha).predicted_inversions for n in orders]
            assert all(b >= a for a, b in zip(counts, counts[1:]))


def test_plan_full_retains_everything():
    p = plan_full(12)
    assert (p.n1, p.n2, p.k1, p.k2, p.predicted_inversions) == (12, 12, 12, 12, 24)


def test_plan_balanced_frozen_cutoffs():
    assert plan_balanced(100, 0.5).k1 == 27
    assert [plan_balanced(60, a).k1 for a in ALPHAS] == [15, 19, 22]
    p = plan_balanced(60, 0.5)
    assert p.k2 == p.k1 and p.predicted_inversions == 38


def test_plan_balanced_cutoff_scaling():
    # k grows like n**(2/3): quadrupling n roughly multiplies k by 4**(2/3)
    k50 = plan_balanced(50, 0.5).k1
    k200 = plan_balanced(200, 0.5).k1
    assert (k50, k200) == (17, 43)
    assert k200 / k50 == pytest.approx(4.0 ** (2.0 / 3.0), rel=0.15)


def test_plan_equalized_frozen():
    p = plan_equalized(60, 0.25)
    assert (p.n1, p.n2, p.k1, p.k2, p.predicted_inversions) == (60, 6, 15, 4, 19)
    p = plan_equalized(60, 0.75)
    assert (p.n1, p.n2, p.k1, p.k2, p.predicted_inversions) == (49, 60, 19, 20, 39)


def test_plan_equalized_saves_inversions_at_sixty():
    for alpha in (0.25, 0.75):
        assert plan_equalized(60, alpha).predicted_inversions < plan_balanced(60, alpha).predicted_inversions


@given(alpha=st.floats(0.05, 0.95), n=st.integers(1, 300))
def test_plans_always_valid(alpha, n):
    for p in (plan_balanced(n, alpha), plan_equalized(n, alpha)):
        assert 1 <= p.k1 <= p.n1
        assert 1 <= p.k2 <= p.n2
        assert p.predicted_inversions == p.k1 + p.k2


def test_build_rational_order_one_closed_form():
    form = build_rational(0.5, plan_full(1))
    assert form.coeffs1[0] == pytest.approx(2.0 / math.pi, abs=1e-16)
    assert form.coeffs2[0] == pytest.approx(2.0 / math.pi, abs=1e-16)
    assert form.shifts1[0] == pytest.approx(math.exp(-2.0), abs=1e-16)
    assert form.shifts2[0] == pytest.approx(math.exp(-2.0), abs=1e-16)


def test_rational_form_validation():
    form = build_rational(0.5, plan_full(3))
    terms = form.term_arrays
    with pytest.raises(ValueError, match="shape"):
        RationalForm(0.5, "balanced", 3, 3, 2, 3, terms)  # k1 says 2 but family 1 has 3 columns
    # the plan metadata goes through TruncationPlan's rule, and alpha through check_alpha
    for meta, match in (
        ((0.5, "full", 3, 3, 2, 3), "full variant"),
        ((0.5, "nonsense", 1, 1, 3, 3), "unknown truncation variant"),
        ((0.5, "balanced", 1, 1, 3, 3), "retained counts"),  # k1 = 3 > n1 = 1
        ((1.5, "full", 3, 3, 3, 3), "alpha"),
    ):
        with pytest.raises(ValueError, match=match):
            RationalForm(*meta, terms)
    for bad in (terms[0], terms[:2], terms.T):
        with pytest.raises(ValueError, match="shape"):
            RationalForm(0.5, "full", 3, 3, 3, 3, bad)

    def refused(meta, arrays, row, j, value):
        changed = arrays.copy()
        changed[row, j] = value
        with pytest.raises(ValueError) as info:
            RationalForm(*meta, changed)
        return str(info.value)

    layout = "family 1 must have sigma == 1 and family 2 tau == 1"
    coefficients = "coefficients must be finite and nonnegative"
    shifts = "shifts must lie in [0, 1)"
    # the family seam, columns 2 (last of family 1) and 3 (first of family 2),
    # and the one column of each family of a k1 = k2 = 1 form
    one = build_rational(0.5, plan_full(1))
    for meta, arrays, last1, first2 in (((0.5, "full", 3, 3, 3, 3), terms, 2, 3),
                                        ((0.5, "full", 1, 1, 1, 1), one.term_arrays, 0, 1)):
        RationalForm(*meta, arrays)
        for row, j, value, message in (
            (0, last1, math.nan, coefficients),
            (0, last1, -1.0, coefficients),
            (0, first2, math.nan, coefficients),
            (0, first2, math.inf, coefficients),
            (1, last1, math.nan, layout),
            (1, last1, 0.5, layout),
            (1, first2, math.nan, shifts),
            (1, first2, 1.0, shifts),
            (2, last1, math.nan, shifts),
            (2, last1, -0.5, shifts),
            (2, first2, math.nan, layout),
            (2, first2, 0.5, layout),
        ):
            assert refused(meta, arrays, row, j, value) == message, (meta, row, j, value)
    assert refused((0.5, "full", 1, 1, 1, 1), one.term_arrays, 0, 0, 0.0) == "leading coefficients must be positive"
    assert refused((0.5, "full", 1, 1, 1, 1), one.term_arrays, 0, 1, 0.0) == "leading coefficients must be positive"


def test_plan_retained_counts_are_integers():
    # a float count used to pass the plan and fail later, slicing in build_rational
    for k1, k2 in ((1.5, 2), (2, 2.0), (np.float64(2.0), 2), (True, 2)):
        message = f"retained counts must be integers in [1, order], got k1={k1!r} of n1=5 and k2={k2!r} of n2=5"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            TruncationPlan("balanced", 5, 5, k1, k2)
    terms = build_rational(0.5, plan_balanced(5, 0.5)).term_arrays
    k = plan_balanced(5, 0.5).k1
    with pytest.raises(ValueError, match="retained counts must be integers"):
        RationalForm(0.5, "balanced", 5, 5, float(k), k, terms)
    assert TruncationPlan("balanced", 5, 5, np.int64(k), k) == plan_balanced(5, 0.5)
    shifted = terms.copy()
    shifted[2, :3] += 1.0  # family-1 shifts >= 1
    with pytest.raises(ValueError, match=r"\[0, 1\)"):
        RationalForm(0.5, "full", 3, 3, 3, 3, shifted)

    def with_entry(arrays, row, j, value):
        changed = arrays.copy()
        changed[row, j] = value
        return changed

    # (row, column) of term_arrays: c, sigma, tau rows; family 1 in columns 0-2, family 2 in 3-5
    for row, j, value, match in (
        (0, 1, math.nan, "nonnegative"),  # coeffs1[1]
        (0, 1, math.inf, "finite"),
        (0, 0, math.inf, "finite"),
        (0, 4, -math.inf, "finite"),  # coeffs2[1]
        (0, 5, -1e-300, "nonnegative"),  # coeffs2[2]
        (0, 3, 0.0, "leading coefficients"),  # coeffs2[0]
        (2, 2, math.nan, r"\[0, 1\)"),  # shifts1[2]
        (1, 4, 1.0, r"\[0, 1\)"),  # shifts2[1]
        (1, 3, -0.5, r"\[0, 1\)"),  # shifts2[0]
        (1, 0, 0.5, "sigma == 1"),  # family-1 sigma
        (1, 2, math.nan, "sigma == 1"),
        (2, 4, 0.0, "tau == 1"),  # family-2 tau
        (2, 3, 1.0 + 2**-52, "tau == 1"),
    ):
        with pytest.raises(ValueError, match=match):
            RationalForm(0.5, "full", 3, 3, 3, 3, with_entry(terms, row, j, value))
    # trailing coefficients and shifts may be exact zeros
    RationalForm(0.5, "full", 3, 3, 3, 3, with_entry(with_entry(terms, 0, 2, 0.0), 1, 5, 0.0))


def test_rational_form_owns_its_terms():
    assert [f.name for f in dataclasses.fields(RationalForm)] == [
        "alpha", "variant", "n1", "n2", "k1", "k2", "term_arrays"]
    form = build_rational(0.75, plan_equalized(60, 0.75))
    k1 = form.k1
    assert form.k1 != form.k2 and form.term_arrays.shape == (3, form.k1 + form.k2)
    views = {
        "coeffs1": form.term_arrays[0, :k1],
        "shifts1": form.term_arrays[2, :k1],
        "coeffs2": form.term_arrays[0, k1:],
        "shifts2": form.term_arrays[1, k1:],
    }
    for name, expected in views.items():
        view = getattr(form, name)
        assert view.tobytes() == expected.tobytes() and view.shape == expected.shape
        assert np.shares_memory(view, form.term_arrays)
    for target in (form.term_arrays, *(getattr(form, name) for name in views)):
        with pytest.raises(ValueError, match="read-only"):
            target[0] = 9.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        form.term_arrays = form.term_arrays.copy()
    # the form copies the caller's array, so later edits to it change nothing,
    # whether they come before the first evaluation or after it
    given = form.term_arrays.copy()
    own = RationalForm(form.alpha, form.variant, form.n1, form.n2, form.k1, form.k2, given)
    given[0, 0] = -1.0
    assert eval_scalar(own, 4.0) == eval_scalar(form, 4.0)
    given[0, k1] = 9.0
    assert eval_scalar(own, 4.0) == eval_scalar(form, 4.0)
    assert own.term_arrays is not given and own.term_arrays.tobytes() == form.term_arrays.tobytes()


def test_shared_arrays_cannot_be_made_writable():
    # the stored arrays are views of read-only owners; on an owner itself numpy would set the flag
    form = build_rational(0.75, plan_equalized(60, 0.75))
    rule = gauss_laguerre(7)
    given = rule.weights.copy()
    own = QuadratureRule(7, rule.nodes, given)
    for target in (form.term_arrays, form.coeffs1, form.shifts1, form.coeffs2, form.shifts2,
                   rule.nodes, rule.weights, own.nodes, own.weights):
        with pytest.raises(ValueError, match="cannot set WRITEABLE flag"):
            target.setflags(write=True)
        assert not target.flags.writeable
    # a hand-made rule copies the caller's arrays, as a form does
    given[0] = 5.0
    assert own.weights.tobytes() == rule.weights.tobytes()


def test_eval_scalar_frozen_point():
    form = build_rational(0.5, plan_full(20))
    assert abs(10.0**-0.5 - eval_scalar(form, 10.0)) == pytest.approx(7.484443331040591e-06, rel=1e-12)


def test_eval_scalar_vector_matches_scalar():
    form = build_rational(0.25, plan_full(15))
    lams = np.array([1.0, 3.7, 1e5, 1e12])
    vec = eval_scalar(form, lams)
    assert vec.tolist() == [eval_scalar(form, x) for x in lams]
    for bad in (0.5, [2.0, math.nan], [math.inf, 2.0]):
        with pytest.raises(ValueError, match="lambda out of range"):
            eval_scalar(form, bad)
    # terms() states the summation order once: k1 + k2 terms, family 1 first
    form = build_rational(0.75, plan_equalized(60, 0.75))
    terms = list(form.terms())
    assert form.k1 != form.k2 and len(terms) == form.k1 + form.k2
    assert [t[:2] for t in terms] == [(1, j) for j in range(1, form.k1 + 1)] + [(2, j) for j in range(1, form.k2 + 1)]
    assert [t[2:] for t in terms[: form.k1]] == [(c, 1.0, d) for c, d in zip(form.coeffs1, form.shifts1)]
    assert [t[2:] for t in terms[form.k1:]] == [(c, s, 1.0) for c, s in zip(form.coeffs2, form.shifts2)]
    acc = np.zeros_like(lams)
    for fam, _, c, sigma, tau in terms:
        acc = acc + (c / (1.0 + tau * lams) if fam == 1 else c / (sigma + lams))
    assert eval_scalar(form, lams).tolist() == acc.tolist()
    # every path, one point, (terms x points) blocks within one family and one
    # term at a time above 2**14 points, equals a term-by-term sum over terms()
    # to the last bit, in any input shape; the forms include k1 = 1, k2 = 1,
    # and a family 1 of exactly one block at 2**15 // k1 = 1024 points
    seamed = [build_rational(0.5, TruncationPlan("balanced", 60, 60, k1, k2))
              for k1, k2 in ((1, 50), (50, 1), (32, 20))]
    for form in (build_rational(0.5, plan_full(3)), form, build_rational(0.25, plan_full(200)),
                 build_rational(0.5, plan_full(500)), *seamed):
        terms = list(form.terms())
        k = len(terms)

        def reference(x):
            acc = np.zeros_like(x)
            for _, _, c, sigma, tau in terms:
                acc = acc + c / (sigma + tau * x)
            return acc

        sizes = [0, 1, 2, 3, 400, 2**15 // k, 2**15 // k + 1, 2**15 // form.k1, 2**14, 2**14 + 1, 25000]
        sizes += [100_000] if k < 10 else []
        for m in sizes:
            lams = np.logspace(0.0, 14.0, m)
            assert eval_scalar(form, lams).tolist() == reference(lams).tolist(), (k, m)
        grids = (np.logspace(0.0, 9.0, 12).reshape(3, 4), np.logspace(0.0, 9.0, 300).reshape(20, 15))
        for lams in (5.0, np.array(5.0), *grids, np.empty(0), np.empty((3, 0))):
            value = eval_scalar(form, lams)
            assert np.shape(value) == np.shape(lams)
            assert np.asarray(value).tolist() == reference(np.asarray(lams)).tolist()
        assert type(eval_scalar(form, np.array(5.0))) is float
    # at lambda = 1 this form's terms are 1 and then forty of 0.75 ulp(1) / 2:
    # added in order, each rounds away and the sum is 1, but a pairwise sum,
    # which numpy uses when it reduces along the fast axis (a one-column
    # block), adds the small terms up first and gives more
    arrays = np.zeros((3, 41))
    arrays[0] = [1.0, *[0.75 * 2.0**-53] * 40]
    arrays[1, 0] = arrays[2, 1:] = 1.0
    small = RationalForm(0.5, "full", 1, 40, 1, 40, arrays)
    assert np.add.reduce(arrays[0]) > 1.0
    assert eval_scalar(small, 1.0) == 1.0
    assert eval_scalar(small, [1.0, 1.0]).tolist() == [1.0, 1.0]


def test_eval_scalar_within_estimate_at_one():
    for alpha in ALPHAS:
        form = build_rational(alpha, plan_full(20))
        assert abs(1.0 - eval_scalar(form, 1.0)) <= estimate_scalar_error(20, alpha, 1.0)


def test_eval_error_within_inflated_estimate_on_grid():
    # pointwise bound with the 3x engineering margin; n >= 20 keeps the
    # asymptotic estimate honest across the whole lambda range
    lams = np.logspace(0.0, 16.0, 50)
    exact = {a: np.exp(-a * np.log(lams)) for a in ALPHAS}
    for alpha in ALPHAS:
        for n in (20, 40, 60):
            form = build_rational(alpha, plan_full(n))
            err = np.abs(exact[alpha] - eval_scalar(form, lams))
            est = estimate_scalar_error(n, alpha, lams)
            assert np.all(err <= 3.0 * est)


def test_eval_error_large_lambda_spot():
    form = build_rational(0.25, plan_full(25))
    err = abs(1e3**-0.25 - eval_scalar(form, 1e3))
    assert err <= 3.0 * estimate_scalar_error(25, 0.25, 1e3)


@given(
    alpha=st.sampled_from(ALPHAS),
    n=st.integers(1, 60),
    u=st.floats(0.0, 36.0),
)
def test_eval_positive_and_bounded(alpha, n, u):
    form = build_rational(alpha, plan_full(n))
    val = eval_scalar(form, math.exp(u))
    assert val > 0.0
    # the form is decreasing in lambda, so its max is at the spectrum edge
    cap = 1.0 + max(3.0 * estimate_scalar_error(n, alpha, 1.0), 1e-12)
    assert val <= cap


def test_balanced_estimate_formula():
    # direct transliteration at one point
    k, alpha = 19, 0.5
    expect = 8.0 * math.sin(alpha * math.pi) * math.exp(-3.6 * math.sqrt(alpha) * math.sqrt(2.0 * k))
    assert estimate_balanced_error(k, alpha) == pytest.approx(expect, rel=1e-15)


def test_balanced_estimate_validates_k():
    for bad in (2.5, math.nan, 0, -1, math.inf, -math.inf, 19.0):
        with pytest.raises(ValueError, match=f"retained count must be an integer >= 1: {bad!r}$"):
            estimate_balanced_error(bad, 0.5)
    assert estimate_balanced_error(np.int64(19), 0.5) == estimate_balanced_error(19, 0.5)
