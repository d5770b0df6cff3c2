import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from glfrac import (
    N_MAX,
    OrderOutOfRangeError,
    RationalForm,
    ToleranceUnreachableError,
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
    with pytest.raises(ValueError, match="lambda out of range"):
        gamma_pm(0.999)


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


def test_estimate_refuses_orders_no_plan_can_build():
    assert estimate_operator_error(N_MAX, 0.5).n == N_MAX
    for n in (0, N_MAX + 1, 5000):
        with pytest.raises(OrderOutOfRangeError, match="order out of range"):
            estimate_operator_error(n, 0.5)
        with pytest.raises(OrderOutOfRangeError, match="order out of range"):
            plan_full(n)


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
    with pytest.raises(ValueError):
        RationalForm(
            alpha=0.5, variant="full", n1=3, n2=3, k1=2, k2=3,
            coeffs1=form.coeffs1, shifts1=form.shifts1,
            coeffs2=form.coeffs2, shifts2=form.shifts2,
        )  # k1 says 2 but arrays have length 3
    with pytest.raises(ValueError):
        RationalForm(
            alpha=0.5, variant="full", n1=3, n2=3, k1=3, k2=3,
            coeffs1=form.coeffs1, shifts1=form.shifts1 + 1.0,  # shifts >= 1
            coeffs2=form.coeffs2, shifts2=form.shifts2,
        )


def test_eval_scalar_frozen_point():
    form = build_rational(0.5, plan_full(20))
    assert abs(10.0**-0.5 - eval_scalar(form, 10.0)) == pytest.approx(7.484443331040591e-06, rel=1e-12)


def test_eval_scalar_vector_matches_scalar():
    form = build_rational(0.25, plan_full(15))
    lams = np.array([1.0, 3.7, 1e5, 1e12])
    vec = eval_scalar(form, lams)
    assert vec.tolist() == [eval_scalar(form, x) for x in lams]
    with pytest.raises(ValueError, match="lambda out of range"):
        eval_scalar(form, 0.5)
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
