"""Acceptance gate: one test per numbered criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see every line. Each
test prints its verdict before asserting, so failing criteria still
report their measured numbers.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from scipy.special import jn_zeros

import glfrac
from glfrac import (
    build_rational,
    estimate_balanced_error,
    estimate_operator_error,
    estimate_scalar_error,
    eval_scalar,
    gauss_laguerre,
    lambda_n_exact,
    lambda_n_tilde,
    oracle_diag_norm_error,
    oracle_integral,
    oracle_scalar_power,
    plan_balanced,
    plan_equalized,
    plan_full,
    select_n,
    tail_weight_sum,
)

ALPHAS = (0.25, 0.5, 0.75)
DIAG_EIGS = np.arange(1.0, 101.0) ** 8


def _verdict(num, name, ok, detail):
    line = f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} | {detail}"
    print(line)
    return line


def test_criterion_01_quadrature_correctness():
    worst_sum, worst_moment = 0.0, 0.0
    for n in (1, 2, 5, 10, 20, 50, 100):
        rule = gauss_laguerre(n)
        worst_sum = max(worst_sum, abs(float(rule.weights.sum()) - 1.0))
        for k in range(0, min(2 * n - 1, 15) + 1):
            moment = float((rule.weights * rule.nodes**k).sum())
            worst_moment = max(worst_moment, abs(moment - math.factorial(k)) / math.factorial(k))
    ok = worst_sum <= 1e-13 and worst_moment <= 1e-10
    line = _verdict(1, "quadrature-correctness", ok, f"max|sum-1|={worst_sum:.2e} max moment rel={worst_moment:.2e}")
    assert ok, line


def test_criterion_02_scalar_convergence_at_ten():
    lam = 10.0
    u = math.log(lam)
    gamma_minus = math.sqrt(math.sqrt(u * u + math.pi**2) - u)
    ratios, slopes, devs = {}, {}, {}
    for alpha in ALPHAS:
        exact = oracle_scalar_power(lam, alpha)
        ns, logs = [], []
        worst = 0.0
        for n in range(5, 41):
            form = build_rational(alpha, plan_full(n))
            err = abs(exact - eval_scalar(form, lam))
            worst = max(worst, err / estimate_scalar_error(n, alpha, lam))
            ns.append(n)
            logs.append(math.log(err))
        slope = float(np.polyfit(np.sqrt(4.0 * np.array(ns, dtype=float) + 2.0), np.array(logs), 1)[0])
        # ln g1 = -alpha u - gamma_minus(lam) sqrt(2 alpha) sqrt(4n + 2): the slow family's rate at fixed lam
        rate = -gamma_minus * math.sqrt(2.0 * alpha)
        ratios[alpha] = worst
        slopes[alpha] = slope
        devs[alpha] = abs(slope - rate) / abs(rate)
    bound_ok = all(r <= 3.0 for r in ratios.values())
    rate_ok = all(d <= 0.10 for d in devs.values())
    detail = (
        "max err/est " + " ".join(f"a={a}:{ratios[a]:.3f}" for a in ALPHAS)
        + " | slope of log(err) vs sqrt(4n+2) " + " ".join(f"a={a}:{slopes[a]:.4f}" for a in ALPHAS)
        + " | dev vs -gamma_minus(10)*sqrt(2a) " + " ".join(f"a={a}:{devs[a]*100:.1f}%" for a in ALPHAS)
    )
    line = _verdict(2, "scalar-convergence-lambda-10", bound_ok and rate_ok, detail)
    assert bound_ok and rate_ok, line


def test_criterion_03_operator_convergence_diag_power():
    # max over u of ln g1 = -alpha u - gamma_minus sqrt(2 alpha nbar), at criterion 07's worst point,
    # is -3 (alpha**2 pi**2 nbar / 4)**(1/3) = -3 (alpha**2 pi**2 (n + 1/2))**(1/3)
    slope_comparator = {a: -3.0 * (a * a * math.pi * math.pi) ** (1.0 / 3.0) for a in ALPHAS}
    ratios, devs, slopes = {}, {}, {}
    for alpha in ALPHAS:
        worst = 0.0
        ns, logs = [], []
        for n in range(5, 61):
            form = build_rational(alpha, plan_full(n))
            err = oracle_diag_norm_error(DIAG_EIGS, alpha, form)
            if n >= 10:
                worst = max(worst, err / estimate_operator_error(n, alpha).value)
            ns.append(n)
            logs.append(math.log(err))
        slope = float(np.polyfit(np.array(ns, dtype=float) ** (1.0 / 3.0), np.array(logs), 1)[0])
        ratios[alpha] = worst
        slopes[alpha] = slope
        devs[alpha] = abs(slope - slope_comparator[alpha]) / abs(slope_comparator[alpha])
    bound_ok = all(r <= 3.0 for r in ratios.values())
    slope_ok = all(d <= 0.25 for d in devs.values())
    detail = (
        "max err/est " + " ".join(f"a={a}:{ratios[a]:.3f}" for a in ALPHAS)
        + " | slopes " + " ".join(f"a={a}:{slopes[a]:.4f}" for a in ALPHAS)
        + " | dev vs -3*(a^2 pi^2)^(1/3) " + " ".join(f"a={a}:{devs[a]*100:.1f}%" for a in ALPHAS)
    )
    line = _verdict(3, "operator-convergence-rate", bound_ok and slope_ok, detail)
    assert bound_ok and slope_ok, line


def test_criterion_04_balanced_truncation():
    alpha, n = 0.5, 60
    plan = plan_balanced(n, alpha)
    form_full = build_rational(alpha, plan_full(n))
    form_bal = build_rational(alpha, plan)
    err_full = oracle_diag_norm_error(DIAG_EIGS, alpha, form_full)
    err_bal = oracle_diag_norm_error(DIAG_EIGS, alpha, form_bal)
    rule = gauss_laguerre(n)
    pref = math.sin(alpha * math.pi) / (alpha * math.pi) + math.sin(alpha * math.pi) / ((1 - alpha) * math.pi)
    tail_bound = pref * tail_weight_sum(rule, plan.k1)
    bal_est = estimate_balanced_error(plan.k1, alpha)
    inv_ok = plan.predicted_inversions == 2 * plan.k1 <= 40 < 120 == plan_full(n).predicted_inversions
    budget_ok = err_bal <= 2.0 * err_full + tail_bound
    est_ok = err_bal <= 3.0 * bal_est
    ok = inv_ok and budget_ok and est_ok
    detail = (
        f"k={plan.k1} inversions={plan.predicted_inversions} err_bal={err_bal:.3e} err_full={err_full:.3e}"
        f" 2*full+tail={2*err_full + tail_bound:.3e} err/bal_est={err_bal/bal_est:.3f}"
    )
    line = _verdict(4, "balanced-truncation", ok, detail)
    assert ok, line


def test_criterion_05_equalized_truncation():
    n = 60
    parts = []
    ok = True
    for alpha in (0.25, 0.75):
        bal = plan_balanced(n, alpha)
        eq = plan_equalized(n, alpha)
        form = build_rational(alpha, eq)
        err = oracle_diag_norm_error(DIAG_EIGS, alpha, form)
        bal_est = estimate_balanced_error(bal.k1, alpha)
        fewer_ok = eq.predicted_inversions < bal.predicted_inversions
        err_ok = err <= 3.0 * bal_est
        # the equalized order rule n2 = 1.125 pi**(1/3) alpha**(4/3) / (1-alpha) * n1**(2/3)
        # composed with the k1 and k2 cutoff formulas
        pairing = 2.0 * (9.0 / (8.0 * math.sqrt(3.0))) ** 0.75 * alpha**0.75 * (1.0 - alpha) ** -0.5 * eq.k1**0.75
        pairing_ok = abs(pairing - eq.k2) <= 2.0
        ok = ok and fewer_ok and err_ok and pairing_ok
        parts.append(
            f"a={alpha}: inv {eq.predicted_inversions}<{bal.predicted_inversions}:{fewer_ok}"
            f" err={err:.3e} 3*bal_est={3*bal_est:.3e}:{err_ok}"
            f" pairing 2*(9/(8*sqrt3))^(3/4)*a^(3/4)*(1-a)^(-1/2)*k1^(3/4)={pairing:.1f} k2={eq.k2}:{pairing_ok}"
        )
    line = _verdict(5, "equalized-truncation", ok, " | ".join(parts))
    assert ok, line


def test_criterion_06_cross_oracle_consistency():
    grid = {
        0.10: (2.0, 3.0, 100.0, 1e10),
        0.25: (1.5, 3.0, 300.0, 1e5),
        0.50: (100.0, 300.0, 1e5, 1e6),
        0.75: (2000.0, 10000.0, 50000.0, 3e6),
        0.90: (1.5, 3.0, 4.0, 5.0),
    }
    worst_identity, worst_ratio, points = 0.0, 0.0, 0
    for alpha, lams in grid.items():
        p1 = math.sin(alpha * math.pi) / (alpha * math.pi)
        p2 = math.sin(alpha * math.pi) / ((1.0 - alpha) * math.pi)
        form = build_rational(alpha, plan_full(128))
        for lam in lams:
            combo = p1 * oracle_integral(1, lam, alpha).value + p2 * oracle_integral(2, lam, alpha).value
            worst_identity = max(worst_identity, abs(combo - oracle_scalar_power(lam, alpha)))
            gl_err = abs(eval_scalar(form, lam) - combo)
            worst_ratio = max(worst_ratio, gl_err / estimate_scalar_error(128, alpha, lam))
            points += 1
    ok = points == 20 and worst_identity <= 1e-10 and worst_ratio <= 1.0
    detail = f"20-point grid: max identity err={worst_identity:.2e}, max gl-vs-oracle err/est={worst_ratio:.3f}"
    line = _verdict(6, "cross-oracle-consistency", ok, detail)
    assert ok, line


def test_criterion_07_worst_point_machinery():
    worst_res, worst_close = 0.0, 0.0
    for alpha in ALPHAS:
        for n in range(10, 121):
            lam = lambda_n_exact(n, alpha)
            u = math.log(lam)
            r2 = u * u + math.pi**2
            worst_res = max(worst_res, abs((math.sqrt(r2) - u) / r2 - 2.0 * alpha / (4.0 * n + 2.0)))
            closeness = abs(u - math.log(lambda_n_tilde(n, alpha))) / u
            worst_close = max(worst_close, closeness)
    ok = worst_res <= 1e-10 and worst_close <= 0.15
    line = _verdict(7, "worst-point-machinery", ok, f"max residual={worst_res:.2e} max closeness={worst_close:.4f}")
    assert ok, line


def test_criterion_08_node_growth_asymptotics():
    n = 100
    rule = gauss_laguerre(n)
    bessel_zeros = jn_zeros(0, 60)
    violations = []
    lo_margin, hi_margin = math.inf, 0.0
    for k in range(20, 61):
        theta = rule.nodes[k - 1]
        # Szego, Orthogonal Polynomials, 6.31: the k-th Laguerre zero exceeds j_{0,k}**2 / (4n + 2)
        lo_ratio = theta / (bessel_zeros[k - 1] ** 2 / (4.0 * n + 2.0))
        ratio = theta / (k * k * math.pi * math.pi / (4.0 * n))
        hi = (1.0 + 1.0 / k) ** 2 * 1.05
        lo_margin = min(lo_margin, lo_ratio)
        hi_margin = max(hi_margin, ratio / hi)
        if not (lo_ratio > 1.0 and ratio <= hi):
            violations.append(k)
    ok = not violations
    detail = (
        f"violations at k={violations}, min theta/(j0k^2/(4n+2))={lo_margin:.4f},"
        f" max theta/(k^2 pi^2/(4n)) over (1+1/k)^2*1.05={hi_margin:.4f}"
    )
    line = _verdict(8, "node-growth-asymptotics", ok, detail)
    assert ok, line


def test_criterion_09_order_selection_sandwich():
    failures = []
    worst_n = 0
    for alpha in [round(0.1 * i, 1) for i in range(1, 10)]:
        for tol in (1e-2, 1e-4, 1e-6):
            n, est = select_n(alpha, tol)
            worst_n = max(worst_n, n)
            ok = est.value <= tol and (n == 1 or estimate_operator_error(n - 1, alpha).value > tol)
            if not ok:
                failures.append((alpha, tol, n))
    ok = not failures
    line = _verdict(9, "order-selection-sandwich", ok, f"27 combos, failures={failures}, largest n={worst_n}")
    assert ok, line


def _run_cli(args):
    # run the CLI from the same source tree the tests import
    src = str(Path(glfrac.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "glfrac.cli", *args],
        capture_output=True,
        text=True,
        check=True,
        env=env,
    )
    return proc.stdout


def test_criterion_10_cli_determinism():
    configs = [
        ["scalar-error", "--alpha", "0.5", "--lam", "10", "--nmax", "15"],
        ["matrix-error", "--alpha", "0.25", "--nmax", "8", "--op", "fd1d:12", "--parallel"],
        ["apply", "--op", "fd2d:5", "--alpha", "0.75", "--n", "12", "--seed", "11", "--parallel"],
        ["compare", "--alpha", "0.5", "--spectrum", "diagpow:50:8", "--solves", "11,21"],
    ]
    mismatched = []
    for args in configs:
        if _run_cli(args) != _run_cli(args):
            mismatched.append(args[0])
    ok = not mismatched
    line = _verdict(10, "cli-determinism", ok, f"{len(configs)} configs rerun byte-identically, mismatches={mismatched}")
    assert ok, line
