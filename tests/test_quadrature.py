import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal, eigvalsh_tridiagonal
from scipy.special import roots_laguerre

import glfrac.quadrature
from glfrac import (
    N_MAX,
    OrderOutOfRangeError,
    QuadratureRule,
    build_rational,
    gauss_laguerre,
    plan_balanced,
    plan_equalized,
    tail_weight_sum,
)


def test_order_one_is_the_mean():
    r = gauss_laguerre(1)
    assert r.nodes.tolist() == [1.0]
    assert r.weights.tolist() == [1.0]


def test_order_two_closed_form():
    r = gauss_laguerre(2)
    assert r.nodes == pytest.approx([2.0 - math.sqrt(2.0), 2.0 + math.sqrt(2.0)], abs=1e-14)
    assert r.weights == pytest.approx([(2.0 + math.sqrt(2.0)) / 4.0, (2.0 - math.sqrt(2.0)) / 4.0], abs=1e-14)


@pytest.mark.parametrize("n", [1, 2, 5, 10, 20, 50, 100])
def test_moments_match_factorials(n):
    # the order-n rule integrates x**k exp(-x) exactly for k <= 2n - 1
    r = gauss_laguerre(n)
    for k in range(0, min(2 * n - 1, 15) + 1):
        moment = float((r.weights * r.nodes**k).sum())
        assert abs(moment - math.factorial(k)) <= 1e-10 * math.factorial(k)


@pytest.mark.parametrize("n", [1, 3, 16, 40, 128, 512, N_MAX])
def test_weights_sum_to_one(n):
    assert abs(float(gauss_laguerre(n).weights.sum()) - 1.0) <= 1e-13


def test_matches_independent_constructor():
    # scipy's polynomial-based routine is healthy at moderate order
    x_ref, w_ref = roots_laguerre(35)
    r = gauss_laguerre(35)
    np.testing.assert_allclose(r.nodes, x_ref, rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(r.weights, w_ref, rtol=1e-9, atol=1e-15)


def test_weights_strictly_positive_at_small_orders():
    # a weight is zero only below the double range: the last weight of order
    # 196 is the first, and every weight of a smaller order must be positive
    for n in [*range(1, 71), 100, 150, 195]:
        assert np.all(gauss_laguerre(n).weights > 0.0), n


def test_nodes_ascending_and_positive():
    for n in (2, 17, 100, 512):
        r = gauss_laguerre(n)
        assert np.all(r.nodes > 0.0)
        assert np.all(np.diff(r.nodes) > 0.0)


@pytest.mark.parametrize("n", [0, -3, N_MAX + 1, 5.5, 2.9, math.nan, math.inf, 5.0])
def test_order_out_of_range(n):
    with pytest.raises(OrderOutOfRangeError, match=rf"order out of range: {re.escape(repr(n))} is not an integer"):
        gauss_laguerre(n)


def test_rule_validation_rejects_bad_data():
    with pytest.raises(ValueError):
        QuadratureRule(2, np.array([2.0, 1.0]), np.array([0.5, 0.5]))  # not ascending
    with pytest.raises(ValueError):
        QuadratureRule(2, np.array([1.0, 2.0]), np.array([0.9, 0.2]))  # sum != 1
    with pytest.raises(ValueError):
        QuadratureRule(2, np.array([-1.0, 2.0]), np.array([0.5, 0.5]))  # negative node


def test_tail_weight_sum_endpoints():
    r = gauss_laguerre(40)
    assert tail_weight_sum(r, 0) == pytest.approx(1.0, abs=1e-13)
    assert tail_weight_sum(r, 40) == 0.0
    with pytest.raises(ValueError):
        tail_weight_sum(r, 41)
    assert tail_weight_sum(r, np.int64(2)) == tail_weight_sum(r, 2)
    for bad in (2.5, -0.5, math.nan, 2.0):
        with pytest.raises(ValueError, match="retained count must be an integer"):
            tail_weight_sum(r, bad)


def test_tail_weight_frozen_values():
    # tail mass left after cutting at s, against the 2 exp(-s) envelope
    r = gauss_laguerre(40)
    expected = {5.0: 4.884738896031506e-03, 10.0: 8.128032379181601e-05, 15.0: 3.863968365224067e-07}
    for s, frozen in expected.items():
        tail = tail_weight_sum(r, max(1, int(np.searchsorted(r.nodes, s))))
        assert tail == pytest.approx(frozen, rel=1e-10)
        assert tail <= 2.0 * math.exp(-s)


@given(n=st.integers(min_value=10, max_value=128), frac=st.floats(0.0, 1.0))
def test_tail_bound_inside_safe_envelope(n, frac):
    # the 2 exp(-s) envelope holds up to s ~ 0.55 nbar / pi^2; past that the
    # piecewise-constant tail can poke above it just before a node
    r = gauss_laguerre(n)
    nbar = 4.0 * n + 2.0
    s_hi = 0.55 * nbar / math.pi**2
    s = 1.0 + frac * (s_hi - 1.0)
    tail = tail_weight_sum(r, max(1, int(np.searchsorted(r.nodes, s))))
    assert tail <= 2.0 * math.exp(-s)


def test_rule_is_built_once_per_order():
    r = gauss_laguerre(5)
    assert gauss_laguerre(5) is r
    assert gauss_laguerre(np.int64(5)) is r
    assert gauss_laguerre(6) is not r


@pytest.mark.parametrize("n", [1, 2, 73, N_MAX])
def test_cached_rule_is_a_read_only_eigensolve(n):
    r = gauss_laguerre(n)
    d, e = 2.0 * np.arange(n) + 1.0, np.arange(1.0, n)
    _, v = eigh_tridiagonal(d, e, select="i", select_range=(0, min(n, 64) - 1), lapack_driver="stebz")
    lead = v[0, :] ** 2
    lead = lead[lead >= 1e-10]  # smaller eigenvector weights are Christoffel weights instead
    assert r.nodes.tobytes() == eigvalsh_tridiagonal(d, e).tobytes()
    assert r.weights[:lead.size].tobytes() == lead.tobytes()
    assert lead.size == {1: 1, 2: 2, 73: 26, N_MAX: 64}[n]
    with pytest.raises(ValueError, match="read-only"):
        r.nodes[0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        r.weights[0] = 1.0


def test_largest_rule_needs_no_square_workspace():
    # an N_MAX x N_MAX array alone is 32 MiB; the build traces about 2.1 MiB
    glfrac.quadrature._build_rule.__wrapped__(2)  # scipy.linalg is imported before the trace
    tracemalloc.start()
    try:
        glfrac.quadrature._build_rule.__wrapped__(N_MAX)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20


def test_weights_sum_to_one_on_both_sides_of_the_seam():
    # eigenvector weights down to 1e-10 and at most 64 of them, Christoffel weights for the rest: the seam
    # moves with the order, and from order 9 up it lies inside the rule
    for n in [*range(1, 71), *range(97, N_MAX + 1, 97), N_MAX - 1, N_MAX]:
        rule = glfrac.quadrature._build_rule.__wrapped__(n)
        assert abs(float(rule.weights.sum()) - 1.0) <= 1e-14, n


def test_build_rational_solves_each_order_once(monkeypatch):
    calls = []

    def counting(name, solve):
        def call(d, e, **kwargs):
            calls.append((name, len(d)))
            return solve(d, e, **kwargs)

        return call

    monkeypatch.setattr(glfrac.quadrature, "eigh_tridiagonal", counting("vectors", eigh_tridiagonal))
    monkeypatch.setattr(glfrac.quadrature, "eigvalsh_tridiagonal", counting("values", eigvalsh_tridiagonal))
    glfrac.quadrature._build_rule.cache_clear()
    cases = [(0.5, plan_balanced(40, 0.5)), (0.5, plan_equalized(40, 0.5)), (0.75, plan_equalized(30, 0.75))]
    orders = {n for _, p in cases for n in (p.n1, p.n2)}
    assert orders == {40, 16, 18, 30}  # order 40 serves both plans at alpha 0.5
    for _ in range(3):
        for alpha, p in cases:
            build_rational(alpha, p)
    assert sorted(calls) == sorted((name, n) for name in ("values", "vectors") for n in orders)
