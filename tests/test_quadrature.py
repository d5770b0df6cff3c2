import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import roots_laguerre

from glfrac import (
    N_MAX,
    OrderOutOfRangeError,
    QuadratureRule,
    gauss_laguerre,
    tail_weight_sum,
)


@lru_cache(maxsize=None)
def rule(n):
    return gauss_laguerre(n)


def test_order_one_is_the_mean():
    r = rule(1)
    assert r.nodes.tolist() == [1.0]
    assert r.weights.tolist() == [1.0]


def test_order_two_closed_form():
    r = rule(2)
    assert r.nodes == pytest.approx([2.0 - math.sqrt(2.0), 2.0 + math.sqrt(2.0)], abs=1e-14)
    assert r.weights == pytest.approx([(2.0 + math.sqrt(2.0)) / 4.0, (2.0 - math.sqrt(2.0)) / 4.0], abs=1e-14)


@pytest.mark.parametrize("n", [1, 2, 5, 10, 20, 50, 100])
def test_moments_match_factorials(n):
    # the order-n rule integrates x**k exp(-x) exactly for k <= 2n - 1
    r = rule(n)
    for k in range(0, min(2 * n - 1, 15) + 1):
        moment = float((r.weights * r.nodes**k).sum())
        assert abs(moment - math.factorial(k)) <= 1e-10 * math.factorial(k)


@pytest.mark.parametrize("n", [1, 3, 16, 40, 128, 512, N_MAX])
def test_weights_sum_to_one(n):
    assert abs(float(rule(n).weights.sum()) - 1.0) <= 1e-13


def test_matches_independent_constructor():
    # scipy's polynomial-based routine is healthy at moderate order
    x_ref, w_ref = roots_laguerre(35)
    r = rule(35)
    np.testing.assert_allclose(r.nodes, x_ref, rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(r.weights, w_ref, rtol=1e-9, atol=1e-15)


def test_weights_strictly_positive_at_small_orders():
    # from n = 27 on, a trailing weight underflows float64 to an exact
    # zero; below that every weight is representable and must be positive
    for n in range(1, 27):
        assert np.all(rule(n).weights > 0.0)


def test_nodes_ascending_and_positive():
    for n in (2, 17, 100, 512):
        r = rule(n)
        assert np.all(r.nodes > 0.0)
        assert np.all(np.diff(r.nodes) > 0.0)


@pytest.mark.parametrize("n", [0, -3, N_MAX + 1])
def test_order_out_of_range(n):
    with pytest.raises(OrderOutOfRangeError, match="order out of range"):
        gauss_laguerre(n)


def test_rule_validation_rejects_bad_data():
    with pytest.raises(ValueError):
        QuadratureRule(2, np.array([2.0, 1.0]), np.array([0.5, 0.5]))  # not ascending
    with pytest.raises(ValueError):
        QuadratureRule(2, np.array([1.0, 2.0]), np.array([0.9, 0.2]))  # sum != 1
    with pytest.raises(ValueError):
        QuadratureRule(2, np.array([-1.0, 2.0]), np.array([0.5, 0.5]))  # negative node


def test_tail_weight_sum_endpoints():
    r = rule(40)
    assert tail_weight_sum(r, 0) == pytest.approx(1.0, abs=1e-13)
    assert tail_weight_sum(r, 40) == 0.0
    with pytest.raises(ValueError):
        tail_weight_sum(r, 41)


def test_tail_weight_frozen_values():
    # tail mass left after cutting at s, against the 2 exp(-s) envelope
    r = rule(40)
    expected = {5.0: 4.884738896031506e-03, 10.0: 8.128032379181601e-05, 15.0: 3.863968365224067e-07}
    for s, frozen in expected.items():
        tail = tail_weight_sum(r, max(1, int(np.searchsorted(r.nodes, s))))
        assert tail == pytest.approx(frozen, rel=1e-10)
        assert tail <= 2.0 * math.exp(-s)


@given(n=st.integers(min_value=10, max_value=128), frac=st.floats(0.0, 1.0))
def test_tail_bound_inside_safe_envelope(n, frac):
    # the 2 exp(-s) envelope holds up to s ~ 0.55 nbar / pi^2; past that the
    # piecewise-constant tail can poke above it just before a node
    r = rule(n)
    nbar = 4.0 * n + 2.0
    s_hi = 0.55 * nbar / math.pi**2
    s = 1.0 + frac * (s_hi - 1.0)
    tail = tail_weight_sum(r, max(1, int(np.searchsorted(r.nodes, s))))
    assert tail <= 2.0 * math.exp(-s)
