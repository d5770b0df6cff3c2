"""Gauss-Laguerre rules against a 40-digit mpmath reference.

The reference nodes are the roots of L_n, polished by Newton's method at 40
digits from scipy's eigenvalues, and the weights are w = x / (n**2 L_{n-1}(x)**2).
L_n and L_{n-1} come from the three-term recurrence.
"""

import mpmath
import numpy as np
import pytest
from scipy.linalg import eigvalsh_tridiagonal

from glfrac import gauss_laguerre, tail_weight_sum

mp = mpmath.MPContext()  # a private context: the global mpmath precision stays as it is
mp.dps = 40
_TINY = float(np.finfo(float).tiny)  # smallest normal double


def _laguerre_pair(n, x):
    """L_n(x) and L_{n-1}(x), by (k + 1) L_{k+1} = (2k + 1 - x) L_k - k L_{k-1}."""
    prev, cur = mp.mpf(1), 1 - x
    for k in range(1, n):
        prev, cur = cur, ((2 * k + 1 - x) * cur - k * prev) / (k + 1)
    return cur, prev


def _reference(n, indices):
    """Yield the 40-digit node and weight of the order-n rule at each index."""
    guesses = eigvalsh_tridiagonal(2.0 * np.arange(n) + 1.0, np.arange(1.0, n))
    for i in indices:
        x = mp.mpf(float(guesses[i]))
        for _ in range(8):
            ln, lm = _laguerre_pair(n, x)
            step = ln * x / (n * (ln - lm))  # L_n / L_n', as x L_n' = n (L_n - L_{n-1})
            x -= step
            if abs(step) < x * mp.mpf("1e-30"):  # rounding in the recurrence keeps it above 1e-38 at n = 1024
                break
        else:
            raise AssertionError(f"Newton did not converge at n={n}, index {i}")
        yield x, x / (n * n * lm * lm)


@pytest.mark.parametrize("n", [27, 64, 100, 287, 1024])
def test_nodes_and_weights_match_mpmath(n):
    # 63 and 64 straddle the last eigenvector weight an order can keep; as squared eigenvector components,
    # weights (64, 63) = 2.1e-101 and (287, 63) = 5.5e-16 were off by a factor of 1.5e7 and by 5.7e-9 relative
    rule = gauss_laguerre(n)
    indices = sorted({int(i) for i in np.linspace(0, n - 1, 9)} | ({63, 64} if n > 64 else set()))
    for i, (x, w) in zip(indices, _reference(n, indices)):
        assert abs(rule.nodes[i] - x) <= 1e-10 * x, (n, i)
        if w >= _TINY:  # below the normal range a double holds fewer digits
            assert abs(rule.weights[i] - w) <= 1e-10 * w, (n, i)


@pytest.mark.parametrize(("n", "k"), [(27, 25), (64, 62), (100, 55), (100, 60), (1024, 186)])
def test_tail_weight_sum_matches_mpmath(n, k):
    # the tails are about 9e-35, 3e-94, 8e-36, 4e-43 and 3e-37; MRRR's eigenvectors
    # returned the first and fourth as 0 and 3e-162, and eigenvector weights put the second 1.2e-4 off
    tail = mp.mpf(0)
    for _, w in _reference(n, range(k, n)):  # weights decay geometrically here: stop far below the tolerance
        tail += w
        if w < 1e-14 * tail:
            break
    rule = gauss_laguerre(n)
    assert rule.weights[k] > 0.0  # MRRR gave 0 for order 27's weight 25, true value 9.2e-35
    assert abs(tail_weight_sum(rule, k) - tail) <= 1e-12 * tail
