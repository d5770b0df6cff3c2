"""Gauss-Laguerre rules for the weight exp(-x) on [0, inf).

Nodes and weights come from the symmetric tridiagonal (Jacobi) eigenproblem.
For the Laguerre recurrence the diagonal is 2k + 1 and the symmetric
off-diagonal entry is k, so the full rule is one banded eigensolve. This
route stays accurate at orders where the classical polynomial-root chasers
break down in double precision.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

# Largest supported order. A banded eigensolve at this size takes well under
# a second. It bounds what order selection can reach: at alpha = 0.1 the
# operator estimate at this order is 2.8e-8, so select_n(0.1, 1e-8) raises
# ToleranceUnreachableError.
N_MAX = 2048


class OrderOutOfRangeError(ValueError):
    """Requested rule order lies outside [1, N_MAX]."""


def check_order(n: int) -> int:
    """Validate a rule order 1 <= n <= N_MAX, returning it as int."""
    n = int(n)
    if not 1 <= n <= N_MAX:
        raise OrderOutOfRangeError("order out of range")
    return n


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """A quadrature rule for integrals against exp(-x) dx on [0, inf).

    Attributes
    ----------
    order : int
        Number of nodes.
    nodes : numpy.ndarray
        Strictly increasing, strictly positive abscissas.
    weights : numpy.ndarray
        Nonnegative weights summing to one. True Gauss-Laguerre weights
        decay like exp(-node), so trailing weights underflow to exact
        zeros in double precision once the order grows past a few dozen.
    """

    order: int
    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("order must be at least 1")
        if self.nodes.shape != (self.order,) or self.weights.shape != (self.order,):
            raise ValueError("nodes and weights must both have length equal to order")
        if not np.all(self.nodes > 0.0):
            raise ValueError("nodes must be strictly positive")
        if self.order > 1 and not np.all(np.diff(self.nodes) > 0.0):
            raise ValueError("nodes must be strictly increasing")
        if not np.all(self.weights >= 0.0):
            raise ValueError("weights must be nonnegative")
        if self.weights[0] <= 0.0:
            raise ValueError("leading weight must be positive")
        if abs(float(self.weights.sum()) - 1.0) > 1e-13:
            raise ValueError("weights must sum to one")


def gauss_laguerre(n: int) -> QuadratureRule:
    """Build the order-n Gauss-Laguerre rule.

    Parameters
    ----------
    n : int
        Rule order, 1 <= n <= N_MAX.

    Returns
    -------
    QuadratureRule
        Nodes ascending; weights are the squared first components of the
        orthonormal eigenvectors (the zeroth moment of exp(-x) is one).
    """
    n = check_order(n)
    if n == 1:
        return QuadratureRule(1, np.array([1.0]), np.array([1.0]))
    d = 2.0 * np.arange(n) + 1.0
    e = np.arange(1.0, n)  # symmetric off-diagonal entry is k, not sqrt(k)
    x, v = eigh_tridiagonal(d, e)
    w = v[0, :] ** 2
    return QuadratureRule(n, x, w)


def truncation_index(rule: QuadratureRule, s: float) -> int:
    """Number of leading nodes strictly below s, clamped to [1, order]."""
    if not np.isfinite(s):
        raise ValueError("cutoff must be finite")
    k = int(np.searchsorted(rule.nodes, s, side="left"))
    return min(max(k, 1), rule.order)


def tail_weight_sum(rule: QuadratureRule, k: int) -> float:
    """Sum of the weights dropped when only the first k nodes are kept."""
    k = int(k)
    if not 0 <= k <= rule.order:
        raise ValueError("retained count must lie in [0, order]")
    return float(rule.weights[k:].sum())
