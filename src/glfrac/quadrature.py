"""Gauss-Laguerre rules for the weight exp(-x) on [0, inf).

Nodes and weights come from the symmetric tridiagonal (Jacobi) eigenproblem.
For the Laguerre recurrence the diagonal is 2k + 1 and the symmetric
off-diagonal entry is k, so the full rule is one banded eigensolve. This
route stays accurate at orders where the classical polynomial-root chasers
break down in double precision.

The eigensolve is LAPACK's MRRR (dstemr; Dhillon & Parlett, 2004), not
scipy's default divide and conquer (dstevd), for two reasons. MRRR computes
each eigenvector on its own, so it needs no workspace beyond the n x n
eigenvector matrix: 32.4 MiB traced at N_MAX against 64.1 MiB. And the tiny
trailing weights, the squared first components, keep a small absolute
error: over orders 20-120 and eight more up to N_MAX, every tail sum below
1e-26 lies within 1e-34 of its 40-digit value, where divide and conquer
leaves rounding noise of up to 7e-30. MRRR returns some weights below
1e-34 as exact zeros, from order 27 on.

scipy.linalg is imported by the first rule built, not with this module, so
the order checks and cached rules run on numpy alone. eigh_tridiagonal here
is a stand-in made by _lazy, as are the scipy names of operator_apply: a
module attribute that imports the real function's module when first called.
"""

import importlib
import math
from dataclasses import dataclass
from functools import cache

import numpy as np

# Largest supported order. A banded eigensolve at this size takes well under
# a second. It bounds what order selection can reach: at alpha = 0.1 the
# operator estimate at this order is 2.8e-8, so select_n(0.1, 1e-8) raises
# ToleranceUnreachableError. It also bounds the rule cache: 16 bytes per
# node, 33.6 MB if every order were built.
N_MAX = 2048

_INTEGER_TYPES = (int, np.integer)  # is_int_in's integer types; it refuses bool, a subclass of int
_REAL_TYPES = (int, float, np.integer, np.floating)  # is_real's types; it refuses bool too
_FLOAT_MAX = float(np.finfo(float).max)
_NOT_REAL_KINDS = {"b": "bool", "c": "complex", "S": "bytes", "U": "str", "O": "object"}  # named in _real's refusal


def _lazy(module: str, name: str):
    """A stand-in for `from module import name`: each call looks name up in module, imported on first use (~1 us)."""
    def call(*args, **kwargs):
        return getattr(importlib.import_module(module), name)(*args, **kwargs)
    return call


eigh_tridiagonal = _lazy("scipy.linalg", "eigh_tridiagonal")


class OrderOutOfRangeError(ValueError):
    """Requested rule order is not an integer in [1, N_MAX]."""


def is_int_in(x, lo: int, hi: float = np.inf) -> bool:
    """The rule for every order, count and size: an int or numpy integer in [lo, hi], not a bool; floats never pass."""
    return isinstance(x, _INTEGER_TYPES) and type(x) is not bool and lo <= x <= hi


def is_real(x) -> bool:
    """The rule for every real scalar: an int, float or numpy integer or floating, not a bool, that a float holds."""
    # math.isfinite raises on an int past float range; a float bound would warn when NumPy casts it to float32
    return (isinstance(x, _REAL_TYPES) and type(x) is not bool
            and (-_FLOAT_MAX <= x <= _FLOAT_MAX if isinstance(x, int) else math.isfinite(x)))


def _real(name: str, a) -> np.ndarray:
    """The rule for every real array: a as a float array; other dtypes than integer and floating are refused."""
    a = np.asarray(a)
    if a.dtype.kind not in "iuf":
        raise ValueError(f"{name} must be real, got {_NOT_REAL_KINDS.get(a.dtype.kind, 'non-real')} dtype {a.dtype}")
    return a.astype(float, copy=False)


def check_order(n: int) -> int:
    """The order rule: is_int_in(n, 1, N_MAX), returned as int; anything else raises OrderOutOfRangeError naming n."""
    if not is_int_in(n, 1, N_MAX):
        raise OrderOutOfRangeError(f"order out of range: {n!r} is not an integer in [1, {N_MAX}]")
    return int(n)


def read_only_copy(name: str, a) -> np.ndarray:
    """A read-only float copy of a after _real's check, returned as a view: numpy cannot make that writable again."""
    a = np.array(_real(name, a))
    a.setflags(write=False)
    return a.view()


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """A quadrature rule for integrals against exp(-x) dx on [0, inf).

    A rule keeps read-only copies of the nodes and weights it is given, so
    the rules of gauss_laguerre can be shared by every caller in the process.

    Attributes
    ----------
    order : int
        Number of nodes.
    nodes : numpy.ndarray
        Strictly increasing, strictly positive abscissas.
    weights : numpy.ndarray
        Nonnegative weights summing to one. True Gauss-Laguerre weights
        decay like exp(-node), so gauss_laguerre's trailing weights are
        exact zeros from order 27 on (module docstring).
    """

    order: int
    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if not is_int_in(self.order, 1):
            raise ValueError(f"order must be an integer >= 1, got {self.order!r}")
        object.__setattr__(self, "nodes", read_only_copy("nodes", self.nodes))
        object.__setattr__(self, "weights", read_only_copy("weights", self.weights))
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
    """The order-n Gauss-Laguerre rule, built once per process.

    Every call with the same order, whether given as int or numpy integer,
    returns the same QuadratureRule object, whose arrays are read-only. The
    cache holds at most N_MAX rules.

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
    return _build_rule(check_order(n))


@cache
def _build_rule(n: int) -> QuadratureRule:
    """Golub-Welsch eigensolve of the order-n Jacobi matrix, by MRRR.

    MRRR needs no workspace beside the eigenvectors and keeps tail sums
    within 1e-34 (module docstring).
    """
    d = 2.0 * np.arange(n) + 1.0
    e = np.arange(1.0, n)  # symmetric off-diagonal entry is k, not sqrt(k)
    x, v = eigh_tridiagonal(d, e, lapack_driver="stemr")
    return QuadratureRule(n, x, v[0, :] ** 2)


def tail_weight_sum(rule: QuadratureRule, k: int) -> float:
    """Sum of the weights dropped when only the first k nodes are kept, k an integer in [0, order]."""
    if not is_int_in(k, 0, rule.order):
        raise ValueError(f"retained count must be an integer in [0, order]: {k!r}")
    return float(rule.weights[k:].sum())
