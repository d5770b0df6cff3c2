"""Gauss-Laguerre rules for the weight exp(-x) on [0, inf).

Nodes and weights come from the symmetric tridiagonal (Jacobi) eigenproblem
(Golub & Welsch, 1969). For the Laguerre recurrence the diagonal is 2k + 1
and the symmetric off-diagonal entry is k. This route stays accurate at
orders where the classical polynomial-root chasers break down in double
precision.

A weight is the squared first component of its eigenvector, but no n x n
eigenvector matrix is formed. The nodes are one eigenvalue-only solve. The
leading weights come from those eigenvectors alone, by bisection and
inverse iteration (LAPACK dstebz and dstein: an n x 64 block): at most 64,
and only those of at least 1e-10, since a component v is right to about eps
in absolute terms and v**2 so only to about 2 eps / |v| relative. Every
other weight is a Christoffel weight, w = 1 / sum_{k<n} L_k(x)**2
(Gautschi, Orthogonal Polynomials, 2004), with the L_k orthonormal for
exp(-x). A 2048-point build traces 2.1 MiB, where MRRR's eigenvector matrix
took 32.4 MiB. The recurrence keeps tiny weights and tail sums right in
relative terms: sampled tail sums down to 4e-43 lie within 5.8e-14 relative of
their 40-digit values. A weight is zero only where the true value is below the double
range. The leading weights, which decide the sum, stay on eigenvectors: on
their own, Christoffel weights miss a sum of one by up to 3.4e-13.

scipy.linalg is imported by the first rule built, not with this module, so
the order checks and cached rules run on numpy alone. eigh_tridiagonal and
eigvalsh_tridiagonal here are stand-ins made by _lazy, as are the scipy
names of operator_apply: a module attribute that imports the real
function's module when first called.
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
_LEAD = 64  # at most this many weights from eigenvectors; _christoffel_weights gives the rest
_LEAD_FLOOR = 1e-10  # an eigenvector weight v**2 is right to about 2 eps / |v| relative: kept only at or above this
_BIG_EXPONENT = 500
_BIG = 2.0**_BIG_EXPONENT  # _christoffel_weights rescales a node past this
_NOT_REAL_KINDS = {"b": "bool", "c": "complex", "S": "bytes", "U": "str", "O": "object"}  # named in _real's refusal


def _lazy(module: str, name: str):
    """A stand-in for `from module import name`: the first call imports module and keeps name for every later call."""
    func = None

    def call(*args, **kwargs):
        nonlocal func
        if func is None:
            func = getattr(importlib.import_module(module), name)
        return func(*args, **kwargs)
    return call


eigh_tridiagonal = _lazy("scipy.linalg", "eigh_tridiagonal")
eigvalsh_tridiagonal = _lazy("scipy.linalg", "eigvalsh_tridiagonal")


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
        decay like exp(-node); a weight of gauss_laguerre is zero only where
        the true value is below the double range (module docstring).
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
        Nodes ascending; weights from eigenvectors and the Christoffel
        function (module docstring), summing to the zeroth moment of exp(-x), one.
    """
    return _build_rule(check_order(n))


@cache
def _build_rule(n: int) -> QuadratureRule:
    """Golub-Welsch rule of order n with no n x n array: up to _LEAD leading weights of at least _LEAD_FLOOR from
    eigenvectors, the rest Christoffel.

    A weight is zero only where the true value is below the double range
    (module docstring).
    """
    d = 2.0 * np.arange(n) + 1.0
    e = np.arange(1.0, n)  # symmetric off-diagonal entry is k, not sqrt(k)
    x = eigvalsh_tridiagonal(d, e)
    lead = min(n, _LEAD)
    # not stemr: scipy's wrapper allocates n x n even for a selected block
    _, v = eigh_tridiagonal(d, e, select="i", select_range=(0, lead - 1), lapack_driver="stebz")
    w = np.empty(n)
    w[:lead] = v[0, :] ** 2
    k = int(np.count_nonzero(w[:lead] >= _LEAD_FLOOR))  # below 1e-3 the weights only fall
    if n > k:
        w[k:] = _christoffel_weights(n, x[k:])
    return QuadratureRule(n, x, w)


def _christoffel_weights(n: int, x: np.ndarray) -> np.ndarray:
    """1 / sum_{k<n} L_k(x)**2 at each node, by (k + 1) L_{k+1} = (2k + 1 - x) L_k - k L_{k-1}.

    A node's L_k, L_{k-1} and sum are scaled by 2**-500 whenever |L_k|
    passes 2**500, so nothing overflows; np.ldexp applies the count at the
    end, and a weight underflows to zero only below the double range.
    """
    prev, cur = np.ones_like(x), 1.0 - x
    total = 1.0 + cur * cur
    scalings = np.zeros(x.shape, dtype=int)
    for k in range(1, n - 1):
        prev, cur = cur, ((2 * k + 1 - x) * cur - k * prev) / (k + 1)
        if np.abs(cur).max() > _BIG:
            big = np.abs(cur) > _BIG
            scale = np.where(big, 1.0 / _BIG, 1.0)
            prev *= scale
            cur *= scale
            total *= scale * scale
            scalings += big
        total += cur * cur
    return np.ldexp(1.0 / total, -2 * _BIG_EXPONENT * scalings)


def tail_weight_sum(rule: QuadratureRule, k: int) -> float:
    """Sum of the weights dropped when only the first k nodes are kept, k an integer in [0, order]."""
    if not is_int_in(k, 0, rule.order):
        raise ValueError(f"retained count must be an integer in [0, order]: {k!r}")
    return float(rule.weights[k:].sum())
