"""Rational approximation of lambda**(-alpha) on [1, inf) and its a-priori errors.

The negative fractional power is written as a pair of exponentially
weighted integrals over [0, inf), one per factor of the reflection
formula. Discretizing each with the same Gauss-Laguerre rule yields a
rational function in lambda whose poles are negative reals, so applying
it to a self-adjoint positive operator costs one shifted solve per
retained node. Everything here is scalar bookkeeping: node/coefficient
assembly, closed-form error estimates, order selection, and truncation
planning. Operator plumbing lives in operator_apply.
"""

import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .quadrature import N_MAX, check_order, gauss_laguerre

__all__ = [
    "ErrorEstimate",
    "TruncationPlan",
    "RationalForm",
    "ToleranceUnreachableError",
    "check_alpha",
    "gamma_pm",
    "g1",
    "g2",
    "lambda_n_exact",
    "lambda_n_tilde",
    "n_star",
    "order_ranges",
    "estimate_scalar_error",
    "estimate_operator_error",
    "estimate_balanced_error",
    "select_n",
    "plan_full",
    "plan_balanced",
    "plan_equalized",
    "build_rational",
    "eval_scalar",
]

_PI = math.pi


class ToleranceUnreachableError(RuntimeError):
    """No order up to N_MAX meets the requested tolerance."""


def check_alpha(alpha: float) -> float:
    """Validate a fractional exponent, returning it as float."""
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha out of range (0, 1)")
    return alpha


def _as_lambda(lam):
    """Validate lambda >= 1 and report whether the input was scalar."""
    arr = np.asarray(lam, dtype=float)
    if np.any(arr < 1.0):
        raise ValueError("lambda out of range [1, inf)")
    return arr, arr.ndim == 0


def _gamma_pm_at_u(u):
    """(gamma_minus, gamma_plus) at lambda = exp(u), computed as in gamma_pm."""
    gp = np.sqrt(np.sqrt(u * u + _PI * _PI) + u)
    return _PI / gp, gp


def gamma_pm(lam):
    """Decay-rate factors gamma_minus, gamma_plus at lambda >= 1.

    gamma_pm = sqrt(sqrt(u**2 + pi**2) -+ u) with u = ln(lambda); their product
    is exactly pi, so gamma_minus is computed as pi / gamma_plus, without cancellation.

    Returns
    -------
    (gamma_minus, gamma_plus) : floats or arrays matching the input shape.
    """
    arr, scalar = _as_lambda(lam)
    gm, gp = _gamma_pm_at_u(np.log(arr))
    if scalar:
        return float(gm), float(gp)
    return gm, gp


def _g1_at_u(n: int, alpha: float, u):
    """g1 at lambda = exp(u), never forming lambda: exp(-alpha u - gamma_minus sqrt(2 alpha nbar))."""
    gm, _ = _gamma_pm_at_u(u)
    return np.exp(-alpha * u - gm * math.sqrt(2.0 * alpha * (4.0 * n + 2.0)))


def g1(n: int, alpha: float, lam):
    """Slow-family error profile lambda**(-alpha) * exp(-gamma_minus * sqrt(2 alpha nbar))."""
    alpha = check_alpha(alpha)
    arr, scalar = _as_lambda(lam)
    out = _g1_at_u(n, alpha, np.log(arr))
    return float(out) if scalar else out


def g2(n: int, alpha: float, lam):
    """Fast-family error profile lambda**(-alpha) * exp(-gamma_plus * sqrt(2 (1-alpha) nbar))."""
    alpha = check_alpha(alpha)
    arr, scalar = _as_lambda(lam)
    _, gp = gamma_pm(arr)
    nbar = 4.0 * n + 2.0
    out = arr ** (-alpha) * np.exp(-gp * math.sqrt(2.0 * (1.0 - alpha) * nbar))
    return float(out) if scalar else out


def estimate_scalar_error(n: int, alpha: float, lam):
    """Pointwise a-priori bound 4 sin(alpha pi) (g1 + g2) at lambda >= 1."""
    return 4.0 * math.sin(check_alpha(alpha) * _PI) * (g1(n, alpha, lam) + g2(n, alpha, lam))


def _ln_lambda_n(n: int, alpha: float) -> float:
    """u = ln(lambda_n), where the slow-family error g1 peaks on [1, inf).

    Solves, with r = sqrt(u**2 + pi**2),

        (r - u) / r**2 = pi**2 / ((r + u) r**2) = 2 alpha / nbar,

    with nbar = 4 n + 2; the second form avoids the cancellation in r - u.
    The left side decreases from 1/pi at u = 0, so when 2 alpha / nbar >= 1/pi
    the maximum sits at the boundary and u = 0. Otherwise Newton steps start
    from ln(lambda_n_tilde), computed in u as sqrt(max(radicand, 0)), and stop
    on a step of at most 1e-13 + 4 eps u.
    """
    target = 2.0 * alpha / (4.0 * n + 2.0)
    if target * _PI >= 1.0:
        return 0.0
    u = math.sqrt(max(_tilde_radicand(n, alpha), 0.0))
    eps = np.finfo(float).eps
    for _ in range(50):
        r2 = u * u + _PI * _PI
        r = math.sqrt(r2)
        f = _PI * _PI / ((r + u) * r2)
        step = (f - target) / (f * (1.0 / r + 2.0 * u / r2))  # -(f - target) / f'(u)
        u += step
        if abs(step) <= 1e-13 + 4.0 * eps * u:
            return u
    raise RuntimeError(f"lambda_n did not converge: n={n}, alpha={alpha!r}")


def _tilde_radicand(n: int, alpha: float) -> float:
    """(nbar pi**2 / (4 alpha))**(2/3) - pi**2, the square of ln(lambda_n_tilde)."""
    return ((4.0 * n + 2.0) * _PI * _PI / (4.0 * alpha)) ** (2.0 / 3.0) - _PI * _PI


def lambda_n_exact(n: int, alpha: float) -> float:
    """Location exp(u) of the slow-family error maximum on [1, inf), u from _ln_lambda_n.

    Only the tests call it: exp(u) overflows once u passes about 709 (tiny
    alpha at large n), so estimate_operator_error works in u.
    """
    alpha = check_alpha(alpha)
    n = int(n)
    if n < 1:
        raise ValueError("n must be at least 1")
    return math.exp(_ln_lambda_n(n, alpha))


def lambda_n_tilde(n: int, alpha: float) -> float:
    """Closed-form stand-in exp(sqrt((nbar pi**2 / (4 alpha))**(2/3) - pi**2)).

    Raises ValueError("n too small") when the radicand is negative, which
    happens once nbar < 4 alpha pi. A radicand of exactly zero gives 1.0.
    Only the tests call it; it overflows at tiny alpha like lambda_n_exact.
    """
    alpha = check_alpha(alpha)
    n = int(n)
    if n < 1:
        raise ValueError("n must be at least 1")
    radicand = _tilde_radicand(n, alpha)
    if radicand < 0.0:
        raise ValueError("n too small")
    return math.exp(math.sqrt(radicand))


def n_star(alpha: float) -> float:
    """Order above which the slow family dominates the operator estimate."""
    alpha = check_alpha(alpha)
    return 4.5 * alpha ** 4 / (1.0 - alpha) ** 3


def _last_fast_order(alpha: float) -> int:
    """Largest order on the fast-family branch: floor(n_star) when alpha > 1/2, else 0.

    Order n takes the slow-family branch exactly when n exceeds this.
    """
    return math.floor(n_star(alpha)) if alpha > 0.5 else 0


def order_ranges(alpha: float) -> list[range]:
    """Orders 1..N_MAX as one or two ranges split at the estimate's branch switch.

    Within each range the operator estimate decreases and every plan's
    predicted_inversions does not decrease with n, so either can be
    searched by bisection; across the split the estimate jumps upwards.
    """
    last_fast = min(_last_fast_order(check_alpha(alpha)), N_MAX)
    return [r for r in (range(1, last_fast + 1), range(last_fast + 1, N_MAX + 1)) if r]


@dataclass(frozen=True)
class ErrorEstimate:
    """Operator-norm a-priori estimate for the order-n full approximation.

    branch records which family supplied the maximum: "g1_at_lambda_n"
    (slow family, evaluated at its interior maximum) or "g2_at_one" (fast
    family, maximal at the spectrum edge).
    """

    n: int
    alpha: float
    value: float
    branch: str

    def __post_init__(self):
        if self.branch not in ("g1_at_lambda_n", "g2_at_one"):
            raise ValueError("unknown estimate branch")
        if not self.value > 0.0:
            raise ValueError("estimate must be positive")


def estimate_operator_error(n: int, alpha: float) -> ErrorEstimate:
    """A-priori bound on the operator-norm error of the order-n approximation.

    4 sin(alpha pi) * S(n, alpha), where S is the slow-family maximum
    g1(lambda_n) when alpha <= 1/2 or n > n_star(alpha), and the fast
    family edge value g2(1) otherwise.
    """
    alpha = check_alpha(alpha)
    n = check_order(n)
    if n > _last_fast_order(alpha):
        s = float(_g1_at_u(n, alpha, _ln_lambda_n(n, alpha)))
        branch = "g1_at_lambda_n"
    else:
        s = g2(n, alpha, 1.0)
        branch = "g2_at_one"
    return ErrorEstimate(n, alpha, 4.0 * math.sin(alpha * _PI) * s, branch)


def select_n(alpha: float, tol: float) -> tuple[int, ErrorEstimate]:
    """Smallest order whose operator estimate does not exceed tol.

    The estimate decreases on each of order_ranges(alpha), so one
    bisection per range, the lower range first, finds the smallest n with
    estimate(n) <= tol; every smaller order has an estimate above tol.
    """
    alpha = check_alpha(alpha)
    tol = float(tol)
    if not tol > 0.0:
        raise ValueError("tolerance must be positive")

    def neg_value(n):
        return -estimate_operator_error(n, alpha).value

    for orders in order_ranges(alpha):
        i = bisect_left(orders, -tol, key=neg_value)
        if i < len(orders):
            n = orders[i]
            return n, estimate_operator_error(n, alpha)
    best = estimate_operator_error(N_MAX, alpha).value
    raise ToleranceUnreachableError(
        f"tolerance unreachable: alpha={alpha!r}, tol={tol!r}, estimate at N_MAX={N_MAX} is {best:.3g}")


@dataclass(frozen=True)
class TruncationPlan:
    """Orders and retained node counts for the two families.

    variant is "full", "balanced", or "equalized". Family i uses the
    order-n_i rule truncated to its first k_i nodes; one shifted solve
    per retained node gives predicted_inversions = k1 + k2.
    """

    variant: str
    n1: int
    n2: int
    k1: int
    k2: int

    def __post_init__(self):
        if self.variant not in ("full", "balanced", "equalized"):
            raise ValueError("unknown truncation variant")
        if not (1 <= self.k1 <= self.n1 and 1 <= self.k2 <= self.n2):
            raise ValueError("retained counts must lie in [1, order]")
        if self.variant == "full" and (self.k1 != self.n1 or self.k2 != self.n2):
            raise ValueError("full variant retains every node")

    @property
    def predicted_inversions(self) -> int:
        return self.k1 + self.k2


def _k1_cutoff(n: int, alpha: float) -> int:
    """Slow-family retained count floor(2 sqrt(3) (alpha n**2 / pi**2)**(1/3)), at least 1."""
    k = math.floor(2.0 * math.sqrt(3.0) * (alpha * n * n / (_PI * _PI)) ** (1.0 / 3.0))
    return max(1, min(int(k), n))


def _k2_cutoff(n: int, alpha: float) -> int:
    """Fast-family retained count 2 floor((1-alpha)**(1/4) (2n/pi)**(3/4)), at least 1."""
    k = 2 * math.floor((1.0 - alpha) ** 0.25 * (2.0 * n / _PI) ** 0.75)
    return max(1, min(int(k), n))


def plan_full(n: int) -> TruncationPlan:
    """Keep every node of both order-n rules."""
    n = check_order(n)
    return TruncationPlan("full", n, n, n, n)


def plan_balanced(n: int, alpha: float) -> TruncationPlan:
    """Truncate both order-n families at the common slow-family cutoff.

    Dropping nodes past the cutoff perturbs the result by no more than
    the full estimate itself, so accuracy matches the full variant at
    roughly a third of the solves.
    """
    alpha = check_alpha(alpha)
    n = check_order(n)
    k = _k1_cutoff(n, alpha)
    return TruncationPlan("balanced", n, n, k, k)


def plan_equalized(n: int, alpha: float) -> TruncationPlan:
    """Give each family its own order so their truncated errors match.

    The dominant family keeps the requested order n; the other family's
    order is shrunk (rounded up) to the point where its error estimate
    equals the dominant one, then each family truncates at its own
    cutoff. Branch choice mirrors estimate_operator_error.
    """
    alpha = check_alpha(alpha)
    n = check_order(n)
    if n > _last_fast_order(alpha):
        n1 = n
        k1 = _k1_cutoff(n1, alpha)
        n2 = math.ceil(1.125 * _PI ** (1.0 / 3.0) * alpha ** (4.0 / 3.0) / (1.0 - alpha) * n1 ** (2.0 / 3.0))
        n2 = max(1, min(n2, N_MAX))
        k2 = _k2_cutoff(n2, alpha)
    else:
        n2 = n
        k2 = _k2_cutoff(n2, alpha)
        n1 = math.ceil((8.0 * (1.0 - alpha)) ** 1.5 / (27.0 * alpha * alpha * math.sqrt(_PI)) * n2 ** 1.5)
        n1 = max(1, min(n1, N_MAX))
        k1 = _k1_cutoff(n1, alpha)
    return TruncationPlan("equalized", n1, n2, k1, k2)


def estimate_balanced_error(k: int, alpha: float) -> float:
    """Truncated-variant bound 8 sin(alpha pi) exp(-3.6 sqrt(alpha) sqrt(2 k))."""
    alpha = check_alpha(alpha)
    return 8.0 * math.sin(alpha * _PI) * math.exp(-3.6 * math.sqrt(alpha) * math.sqrt(2.0 * k))


@dataclass(frozen=True, eq=False)
class RationalForm:
    """Assembled partial-fraction form of the approximation.

    Family 1 contributes coeffs1[j] / (1 + shifts1[j] * lambda) and
    family 2 contributes coeffs2[j] / (shifts2[j] + lambda), nodes
    ascending within each family. terms() is the one statement of the
    order in which every evaluation sums them, so all are bit-reproducible.
    """

    alpha: float
    variant: str
    n1: int
    n2: int
    k1: int
    k2: int
    coeffs1: np.ndarray
    shifts1: np.ndarray
    coeffs2: np.ndarray
    shifts2: np.ndarray

    def __post_init__(self):
        check_alpha(self.alpha)
        if self.coeffs1.shape != (self.k1,) or self.shifts1.shape != (self.k1,):
            raise ValueError("family 1 arrays must have length k1")
        if self.coeffs2.shape != (self.k2,) or self.shifts2.shape != (self.k2,):
            raise ValueError("family 2 arrays must have length k2")
        # trailing weights underflow to exact zeros at large orders
        if not (np.all(self.coeffs1 >= 0.0) and np.all(self.coeffs2 >= 0.0)):
            raise ValueError("coefficients must be nonnegative")
        if self.coeffs1[0] <= 0.0 or self.coeffs2[0] <= 0.0:
            raise ValueError("leading coefficients must be positive")
        for shifts in (self.shifts1, self.shifts2):
            if not (np.all(shifts >= 0.0) and np.all(shifts < 1.0)):
                raise ValueError("shifts must lie in [0, 1)")

    def terms(self):
        """Yield (family, node, c, sigma, tau) per term c / (sigma + tau lambda).

        Family 1, with (sigma, tau) = (1.0, d), comes first, then family 2,
        with (s, 1.0); nodes ascend and are numbered from 1 in each family.
        """
        for j, (c, d) in enumerate(zip(self.coeffs1.tolist(), self.shifts1.tolist()), start=1):
            yield 1, j, c, 1.0, d
        for j, (c, s) in enumerate(zip(self.coeffs2.tolist(), self.shifts2.tolist()), start=1):
            yield 2, j, c, s, 1.0


def build_rational(alpha: float, plan: TruncationPlan) -> RationalForm:
    """Assemble coefficients and shifts for a truncation plan.

    Family 1 uses coefficient sin(alpha pi)/(alpha pi) * w_j and shift
    exp(-theta_j / alpha); family 2 uses sin(alpha pi)/((1-alpha) pi) * w_j
    and shift exp(-theta_j / (1 - alpha)). Very large theta_j / alpha
    underflows the shift to an exact zero, which is harmless: the term
    degenerates to its limiting constant.
    """
    alpha = check_alpha(alpha)
    rule1 = gauss_laguerre(plan.n1)
    rule2 = rule1 if plan.n2 == plan.n1 else gauss_laguerre(plan.n2)
    pref1 = math.sin(alpha * _PI) / (alpha * _PI)
    pref2 = math.sin(alpha * _PI) / ((1.0 - alpha) * _PI)
    th1 = rule1.nodes[: plan.k1]
    th2 = rule2.nodes[: plan.k2]
    return RationalForm(
        alpha=alpha,
        variant=plan.variant,
        n1=plan.n1,
        n2=plan.n2,
        k1=plan.k1,
        k2=plan.k2,
        coeffs1=pref1 * rule1.weights[: plan.k1],
        shifts1=np.exp(-th1 / alpha),
        coeffs2=pref2 * rule2.weights[: plan.k2],
        shifts2=np.exp(-th2 / (1.0 - alpha)),
    )


def eval_scalar(form: RationalForm, lam):
    """Evaluate the rational form at lambda >= 1 (scalar or array).

    Terms are summed in the order of form.terms(), so evaluations are
    bit-identical; a scalar is summed in Python floats, which round as numpy
    does. All terms are positive, and so is the value.
    """
    arr, scalar = _as_lambda(lam)
    x = float(arr) if scalar else arr
    acc = 0.0
    for _, _, c, sigma, tau in form.terms():
        acc = acc + c / (sigma + tau * x)
    return acc
