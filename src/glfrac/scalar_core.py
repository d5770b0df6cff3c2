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

from .quadrature import (N_MAX, OrderOutOfRangeError, _real, check_order, gauss_laguerre, is_int_in, is_real,
                         read_only_copy)

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

# The most elements of one working block: eval_scalar's (terms x points)
# blocks, and the rows of a diagonal apply's pieces in operator_apply, each of
# which is one eval_scalar call. 2**15 doubles are 256 KiB, so a block and the
# few arrays beside it stay in a 2 MB L2 cache. Chosen for the apply's pieces by
# paired timings of 2**13, 2**14 and 2**15.
_BLOCK = 2**15


class ToleranceUnreachableError(RuntimeError):
    """No order up to N_MAX meets the requested tolerance."""


def check_alpha(alpha: float) -> float:
    """Validate a fractional exponent, a real in (0, 1), returning it as float."""
    if not (is_real(alpha) and 0.0 < alpha < 1.0):
        raise ValueError(f"alpha out of range (0, 1): {alpha!r}")
    return float(alpha)


def _as_lambda(lam):
    """Validate real, finite lambda >= 1 and report whether the input was scalar."""
    arr = _real("lambda", lam)
    if not ((arr >= 1.0).all() and np.isfinite(arr).all()):
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
    n = check_order(n)
    alpha = check_alpha(alpha)
    arr, scalar = _as_lambda(lam)
    out = _g1_at_u(n, alpha, np.log(arr))
    return float(out) if scalar else out


def _g2_at(n: int, alpha: float, lam, u):
    """g2 at lambda = lam, with u = ln(lam) supplied by the caller."""
    _, gp = _gamma_pm_at_u(u)
    return lam ** (-alpha) * np.exp(-gp * math.sqrt(2.0 * (1.0 - alpha) * (4.0 * n + 2.0)))


def g2(n: int, alpha: float, lam):
    """Fast-family error profile lambda**(-alpha) * exp(-gamma_plus * sqrt(2 (1-alpha) nbar))."""
    n = check_order(n)
    alpha = check_alpha(alpha)
    arr, scalar = _as_lambda(lam)
    out = _g2_at(n, alpha, arr, np.log(arr))
    return float(out) if scalar else out


def estimate_scalar_error(n: int, alpha: float, lam):
    """Pointwise a-priori bound 4 sin(alpha pi) (g1 + g2) at lambda >= 1.

    Lambda is validated and its log taken once, for both profiles.
    """
    alpha = check_alpha(alpha)
    n = check_order(n)
    arr, scalar = _as_lambda(lam)
    u = np.log(arr)
    out = 4.0 * math.sin(alpha * _PI) * (_g1_at_u(n, alpha, u) + _g2_at(n, alpha, arr, u))
    return float(out) if scalar else out


def _ln_lambda_n(n: int, alpha: float) -> float:
    """u = ln(lambda_n), where the slow-family error g1 peaks on [1, inf).

    Solves, with r = sqrt(u**2 + pi**2),

        (r - u) / r**2 = pi**2 / ((r + u) r**2) = 2 alpha / nbar,

    with nbar = 4 n + 2; the second form avoids the cancellation in r - u.
    The left side decreases from 1/pi at u = 0, so when 2 alpha / nbar >= 1/pi
    the maximum sits at the boundary and u = 0. Otherwise Newton steps start
    from ln(lambda_n_tilde), computed in u as sqrt(max(radicand, 0)), and stop
    on a step of at most 1e-13 + 4 eps u. The step divides by f only through
    target / f, so no product of tiny factors underflows. Once f leaves the
    normal range (alpha of about 1e-304 and below) the root is not resolvable
    in double precision, and a ValueError names alpha and n.
    """
    target = 2.0 * alpha / (4.0 * n + 2.0)
    if target * _PI >= 1.0:
        return 0.0
    u = math.sqrt(max(_tilde_radicand(n, alpha), 0.0))
    finfo = np.finfo(float)
    for _ in range(50):
        r2 = u * u + _PI * _PI
        r = math.sqrt(r2)
        f = _PI * _PI / ((r + u) * r2)
        if f < finfo.tiny:
            raise ValueError(f"alpha too small for lambda_n in double precision: alpha={alpha!r}, n={n}")
        step = (1.0 - target / f) / (1.0 / r + 2.0 * u / r2)  # -(f - target) / f'(u)
        u += step
        if abs(step) <= 1e-13 + 4.0 * finfo.eps * u:
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
    n = check_order(n)
    return math.exp(_ln_lambda_n(n, alpha))


def lambda_n_tilde(n: int, alpha: float) -> float:
    """Closed-form stand-in exp(sqrt((nbar pi**2 / (4 alpha))**(2/3) - pi**2)).

    Raises ValueError("n too small") when the radicand is negative, which
    happens once nbar < 4 alpha pi. A radicand of exactly zero gives 1.0.
    Only the tests call it; it overflows at tiny alpha like lambda_n_exact.
    """
    alpha = check_alpha(alpha)
    n = check_order(n)
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
    return ErrorEstimate(n, alpha, *_operator_estimate(n, alpha, _last_fast_order(alpha)))


def _operator_estimate(n: int, alpha: float, last_fast: int) -> tuple[float, str]:
    """(value, branch) of estimate_operator_error for a checked n and alpha; last_fast is _last_fast_order(alpha)."""
    if n > last_fast:
        s, branch = float(_g1_at_u(n, alpha, _ln_lambda_n(n, alpha))), "g1_at_lambda_n"
    else:
        s, branch = float(_g2_at(n, alpha, 1.0, 0.0)), "g2_at_one"
    return 4.0 * math.sin(alpha * _PI) * s, branch


def select_n(alpha: float, tol: float) -> tuple[int, ErrorEstimate]:
    """Smallest order whose operator estimate does not exceed tol.

    The estimate decreases on each of order_ranges(alpha), so one
    bisection per range, the lower range first, finds the smallest n with
    estimate(n) <= tol; every smaller order has an estimate above tol. The
    probes take the estimate's value alone, and one ErrorEstimate is built,
    for the answer.
    """
    alpha = check_alpha(alpha)
    if not (is_real(tol) and tol > 0.0):
        raise ValueError(f"tolerance must be positive and finite, got {tol!r}")
    tol = float(tol)
    last_fast = _last_fast_order(alpha)

    def neg_value(n):
        return -_operator_estimate(n, alpha, last_fast)[0]

    for orders in order_ranges(alpha):
        i = bisect_left(orders, -tol, key=neg_value)
        if i < len(orders):
            n = orders[i]
            return n, ErrorEstimate(n, alpha, *_operator_estimate(n, alpha, last_fast))
    best = _operator_estimate(N_MAX, alpha, last_fast)[0]
    raise ToleranceUnreachableError(
        f"tolerance unreachable: alpha={alpha!r}, tol={tol!r}, estimate at N_MAX={N_MAX} is {best:.3g}")


@dataclass(frozen=True)
class TruncationPlan:
    """Orders and retained node counts for the two families.

    variant is "full", "balanced", or "equalized". Family i uses the
    order-n_i rule, n_i in [1, N_MAX], truncated to its first k_i nodes;
    one shifted solve per retained node gives predicted_inversions = k1 + k2.
    """

    variant: str
    n1: int
    n2: int
    k1: int
    k2: int

    def __post_init__(self):
        if self.variant not in ("full", "balanced", "equalized"):
            raise ValueError("unknown truncation variant")
        if not (is_int_in(self.n1, 1, N_MAX) and is_int_in(self.n2, 1, N_MAX)):
            raise OrderOutOfRangeError(f"orders must be integers in [1, {N_MAX}], got n1={self.n1!r}, n2={self.n2!r}")
        if not (is_int_in(self.k1, 1, self.n1) and is_int_in(self.k2, 1, self.n2)):
            raise ValueError(f"retained counts must be integers in [1, order], got k1={self.k1!r} of "
                             f"n1={self.n1!r} and k2={self.k2!r} of n2={self.n2!r}")
        if self.variant == "full" and (self.k1 != self.n1 or self.k2 != self.n2):
            raise ValueError("full variant retains every node")

    @property
    def predicted_inversions(self) -> int:
        return self.k1 + self.k2


def _k1_cutoff(n: int, alpha: float) -> int:
    """Slow-family retained count floor(2 sqrt(3) (alpha n**2 / pi**2)**(1/3)), at least 1."""
    k = math.floor(2.0 * math.sqrt(3.0) * (alpha * n * n / (_PI * _PI)) ** (1.0 / 3.0))
    return max(1, min(k, n))


def _k2_cutoff(n: int, alpha: float) -> int:
    """Fast-family retained count 2 floor((1-alpha)**(1/4) (2n/pi)**(3/4)), at least 1."""
    k = 2 * math.floor((1.0 - alpha) ** 0.25 * (2.0 * n / _PI) ** 0.75)
    return max(1, min(k, n))


def plan_full(n: int) -> TruncationPlan:
    """Keep every node of both order-n rules."""
    n = check_order(n)
    return TruncationPlan("full", n, n, n, n)


def plan_balanced(n: int, alpha: float) -> TruncationPlan:
    """Truncate both order-n families at the common slow-family cutoff.

    The closed-form cutoff keeps roughly a third of the solves, but some of
    the nodes it drops weigh more than the error budget, so it does not
    hold the error to the full estimate. In the stored figure-sweep
    tables the worst error over estimate is 3.00 balanced against 1.19
    full on diagpow:1000:4 at alpha 0.25, and 2.02 for both on
    diagpow:100:8 at alpha 0.5. A tail-weight cutoff is ROADMAP item 1.
    """
    alpha = check_alpha(alpha)
    n = check_order(n)
    k = _k1_cutoff(n, alpha)
    return TruncationPlan("balanced", n, n, k, k)


def plan_equalized(n: int, alpha: float) -> TruncationPlan:
    """Give each family its own order, sized by the paper's estimates to err alike.

    The dominant family keeps the requested order n; the other family's
    order is shrunk (rounded up) to the point where its error estimate
    equals the dominant one, then each family truncates at its own
    closed-form cutoff. Branch choice mirrors estimate_operator_error.
    Some nodes the cutoffs drop weigh more than the error budget, so the
    truncated errors need not match: in the stored figure-sweep tables the
    worst error over estimate is 24.70 against 1.19 full on diagpow:1000:4
    at alpha 0.25, and 9.18 against 2.02 on diagpow:100:8 at alpha 0.5. A
    tail-weight cutoff is ROADMAP item 1.
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
    """Truncated-variant bound 8 sin(alpha pi) exp(-3.6 sqrt(alpha) sqrt(2 k)) for an integer k >= 1."""
    if not is_int_in(k, 1):
        raise ValueError(f"retained count must be an integer >= 1: {k!r}")
    alpha = check_alpha(alpha)
    return 8.0 * math.sin(alpha * _PI) * math.exp(-3.6 * math.sqrt(alpha) * math.sqrt(2.0 * k))


@dataclass(frozen=True, eq=False)
class RationalForm:
    """Assembled partial-fraction form of the approximation.

    term_arrays holds rows c, sigma, tau: term i is c[i] / (sigma[i] + tau[i]
    lambda). Family 1, coeffs1[j] / (1 + shifts1[j] lambda), takes the first
    k1 columns, then family 2, coeffs2[j] / (shifts2[j] + lambda); nodes
    ascend within each family. The form keeps a read-only copy of the array
    it is given, and the per-family arrays are read-only views of its rows.
    term_arrays is the one statement of the order in which every evaluation
    sums the terms, so all are bit-reproducible.
    """

    alpha: float
    variant: str
    n1: int
    n2: int
    k1: int
    k2: int
    term_arrays: np.ndarray

    def __post_init__(self):
        check_alpha(self.alpha)
        TruncationPlan(self.variant, self.n1, self.n2, self.k1, self.k2)  # raises unless a valid plan
        arrays = read_only_copy("term_arrays", self.term_arrays)
        object.__setattr__(self, "term_arrays", arrays)
        k1 = self.k1
        if arrays.shape != (3, k1 + self.k2):
            raise ValueError(f"term_arrays must have shape (3, k1 + k2) = (3, {k1 + self.k2}), got {arrays.shape}")
        # the least and the greatest entry of each row within each family, as
        # [family 1, family 2] per row; np.minimum and np.maximum pass a NaN on,
        # and a NaN fails every comparison below
        c_lo, sigma_lo, tau_lo = np.minimum.reduceat(arrays, (0, k1), axis=1).tolist()
        c_hi, sigma_hi, tau_hi = np.maximum.reduceat(arrays, (0, k1), axis=1).tolist()
        if not (sigma_lo[0] == sigma_hi[0] == 1.0 and tau_lo[1] == tau_hi[1] == 1.0):
            raise ValueError("family 1 must have sigma == 1 and family 2 tau == 1")
        # trailing weights underflow to exact zeros at large orders
        if not (c_lo[0] >= 0.0 and c_lo[1] >= 0.0 and c_hi[0] < math.inf and c_hi[1] < math.inf):
            raise ValueError("coefficients must be finite and nonnegative")
        if arrays[0, 0] <= 0.0 or arrays[0, k1] <= 0.0:
            raise ValueError("leading coefficients must be positive")
        if not (tau_lo[0] >= 0.0 and tau_hi[0] < 1.0 and sigma_lo[1] >= 0.0 and sigma_hi[1] < 1.0):
            raise ValueError("shifts must lie in [0, 1)")

    @property
    def coeffs1(self) -> np.ndarray:
        return self.term_arrays[0, : self.k1]

    @property
    def shifts1(self) -> np.ndarray:
        return self.term_arrays[2, : self.k1]

    @property
    def coeffs2(self) -> np.ndarray:
        return self.term_arrays[0, self.k1 :]

    @property
    def shifts2(self) -> np.ndarray:
        return self.term_arrays[1, self.k1 :]

    def terms(self):
        """Yield (family, node, c, sigma, tau) per term of term_arrays, in order.

        Nodes are numbered from 1 in each family.
        """
        c, sigma, tau = self.term_arrays
        for i, term in enumerate(zip(c.tolist(), sigma.tolist(), tau.tolist())):
            yield (1, i + 1, *term) if i < self.k1 else (2, i + 1 - self.k1, *term)


def build_rational(alpha: float, plan: TruncationPlan) -> RationalForm:
    """Assemble coefficients and shifts for a truncation plan.

    Family 1 uses coefficient sin(alpha pi)/(alpha pi) * w_j and shift
    exp(-theta_j / alpha); family 2 uses sin(alpha pi)/((1-alpha) pi) * w_j
    and shift exp(-theta_j / (1 - alpha)). Very large theta_j / alpha
    underflows the shift to an exact zero, which is harmless: the term
    degenerates to its limiting constant. Each family's row segments are
    written straight into one (3, k1 + k2) array.
    """
    alpha = check_alpha(alpha)
    k1, k2 = plan.k1, plan.k2
    rule1 = gauss_laguerre(plan.n1)
    rule2 = gauss_laguerre(plan.n2)
    sin_pi = math.sin(alpha * _PI)
    arrays = np.ones((3, k1 + k2))
    c, sigma, tau = arrays
    np.multiply(sin_pi / (alpha * _PI), rule1.weights[:k1], out=c[:k1])
    np.multiply(sin_pi / ((1.0 - alpha) * _PI), rule2.weights[:k2], out=c[k1:])
    np.exp(np.divide(rule1.nodes[:k1], -alpha, out=tau[:k1]), out=tau[:k1])
    np.exp(np.divide(rule2.nodes[:k2], -(1.0 - alpha), out=sigma[k1:]), out=sigma[k1:])
    return RationalForm(alpha, plan.variant, plan.n1, plan.n2, k1, k2, arrays)


def eval_scalar(form: RationalForm, lam):
    """Evaluate the rational form at lambda >= 1 (scalar or array, any shape).

    Each term is c / (sigma + tau * lambda), and the terms are summed left to
    right in the order of form.term_arrays, so evaluations are bit-identical.
    The terms go in blocks of at most _BLOCK (terms x points) elements, each
    within one family, and each block is folded into the running sum by
    np.add.reduce over axis 0 of [running sum; block]: once a block has two or
    more columns, axis 0 is not its fast axis, and numpy adds its rows one
    after another (along the fast axis it may add pairwise and change bits).
    One point is one row of terms summed by np.add.accumulate, which adds in
    order. Above _BLOCK // 2 points a block holds one term, and each term goes
    over all points in two preallocated buffers. All terms are positive, and
    so is the value.
    """
    arr, scalar = _as_lambda(lam)
    c, sigma, tau = form.term_arrays
    x = arr.reshape(-1)
    m = x.size
    if m <= 1:
        t = tau * x[:, None]
        t += sigma
        np.divide(c, t, out=t)
        # copied, so that the result does not hold on to the whole array
        out = np.add.accumulate(t, axis=1)[:, -1].copy()
    elif m > _BLOCK // 2:
        out = np.zeros_like(x)
        buf = np.empty_like(x)
        for ci, si, ti in zip(c.tolist(), sigma.tolist(), tau.tolist()):
            # every family-2 term has tau == 1, and 1.0 * lambda is lambda: one pass fewer, the same bits
            np.add(x if ti == 1.0 else np.multiply(x, ti, out=buf), si, out=buf)
            np.divide(ci, buf, out=buf)
            out += buf
    else:
        k1, k = form.k1, c.size
        rows = _BLOCK // m
        out = np.zeros_like(x)
        buf = np.empty((min(rows, k) + 1, m))
        for first, end in ((0, k1), (k1, k)):
            for lo in range(first, end, rows):
                hi = min(lo + rows, end)
                block = buf[: hi - lo + 1]
                block[0] = out
                t = block[1:]
                if first == 0:  # family 1: tau * lambda + 1
                    # the same products as np.multiply, without its buffered copy of a broadcast operand
                    np.einsum("i,j->ij", tau[lo:hi], x, out=t)
                    t += 1.0
                else:  # family 2: sigma + lambda
                    np.add(sigma[lo:hi, None], x, out=t)
                np.divide(c[lo:hi, None], t, out=t)
                np.add.reduce(block, axis=0, out=out)
    out = out.reshape(arr.shape)
    return float(out) if scalar else out
