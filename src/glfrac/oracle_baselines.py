"""Independent references: an adaptive integral oracle and a sinc baseline.

These references share only the input checks (check_alpha, _as_lambda)
with the Gauss-Laguerre pipeline, so agreement between them is evidence,
not tautology. The oracle integrates the two defining integrals with
graded Romberg panels; the baseline is a plain sinc (trapezoidal-in-log)
rule for the same power function. Only oracle_diag_norm_error evaluates
the form under test, with eval_scalar, against direct powers.
"""

import math
from dataclasses import dataclass

import numpy as np

from .scalar_core import RationalForm, _as_lambda, check_alpha, eval_scalar

__all__ = [
    "AccuracyNotReachedError",
    "OracleResult",
    "oracle_scalar_power",
    "oracle_integral",
    "oracle_diag_norm_error",
    "sinc_baseline_error",
]

# Integrands carry exp(-x); beyond this point they are below double eps.
X_CUT = -math.log(1e-16)


class AccuracyNotReachedError(RuntimeError):
    """The evaluation budget ran out before the tolerance was certified."""


@dataclass(frozen=True)
class OracleResult:
    """A certified value: estimate of its own accuracy plus the evals spent."""

    value: float
    estimated_accuracy: float
    evaluations: int


def _scalar_lambda(lam) -> float:
    """lam as a float after _as_lambda's checks; an array of any shape other than () is refused."""
    arr, scalar = _as_lambda(lam)
    if not scalar:
        raise ValueError(f"lambda must be a scalar, got shape {arr.shape}")
    return float(arr)


def oracle_scalar_power(lam: float, alpha: float) -> float:
    """Reference lambda**(-alpha) = exp(-alpha ln lambda) for lambda >= 1."""
    alpha = check_alpha(alpha)
    lam = _scalar_lambda(lam)
    return math.exp(-alpha * math.log(lam))


def _romberg_panel(f, a: float, b: float, abs_tol: float, eval_budget: int):
    """Romberg on [a, b]: returns (value, err_estimate, evals, converged).

    Convergence requires at least five halvings and a Richardson
    diagonal difference within abs_tol; the budget counts integrand
    evaluations.
    """
    h = b - a
    fa = float(f(np.array([a]))[0])
    fb = float(f(np.array([b]))[0])
    evals = 2
    row = [0.5 * h * (fa + fb)]
    err = math.inf
    for m in range(1, 23):  # at most 22 halvings
        npts = 2 ** (m - 1)
        if evals + npts > eval_budget:
            return row[-1], err, evals, False
        xs = a + (np.arange(npts) + 0.5) * (h / npts)
        total = float(f(xs).sum())
        evals += npts
        new = [0.5 * row[0] + 0.5 * (h / npts) * total]
        for j in range(1, m + 1):
            prev = new[j - 1]
            new.append(prev + (prev - row[j - 1]) / (4.0**j - 1.0))
        err = abs(new[-1] - row[-1])
        row = new
        if m >= 5 and err <= abs_tol:
            return row[-1], err, evals, True
    return row[-1], err, evals, False


def oracle_integral(
    family: int,
    lam: float,
    alpha: float,
    abs_tol: float = 1e-12,
    max_evals: int = 10**6,
) -> OracleResult:
    """Certified value of one defining integral at lambda >= 1.

    Family 1 integrates exp(-x) / (1 + exp(-x/alpha) lambda); family 2
    integrates exp(-x) / (exp(-x/(1-alpha)) + lambda). Both have a
    boundary layer of width ~ alpha (resp. 1 - alpha) near the origin,
    so the range is split into a graded inner panel that contains the
    layer and an outer remainder, each integrated by Romberg. Raises
    AccuracyNotReachedError when the budget runs out first.
    """
    alpha = check_alpha(alpha)
    lam = _scalar_lambda(lam)
    if family == 1:
        scale = alpha

        def f(x):
            return np.exp(-x) / (1.0 + np.exp(-x / alpha) * lam)

    elif family == 2:
        scale = 1.0 - alpha

        def f(x):
            return np.exp(-x) / (np.exp(-x / (1.0 - alpha)) + lam)

    else:
        raise ValueError("family must be 1 or 2")
    max_evals = int(max_evals)
    if max_evals < 16:
        raise ValueError("evaluation budget too small")

    # Inner panel wide enough to contain the layer and the crossover at
    # x ~ scale * ln(lambda) where the denominator switches regimes.
    x1 = min(0.5 * X_CUT, scale * (max(math.log(lam), 0.0) + 40.0))
    v1, e1, n1, ok1 = _romberg_panel(f, 0.0, x1, 0.5 * abs_tol, max_evals // 2)
    v2, e2, n2, ok2 = _romberg_panel(f, x1, X_CUT, 0.5 * abs_tol, max_evals - n1)
    if not (ok1 and ok2):
        raise AccuracyNotReachedError("accuracy not reached")
    # exp(-X_CUT) bounds the discarded tail of either integrand.
    return OracleResult(v1 + v2, e1 + e2 + math.exp(-X_CUT), n1 + n2)


def oracle_diag_norm_error(eigenvalues, form: RationalForm) -> float:
    """Operator-norm error of form against lambda**(-form.alpha) on a spectrum in [1, inf).

    For a self-adjoint operator the approximation error in the 2-norm is
    the worst scalar error over the spectrum, so diagonal spectra give
    the exact operator-norm error with no linear algebra.
    """
    eigenvalues, _ = _as_lambda(eigenvalues)
    if eigenvalues.ndim != 1 or eigenvalues.size == 0:
        raise ValueError("eigenvalues must be a nonempty vector")
    approx = eval_scalar(form, eigenvalues)
    exact = np.exp(-form.alpha * np.log(eigenvalues))
    return float(np.max(np.abs(exact - approx)))


def sinc_baseline_error(eigenvalues, alpha: float, total_solves: int) -> float:
    """Operator-norm error of a sinc rule using total_solves shifted solves.

    The rule discretizes the power function's log-line integral with an
    odd number 2N + 1 of equispaced points, step pi / sqrt(alpha N).
    Terms are evaluated through logaddexp so huge eigenvalues do not
    overflow. Serves as the like-for-like competitor at a matched solve
    count.
    """
    alpha = check_alpha(alpha)
    if not (total_solves >= 3 and total_solves % 2 == 1):  # 5.9, NaN and inf fail too
        raise ValueError(f"total_solves must be an odd integer >= 3, got {total_solves!r}")
    total_solves = int(total_solves)
    eigenvalues, _ = _as_lambda(eigenvalues)
    if eigenvalues.ndim != 1 or eigenvalues.size == 0:
        raise ValueError("eigenvalues must be a nonempty vector")
    half = (total_solves - 1) // 2
    h = math.pi / math.sqrt(alpha * half)
    j = np.arange(-half, half + 1, dtype=float)[:, None]
    ln_lam = np.log(eigenvalues)[None, :]
    # exp(2 alpha j h) / (1 + exp(2 j h) lambda), stably in the log domain
    terms = np.exp(2.0 * alpha * j * h - np.logaddexp(0.0, 2.0 * j * h + ln_lam))
    approx = (2.0 * math.sin(alpha * math.pi) / math.pi) * h * terms.sum(axis=0)
    exact = np.exp(-alpha * ln_lam[0])
    return float(np.max(np.abs(exact - approx)))
