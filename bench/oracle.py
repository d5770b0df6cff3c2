"""Closed-form references the benchmark checks glfrac's outputs against.

Nothing here calls glfrac. Spectra of the built-in operators come from
their closed forms; L**(-alpha) b for a finite-difference Laplacian is
applied in its sine eigenbasis (an orthonormal DST-I, its own inverse);
a rational form is evaluated term by term from its coefficient arrays.
"""

import math

import numpy as np
from scipy.fft import dst, dstn

# Tables are compared to their stored references with this relative
# tolerance plus an absolute roundoff floor, so a rule change that moves
# only the last bits of a value, or a weight that underflows differently,
# still matches.
TABLE_RTOL = 1e-8
TABLE_ATOL = 1e-13

# An apply must realise its own rational form to this relative accuracy
# (the solves' rounding measured at most 6e-12), and lie within the form's
# worst spectral error of the exact L**(-alpha) b, plus this allowance
# relative to |x_ref| for rounding.
FORM_RTOL = 1e-8
APPLY_ROUNDOFF = 1e-10


def fd1d_eigenvalues(m: int) -> np.ndarray:
    """Eigenvalues of the Dirichlet second difference on m interior points."""
    k = np.arange(1, m + 1)
    return 4.0 * (m + 1) ** 2 * np.sin(k * math.pi / (2.0 * (m + 1))) ** 2


class Spectrum:
    """Exact spectral data of one of glfrac's built-in operators."""

    def __init__(self, kind: str, **params):
        self.kind = kind
        if kind == "diag-power":
            self.eigenvalues = np.arange(1.0, params["size"] + 1.0) ** params["exponent"]
        elif kind == "fd-laplacian-1d":
            self.eigenvalues = fd1d_eigenvalues(params["m"])
        elif kind == "fd-laplacian-2d":
            mu = fd1d_eigenvalues(params["m"])
            self.grid = mu[:, None] + mu[None, :]
            self.eigenvalues = self.grid.ravel()
        else:
            raise ValueError(f"no closed form for {kind}")
        self.lambda_min = float(self.eigenvalues.min())

    @classmethod
    def from_spec(cls, spec: str):
        """Spectrum of a CLI finite-difference spec, fd1d:M or fd2d:M."""
        kind, _, m = spec.partition(":")
        return cls({"fd1d": "fd-laplacian-1d", "fd2d": "fd-laplacian-2d"}[kind], m=int(m))

    def apply(self, b: np.ndarray, values: np.ndarray) -> np.ndarray:
        """f(L) b, given f at each eigenvalue in the order of `eigenvalues`."""
        if self.kind == "diag-power":
            return values * b
        if self.kind == "fd-laplacian-1d":
            return dst(values * dst(b, type=1, norm="ortho"), type=1, norm="ortho")
        shape = self.grid.shape
        coef = dstn(b.reshape(shape), type=1, norm="ortho")
        return dstn(values.reshape(shape) * coef, type=1, norm="ortho").ravel()

    def power(self, b: np.ndarray, alpha: float) -> np.ndarray:
        """Exact L**(-alpha) b."""
        return self.apply(b, self.eigenvalues ** (-alpha))

    def form_values(self, form) -> np.ndarray:
        """The rational form r at each eigenvalue, scaled so the spectrum starts at 1."""
        lam = self.eigenvalues / self.lambda_min
        approx = np.zeros_like(lam)
        for c, d in zip(form.coeffs1, form.shifts1):
            approx += c / (1.0 + d * lam)
        for c, s in zip(form.coeffs2, form.shifts2):
            approx += c / (s + lam)
        return approx

    def worst_error(self, values: np.ndarray, alpha: float) -> float:
        """max |lam**(-alpha) - r(lam)| over the scaled spectrum, given r's values there."""
        lam = self.eigenvalues / self.lambda_min
        return float(np.max(np.abs(np.exp(-alpha * np.log(lam)) - values)))


def _cell(token: str):
    for kind in (int, float):
        try:
            return kind(token)
        except ValueError:
            pass
    return token


def parse_csv(text: str):
    """Header and rows of a glfrac CSV table, cells typed int, float or str."""
    lines = text.splitlines()
    return lines[0], [[_cell(t) for t in line.split(",")] for line in lines[1:]]


def tables_match(text: str, reference: str) -> bool:
    """Same header, same shape, equal ints and strings, floats within tolerance."""
    header, rows = parse_csv(text)
    ref_header, ref_rows = parse_csv(reference)
    if header != ref_header or len(rows) != len(ref_rows):
        return False
    for row, ref in zip(rows, ref_rows):
        if len(row) != len(ref):
            return False
        for got, want in zip(row, ref):
            if isinstance(want, float) or isinstance(got, float):
                if not (isinstance(got, (int, float)) and isinstance(want, (int, float))):
                    return False
                if not abs(got - want) <= TABLE_RTOL * abs(want) + TABLE_ATOL:
                    return False
            elif got != want:
                return False
    return True
