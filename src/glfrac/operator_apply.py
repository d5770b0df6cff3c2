"""Applying the rational forms to self-adjoint positive operators.

Each retained node turns into one shifted solve (sigma I + tau L) X = B
with sigma, tau >= 0, for a vector or a block B, so any operator that can
solve such systems plugs in through OperatorHandle. The form is applied to
L / lambda_min, whose spectrum starts at 1, and the result is multiplied
back by lambda_min**(-alpha), which keeps the scalar error estimates valid
verbatim.
"""

import copy
import math
import numbers
import os
from abc import ABC, abstractmethod
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from scipy.linalg import cho_factor, cho_solve, eigh_tridiagonal, eigvalsh, eigvalsh_tridiagonal
from scipy.linalg.lapack import dptsv

from .scalar_core import RationalForm, _real

__all__ = [
    "NotPositiveDefiniteError",
    "DimensionMismatchError",
    "OperatorHandle",
    "DiagonalOperator",
    "TridiagonalOperator",
    "DenseOperator",
    "KroneckerSumOperator",
    "builtin_operator",
    "apply_fractional_inverse",
    "dense_fractional_inverse",
    "DENSE_DIM_CAP",
]

# Largest dimension for which a dense matrix is assembled or factored:
# DenseOperator, to_dense() and dense_fractional_inverse. Applies through
# the diagonal, tridiagonal and Kronecker-sum handles are not capped.
DENSE_DIM_CAP = 2000

# Most rows in one piece of a diagonal apply (see apply_fractional_inverse),
# chosen by paired timings of 2**13, 2**14 and 2**15: a piece's few
# temporaries then fit in a 2 MB L2 cache.
_BLOCK_ROWS = 2**15


class NotPositiveDefiniteError(ValueError):
    """Operator (or a shifted system) is not symmetric positive definite."""


class DimensionMismatchError(ValueError):
    """Vector length does not match the operator dimension."""


def _check_dense_dim(dim: int):
    if dim > DENSE_DIM_CAP:
        raise ValueError(f"dimension too large for dense assembly: {dim} > {DENSE_DIM_CAP}")


def _check_finite(name: str, a: np.ndarray):
    """Refuse NaN and inf in a, naming how many there are and where the first one is."""
    bad = ~np.isfinite(a)
    if bad.any():
        first = np.argwhere(bad)[0].tolist()
        raise ValueError(f"{name} must be finite: {int(bad.sum())} of {a.size} are NaN or inf, "
                         f"the first at index {first[0] if a.ndim == 1 else tuple(first)}")


class OperatorHandle(ABC):
    """A self-adjoint positive operator exposing shifted solves.

    Concrete handles implement spectrum() and the protected solve of
    (sigma I + tau L) X = B for a block B (dim, r) whose columns are solved
    independently: a solve of some of the columns gives the same bits as
    those columns of a whole-block solve. The public shifted_solve checks
    the shifts and B, and solves a vector (dim,) as a block of one column.
    The class attribute diagonal is True when a form acts entrywise on
    spectrum(), as on diag(eigenvalues); then rows are independent too, and
    an apply splits B into the row views that _rows returns.
    """

    diagonal = False

    def __init__(self, dimension: int, lambda_min: float):
        dimension = int(dimension)
        if dimension < 1:
            raise ValueError("dimension must be at least 1")
        if not lambda_min > 0.0:
            raise ValueError("lambda_min must be positive")
        self.dimension = dimension
        self.lambda_min = float(lambda_min)

    def _check_rhs(self, b) -> np.ndarray:
        b = _real("right-hand side", b)
        if b.ndim not in (1, 2) or b.shape[0] != self.dimension:
            raise DimensionMismatchError(f"dimension mismatch: shape {b.shape}, operator dimension {self.dimension}")
        return b

    def spectrum(self) -> np.ndarray:
        """Return the eigenvalues of L in ascending order."""
        raise ValueError("operator has no dense spectrum access")

    @abstractmethod
    def _shifted_solve(self, sigma: float, tau: float, b: np.ndarray) -> np.ndarray:
        ...

    def shifted_solve(self, sigma: float, tau: float, b) -> np.ndarray:
        """Solve (sigma I + tau L) X = B for finite sigma, tau >= 0, not both zero; X has the shape of B."""
        # NaN fails every comparison, so it is refused too
        if not (0.0 <= sigma < math.inf and 0.0 <= tau < math.inf and sigma + tau > 0.0):
            raise ValueError(f"shift coefficients must be finite, nonnegative and not both zero: "
                             f"sigma={sigma!r}, tau={tau!r}")
        b = self._check_rhs(b)
        return self._shifted_solve(float(sigma), float(tau), b.reshape(self.dimension, -1)).reshape(b.shape)


class DiagonalOperator(OperatorHandle):
    """diag(eigenvalues); solves are row-wise divisions."""

    diagonal = True

    def __init__(self, eigenvalues):
        eigenvalues = _real("eigenvalues", eigenvalues)
        if eigenvalues.ndim != 1 or eigenvalues.size == 0:
            raise ValueError("eigenvalues must be a nonempty vector")
        _check_finite("eigenvalues", eigenvalues)
        if not np.all(eigenvalues > 0.0):
            raise NotPositiveDefiniteError("operator not positive definite")
        super().__init__(eigenvalues.size, float(eigenvalues.min()))
        self.eigenvalues = eigenvalues

    def spectrum(self):
        return np.sort(self.eigenvalues)

    def _rows(self, start: int, stop: int) -> "DiagonalOperator":
        """diag(eigenvalues[start:stop]) as a view, not validated again."""
        view = copy.copy(self)
        view.dimension, view.eigenvalues = stop - start, self.eigenvalues[start:stop]
        return view

    def _shifted_solve(self, sigma, tau, b):
        return b / (sigma + tau * self.eigenvalues)[:, None]


class TridiagonalOperator(OperatorHandle):
    """Symmetric tridiagonal operator; solves call LAPACK ptsv (an L D L^T factorization).

    The smallest eigenvalue is computed once at construction. A lambda_min
    known in closed form may be passed instead and is kept, provided it
    exceeds the computed one by at most 4 eps ||T||_1.
    """

    def __init__(self, diag, off, lambda_min: float | None = None):
        diag = _real("main diagonal", diag)
        off = _real("off-diagonal", off)
        if diag.ndim != 1 or diag.size < 1 or off.shape != (diag.size - 1,):
            raise ValueError("need a main diagonal of length m and an off-diagonal of length m - 1")
        _check_finite("main diagonal", diag)
        _check_finite("off-diagonal", off)
        smallest = float(eigvalsh_tridiagonal(diag, off, select="i", select_range=(0, 0))[0])
        if lambda_min is None:
            lambda_min = smallest
        else:
            abs_off = np.abs(off)
            norm1 = float(np.max(np.abs(diag) + np.r_[abs_off, 0.0] + np.r_[0.0, abs_off]))
            if lambda_min > smallest + 4.0 * np.finfo(float).eps * norm1:
                raise NotPositiveDefiniteError(
                    f"operator not positive definite above lambda_min={lambda_min!r}: "
                    f"its smallest eigenvalue is {float(f'{smallest:.15g}')!r}")
        if not lambda_min > 0.0:
            raise NotPositiveDefiniteError("operator not positive definite")
        super().__init__(diag.size, lambda_min)
        self.diag = diag
        self.off = off

    def spectrum(self):
        return eigvalsh_tridiagonal(self.diag, self.off)

    def _shifted_solve(self, sigma, tau, b):
        d = tau * self.diag
        d += sigma
        if self.dimension == 1:
            # ptsv refuses an empty off-diagonal; a 1 x 1 system is one quotient
            x, info = b / d[:, None], 0 if d[0] > 0.0 else 1
        else:
            # b is left as it is: an apply solves the same right-hand side for every term
            _, _, x, info = dptsv(d, tau * self.off, b, overwrite_d=True, overwrite_e=True)
        if info > 0:
            raise NotPositiveDefiniteError(f"operator not positive definite: sigma={sigma!r}, tau={tau!r}: "
                                           f"{info}th leading minor not positive definite")
        return x

    def to_dense(self) -> np.ndarray:
        _check_dense_dim(self.dimension)
        a = np.diag(self.diag)
        idx = np.arange(self.dimension - 1)
        a[idx, idx + 1] = self.off
        a[idx + 1, idx] = self.off
        return a


class DenseOperator(OperatorHandle):
    """Dense symmetric positive definite operator; solves use Cholesky.

    lambda_min must be supplied by the caller (it is spectral information
    the matrix does not reveal cheaply). One Cholesky factorization of
    A - (1 - 1e-12) lambda_min I at construction checks that it is a
    lower bound of the spectrum, and so that A is positive definite.
    """

    def __init__(self, matrix, lambda_min: float):
        matrix = _real("matrix entries", matrix)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError("matrix must be square")
        _check_dense_dim(matrix.shape[0])
        _check_finite("matrix entries", matrix)
        if not np.allclose(matrix, matrix.T, rtol=1e-10, atol=1e-12):
            raise ValueError("operator not symmetric")
        super().__init__(matrix.shape[0], lambda_min)
        floor = (1.0 - 1e-12) * self.lambda_min
        shifted = matrix.copy()
        shifted[np.diag_indices_from(shifted)] -= floor
        try:
            cho_factor(shifted, lower=True, overwrite_a=True, check_finite=False)
        except np.linalg.LinAlgError as exc:
            raise NotPositiveDefiniteError(
                f"operator not positive definite above lambda_min={self.lambda_min!r}: "
                f"A - {floor!r} I has no Cholesky factor ({exc})") from exc
        self.matrix = matrix

    def spectrum(self):
        return eigvalsh(self.matrix)

    def _shifted_solve(self, sigma, tau, b):
        shifted = tau * self.matrix
        shifted[np.diag_indices_from(shifted)] += sigma
        try:
            factor = cho_factor(shifted, lower=True, overwrite_a=True, check_finite=False)
        except np.linalg.LinAlgError as exc:
            raise NotPositiveDefiniteError(
                f"operator not positive definite: sigma={sigma!r}, tau={tau!r}: {exc}") from exc
        return cho_solve(factor, b, check_finite=False)

    def to_dense(self) -> np.ndarray:
        return self.matrix.copy()


class KroneckerSumOperator(OperatorHandle):
    """L = T (x) I + I (x) T for a symmetric tridiagonal T of order m.

    Solves use fast diagonalization (Lynch, Rice & Thomas, 1964): with
    T = Q diag(mu) Q^T, a column x read as the m x m matrix X (row-major)
    solves as Q [(Q^T X Q) / (sigma + tau (mu_a + mu_b))] Q^T, O(m**3) per
    column against O(m**6) for a dense factorization. lambda_min is twice
    T's, so T's lower-bound check carries over.
    """

    def __init__(self, t: TridiagonalOperator):
        m = t.dimension
        super().__init__(m * m, 2.0 * t.lambda_min)
        self.t = t
        mu, self._q = eigh_tridiagonal(t.diag, t.off)
        self._grid = mu[:, None] + mu[None, :]

    def spectrum(self):
        return np.sort(self._grid, axis=None)

    def _shifted_solve(self, sigma, tau, b):
        m = self.t.dimension
        q = self._q
        # (dim, r) -> (r, m, m), one m x m matrix per column
        x = np.ascontiguousarray(b.reshape(m, m, -1).transpose(2, 0, 1))
        c = (q.T @ x @ q) / (sigma + tau * self._grid)
        return (q @ c @ q.T).reshape(-1, m * m).T

    def to_dense(self) -> np.ndarray:
        _check_dense_dim(self.dimension)
        t = self.t.to_dense()
        eye = np.eye(self.t.dimension)
        return np.kron(t, eye) + np.kron(eye, t)


def _fd1d_stencil(m: int):
    """Dirichlet second-difference stencil on m interior points of (0, 1)."""
    m = int(m)
    if m < 1:
        raise ValueError("grid size must be at least 1")
    h = 1.0 / (m + 1)
    diag = np.full(m, 2.0 / h**2)
    off = np.full(m - 1, -1.0 / h**2)
    lam_min = 4.0 * math.sin(math.pi / (2.0 * (m + 1))) ** 2 / h**2
    return diag, off, lam_min


def builtin_operator(kind: str, **params) -> OperatorHandle:
    """Construct a stock test operator; DiagonalOperator and DenseOperator take explicit data.

    Kinds
    -----
    "diag-power"     : eigenvalues j**exponent, j = 1..size.
    "fd-laplacian-1d": Dirichlet Laplacian on m interior points, tridiagonal.
    "fd-laplacian-2d": Dirichlet Laplacian on an m x m grid, as the Kronecker
                       sum of the 1-d one with itself.
    """
    if kind == "diag-power":
        size = int(params["size"])
        exponent = float(params["exponent"])
        if size < 1:
            raise ValueError("size must be at least 1")
        return DiagonalOperator(np.arange(1.0, size + 1.0) ** exponent)
    if kind == "fd-laplacian-1d":
        diag, off, lam_min = _fd1d_stencil(params["m"])
        return TridiagonalOperator(diag, off, lambda_min=lam_min)
    if kind == "fd-laplacian-2d":
        diag, off, lam_min = _fd1d_stencil(params["m"])
        return KroneckerSumOperator(TridiagonalOperator(diag, off, lambda_min=lam_min))
    raise ValueError(f"unknown operator kind: {kind}")


def apply_fractional_inverse(
    op: OperatorHandle,
    b,
    form: RationalForm,
    parallel: bool = False,
    max_workers: int | None = None,
) -> np.ndarray:
    """Approximate L**(-alpha) B with one shifted solve per retained node.

    B is a vector (dim,), applied as a block of one column, or a block
    (dim, r). A node's solve against L / lambda_min is the solve
    (sigma I + (tau / lambda_min) L) X = B, and the solutions are added up
    in the order of form.terms().

    B is split into pieces, and each piece runs that same loop: row ranges
    on a diagonal handle, column groups on any other. A diagonal handle's
    rows go into max(1, min(workers, rows), ceil(rows / _BLOCK_ROWS))
    near-equal pieces, so each term's temporaries over a piece stay in
    cache; columns go into max(1, min(workers, columns)) groups, so a
    vector on a coupled handle is one piece. A serial apply has one
    worker, a parallel one has max_workers (default os.cpu_count()). With
    one worker the pieces run in turn on the calling thread, otherwise on
    a pool of min(workers, pieces) threads. Every entry goes through the
    same operations in the same order either way, so parallel output is
    bit-identical to serial output. Each piece runs all k1 + k2 solves.
    """
    if max_workers is not None and (isinstance(max_workers, bool)
                                    or not (isinstance(max_workers, numbers.Integral) and max_workers >= 1)):
        raise ValueError(f"max_workers must be None or an integer >= 1, got {max_workers!r}")
    b = op._check_rhs(b)
    _check_finite("right-hand side", b)
    block = b.reshape(op.dimension, -1)
    scale = op.lambda_min ** (-form.alpha)
    terms = [(fam, j, c, sigma, tau / op.lambda_min) for fam, j, c, sigma, tau in form.terms()]
    out = np.zeros(block.shape)

    def accumulate(handle, index):
        rhs, acc = block[index], out[index]
        for fam, j, c, sigma, tau in terms:
            try:
                sol = handle.shifted_solve(sigma, tau, rhs)
            except Exception as exc:
                raise RuntimeError(f"shifted solve failed (family {fam}, node {j}): {exc}") from exc
            acc += c * sol
        acc *= scale

    workers = (max_workers or os.cpu_count() or 1) if parallel else 1
    extent = block.shape[0 if op.diagonal else 1]
    p = max(1, min(workers, extent), math.ceil(extent / _BLOCK_ROWS) if op.diagonal else 1)
    bounds = [i * extent // p for i in range(p + 1)]
    pieces = [(op._rows(lo, hi), np.s_[lo:hi]) if op.diagonal else (op, np.s_[:, lo:hi])
              for lo, hi in zip(bounds, bounds[1:])]
    threads = min(workers, p)
    if threads == 1:
        for piece in pieces:
            accumulate(*piece)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            for future in [pool.submit(accumulate, *piece) for piece in pieces]:
                future.result()
    return out.reshape(b.shape)


def dense_fractional_inverse(op: OperatorHandle, form: RationalForm, parallel: bool = False) -> np.ndarray:
    """Materialize the approximation of L**(-alpha) with one block solve of the identity per retained node."""
    _check_dense_dim(op.dimension)
    return apply_fractional_inverse(op, np.eye(op.dimension), form, parallel=parallel)
