"""Applying the rational forms to self-adjoint positive operators.

Each retained node turns into one shifted solve (sigma I + tau L) X = B
with sigma, tau >= 0, for a vector or a block B, so any operator that can
solve them in term order plugs in through OperatorHandle. On a handle that is
diagonal in a basis of its own (the Kronecker sum in its eigenbasis) each such
solve is one division per row, so an apply there evaluates the form on the
eigenvalues instead, with eval_scalar, and scales the rows of B. Those scaled
values depend on the handle and the form alone, so the handle keeps them for
the forms it met last, and a repeated apply is one row scaling. A tridiagonal
handle likewise keeps the L D L^T factors of the shifts it solved last, so a
repeated shift is one LAPACK pttrs sweep.
The form is applied to L / lambda_min, whose spectrum starts at 1, and the
result is multiplied back by lambda_min**(-alpha), which keeps the scalar
error estimates valid verbatim.

scipy.linalg is imported by the first tridiagonal, dense or Kronecker-sum
handle built, or the first solve: its names below are stand-ins from
quadrature._lazy, and the two tridiagonal eigensolvers are quadrature's own.
A diagonal handle and its applies never load scipy. Every apply runs on the
calling thread.
"""

import math
import operator
import threading
from abc import ABC, abstractmethod
from collections import OrderedDict

import numpy as np

from .quadrature import _lazy, _real, eigh_tridiagonal, eigvalsh_tridiagonal, is_int_in, is_real, read_only_copy
from .scalar_core import _BLOCK, RationalForm, eval_scalar

cho_factor = _lazy("scipy.linalg", "cho_factor")
cho_solve = _lazy("scipy.linalg", "cho_solve")
eigvalsh = _lazy("scipy.linalg", "eigvalsh")
dpttrf = _lazy("scipy.linalg.lapack", "dpttrf")
dpttrs = _lazy("scipy.linalg.lapack", "dpttrs")

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

# Largest dimension of a dense matrix: DenseOperator's, and the identity block
# of dense_fractional_inverse. No other handle assembles one, so applies through
# the diagonal, tridiagonal and Kronecker-sum handles are not capped.
DENSE_DIM_CAP = 2000

# How many forms' scaled values a diagonal handle keeps, the most recently used:
# 8 bytes per row each, so at most 128 bytes per row, 12.8 MB on a 1e5-row handle.
_KEPT_FORMS = 16
# How many doubles of factors a tridiagonal handle keeps (16 MiB), 2m - 1 per shift:
# 1049 shifts at m = 1000, where apply-mix's twelve forms solve 432.
_KEPT_DOUBLES = 2**21


class NotPositiveDefiniteError(ValueError):
    """Operator (or a shifted system) is not symmetric positive definite."""


class DimensionMismatchError(ValueError):
    """Vector length does not match the operator dimension."""


def _check_dense_dim(dim: int):
    if dim > DENSE_DIM_CAP:
        raise ValueError(f"dimension too large for dense assembly: {dim} > {DENSE_DIM_CAP}")


def _not_positive_definite(sigma: float, tau: float, order: int) -> NotPositiveDefiniteError:
    return NotPositiveDefiniteError(f"operator not positive definite: sigma={sigma!r}, tau={tau!r}: "
                                    f"leading minor of order {order} not positive definite")


def _check_finite(name: str, a: np.ndarray):
    """Refuse NaN and inf in a, naming how many there are and where the first one is."""
    bad = ~np.isfinite(a)
    if bad.any():
        first = np.argwhere(bad)[0].tolist()
        raise ValueError(f"{name} must be finite: {int(bad.sum())} of {a.size} are NaN or inf, "
                         f"the first at index {first[0] if a.ndim == 1 else tuple(first)}")


class OperatorHandle(ABC):
    """A self-adjoint positive operator exposing shifted solves.

    A concrete handle implements one protected method, _solve(sigma, tau, B),
    which returns X of (sigma I + tau L) X = B for checked float shifts
    against a checked finite block B (dim, r), one solve per call, in the
    handle's orthonormal basis V: _to_basis(B) is V^T B and _from_basis(X) is
    V X, both the identity by default. Columns are solved independently: a
    solve of some of the columns gives the same bits as those columns of a
    whole-block solve. The public shifted_solve checks the shifts and B, and
    solves a vector (dim,) as a block of one column. It and an apply each map
    B into the basis once and back once, and an apply calls _solve once per
    term. The class attribute diagonal is True for a handle that is
    diag(self.eigenvalues) in its basis; an apply then makes no solve, and
    evaluates the form on those values over lambda_min instead. A handle may
    keep values that depend on itself alone through _keep.
    """

    diagonal = False

    def __init__(self, dimension: int, lambda_min: float):
        if not is_int_in(dimension, 1):
            raise ValueError(f"dimension must be an integer >= 1, got {dimension!r}")
        if not (is_real(lambda_min) and lambda_min > 0.0):
            raise ValueError(f"lambda_min must be finite and positive, got {lambda_min!r}")
        self.dimension = dimension
        self.lambda_min = float(lambda_min)
        self._kept, self._kept_lock, self._kept_size = OrderedDict(), threading.Lock(), 0

    def _check_rhs(self, b) -> np.ndarray:
        b = _real("right-hand side", b)
        if b.ndim not in (1, 2) or b.shape[0] != self.dimension:
            raise DimensionMismatchError(f"dimension mismatch: shape {b.shape}, operator dimension {self.dimension}")
        _check_finite("right-hand side", b)
        return b

    def spectrum(self) -> np.ndarray:
        """Return the eigenvalues of L in ascending order."""
        raise ValueError(f"{type(self).__name__} has no spectrum(), and no handle assembles its matrix for one")

    def _keep(self, key, sources: tuple, make, size: int, bound: int):
        """make()'s value for key, kept while sources are the same objects (is) as when it was made.

        A new entry of size units pushes out the least recently used until the
        sizes sum to at most bound, the newest always kept. One lock guards
        the map; make runs outside it, so two threads may make one entry
        twice, and a make that raises keeps nothing.
        """
        with self._kept_lock:
            kept = self._kept.get(key)
            if kept is not None and all(map(operator.is_, kept[0], sources)):
                self._kept.move_to_end(key)
                return kept[1]
        value = make()
        with self._kept_lock:
            if key in self._kept:
                self._kept_size -= self._kept.pop(key)[2]
            self._kept[key] = sources, value, size
            self._kept_size += size
            while self._kept_size > bound and len(self._kept) > 1:
                self._kept_size -= self._kept.popitem(last=False)[1][2]
        return value

    def _to_basis(self, b: np.ndarray) -> np.ndarray:
        return b

    def _from_basis(self, x: np.ndarray) -> np.ndarray:
        return x

    @abstractmethod
    def _solve(self, sigma: float, tau: float, b: np.ndarray) -> np.ndarray:
        """Return X of (sigma I + tau L) X = B for checked shifts and a checked block B (dim, r)."""

    def shifted_solve(self, sigma: float, tau: float, b) -> np.ndarray:
        """Solve (sigma I + tau L) X = B for finite sigma, tau >= 0, not both zero, and a finite B; X has B's shape."""
        if not (is_real(sigma) and is_real(tau) and sigma >= 0.0 and tau >= 0.0 and sigma + tau > 0.0):
            raise ValueError(f"shift coefficients must be finite, nonnegative and not both zero: "
                             f"sigma={sigma!r}, tau={tau!r}")
        b = self._check_rhs(b)
        block = self._to_basis(b.reshape(self.dimension, -1))
        return self._from_basis(self._solve(float(sigma), float(tau), block)).reshape(b.shape)


class DiagonalOperator(OperatorHandle):
    """diag(eigenvalues); solves are row-wise divisions. The handle keeps a read-only copy of eigenvalues.

    An apply scales row i of B by lambda_min**(-alpha) * eval_scalar(form,
    eigenvalues[i] / lambda_min). The handle keeps these multipliers, read-only,
    for the _KEPT_FORMS forms it applied last (through _keep), keyed by the
    form's content (alpha, k1 and the bytes of term_arrays) and lambda_min: a
    form rebuilt with the same terms finds them, and an entry made before
    eigenvalues was rebound is not used. Applies from several threads may
    share the handle.
    """

    diagonal = True

    def __init__(self, eigenvalues):
        eigenvalues = read_only_copy("eigenvalues", eigenvalues)
        if eigenvalues.ndim != 1 or eigenvalues.size == 0:
            raise ValueError("eigenvalues must be a nonempty vector")
        _check_finite("eigenvalues", eigenvalues)
        if not np.all(eigenvalues > 0.0):
            raise NotPositiveDefiniteError("operator not positive definite")
        super().__init__(eigenvalues.size, float(eigenvalues.min()))
        self.eigenvalues = eigenvalues

    def spectrum(self):
        return np.sort(self.eigenvalues)

    def _solve(self, sigma, tau, b):
        return b / (sigma + tau * self.eigenvalues)[:, None]

    def _multiplier(self, form: RationalForm) -> np.ndarray:
        """The read-only row multipliers of an apply of form, kept or computed.

        A computed one takes ceil(rows / _BLOCK) near-equal row ranges, one
        eval_scalar call each, so that each piece's temporaries stay in cache.
        """
        eigenvalues, lambda_min = self.eigenvalues, self.lambda_min

        def make():
            rows = eigenvalues.size
            p = math.ceil(rows / _BLOCK)
            bounds = [i * rows // p for i in range(p + 1)]
            f = np.empty(rows)
            for lo, hi in zip(bounds, bounds[1:]):
                f[lo:hi] = eval_scalar(form, eigenvalues[lo:hi] / lambda_min)
            f *= lambda_min ** (-form.alpha)
            f.setflags(write=False)
            return f

        key = (form.alpha, form.k1, form.term_arrays.tobytes(), lambda_min)
        return self._keep(key, (eigenvalues,), make, 1, _KEPT_FORMS)


class TridiagonalOperator(OperatorHandle):
    """Symmetric tridiagonal operator; solves use LAPACK pttrf (sigma I + tau T = L D L^T) and pttrs.

    The handle keeps the read-only factors of the shifts (sigma, tau) it
    solved last, at most _KEPT_DOUBLES doubles, beside the diag and off they
    came from: a new shift is one pttrf and one pttrs call, the two halves of
    ptsv, so the bits are ptsv's, and a kept one is one pttrs call, O(m r).
    The smallest eigenvalue is computed once at construction. A lambda_min
    known in closed form may be passed instead: the handle's rule checks it
    first, and it is kept if it exceeds the computed one by at most
    4 eps ||T||_1. The handle keeps read-only copies of diag and off.
    """

    def __init__(self, diag, off, lambda_min: float | None = None):
        diag = read_only_copy("main diagonal", diag)
        off = read_only_copy("off-diagonal", off)
        if diag.ndim != 1 or diag.size < 1 or off.shape != (diag.size - 1,):
            raise ValueError("need a main diagonal of length m and an off-diagonal of length m - 1")
        _check_finite("main diagonal", diag)
        _check_finite("off-diagonal", off)
        smallest = float(eigvalsh_tridiagonal(diag, off, select="i", select_range=(0, 0))[0])
        if lambda_min is None and not smallest > 0.0:
            raise NotPositiveDefiniteError("operator not positive definite")
        super().__init__(diag.size, smallest if lambda_min is None else lambda_min)
        abs_off = np.abs(off)
        norm1 = float(np.max(np.abs(diag) + np.r_[abs_off, 0.0] + np.r_[0.0, abs_off]))
        if self.lambda_min > smallest + 4.0 * np.finfo(float).eps * norm1:
            raise NotPositiveDefiniteError(
                f"operator not positive definite above lambda_min={lambda_min!r}: "
                f"its smallest eigenvalue is {float(f'{smallest:.15g}')!r}")
        self.diag = diag
        self.off = off

    def spectrum(self):
        return eigvalsh_tridiagonal(self.diag, self.off)

    def _solve(self, sigma, tau, b):
        diag, off = self.diag, self.off
        if self.dimension == 1:
            # pttrf refuses an empty off-diagonal, and pttrs would multiply by 1 / d;
            # a 1 x 1 system is one correctly rounded quotient, and keeps nothing
            d = tau * diag + sigma
            if not d[0] > 0.0:
                raise _not_positive_definite(sigma, tau, 1)
            return b / d

        def factor():
            d, e, info = dpttrf(tau * diag + sigma, tau * off, overwrite_d=True, overwrite_e=True)
            if info > 0:
                raise _not_positive_definite(sigma, tau, info)
            d.setflags(write=False)
            e.setflags(write=False)
            return d, e

        d, e = self._keep((sigma, tau), (diag, off), factor, 2 * self.dimension - 1, _KEPT_DOUBLES)
        return dpttrs(d, e, b)[0]  # b is left as it is


class DenseOperator(OperatorHandle):
    """Dense symmetric positive definite operator; solves use Cholesky.

    lambda_min must be supplied by the caller (it is spectral information
    the matrix does not reveal cheaply). One Cholesky factorization of
    A - (1 - 1e-12) lambda_min I at construction checks that it is a
    lower bound of the spectrum, and so that A is positive definite. The
    handle keeps a read-only copy of the matrix.
    """

    def __init__(self, matrix, lambda_min: float):
        matrix = read_only_copy("matrix entries", matrix)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError("matrix must be square")
        if matrix.size == 0:
            raise ValueError("matrix must be nonempty")
        _check_dense_dim(matrix.shape[0])
        _check_finite("matrix entries", matrix)
        # atol scales with the entries, so a matrix is refused or accepted whatever its units
        if not np.allclose(matrix, matrix.T, rtol=1e-10, atol=1e-12 * np.abs(matrix).max()):
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

    def _solve(self, sigma, tau, b):
        shifted = tau * self.matrix
        shifted[np.diag_indices_from(shifted)] += sigma
        try:
            factor = cho_factor(shifted, lower=True, overwrite_a=True, check_finite=False)
        except np.linalg.LinAlgError as exc:
            raise NotPositiveDefiniteError(
                f"operator not positive definite: sigma={sigma!r}, tau={tau!r}: {exc}") from exc
        return cho_solve(factor, b, check_finite=False)


class KroneckerSumOperator(DiagonalOperator):
    """L = T (x) I + I (x) T for a symmetric tridiagonal T of order m: diagonal in the basis Q (x) Q.

    Fast diagonalization (Lynch, Rice & Thomas, 1964): with T = Q diag(mu) Q^T,
    a column x read as the m x m matrix X (row-major) has L x = T X + X T, so
    in the basis, Q^T X Q, L is diag(mu_a + mu_b) in row-major order. Each map
    is one stacked product, Q^T X Q in and Q Y Q^T out, O(m**3) per column
    against O(m**6) for a dense factorization; in between the handle is a
    DiagonalOperator, so a solve is a row-wise division and an apply evaluates
    the form on the eigenvalues. lambda_min is twice T's, so T's lower-bound
    check carries over. The eigenvalues are clipped at it: the computed
    2 min(mu) may lie just below it (fd2d:5), where eval_scalar would refuse
    the apply.
    """

    def __init__(self, t: TridiagonalOperator):
        if not isinstance(t, TridiagonalOperator):
            raise ValueError(f"a Kronecker sum needs a TridiagonalOperator factor, got {type(t).__name__}")
        m = t.dimension
        OperatorHandle.__init__(self, m * m, 2.0 * t.lambda_min)  # the bound is T's, not min(eigenvalues)
        self.t = t
        # scipy's default driver, divide and conquer (dstevd), not the MRRR of the
        # quadrature rules: fast diagonalization needs Q orthogonal to eps, and at
        # m = 1000 MRRR leaves |Q^T Q - I| at 2.6e-13 against 2.3e-15
        mu, q = eigh_tridiagonal(t.diag, t.off)
        self._q = read_only_copy("eigenbasis", q)
        self.eigenvalues = read_only_copy("eigenvalues", np.maximum(np.add.outer(mu, mu).ravel(), self.lambda_min))

    def _to_basis(self, b):
        m, r = self.t.dimension, b.shape[1]
        # (dim, r) -> (r, m, m), one m x m matrix per column
        x = np.ascontiguousarray(b.reshape(m, m, r).transpose(2, 0, 1))
        return (self._q.T @ x @ self._q).reshape(r, m * m).T

    def _from_basis(self, y):
        m, r = self.t.dimension, y.shape[1]
        return (self._q @ y.T.reshape(r, m, m) @ self._q.T).reshape(r, m * m).T


def _fd1d_stencil(m: int):
    """Dirichlet second-difference stencil on m interior points of (0, 1)."""
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
    names = {"diag-power": ("size", "exponent"), "fd-laplacian-1d": ("m",), "fd-laplacian-2d": ("m",)}
    if kind not in names:
        raise ValueError(f"unknown operator kind: {kind}")
    wanted = names[kind]
    for name in (*wanted, *params):
        if (name in params) != (name in wanted):
            raise ValueError(f"{kind} {'takes no' if name in params else 'needs the'} parameter {name!r}; "
                             f"its parameters are {', '.join(wanted)}")
    name = wanted[0]
    if not is_int_in(params[name], 1):
        raise ValueError(f"{name} must be an integer >= 1, got {params[name]!r}")
    if kind == "diag-power":
        if not is_real(params["exponent"]):
            raise ValueError(f"exponent must be a finite real number, got {params['exponent']!r}")
        with np.errstate(over="ignore"):  # an overflow to inf is refused by DiagonalOperator's finite check
            eigenvalues = np.arange(1.0, params["size"] + 1.0) ** float(params["exponent"])
        return DiagonalOperator(eigenvalues)
    diag, off, lam_min = _fd1d_stencil(params["m"])
    t = TridiagonalOperator(diag, off, lambda_min=lam_min)
    return t if kind == "fd-laplacian-1d" else KroneckerSumOperator(t)


def apply_fractional_inverse(
    op: OperatorHandle,
    b,
    form: RationalForm,
    parallel: bool = False,
    max_workers: int | None = None,
) -> np.ndarray:
    """Approximate L**(-alpha) B with one shifted solve per retained node.

    B is a vector (dim,), applied as a block of one column, or a block
    (dim, r), mapped into the handle's basis and back once each. A node's
    solve against L / lambda_min is the solve (sigma I + (tau / lambda_min) L) X = B.
    A handle that is not diagonal solves the whole block with one call of its
    _solve per term, and the solutions are added up in the order of form.terms().
    A tridiagonal handle keeps the factors of the shifts it solved last, so a
    kept shift's term is one pttrs sweep.

    A diagonal handle makes no solve: in its basis, row i of the result is row
    i of B times lambda_min**(-alpha) * eval_scalar(form, eigenvalues[i] /
    lambda_min), one evaluation for all r columns. The handle keeps these
    multipliers for the forms it applied last (DiagonalOperator), so a repeated
    form, or one rebuilt with the same terms, costs one row scaling and no
    evaluation, with the same bits. parallel and max_workers are validated and
    select nothing: every apply runs on the calling thread, so the output never
    depends on them.
    """
    if not isinstance(parallel, (bool, np.bool_)):
        raise ValueError(f"parallel must be a bool, got {parallel!r}")
    if max_workers is not None and not is_int_in(max_workers, 1):
        raise ValueError(f"max_workers must be None or an integer >= 1, got {max_workers!r}")
    b = op._check_rhs(b)
    block = op._to_basis(b.reshape(op.dimension, -1))
    if op.diagonal:
        return op._from_basis(np.multiply(block, op._multiplier(form)[:, None])).reshape(b.shape)
    out = np.zeros(block.shape)
    for fam, j, c, s, t in form.terms():
        try:
            sol = op._solve(s, t / op.lambda_min, block)
        except Exception as exc:
            raise RuntimeError(f"shifted solve failed (family {fam}, node {j}): {exc}") from exc
        out += c * sol
    out *= op.lambda_min ** (-form.alpha)
    return op._from_basis(out).reshape(b.shape)


def dense_fractional_inverse(op: OperatorHandle, form: RationalForm) -> np.ndarray:
    """The form applied to the identity as one block; no verb calls it, but bench/tracer.py wraps it by name."""
    _check_dense_dim(op.dimension)
    return apply_fractional_inverse(op, np.eye(op.dimension), form)
