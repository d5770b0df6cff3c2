import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from glfrac import DenseOperator, DiagonalOperator, KroneckerSumOperator, TridiagonalOperator

settings.register_profile(
    "numeric",
    deadline=None,  # rule construction cost varies with the drawn order
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("numeric")


@pytest.fixture
def count_solves(monkeypatch):
    """A list that gets (type(handle), handle.dimension) for every shifted solve.

    Each stock handle's _solve records one entry per call, so a shifted_solve
    records one too. KroneckerSumOperator inherits DiagonalOperator's, so it is
    counted through that one, once.
    """
    calls = []

    def counted(solve):
        def wrapper(self, sigma, tau, b):
            calls.append((type(self), self.dimension))
            return solve(self, sigma, tau, b)

        return wrapper

    for cls in (DiagonalOperator, TridiagonalOperator, DenseOperator):
        monkeypatch.setattr(cls, "_solve", counted(cls._solve))
    return calls


def _dense_matrix(op) -> np.ndarray:
    """The matrix of a stock handle, assembled for a dense reference; no handle assembles its own."""
    if isinstance(op, TridiagonalOperator):
        return np.diag(op.diag) + np.diag(op.off, 1) + np.diag(op.off, -1)
    if isinstance(op, KroneckerSumOperator):  # before DiagonalOperator, its base class
        t, eye = _dense_matrix(op.t), np.eye(op.t.dimension)
        return np.kron(t, eye) + np.kron(eye, t)
    if isinstance(op, DiagonalOperator):
        return np.diag(op.eigenvalues)
    return op.matrix  # a DenseOperator


@pytest.fixture(scope="session")
def dense_matrix():
    """_dense_matrix, for a test to build a handle's matrix; session-scoped, so @given tests may take it."""
    return _dense_matrix
