import pytest
from hypothesis import HealthCheck, settings

from glfrac import DenseOperator, DiagonalOperator, TridiagonalOperator

settings.register_profile(
    "numeric",
    deadline=None,  # rule construction cost varies with the drawn order
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("numeric")


@pytest.fixture
def count_solves(monkeypatch):
    """A list that gets (type(handle), handle.dimension) for every shifted solve, on any thread.

    Each stock handle's _solve records one entry per call, so a shifted_solve
    records one too. KroneckerSumOperator inherits DiagonalOperator's, so it is
    counted through that one, once.
    """
    calls = []

    def counted(solve):
        def wrapper(self, sigma, tau, b):
            calls.append((type(self), self.dimension))  # list.append is atomic under the GIL
            return solve(self, sigma, tau, b)

        return wrapper

    for cls in (DiagonalOperator, TridiagonalOperator, DenseOperator):
        monkeypatch.setattr(cls, "_solve", counted(cls._solve))
    return calls
