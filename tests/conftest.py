import pytest
from hypothesis import HealthCheck, settings

from glfrac import KroneckerSumOperator, OperatorHandle, TridiagonalOperator

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

    The tridiagonal and Kronecker-sum handles solve every term, a one-term
    shifted_solve too, through their batched _shifted_solves, which records
    one entry per term it yields; any other handle records one per
    shifted_solve call.
    """
    calls = []
    batched = (TridiagonalOperator, KroneckerSumOperator)
    solve = OperatorHandle.shifted_solve

    def counted(self, sigma, tau, b):
        if not isinstance(self, batched):
            calls.append((type(self), self.dimension))  # list.append is atomic under the GIL
        return solve(self, sigma, tau, b)

    def counted_batch(solves):
        def wrapper(self, sigma, tau, b):
            for x in solves(self, sigma, tau, b):
                calls.append((type(self), self.dimension))
                yield x

        return wrapper

    monkeypatch.setattr(OperatorHandle, "shifted_solve", counted)
    for cls in batched:
        monkeypatch.setattr(cls, "_shifted_solves", counted_batch(cls._shifted_solves))
    return calls
