import pytest
from hypothesis import HealthCheck, settings

from glfrac import OperatorHandle

settings.register_profile(
    "numeric",
    deadline=None,  # rule construction cost varies with the drawn order
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("numeric")


@pytest.fixture
def count_solves(monkeypatch):
    """A list that gets (type(handle), handle.dimension) for every shifted_solve call, on any thread."""
    calls = []
    solve = OperatorHandle.shifted_solve

    def counted(self, sigma, tau, b):
        calls.append((type(self), self.dimension))  # list.append is atomic under the GIL
        return solve(self, sigma, tau, b)

    monkeypatch.setattr(OperatorHandle, "shifted_solve", counted)
    return calls
