import pytest
from hypothesis import HealthCheck, settings

from besselrad import specfun

settings.register_profile(
    "numeric",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("numeric")


@pytest.fixture
def cold_q_memo():
    """An empty memo of Legendre-Q derivative chains, for tests that count what a call computes."""
    with specfun._CHAINS_LOCK:
        specfun._CHAINS.clear()
