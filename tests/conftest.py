import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "det", derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("det")


@pytest.fixture(scope="session")
def series300():
    """Exact reference series to n = 300, built anew at each call, as the package
    keeps no series between calls."""
    from heattrace.verify import reference_series

    return lambda key: reference_series(key, 300)
