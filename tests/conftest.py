from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from active_smoothing import build_grid_agent

# The property tests take their settings from a profile: "default" (40 derandomized
# examples) for the test suite, and "fuzz" for a longer run of the same properties,
# selected with pytest --hypothesis-profile=fuzz. "default" is loaded here because
# hypothesis loads its own "ci" profile when it detects a CI runner.
settings.register_profile(
    "default", max_examples=40, derandomize=True, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
settings.register_profile("fuzz", settings.get_profile("default"), max_examples=500)
settings.load_profile("default")


@pytest.fixture(scope="session")
def grid():
    return build_grid_agent()


@pytest.fixture()
def rng():
    return np.random.default_rng(20240601)
