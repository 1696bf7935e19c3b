from __future__ import annotations

import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, settings

from active_smoothing import build_grid_agent

# The property tests take their settings from a profile: "default" (40 derandomized
# examples) for the test suite, and "fuzz" for a longer run of the same properties,
# selected with pytest --hypothesis-profile=fuzz. "default" is loaded here because
# hypothesis loads its own "ci" profile when it detects a CI runner.
#
# A failing property must report its falsifying example under -W error. Both profiles
# leave out the explain phase, and libcst is made unimportable: hypothesis's pytest
# plugin imports it to write a patch for each failure, libcst's import raises a
# DeprecationWarning (from mypy_extensions), and -W error turned that into a pytest
# INTERNALERROR that hid the example. The plugin skips the patch when the import fails.
sys.modules["libcst"] = None
settings.register_profile(
    "default", max_examples=40, derandomize=True, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    phases=[phase for phase in Phase if phase is not Phase.explain])
settings.register_profile("fuzz", settings.get_profile("default"), max_examples=500)
settings.load_profile("default")


@pytest.fixture(scope="session")
def grid():
    return build_grid_agent()


@pytest.fixture()
def rng():
    return np.random.default_rng(20240601)
