import numpy as np
import pytest
from hypothesis import settings

from conebilliards.harness import random_cone

# Tier-1 is deterministic: every property test draws the same examples on
# every run.  `pytest --hypothesis-profile=explore` draws fresh ones.
settings.register_profile("explore", derandomize=False)
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")


@pytest.fixture
def orthant2():
    from conebilliards.geometry import make_cone

    return make_cone(2, np.eye(2))


@pytest.fixture
def orthant3():
    from conebilliards.geometry import make_cone

    return make_cone(3, np.eye(3))


def cone_suite(ns, per_n, seed):
    """Deterministic random square cones for parametrized sweeps."""
    for n in ns:
        for k in range(per_n):
            yield random_cone(n, n, seed=seed, stream=n * 10_000 + k)
