import numpy as np
import pytest


@pytest.fixture(autouse=True)
def _seed_guard():
    # tests must not depend on numpy's global RNG state
    state = np.random.get_state()
    yield
    np.random.set_state(state)
