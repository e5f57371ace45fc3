import numpy as np
import pytest
from hypothesis import settings

# Every property test runs reproducibly, with no deadline and no example
# database left behind; a module's PROPERTY settings only set max_examples.
settings.register_profile("sparseridge", deadline=None, derandomize=True, database=None)
settings.load_profile("sparseridge")


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
