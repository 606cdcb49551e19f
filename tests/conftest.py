import os
import sys

sys.path.insert(0, os.path.dirname(__file__))

import pytest

DEFAULT_SEED = 1729


@pytest.fixture(scope="session")
def suite_seed() -> int:
    """Seed for randomized property suites; SALEMLAT_SEED overrides."""
    return int(os.environ.get("SALEMLAT_SEED", DEFAULT_SEED))
