import sys
from pathlib import Path

import semicl  # noqa: F401  (before numpy, so its one-BLAS-thread default applies here too)

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

SCRIPTS_DIR = Path(__file__).parent.parent / "scripts"
REFERENCE_CONFIG = SCRIPTS_DIR / "reference.cfg"


@pytest.fixture
def rng():
    return np.random.default_rng(2024)
