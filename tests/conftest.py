import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from odelora.core import LoRAFactors


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def random_factors(rng, r, m, n, scale=1.0):
    return LoRAFactors(
        a=scale * rng.standard_normal((r, n)), b=scale * rng.standard_normal((m, r))
    )


def random_spd(rng, r):
    m = rng.standard_normal((r, r))
    return m @ m.T + np.eye(r)
