import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from odelora.core import LoRAFactors
from odelora.solvers import (Scheme, classical_gd_step, full_ft_step, lorapro_step, ode_euler_step,
                             ode_rk2_step, ode_rk4_step, riemannian_step)

# the public step of each scheme
STEPS = {Scheme.ODE_EULER: ode_euler_step, Scheme.ODE_RK2: ode_rk2_step,
         Scheme.ODE_RK4: ode_rk4_step, Scheme.CLASSICAL_GD: classical_gd_step,
         Scheme.RIEMANNIAN: riemannian_step, Scheme.LORA_PRO: lorapro_step,
         Scheme.FULL_FT: full_ft_step}


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
