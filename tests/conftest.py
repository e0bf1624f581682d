import math

# smartp before numpy: it sets OPENBLAS_NUM_THREADS=1 unless set, which OpenBLAS reads when
# numpy loads, and warns (an error under pyproject's filterwarnings) when numpy came first
from smartp import (
    MissingnessParams,
    OutcomeModel,
    SkewTParams,
    car_covariance,
    default_car_model,
    periodontitis_default,
)

import numpy as np
import pytest

GOLDEN_P = 0.8027872
GOLDEN_C = 0.4125813


@pytest.fixture(scope="session")
def default_cov():
    return car_covariance(default_car_model())


@pytest.fixture(scope="session")
def default_mp():
    return MissingnessParams(-1.0, 0.5, 1.0, 0.0)


def make_model(lam=0.0, nu=math.inf, sigma1=0.95, a0=-1.0, b0=0.5, n_units=28):
    return OutcomeModel(
        default_car_model(size=n_units),
        SkewTParams(0.0, sigma1, lam, nu),
        MissingnessParams(a0, b0, 1.0, 0.0),
    )


@pytest.fixture(scope="session")
def normal_model():
    return make_model()


def make_design(mu_by_path: dict[int, float], gamma1=0.25, gamma2=0.5, n_units=28):
    """Built-in design with constant per-path means given as {1-based path: value}."""
    mu = np.zeros((10, n_units))
    for path, val in mu_by_path.items():
        mu[path - 1] = val
    return periodontitis_default(gamma1, gamma2, mu, n_units)
