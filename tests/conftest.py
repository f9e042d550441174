import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite",
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(autouse=True)
def _quiet_pad_warnings():
    # small desk grids trip the pad-width advisory; tests size boxes on purpose
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message=".*padded box.*")
        warnings.filterwarnings("ignore", message=".*epsilon.*")
        yield


def l1_distance(a: np.ndarray, b: np.ndarray, h: float) -> float:
    return float(np.sum(np.abs(a - b)) * h)
