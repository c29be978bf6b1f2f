"""Shared fixtures: small deterministic datasets and common configs.

Dataset fixtures are session-scoped and deliberately smaller than the
paper's full sizes so the suite stays fast; the full-size runs live in
``benchmarks/``.
"""

from __future__ import annotations

import faulthandler
import math

import numpy as np
import pytest

from repro.datasets import (
    http_traffic_dataset,
    moving_object_dataset,
    power_load_dataset,
)
from repro.dkf.config import DKFConfig
from repro.filters.models import constant_model, linear_model, sinusoidal_model
from repro.streams.base import stream_from_values

#: Seconds one test may run before every thread's stack is dumped and the
#: run exits non-zero (the whole suite takes about a minute).
TEST_DEADLINE_S = 120


@pytest.fixture(autouse=True)
def _deadline():
    """A hung test (a socket await nothing bounds) fails loudly, not forever."""
    faulthandler.dump_traceback_later(TEST_DEADLINE_S, exit=True)
    yield
    faulthandler.cancel_dump_traceback_later()


@pytest.fixture(scope="session")
def trajectory_small():
    """1000-point Example 1 trajectory."""
    return moving_object_dataset(n=1000)


@pytest.fixture(scope="session")
def power_load_small():
    """1500-point Example 2 load series."""
    return power_load_dataset(n=1500)


@pytest.fixture(scope="session")
def http_traffic_small():
    """1000-point Example 3 traffic series."""
    return http_traffic_dataset(n=1000)


@pytest.fixture
def linear_2d_config():
    """Linear 2-D DKF config at the paper's reference precision."""
    return DKFConfig(model=linear_model(dims=2, dt=0.1), delta=3.0)


@pytest.fixture
def constant_2d_config():
    return DKFConfig(model=constant_model(dims=2), delta=3.0)


@pytest.fixture
def sinusoidal_config():
    omega = 2 * math.pi / 24
    return DKFConfig(
        model=sinusoidal_model(omega=omega, theta=-8 * omega), delta=50.0
    )


@pytest.fixture
def ramp_stream():
    """A perfectly linear scalar ramp: the linear model's best case."""
    return stream_from_values(np.arange(200, dtype=float) * 2.0, name="ramp")


@pytest.fixture
def constant_stream():
    """A constant scalar stream: every scheme's best case."""
    return stream_from_values(np.full(200, 42.0), name="flat")
