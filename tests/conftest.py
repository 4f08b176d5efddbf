"""Shared fixtures: SkelCL runtimes on small simulated devices.

``--hypothesis-profile=analysis-ci`` is the larger example budget the
CI ``analysis`` job fuzzes with; tier-1 runs hypothesis's default."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

import repro.skelcl as skelcl
from repro import ocl

settings.register_profile("analysis-ci", max_examples=600, deadline=None)


@pytest.fixture
def rng():
    return np.random.RandomState(12345)


@pytest.fixture
def runtime_1gpu():
    runtime = skelcl.init(num_devices=1, spec=ocl.TEST_DEVICE)
    yield runtime
    skelcl.terminate()


@pytest.fixture
def runtime_2gpu():
    runtime = skelcl.init(num_devices=2, spec=ocl.TEST_DEVICE)
    yield runtime
    skelcl.terminate()


@pytest.fixture
def runtime_4gpu():
    runtime = skelcl.init(num_devices=4, spec=ocl.TEST_DEVICE)
    yield runtime
    skelcl.terminate()


@pytest.fixture(params=["interp", "vector"])
def runtime_backend(request):
    """One-device runtime parametrized over both execution backends."""
    runtime = skelcl.init(num_devices=1, spec=ocl.TEST_DEVICE,
                          backend=request.param)
    yield runtime
    skelcl.terminate()


@pytest.fixture(params=[1, 2, 3, 4])
def runtime_multi(request):
    """Parametrized over 1-4 simulated GPUs."""
    runtime = skelcl.init(num_devices=request.param, spec=ocl.TEST_DEVICE)
    yield runtime
    skelcl.terminate()
