"""Shared fixtures: stable-density profiles are expensive, build once."""
import numpy as np
import pytest

from liyau.stable import build_profile


@pytest.fixture(scope="session")
def profile_b1_d1():
    return build_profile(1.0, 1)


@pytest.fixture(scope="session")
def profile_b05_d1():
    return build_profile(0.5, 1)


@pytest.fixture(scope="session")
def profile_b15_d1():
    return build_profile(1.5, 1)


@pytest.fixture(scope="session")
def profile_b1_d2():
    return build_profile(1.0, 2)


@pytest.fixture(scope="session")
def profile_b07_d2():
    return build_profile(0.7, 2)


@pytest.fixture(scope="session")
def profile_b13_d2():
    return build_profile(1.3, 2)


@pytest.fixture(scope="session")
def profile_b1_d3():
    return build_profile(1.0, 3)


@pytest.fixture(scope="session")
def profile_b13_d3():
    return build_profile(1.3, 3)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260814)
