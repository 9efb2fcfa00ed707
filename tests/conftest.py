import pytest
from hypothesis import settings

from lodua import FPModule, IdealData, make_ring

# Host speed drifts by up to 1.8x, so a per-example deadline would make the
# suite flaky; derandomized runs draw the same examples every time.
settings.register_profile("lodua", deadline=None, derandomize=True)
settings.load_profile("lodua")


@pytest.fixture(scope="session")
def ZZ():
    return make_ring({"base": "Z"})


@pytest.fixture(scope="session")
def QQxy():
    return make_ring({"base": "Q", "vars": ["x", "y"]})


@pytest.fixture(scope="session")
def F2xy():
    return make_ring({"base": "Fp", "p": 2, "vars": ["x", "y"]})


@pytest.fixture(scope="session")
def Z5hat():
    return make_ring({"base": "Z", "completion": {"ideal": ["5"], "precision": 20}})


@pytest.fixture(scope="session")
def d5(ZZ):
    return IdealData(ZZ, [5])


@pytest.fixture(scope="session")
def dxy(QQxy):
    return IdealData(QQxy, ["x", "y"])


def zmod(ring, n):
    return FPModule.cyclic(ring, [n])
