import pytest
from hypothesis import settings

from lodua import FPModule, IdealData, is_pro_trivial, make_ring
from lodua.towers import KoszulTensorStages

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


def koszul_homology_tower(ring, gens, i):
    """H_i(Kos(x^k)) for k = 1, 2, ...: the Koszul-stage tower of A^1."""
    return KoszulTensorStages(FPModule.free(ring, 1), gens).tower(i)


def koszul_pro_trivial(ring, gens, stage_bound, lag):
    """{i: is_pro_trivial verdict} on H_i(Kos(x^k)), 0 < i <= n, within
    the bounds: bounded evidence of weak proregularity.  Over a completion
    the towers are built over the underlying ring; completion is flat, so
    they base-change, and at finite precision every generator would be a
    zerodivisor."""
    base = ring.underlying()
    stages = KoszulTensorStages(FPModule.free(base, 1),
                                [base.el(ring.el(g)) for g in gens])
    return {i: is_pro_trivial(stages.tower(i), lag=lag,
                              stage_bound=stage_bound)
            for i in range(1, len(gens) + 1)}
