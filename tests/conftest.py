from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb

import pytest

from kapparec.intersect import IntersectionOracle
from kapparec.toprec import Engine, build_curve, required_order


@lru_cache(maxsize=None)
def bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n (B_1 = -1/2), from sum_{j<=n} C(n+1, j) B_j = 0:
    the reference the closed-form tests compare against."""
    if n == 0:
        return Fraction(1)
    return -sum(comb(n + 1, j) * bernoulli(j) for j in range(n)) / (n + 1)


@pytest.fixture(scope="session")
def oracle() -> IntersectionOracle:
    return IntersectionOracle()


@pytest.fixture(scope="session")
def kw_engine() -> Engine:
    return Engine(build_curve("kw", required_order(4, 2)))


@pytest.fixture(scope="session")
def k_engine() -> Engine:
    return Engine(build_curve("k", required_order(4, 2)))


@pytest.fixture(scope="session")
def j_engine() -> Engine:
    # deep enough for the one-point chain up to genus 7
    return Engine(build_curve("j", required_order(7, 1)))


@pytest.fixture(scope="session")
def bgw_engine() -> Engine:
    return Engine(build_curve("bgw", required_order(4, 2)))


@pytest.fixture(scope="session")
def weak_k_engine() -> Engine:
    return Engine(build_curve("weak-k", required_order(3, 1), n_h=7, h_weight_cap=7))


@pytest.fixture(scope="session")
def weak_j_engine() -> Engine:
    return Engine(build_curve("weak-j", required_order(3, 1), n_h=7, h_weight_cap=7))


@pytest.fixture(scope="session")
def kstar_engine() -> Engine:
    return Engine(build_curve("kstar", required_order(2, 5)))
