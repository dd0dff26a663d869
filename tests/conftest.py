import pytest

from hestoncir import CirRateParams, HestonParams, VanillaOption


@pytest.fixture
def fig1_heston():
    """Baseline volatility-process parameters used across the suite."""
    return HestonParams(mu=0.03, kappa=1.0, theta=0.04, sigma=0.2,
                        rho=-0.5, v0=0.04)


@pytest.fixture
def fig1_rate():
    return CirRateParams(kappa_r=1.8, theta_r=0.03, sigma_r=0.1, r0=0.035)


@pytest.fixture
def fig2_rate():
    return CirRateParams(kappa_r=0.5, theta_r=0.03, sigma_r=0.3, r0=0.035)


@pytest.fixture
def atm_option():
    return VanillaOption(s0=100.0, strike=100.0, maturity=1.0)


@pytest.fixture
def core_memo():
    """The exponent-core memo, emptied before and after the test."""
    from hestoncir.heston import _MEMO
    _MEMO.clear()
    yield _MEMO
    _MEMO.clear()
