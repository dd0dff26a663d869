import math
import sys
import threading

import mpmath
import numpy as np
import pytest

from hestoncir import hybrid
from hestoncir import (
    CirRateParams,
    HestonParams,
    VanillaOption,
    cir_bond_price,
    deterministic_average_rate,
    heston_call_price,
    hybrid_call_price,
    hybrid_price_with_diagnostics,
    rate_kernel,
)


def _textbook_bond(rp, t):
    """Closed-form CIR zero-coupon bond A(t) exp(-B(t) r0)."""
    gamma = math.sqrt(rp.kappa_r ** 2 + 2.0 * rp.sigma_r ** 2)
    denom = (gamma + rp.kappa_r) * math.expm1(gamma * t) + 2.0 * gamma
    a = (2.0 * gamma * math.exp((rp.kappa_r + gamma) * t / 2.0)
         / denom) ** (2.0 * rp.kappa_r * rp.theta_r / rp.sigma_r ** 2)
    b = 2.0 * math.expm1(gamma * t) / denom
    return a * math.exp(-b * rp.r0)


def _mp_rate_kernel(l, t, rp):
    """50-digit reference for the six rate-side kernel quantities."""
    mpmath.mp.dps = 50
    sig2 = mpmath.mpf(rp.sigma_r) ** 2
    ratio = mpmath.mpf(rp.kappa_r) ** 2 / sig2
    q = 2 * rp.kappa_r * rp.theta_r / sig2
    il = mpmath.mpc(0, 1) * l
    nu = 0.5 * rp.sigma_r * mpmath.sqrt(ratio + 2 * il)
    om = 0.5 * rp.sigma_r * mpmath.sqrt(ratio + 2 * (il + 1))

    def amp_and_exp(w):
        amp = 1 / (mpmath.cosh(w * t)
                   + rp.kappa_r / (2 * w) * mpmath.sinh(w * t))
        e = (-(2 * w * rp.r0 / sig2)
             * (mpmath.cosh(w * t) - amp) / mpmath.sinh(w * t)
             + q * mpmath.log(amp))
        return amp, e

    m, theta = amp_and_exp(nu)
    n, upsilon = amp_and_exp(om)
    return {"nu_r": complex(nu), "omega_r": complex(om),
            "big_m_r": complex(m), "big_n_r": complex(n),
            "theta_exp": complex(theta), "upsilon_exp": complex(upsilon)}


class TestBondPrice:
    @pytest.mark.parametrize("t", [0.5, 1.0, 5.0, 30.0])
    def test_fast_reverting_rate_vs_textbook(self, fig1_rate, t):
        assert cir_bond_price(fig1_rate, t) == pytest.approx(
            _textbook_bond(fig1_rate, t), abs=1e-10)

    @pytest.mark.parametrize("t", [0.5, 1.0, 5.0, 30.0])
    def test_slow_volatile_rate_vs_textbook(self, fig2_rate, t):
        assert cir_bond_price(fig2_rate, t) == pytest.approx(
            _textbook_bond(fig2_rate, t), abs=1e-10)

    def test_bounds(self, fig1_rate):
        for t in (0.1, 1.0, 10.0, 30.0):
            p = cir_bond_price(fig1_rate, t)
            assert 0.0 < p < 1.0

    def test_small_vol_limit_matches_ode_rate(self):
        rp = CirRateParams(kappa_r=1.8, theta_r=0.03, sigma_r=1e-5,
                           r0=0.035)
        det = math.exp(-deterministic_average_rate(rp, 2.0) * 2.0)
        assert cir_bond_price(rp, 2.0) == pytest.approx(det, rel=1e-6)

    def test_read_through_rate_memo(self, fig1_heston, fig1_rate,
                                    core_memo, monkeypatch):
        cold = cir_bond_price(fig1_rate, 1.0)
        for k in (90.0, 110.0):
            hybrid_call_price(VanillaOption(100.0, k, 1.0), fig1_heston,
                              fig1_rate)

        def no_rate_cores(*args):
            raise AssertionError("l = 0 should come from the rate table")

        monkeypatch.setattr(hybrid, "_rate_cores", no_rate_cores)
        assert cir_bond_price(fig1_rate, 1.0) == cold

    def test_zero_vol_rejected(self):
        rp = CirRateParams(kappa_r=1.8, theta_r=0.03, sigma_r=0.0,
                           r0=0.035)
        with pytest.raises(ValueError):
            cir_bond_price(rp, 1.0)


class TestDeterministicAverageRate:
    def test_long_horizon_forgets_r0(self, fig1_rate):
        assert deterministic_average_rate(fig1_rate, 1e4) == pytest.approx(
            fig1_rate.theta_r, rel=1e-3)

    def test_short_horizon_stays_at_r0(self, fig1_rate):
        assert deterministic_average_rate(fig1_rate, 1e-8) == pytest.approx(
            fig1_rate.r0, rel=1e-6)


class TestRateKernel:
    def test_nu_at_origin_is_half_kappa(self, fig2_rate):
        terms = rate_kernel(0.0, 1.0, fig2_rate)
        assert complex(terms.nu_r) == pytest.approx(
            fig2_rate.kappa_r / 2.0, abs=1e-15)

    def test_omega_at_origin(self, fig2_rate):
        rp = fig2_rate
        expected = 0.5 * rp.sigma_r * math.sqrt(
            rp.kappa_r ** 2 / rp.sigma_r ** 2 + 2.0)
        assert complex(rate_kernel(0.0, 1.0, rp).omega_r) == pytest.approx(
            expected, abs=1e-15)

    @pytest.mark.parametrize("l", [0.5, 1.0, 7.0])
    def test_against_multiprecision(self, fig2_rate, l):
        terms = rate_kernel(l, 1.0, fig2_rate)
        ref = _mp_rate_kernel(l, 1.0, fig2_rate)
        for name, want in ref.items():
            got = complex(np.asarray(getattr(terms, name)).reshape(()))
            assert got == pytest.approx(want, rel=1e-12), name

    def test_strike_exponent_at_origin_is_log_bond(self, fig1_rate):
        terms = rate_kernel(0.0, 1.0, fig1_rate)
        kap_a = fig1_rate.kappa_r / fig1_rate.sigma_r ** 2 * terms.a_r
        log_bond = complex(np.asarray(kap_a
                                      + terms.upsilon_exp).reshape(()))
        assert abs(log_bond.imag) < 1e-12
        assert math.exp(log_bond.real) == pytest.approx(
            cir_bond_price(fig1_rate, 1.0), rel=1e-13)


class TestHybridPrice:
    def test_deep_in_the_money_limit(self, fig1_heston, fig1_rate):
        opt = VanillaOption(100.0, 1e-8, 1.0)
        assert hybrid_call_price(opt, fig1_heston, fig1_rate) == \
            pytest.approx(100.0, abs=1e-6)

    def test_small_rate_vol_reduces_to_deterministic(self, fig1_heston,
                                                     atm_option):
        rp = CirRateParams(kappa_r=1.8, theta_r=0.03, sigma_r=1e-5,
                           r0=0.035)
        r_det = deterministic_average_rate(rp, 1.0)
        ref = heston_call_price(atm_option, fig1_heston, r_det)
        assert hybrid_call_price(atm_option, fig1_heston, rp) == \
            pytest.approx(ref, rel=1e-4)

    def test_zero_rate_vol_uses_deterministic_branch(self, fig1_heston,
                                                     atm_option):
        rp = CirRateParams(kappa_r=1.8, theta_r=0.03, sigma_r=0.0,
                           r0=0.035)
        r_det = deterministic_average_rate(rp, 1.0)
        assert hybrid_call_price(atm_option, fig1_heston, rp) == \
            heston_call_price(atm_option, fig1_heston, r_det)

    @pytest.mark.parametrize("strike", [80.0, 100.0, 120.0])
    def test_put_call_parity_with_bond_discount(self, fig1_heston,
                                                fig1_rate, strike):
        call = hybrid_call_price(VanillaOption(100.0, strike, 1.0, "call"),
                                 fig1_heston, fig1_rate)
        put = hybrid_call_price(VanillaOption(100.0, strike, 1.0, "put"),
                                fig1_heston, fig1_rate)
        parity = 100.0 - strike * cir_bond_price(fig1_rate, 1.0)
        assert call - put == pytest.approx(parity, abs=1e-9)

    def test_bounds_and_monotonicity(self, fig1_heston, fig2_rate):
        bond = cir_bond_price(fig2_rate, 1.0)
        strikes = np.linspace(60.0, 140.0, 17)
        prices = [hybrid_call_price(VanillaOption(100.0, k, 1.0),
                                    fig1_heston, fig2_rate)
                  for k in strikes]
        for k, c in zip(strikes, prices):
            assert max(100.0 - k * bond, 0.0) - 1e-9 <= c <= 100.0
        assert all(a > b for a, b in zip(prices, prices[1:]))

    def test_fast_mean_reversion_pins_long_run_rate(self, fig1_heston,
                                                    atm_option):
        # with kappa_r large the rate spends the whole horizon at
        # theta_r, so that constant-rate price is the better proxy
        rp = CirRateParams(kappa_r=50.0, theta_r=0.03, sigma_r=0.1,
                           r0=0.035)
        hyb = hybrid_call_price(atm_option, fig1_heston, rp)
        at_theta = heston_call_price(atm_option, fig1_heston, rp.theta_r)
        at_r0 = heston_call_price(atm_option, fig1_heston, rp.r0)
        assert abs(hyb - at_theta) < abs(hyb - at_r0)

    def test_diagnostics_report_convergence(self, fig1_heston, fig1_rate,
                                            atm_option):
        price, res = hybrid_price_with_diagnostics(atm_option, fig1_heston,
                                                   fig1_rate)
        assert res.converged
        assert price == hybrid_call_price(atm_option, fig1_heston,
                                          fig1_rate)

    @pytest.mark.parametrize("strike", [100.0, 73.0])
    def test_memo_is_transparent(self, fig1_heston, fig1_rate, fig2_rate,
                                 core_memo, monkeypatch, strike):
        # a quote priced from warm tables takes the cold quote's path:
        # same price, value, error and evaluations, bit for bit
        opt = VanillaOption(100.0, strike, 1.0)
        cold_price, cold = hybrid_price_with_diagnostics(opt, fig1_heston,
                                                         fig1_rate)
        for k in (80.0, 100.0, 125.0):
            hybrid_call_price(VanillaOption(100.0, k, 1.0, "put"),
                              fig1_heston, fig1_rate)
            # shares the volatility table only
            hybrid_call_price(VanillaOption(100.0, k, 1.0), fig1_heston,
                              fig2_rate)
        assert len(core_memo.tables) == 3
        computed = []
        rate_cores = hybrid._rate_cores

        def counting(l, T, rp):
            computed.append(np.size(l))
            return rate_cores(l, T, rp)

        monkeypatch.setattr(hybrid, "_rate_cores", counting)
        price, res = hybrid_price_with_diagnostics(opt, fig1_heston,
                                                   fig1_rate)
        assert sum(computed) < res.evaluations   # the table served hits
        assert price == cold_price
        assert (res.value, res.error_estimate, res.evaluations) == \
            (cold.value, cold.error_estimate, cold.evaluations)

    def test_threads_share_the_memo(self, fig1_heston, fig1_rate, core_memo):
        # 5 maturities x 5 strikes x 2 models; two threads price the
        # surface in opposite orders, filling the same tables
        surface = [(model, VanillaOption(100.0, k, T))
                   for T in (0.1, 0.5, 1.0, 3.0, 10.0)
                   for k in (70.0, 90.0, 100.0, 115.0, 140.0)
                   for model in ("heston", "hybrid")]

        def price(quote):
            model, opt = quote
            if model == "heston":
                return heston_call_price(opt, fig1_heston, 0.03)
            return hybrid_call_price(opt, fig1_heston, fig1_rate)

        serial = [price(q) for q in surface]
        core_memo.clear()
        results = {}

        def worker(name, order):
            results[name] = {i: price(surface[i]) for i in order}

        threads = [threading.Thread(target=worker, args=(0, range(50))),
                   threading.Thread(target=worker,
                                    args=(1, range(49, -1, -1)))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for name in (0, 1):
            assert [results[name][i] for i in range(50)] == serial
        assert len(core_memo.tables) == 10   # both models share (p, T)
