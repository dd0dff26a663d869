import math
import sys
import threading

import mpmath
import numpy as np
import pytest

from hestoncir import hybrid
from hestoncir.heston import _core_half
from hestoncir import (
    CirRateParams,
    HestonParams,
    QuadratureConfig,
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

    @pytest.mark.parametrize("sigma_r", [1e-6, 1e-3, 0.05, 0.1, 0.3])
    @pytest.mark.parametrize("T", [1.0 / 52.0, 1.0, 30.0])
    def test_one_stacked_call_equals_the_per_side_calls(self, sigma_r, T):
        # both rate sides in one _core_half call, bit for bit the two
        # calls it replaces
        rp = CirRateParams(kappa_r=1.8, theta_r=0.03, sigma_r=sigma_r,
                           r0=0.035)
        mag = np.geomspace(1e-6, 1e4, 301)
        l = np.concatenate([-mag[::-1], [0.0], mag])
        terms = rate_kernel(l, T, rp)
        sig2, kt = sigma_r * sigma_r, rp.kappa_r * rp.theta_r
        offset = rp.kappa_r * (rp.r0 + kt * T) / sig2
        spot, two_nu, log_pm = _core_half(2j * l, rp.kappa_r, rp.kappa_r,
                                          T, rp.r0, kt, sig2)
        strike, two_om, log_pn = _core_half(2.0 * (1j * l + 1.0),
                                            rp.kappa_r, rp.kappa_r, T,
                                            rp.r0, kt, sig2)
        want = {"nu_r": 0.5 * two_nu, "omega_r": 0.5 * two_om,
                "spot_core": spot, "strike_core": strike,
                "theta_exp": spot - offset, "upsilon_exp": strike - offset,
                "log_m_r": -0.5 * T * two_nu - log_pm,
                "log_n_r": -0.5 * T * two_om - log_pn}
        for name, value in want.items():
            assert getattr(terms, name).tobytes() == value.tobytes(), name

    def test_strike_exponent_at_origin_is_log_bond(self, fig1_rate):
        terms = rate_kernel(0.0, 1.0, fig1_rate)
        kap_a = fig1_rate.kappa_r / fig1_rate.sigma_r ** 2 * terms.a_r
        log_bond = complex(np.asarray(kap_a
                                      + terms.upsilon_exp).reshape(()))
        assert abs(log_bond.imag) < 1e-12
        assert math.exp(log_bond.real) == pytest.approx(
            cir_bond_price(fig1_rate, 1.0), rel=1e-13)


# (kappa_r, theta_r, sigma_r, r0, T, l, exp(spot rate core).real, .imag,
# exp(strike rate core).real, .imag) at 50 digits, printed by
# tests/mp_core_oracle.py
MP_RATE_CORES = (
    (1.8, 0.03, 0.1, 0.035, 1.0, 0.7,
     0.99973554421282962033, -0.022620901137425392817,
     0.96795947378210216986, -0.021878230300278777033),
    (1.8, 0.03, 0.1, 0.035, 30.0, -3.0,
     -0.89655982404852928495, 0.41484342649267606627,
     -0.36265954408614029807, 0.17137988599185636117),
    (0.5, 0.03, 0.3, 0.035, 0.02, 316.0,
     0.97526371073436700845, -0.21915477066656020952,
     0.97458234022575250534, -0.21899896136745079645),
    (0.5, 0.03, 0.3, 0.035, 10.0, 0.001,
     0.99999991234696479724, -0.00030993259335678072596,
     0.75732175128127346204, -0.00019079935833584690782),
    (0.5, 0.03, 0.3, 0.035, 5.0, -20.0,
     0.014972110544466928595, 0.39921670918011162229,
     0.028551538863073849224, 0.38131730701208712597),
    (0.2, 0.06, 0.15, 0.01, 30.0, 0.05,
     0.99622049405886900158, -0.077377503763373778843,
     0.26572787549094861139, -0.015350780316798938733),
    (3.0, 0.02, 0.05, 0.05, 0.25, -12.0,
     0.99238164685926952571, 0.12300065878527860854,
     0.98223649407089423025, 0.12173910434730758024),
    (1.8, 0.03, 0.02, 0.035, 2.0, 1.5,
     0.99557502032084320712, -0.093913717036105693239,
     0.93507021478590072111, -0.08819956899265050496),
    (1.8, 0.03, 0.003, 0.035, 0.5, -50.0,
     0.67308158990747257876, 0.73955668206931037634,
     0.66196886079548325132, 0.72734593482074604818),
    (1.8, 0.03, 0.001, 0.035, 10.0, 0.3,
     0.99587748457179493214, -0.090708478142371136156,
     0.73571771814741684209, -0.067012073862800785363),
    (1.8, 0.03, 0.0001, 0.035, 1.0, 3.16,
     0.99478958708668183786, -0.10194938486663690928,
     0.96315333968239849228, -0.098707195652734766055),
    (1.8, 0.03, 0.0001, 0.035, 0.1, -100.0,
     0.94081873565077408168, 0.33891017339907847771,
     0.93757139423763200382, 0.33774038690373563043),
    (1.8, 0.03, 7e-05, 0.035, 10.0, 0.01,
     0.99999541628434621952, -0.0030277731511958019516,
     0.73875986164714995019, -0.0022368075240625134185),
    (1.8, 0.03, 5e-05, 0.035, 1.0, -1.0,
     0.99947779903904953797, 0.032312988399622393554,
     0.96769245733543922659, 0.031285372391343463255),
    (0.9, 0.04, 6e-05, 0.02, 3.0, 7.0,
     0.7681186065381756741, -0.64030757957193715516,
     0.69552915118004185596, -0.5797966385023017558),
    (1.8, 0.03, 4.3e-05, 0.035, 0.1, 30.0,
     0.99462512648155355446, -0.10354157500570269694,
     0.99119206627050777489, -0.10318418964267687456),
    (1.8, 0.03, 4e-05, 0.035, 30.0, 0.001,
     0.99999959249616943514, -0.00090277765514930677269,
     0.40544170154784053683, -0.00036602385760348150203),
    (1.8, 0.03, 3e-05, 0.035, 5.0, -0.5,
     0.99708380038924965241, 0.076314448123914522345,
     0.85581769816134478122, 0.065502273017707084951),
    (1.8, 0.03, 1e-05, 0.035, 0.02, 316.0,
     0.9757580279688304069, -0.21885216666387632253,
     0.97507697061773922159, -0.21869941273038135483),
    (0.3, 0.05, 1e-06, 0.001, 1.0, -2.0,
     0.99988243726022996537, 0.015333351184178403192,
     0.99224567541031397642, 0.015216240264940730823),
    (1.8, 0.03, 1e-06, 0.035, 30.0, 0.01,
     0.99995924989096242261, -0.0090276551498016978672,
     0.40542534487885996843, -0.0036601893556700129234),
)


class TestRateCoreOracle:
    @pytest.mark.parametrize("row", MP_RATE_CORES)
    def test_rate_cores_match_mpmath(self, row):
        rp = CirRateParams(*row[:4])
        T, l = row[4:6]
        spot, strike = hybrid._rate_cores(np.array([l]), T, rp)
        assert abs(np.exp(spot[0]) - complex(*row[6:8])) <= 1e-12
        assert abs(np.exp(strike[0]) - complex(*row[8:10])) <= 1e-12


class TestNearDeterministicRate:
    """sigma_r from 1e-4 down to 3e-5, where the rate amplification
    2(kappa_r theta_r + r0)/sigma_r^2 runs from 1.8e7 to 2e8."""

    HESTON = HestonParams(mu=0.03, kappa=2.0, theta=0.05, sigma=0.3,
                          rho=-0.7, v0=0.03)
    CFG = QuadratureConfig(abs_tol=1e-9, rel_tol=1e-9, max_evals=20000)

    @pytest.mark.parametrize("T", [0.1, 1.0, 10.0])
    def test_rate_effect_is_smooth_in_sigma_r_squared(self, T):
        # the price leaves the deterministic-rate price as sigma_r^2, so
        # the ratio below settles to one value for every sigma_r
        opt = VanillaOption(100.0, 105.0, T)
        ratios = []
        for sigma_r in (1e-4, 7e-5, 5e-5, 4.3e-5, 3e-5):
            rp = CirRateParams(kappa_r=1.8, theta_r=0.03, sigma_r=sigma_r,
                               r0=0.035)
            price, res = hybrid_price_with_diagnostics(opt, self.HESTON, rp,
                                                       self.CFG)
            assert res.converged
            ref = heston_call_price(opt, self.HESTON,
                                    deterministic_average_rate(rp, T),
                                    self.CFG)
            ratios.append((price - ref) / sigma_r ** 2)
        mid = float(np.median(ratios))
        assert max(ratios) - min(ratios) <= 1e-2 * abs(mid), ratios

    # hybrid_tiny quotes of the benchmark's scatter schedule: (heston
    # without lam, rate, strike, T, kind)
    TINY_QUOTES = (
        ((0.00040543014787470356, 2.4628318756165095, 0.05407509064565556,
          0.7169906920849944, 0.02081369236743147, 0.011586287031196723),
         (2.360031304607544, 0.011140762439352598, 2.8611362813568256e-05,
          0.00040543014787470356), 129.8426, 0.28214348201723066, "call"),
        ((0.00857948039591995, 2.6442460202004017, 0.015465920478789124,
          0.5282653715326026, -0.6126112644186514, 0.010291502902162325),
         (0.5054307935991265, 0.04437971884753479, 2.592429070864857e-05,
          0.00857948039591995), 78.0142, 1.9827079282736448, "call"),
        ((0.004625163656469056, 4.23753393393987, 0.017500157004760868,
          0.5016304970114276, 0.49068304813481267, 0.012261901605316285),
         (0.5928025770226899, 0.0346544135469606, 2.7652417402869578e-05,
          0.004625163656469056), 167.1025, 1.2924189015069776, "put"),
    )

    @pytest.mark.parametrize("quote", TINY_QUOTES)
    def test_scatter_tiny_rate_quotes_converge(self, quote):
        heston, rate, strike, T, kind = quote
        p, rp = HestonParams(*heston), CirRateParams(*rate)
        opt = VanillaOption(100.0, strike, T, kind)
        price, res = hybrid_price_with_diagnostics(opt, p, rp, self.CFG)
        assert res.converged
        ref = heston_call_price(opt, p, deterministic_average_rate(rp, T),
                                self.CFG)
        assert abs(price - ref) <= 1e-8


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
