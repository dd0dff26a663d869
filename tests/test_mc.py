import math

import numpy as np
import pytest
from scipy import stats

from hestoncir import (
    CirRateParams,
    HestonParams,
    McConfig,
    RngStream,
    VanillaOption,
    bs_price,
    cir_bond_price,
    cir_exact_step,
    deterministic_average_rate,
    heston_call_price,
    hybrid_call_price,
    mc_price_heston_euler,
    mc_price_hybrid,
    simulate_average_rates,
    simulate_heston_terminal,
)


class TestCirExactStep:
    def test_conditional_moments(self, fig2_rate):
        # Exact transition moments: E = theta + (r - theta) e^{-k dt},
        # Var = r s^2/k (e^{-k dt} - e^{-2k dt}) + th s^2/(2k)(1-e^{-k dt})^2
        rp, dt, n = fig2_rate, 0.25, 1_000_000
        start = np.full(n, rp.r0)
        out = cir_exact_step(start, dt, rp.kappa_r, rp.theta_r, rp.sigma_r,
                             RngStream(master_seed=11, stream_id=0))
        e = math.exp(-rp.kappa_r * dt)
        mean = rp.theta_r + (rp.r0 - rp.theta_r) * e
        var = (rp.r0 * rp.sigma_r ** 2 / rp.kappa_r * (e - e * e)
               + rp.theta_r * rp.sigma_r ** 2 / (2.0 * rp.kappa_r)
               * (1.0 - e) ** 2)
        assert abs(out.mean() - mean) <= 5.0 * math.sqrt(var / n)
        m4 = ((out - out.mean()) ** 4).mean()
        assert abs(out.var() - var) <= 5.0 * math.sqrt(
            (m4 - var ** 2) / n)

    def test_positivity(self, fig2_rate):
        # Feller fails for these parameters, yet the chi-square law keeps
        # every sample nonnegative by construction
        rp = fig2_rate
        out = np.full(100_000, rp.r0)
        rng = RngStream(master_seed=5, stream_id=0)
        for _ in range(8):
            out = cir_exact_step(out, 0.125, rp.kappa_r, rp.theta_r,
                                 rp.sigma_r, rng)
        assert np.all(out >= 0.0)

    @pytest.mark.parametrize("rp_name", ["fig1_rate", "fig2_rate"])
    def test_chapman_kolmogorov(self, rp_name, request):
        # one step of size dt must have the same law as two of dt/2
        rp = request.getfixturevalue(rp_name)
        n, dt = 200_000, 0.5
        start = np.full(n, rp.r0)
        one = cir_exact_step(start, dt, rp.kappa_r, rp.theta_r, rp.sigma_r,
                             RngStream(master_seed=21, stream_id=0))
        half = cir_exact_step(start, dt / 2, rp.kappa_r, rp.theta_r,
                              rp.sigma_r, RngStream(master_seed=22,
                                                    stream_id=0))
        two = cir_exact_step(half, dt / 2, rp.kappa_r, rp.theta_r,
                             rp.sigma_r, RngStream(master_seed=23,
                                                   stream_id=0))
        stat = stats.ks_2samp(one, two).statistic
        crit = 1.628 * math.sqrt(2.0 / n)  # 1% two-sample threshold
        assert stat <= crit

    def test_zero_vol_is_the_ode_step(self, fig1_rate):
        rp = fig1_rate
        out = cir_exact_step(0.05, 0.3, rp.kappa_r, rp.theta_r, 0.0,
                             RngStream(master_seed=0, stream_id=0))
        expected = rp.theta_r + (0.05 - rp.theta_r) * math.exp(
            -rp.kappa_r * 0.3)
        assert out == pytest.approx(expected, abs=1e-15)


class TestAverageRateSimulation:
    def test_mean_matches_deterministic_average(self, fig1_rate):
        # E[rbar] is exactly the sigma_r-independent ODE average
        n = 100_000
        draws = simulate_average_rates(fig1_rate, 1.0,
                                       McConfig(paths=n, steps=200,
                                                seed=31))
        expected = deterministic_average_rate(fig1_rate, 1.0)
        se = draws.std() / math.sqrt(n)
        assert abs(draws.mean() - expected) <= 5.0 * se

    def test_discount_factor_matches_bond_price(self, fig2_rate):
        # E[exp(-rbar T)] converges to the closed-form bond as the
        # trapezoid bias vanishes; 500 steps leave it well under 5 SE
        n = 200_000
        draws = simulate_average_rates(fig2_rate, 1.0,
                                       McConfig(paths=n, steps=500,
                                                seed=32))
        disc = np.exp(-draws)
        se = disc.std() / math.sqrt(n)
        assert abs(disc.mean() - cir_bond_price(fig2_rate, 1.0)) <= 5.0 * se

    def test_deterministic_in_seed(self, fig1_rate):
        mc = McConfig(paths=1000, steps=50, seed=7)
        a = simulate_average_rates(fig1_rate, 1.0, mc)
        b = simulate_average_rates(fig1_rate, 1.0, mc)
        assert np.array_equal(a, b)

    def test_step_refinement_is_stable(self, fig2_rate, fig1_heston,
                                       atm_option):
        # halving the time step moves the price by less than one SE
        coarse = mc_price_hybrid(atm_option, fig1_heston, fig2_rate,
                                 McConfig(paths=10_000, steps=250, seed=9))
        fine = mc_price_hybrid(atm_option, fig1_heston, fig2_rate,
                               McConfig(paths=10_000, steps=500, seed=9))
        assert abs(coarse.mean - fine.mean) <= \
            coarse.std_error + fine.std_error


class TestHybridMc:
    def test_brackets_closed_form(self, fig1_heston, fig1_rate,
                                  atm_option):
        est = mc_price_hybrid(atm_option, fig1_heston, fig1_rate,
                              McConfig(paths=10_000, steps=500, seed=41))
        ref = hybrid_call_price(atm_option, fig1_heston, fig1_rate)
        assert abs(est.mean - ref) <= 3.0 * est.std_error

    def test_zero_rate_vol_degenerates(self, fig1_heston, atm_option):
        rp = CirRateParams(kappa_r=1.8, theta_r=0.03, sigma_r=0.0,
                           r0=0.035)
        est = mc_price_hybrid(atm_option, fig1_heston, rp,
                              McConfig(paths=100, steps=10, seed=0))
        r_det = deterministic_average_rate(rp, 1.0)
        assert est.std_error == 0.0
        assert est.mean == heston_call_price(atm_option, fig1_heston,
                                             r_det)

    def test_error_scales_with_paths(self, fig1_heston, fig2_rate,
                                     atm_option):
        small = mc_price_hybrid(atm_option, fig1_heston, fig2_rate,
                                McConfig(paths=4_000, steps=100, seed=2))
        large = mc_price_hybrid(atm_option, fig1_heston, fig2_rate,
                                McConfig(paths=16_000, steps=100, seed=2))
        assert large.std_error == pytest.approx(small.std_error / 2.0,
                                                rel=0.2)


class TestHestonEulerMc:
    def test_terminal_logreturns_are_reproducible(self, fig1_heston):
        mc = McConfig(paths=5_000, steps=20, seed=13)
        a = simulate_heston_terminal(fig1_heston, 0.03, 1.0, mc)
        b = simulate_heston_terminal(fig1_heston, 0.03, 1.0, mc)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("antithetic", [False, True])
    def test_terminal_logreturns_match_plain_step_loop(self, antithetic):
        # The sampler steps in reused buffers; this loop allocates its
        # temporaries as plain expressions, with the same operation
        # order, so the samples must agree bit for bit.  sigma violates
        # Feller, so the truncation at v = 0 is exercised.
        p = HestonParams(mu=0.03, kappa=1.5, theta=0.04, sigma=0.9,
                         rho=-0.7, v0=0.04)
        mc = McConfig(paths=3_001, steps=40, seed=21, antithetic=antithetic)
        T, dt = 2.0, 2.0 / 40
        n = 3_000 if antithetic else 3_001
        gen = RngStream(21, 0).generator
        x, v = np.zeros(n), np.full(n, p.v0)
        rho_c = math.sqrt(1.0 - p.rho * p.rho)
        for _ in range(mc.steps):
            if antithetic:
                zb = gen.standard_normal((2, n // 2))
                z = np.concatenate([zb, -zb], axis=1)
            else:
                z = gen.standard_normal((2, n))
            vp = np.maximum(v, 0.0)
            sq = np.sqrt(vp) * math.sqrt(dt)
            x += (p.mu - 0.5 * vp) * dt + sq * z[0]
            v += p.kappa * (p.theta - vp) * dt \
                + p.sigma * sq * (p.rho * z[0] + rho_c * z[1])
        assert np.array_equal(simulate_heston_terminal(p, p.mu, T, mc), x)

    def test_martingale_property(self, fig1_heston):
        # E[S_T / S0] = exp(mu T) under the simulated dynamics
        mc = McConfig(paths=400_000, steps=100, seed=14)
        x = simulate_heston_terminal(fig1_heston, 0.03, 1.0, mc)
        growth = np.exp(x)
        se = growth.std() / math.sqrt(x.size)
        assert abs(growth.mean() - math.exp(0.03)) <= 4.0 * se

    def test_drift_adjusted_mean_matches_variance_integral(self,
                                                           fig1_heston):
        # the samples are ln(S_T/S0) with the drift mu T; the paper's
        # x_T = ln(S_T/S0) - mu T that marginal_density describes has
        # E[x_T] = -1/2 int_0^T E[v_t] dt.  Raw x misses it by ~45 SE.
        p, T = fig1_heston, 1.0
        mc = McConfig(paths=100_000, steps=50, seed=18)
        x_t = simulate_heston_terminal(p, p.mu, T, mc) - p.mu * T
        expected = -0.5 * (p.theta * T + (p.v0 - p.theta)
                           * -math.expm1(-p.kappa * T) / p.kappa)
        se = x_t.std() / math.sqrt(x_t.size)
        assert abs(x_t.mean() - expected) <= 4.0 * se

    def test_flat_variance_limit_matches_black_scholes(self, atm_option):
        # sigma tiny and v0 = theta freeze the variance at 0.04, where
        # the Euler scheme has no drift-discretization bias in the vol
        p = HestonParams(mu=0.03, kappa=1.0, theta=0.04, sigma=1e-6,
                         rho=0.0, v0=0.04)
        est = mc_price_heston_euler(atm_option, p, 0.03,
                                    McConfig(paths=200_000, steps=50,
                                             seed=15))
        ref = bs_price(atm_option, 0.03, 0.2)
        assert abs(est.mean - ref) <= 3.0 * est.std_error

    def test_prices_heston_within_error_bars(self, fig1_heston,
                                             atm_option):
        est = mc_price_heston_euler(atm_option, fig1_heston, 0.03,
                                    McConfig(paths=200_000, steps=250,
                                             seed=16))
        ref = heston_call_price(atm_option, fig1_heston, 0.03)
        assert abs(est.mean - ref) <= 3.5 * est.std_error

    def test_antithetic_reduces_error(self, fig1_heston, atm_option):
        plain = mc_price_heston_euler(atm_option, fig1_heston, 0.03,
                                      McConfig(paths=100_000, steps=50,
                                               seed=17))
        anti = mc_price_heston_euler(atm_option, fig1_heston, 0.03,
                                     McConfig(paths=100_000, steps=50,
                                              seed=17, antithetic=True))
        assert anti.std_error < plain.std_error
