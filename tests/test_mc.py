import math

import numpy as np
import pytest
from scipy import stats

from hestoncir import (
    CirRateParams,
    HestonParams,
    McConfig,
    PricingError,
    QuadratureConfig,
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
from hestoncir import heston, mc
from hestoncir.numerics import QuadratureResult


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


# (Heston parameters, CIR rate, T, K): the mc_verify band, T = 30, and a
# Feller-violating sigma with |rho| = 0.9
CURVE_MARKETS = {
    "band": ((1.75, 0.045, 0.45, -0.65, 0.04), (1.25, 0.03, 0.1, 0.03),
             1.2, 103.0),
    "T30": ((1.0, 0.04, 0.2, -0.5, 0.04), (1.8, 0.03, 0.1, 0.035), 30.0,
            120.0),
    "feller": ((0.8, 0.12, 1.0, -0.9, 0.15), (0.5, 0.03, 0.3, 0.035), 2.0,
               95.0),
}


def _curve_market(name, kind="call"):
    (kappa, theta, sigma, rho, v0), rate, T, K = CURVE_MARKETS[name]
    p = HestonParams(mu=rate[3], kappa=kappa, theta=theta, sigma=sigma,
                     rho=rho, v0=v0)
    return VanillaOption(100.0, K, T, kind), p, CirRateParams(*rate)


def _curve_rates(opt, rp):
    """A draw of averaged rates and the 21 rates its curve is priced at:
    17 Chebyshev nodes on the draw's range and 4 quantile probes."""
    rbars = simulate_average_rates(rp, opt.maturity,
                                   McConfig(paths=2_000, steps=20, seed=5))
    lo, hi = rbars.min(), rbars.max()
    nodes = 0.5 * (lo + hi) + 0.5 * (hi - lo) * np.cos(
        np.pi * np.arange(17) / 16)
    probes = np.quantile(rbars, [0.05, 0.35, 0.65, 0.95])
    return rbars, np.concatenate([nodes, probes])


class TestRateVectorRoute:
    @pytest.mark.parametrize("kind", ["call", "put"])
    @pytest.mark.parametrize("market", sorted(CURVE_MARKETS))
    def test_matches_the_scalar_pricer_at_every_curve_rate(self, market,
                                                           kind):
        opt, p, rp = _curve_market(market, kind)
        _, rates = _curve_rates(opt, rp)
        got = heston_call_price(opt, p, rates)
        want = np.array([heston_call_price(opt, p, r) for r in rates])
        assert got.shape == (21,)
        assert np.max(np.abs(got - want)) <= 1e-12 * opt.s0

    def test_a_column_short_of_budget_names_T_and_the_rates(self):
        opt, p, rp = _curve_market("band")
        _, rates = _curve_rates(opt, rp)
        with pytest.raises(PricingError, match="did not converge") as err:
            heston_call_price(opt, p, rates, QuadratureConfig(max_evals=120))
        assert "T=1.2, r in [%.6g, %.6g]" % (rates.min(), rates.max()) \
            in str(err.value)

    def test_a_column_with_a_negative_call_names_T_and_the_rates(
            self, monkeypatch):
        # one column's integral is spoiled into a call of -S0; the other
        # 20 are left as computed
        opt, p, rp = _curve_market("feller")
        _, rates = _curve_rates(opt, rp)
        real = heston.integrate_half_line

        def spoiled(f, cfg):
            res = real(f, cfg)
            value = res.value.copy()
            value[7] += 2.0 * np.pi * (opt.s0 + opt.strike)
            return QuadratureResult(value, res.error_estimate,
                                    res.evaluations, res.converged)

        monkeypatch.setattr(heston, "integrate_half_line", spoiled)
        with pytest.raises(PricingError, match="negative call") as err:
            heston_call_price(opt, p, rates)
        assert "T=2, r in [" in str(err.value)


class TestPriceCurveInRate:
    def test_one_integral_and_no_scalar_prices(self, monkeypatch):
        opt, p, rp = _curve_market("band")
        rbars, _ = _curve_rates(opt, rp)
        integrals, priced = [], []
        real_integral, real_price = heston.integrate_half_line, \
            mc.heston_call_price

        def counting(f, cfg):
            integrals.append(f)
            return real_integral(f, cfg)

        def vector_only(opt_, p_, r, cfg):
            assert isinstance(r, np.ndarray), "a rate priced on its own"
            priced.append(r.size)
            return real_price(opt_, p_, r, cfg)

        monkeypatch.setattr(heston, "integrate_half_line", counting)
        monkeypatch.setattr(mc, "heston_call_price", vector_only)
        prices = mc._price_curve_in_rate(opt, p, rbars, QuadratureConfig())
        assert len(integrals) == 1 and priced == [21]
        monkeypatch.undo()
        for i in (0, 777, 1999):
            assert abs(prices[i] - heston_call_price(opt, p, rbars[i])) \
                <= 1e-8 * opt.s0

    def test_a_missed_probe_prices_every_rate_in_blocks(self, monkeypatch):
        # spoil the probes of the first call: every rate is then priced
        # exactly, by the same route, at most _RATE_BLOCK columns a call
        opt, p, rp = _curve_market("band", "put")
        rbars, _ = _curve_rates(opt, rp)
        rbars = rbars[:150]
        real = mc.heston_call_price
        sizes = []

        def first_probes_off(opt_, p_, rates, cfg):
            sizes.append(len(rates))
            out = real(opt_, p_, rates, cfg)
            return out + 1.0 * (len(sizes) == 1) * (np.arange(out.size) > 16)

        monkeypatch.setattr(mc, "heston_call_price", first_probes_off)
        prices = mc._price_curve_in_rate(opt, p, rbars, QuadratureConfig())
        assert sizes[0] == 21
        assert sum(sizes[1:]) == 150
        assert max(sizes[1:]) <= mc._RATE_BLOCK
        want = [heston_call_price(opt, p, r) for r in rbars]
        assert np.max(np.abs(prices - want)) <= 1e-12 * opt.s0
